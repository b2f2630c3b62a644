#include "engine/row_table.h"

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "engine/table.h"

namespace pstore {
namespace {

// Slots of a table's first allocation; it holds three rows.
constexpr uint32_t kMinCapacity = 4;

// Whether `rows` rows fit in `capacity` slots at the maximum load, 0.8.
// The headroom keeps an empty slot on every probe path.
bool Fits(uint64_t rows, uint64_t capacity) {
  return 5 * rows <= 4 * capacity;
}

}  // namespace

uint32_t RowTable::FreeSlotFor(uint64_t key) const {
  const uint8_t* used = Used();
  uint32_t i = HomeSlot(key, capacity_);
  while (used[i] != 0) i = Next(i);
  return i;
}

std::pair<Row*, bool> RowTable::Insert(uint64_t key, const Row& row) {
  uint32_t slot = 0;
  if (capacity_ != 0) {
    const uint8_t* used = Used();
    for (slot = HomeSlot(key, capacity_); used[slot] != 0; slot = Next(slot)) {
      if (slots_[slot].key == key) return {&slots_[slot].row, false};
    }
  }
  if (!Fits(uint64_t{size_} + 1, capacity_)) {
    Grow();
    slot = FreeSlotFor(key);
  }
  Used()[slot] = 1;
  slots_[slot] = Slot{key, row};
  ++size_;
  return {&slots_[slot].row, true};
}

std::optional<Row> RowTable::Erase(uint64_t key) {
  if (size_ == 0) return std::nullopt;
  uint8_t* used = Used();
  uint32_t hole = HomeSlot(key, capacity_);
  for (;; hole = Next(hole)) {
    if (used[hole] == 0) return std::nullopt;
    if (slots_[hole].key == key) break;
  }
  const Row erased = slots_[hole].row;
  // Backward shift: walk the rest of the probe run and move into the
  // hole every row whose home lies at or before it, so each row stays
  // reachable from its home without tombstones.
  for (uint32_t j = Next(hole); used[j] != 0; j = Next(j)) {
    const uint32_t home = HomeSlot(slots_[j].key, capacity_);
    const uint32_t from_home = j >= home ? j - home : capacity_ - home + j;
    const uint32_t from_hole = j >= hole ? j - hole : capacity_ - hole + j;
    if (from_home >= from_hole) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  used[hole] = 0;
  --size_;
  return erased;
}

void RowTable::Grow() {
  // 1.25x, rounded up: from kMinCapacity on, one step always makes room
  // for the row that triggered it.
  const uint64_t capacity =
      capacity_ == 0 ? kMinCapacity
                     : uint64_t{capacity_} + (uint64_t{capacity_} + 3) / 4;
  PSTORE_CHECK(capacity <= std::numeric_limits<uint32_t>::max());
  // The occupancy bytes ride in trailing Slots of the same allocation:
  // one allocation per table keeps the small occupancy arrays from
  // pinning the heap between slot arrays as tables grow.
  const uint64_t used_slots = (capacity + sizeof(Slot) - 1) / sizeof(Slot);
  RowTable grown;
  grown.slots_ = std::make_unique<Slot[]>(capacity + used_slots);
  grown.capacity_ = static_cast<uint32_t>(capacity);
  uint8_t* used = grown.Used();
  std::memset(used, 0, capacity);
  const uint8_t* old_used = Used();
  for (uint32_t i = 0; i < capacity_; ++i) {
    if (old_used[i] == 0) continue;
    const uint32_t slot = grown.FreeSlotFor(slots_[i].key);
    used[slot] = 1;
    grown.slots_[slot] = slots_[i];
  }
  grown.size_ = size_;
  *this = std::move(grown);
}

}  // namespace pstore
