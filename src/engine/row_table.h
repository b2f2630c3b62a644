#ifndef PSTORE_ENGINE_ROW_TABLE_H_
#define PSTORE_ENGINE_ROW_TABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "engine/table.h"

namespace pstore {

// The rows of one table within one bucket: an open-addressed hash table
// from key to Row, the pair stored inline in one slot array, so a lookup
// is a multiply, one indexed load and a short linear probe. A bucket
// holds kMaxTables of these, most of them empty, so the header is kept
// to 16 bytes and an empty table allocates nothing:
//   * any capacity: the home slot is a multiply-high range reduction of a
//     Fibonacci hash, so growth need not double;
//   * growth by 1.25x at load 0.8, which bounds the slack memory per row;
//   * one allocation per table, the occupancy bytes behind the slots;
//   * backward-shift erase, so there are no tombstones and a miss stops
//     at the first empty slot.
//
// Rows move when the table grows or an erase shifts its neighbours back,
// so a Row* from Find or Insert is valid only until the next Insert or
// Erase on this table.
class RowTable {
 public:
  RowTable() = default;
  // A moved-from table is empty: the array and the counts that size it
  // travel together.
  RowTable(RowTable&& other) noexcept
      : slots_(std::move(other.slots_)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  RowTable& operator=(RowTable&& other) noexcept {
    slots_ = std::move(other.slots_);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
    return *this;
  }
  RowTable(const RowTable&) = delete;
  RowTable& operator=(const RowTable&) = delete;

  // The row stored under `key`, or nullptr.
  const Row* Find(uint64_t key) const {
    if (size_ == 0) return nullptr;
    const uint8_t* used = Used();
    for (uint32_t i = HomeSlot(key, capacity_); used[i] != 0; i = Next(i)) {
      if (slots_[i].key == key) return &slots_[i].row;
    }
    return nullptr;
  }
  Row* Find(uint64_t key) {
    return const_cast<Row*>(std::as_const(*this).Find(key));
  }

  // Asks the cache for `key`'s home slot and its occupancy byte, where
  // Find starts. A table that never allocated has neither.
  void Prefetch(uint64_t key) const {
    if (capacity_ == 0) return;
    const uint32_t home = HomeSlot(key, capacity_);
    __builtin_prefetch(&slots_[home]);
    __builtin_prefetch(Used() + home);
  }

  // Stores `row` under `key` unless the key is already present. Returns
  // the stored row (the existing one when nothing was inserted) and
  // whether an insert happened.
  std::pair<Row*, bool> Insert(uint64_t key, const Row& row);

  // Removes `key`; returns the removed row, or nothing if it was absent.
  std::optional<Row> Erase(uint64_t key);

  // The slot `key` probes first in a table of `capacity` slots.
  static uint32_t HomeSlot(uint64_t key, uint32_t capacity) {
    const uint64_t hash = key * 0x9e3779b97f4a7c15ULL;
    return static_cast<uint32_t>(((hash >> 32) * capacity) >> 32);
  }

 private:
  struct Slot {
    uint64_t key = 0;
    Row row;
  };

  // One byte per slot, 1 where that slot holds a row. The bytes live in
  // the allocation's trailing Slots, behind the capacity_ real ones.
  const uint8_t* Used() const {
    return reinterpret_cast<const uint8_t*>(slots_.get() + capacity_);
  }
  uint8_t* Used() {
    return reinterpret_cast<uint8_t*>(slots_.get() + capacity_);
  }
  uint32_t Next(uint32_t i) const { return i + 1 == capacity_ ? 0 : i + 1; }
  // The first empty slot on `key`'s probe path; `key` must be absent.
  uint32_t FreeSlotFor(uint64_t key) const;
  // Reallocates at the next capacity and reinserts every row.
  void Grow();

  std::unique_ptr<Slot[]> slots_;
  uint32_t size_ = 0;
  uint32_t capacity_ = 0;
};

}  // namespace pstore

#endif  // PSTORE_ENGINE_ROW_TABLE_H_
