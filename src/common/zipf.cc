#include "common/zipf.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace pstore {
namespace {

// Guide-table slices of [0, 1]. A power of two, so u * kGuideSlices is
// exact and no draw is rounded into a neighbouring slice.
constexpr uint64_t kGuideSlices = uint64_t{1} << 16;

}  // namespace

ZipfGenerator::ZipfGenerator(uint64_t n, double theta)
    : n_(n), theta_(theta) {
  PSTORE_CHECK(n_ >= 1);
  PSTORE_CHECK(n_ <= std::numeric_limits<uint32_t>::max());
  PSTORE_CHECK(theta_ >= 0.0);
  cdf_.resize(n_);
  double sum = 0.0;
  for (uint64_t r = 0; r < n_; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), theta_);
    cdf_[r] = sum;
  }
  for (double& v : cdf_) v /= sum;
  guide_.resize(kGuideSlices + 1);
  uint64_t rank = 0;
  for (uint64_t j = 0; j <= kGuideSlices; ++j) {
    const double edge =
        static_cast<double>(j) / static_cast<double>(kGuideSlices);
    while (rank < n_ && cdf_[rank] < edge) ++rank;
    guide_[j] = static_cast<uint32_t>(rank);
  }
}

uint64_t ZipfGenerator::NextRank(Rng& rng) const {
  return RankOf(rng.NextDouble());
}

uint64_t ZipfGenerator::RankOf(double u) const {
  // u * kGuideSlices is exact, so slice j holds every u in
  // [j, j + 1) / kGuideSlices and the first cdf entry >= u lies in
  // [guide_[j], guide_[j + 1]]; u == 1 belongs to the last slice.
  const uint64_t j =
      std::min(static_cast<uint64_t>(u * static_cast<double>(kGuideSlices)),
               kGuideSlices - 1);
  const auto first = cdf_.begin() + guide_[j];
  const auto last = cdf_.begin() + guide_[j + 1];
  return static_cast<uint64_t>(std::lower_bound(first, last, u) -
                               cdf_.begin());
}

uint64_t ZipfGenerator::NextKey(Rng& rng) const {
  // Fibonacci-hash scatter: bijective over 2^64, then reduced mod n.
  // Collisions from the mod reduction only merge popularity mass, never
  // lose keys.
  const uint64_t rank = NextRank(rng);
  return (rank * 0x9e3779b97f4a7c15ULL) % n_;
}

}  // namespace pstore
