#ifndef PSTORE_COMMON_ZIPF_H_
#define PSTORE_COMMON_ZIPF_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace pstore {

// Zipf-distributed sampler over [0, n): rank r is drawn with probability
// proportional to 1 / (r+1)^theta. theta = 0 is uniform; theta ~ 0.99 is
// the classic YCSB default; larger is more skewed. Uses the
// precomputed-CDF + binary-search method (O(n) setup), which is exact.
// A guide table splits [0, 1] into 2^16 equal slices and records the
// first rank of each, so a draw searches only the few ranks its slice
// spans instead of the whole CDF.
//
// Hot ranks are scattered over the key space by a multiplicative hash so
// that "popular" keys do not cluster in contiguous buckets.
class ZipfGenerator {
 public:
  // Requires 1 <= n <= 2^32 - 1.
  ZipfGenerator(uint64_t n, double theta);

  // Draws a rank in [0, n): rank 0 is the most popular.
  uint64_t NextRank(Rng& rng) const;

  // The rank a uniform value u in [0, 1] maps to: the first rank whose
  // cumulative probability is >= u. NextRank is RankOf(NextDouble()).
  uint64_t RankOf(double u) const;

  // Draws a key in [0, n): the rank scattered over the key space, so
  // popularity is spread across buckets/partitions.
  uint64_t NextKey(Rng& rng) const;

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }
  // Cumulative probability of ranks [0, r], indexed by r.
  const std::vector<double>& cdf() const { return cdf_; }

 private:
  uint64_t n_;
  double theta_;
  std::vector<double> cdf_;
  // guide_[j]: the first rank whose cdf is >= j / 2^16, for j in [0, 2^16].
  std::vector<uint32_t> guide_;
};

}  // namespace pstore

#endif  // PSTORE_COMMON_ZIPF_H_
