#ifndef PSTORE_COMMON_ZIPF_H_
#define PSTORE_COMMON_ZIPF_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace pstore {

// Zipf-distributed sampler over [0, n): rank r is drawn with probability
// proportional to 1 / (r+1)^theta. theta = 0 is uniform; theta ~ 0.99 is
// the classic YCSB default; larger is more skewed. Exact: a draw's rank is
// the first whose entry in the precomputed CDF is >= the uniform value
// (O(n) setup). A closed-form model of the CDF proposes that rank and,
// where its measured error cannot change the answer, certifies it without
// reading the CDF; the first few hundred ranks and undecided draws search
// the CDF from the proposal (DESIGN.md, "Zipf draws").
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
  // The model's values for cdf_[r - 1] and cdf_[r], from r and its
  // summand 1 / (r+1)^theta.
  struct ModelPair {
    double below;
    double above;
  };
  ModelPair Model(uint64_t r, double summand) const;
  // The first rank whose cdf_ entry is >= u, searched outward from start.
  uint64_t SearchFrom(uint64_t start, double u) const;

  uint64_t n_;
  double theta_;
  std::vector<double> cdf_;
  // The model: (Euler-Maclaurin sum + constant_) * inv_total_, where
  // total_ is the unnormalised CDF's last entry.
  double total_ = 1.0;
  double inv_total_ = 1.0;
  double constant_ = 0.0;
  double inv_one_minus_theta_ = 1.0;  // unused at theta == 1
  // The model's largest distance from cdf_ over the ranks RankOf
  // certifies, plus a rounding margin; infinite when that distance is too
  // large (or NaN) to certify anything.
  double epsilon_ = std::numeric_limits<double>::infinity();
};

}  // namespace pstore

#endif  // PSTORE_COMMON_ZIPF_H_
