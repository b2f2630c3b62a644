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

// Ranks [0, kHead] are left to the search: the model's error is largest
// there, and their 2 KB of cdf_ stays in cache.
constexpr uint64_t kHead = 256;

// Added to the model's measured error, so that the rounding of the
// certificate's own sums cannot accept a wrong rank (DESIGN.md).
constexpr double kRoundingMargin = 0x1p-50;

// The rounding argument assumes a small error; past this bound the model
// certifies nothing and every draw searches.
constexpr double kMaxModelError = 0x1p-20;

// Rank r's unnormalised probability. The constructor and RankOf both
// call this, so a rank's summand has the same bits in each.
double Summand(uint64_t r, double theta) {
  return 1.0 / std::pow(static_cast<double>(r + 1), theta);
}

// H(m) - C for m = r + 1, where H(m) = sum_{k <= m} k^-theta, to
// Euler-Maclaurin order m^(-theta-1):
//   m^(1-theta) / (1-theta) + s / 2 - theta s / (12 m)   (log m at theta 1)
// with s = m^-theta, rank r's summand, so m^(1-theta) = m s costs no pow.
double Expansion(uint64_t r, double summand, double theta,
                 double inv_one_minus_theta) {
  const double m = static_cast<double>(r + 1);
  const double integral =
      theta == 1.0 ? std::log(m) : m * summand * inv_one_minus_theta;
  return integral + summand * (0.5 - theta / (12.0 * m));
}

}  // namespace

ZipfGenerator::ZipfGenerator(uint64_t n, double theta)
    : n_(n), theta_(theta) {
  PSTORE_CHECK(n_ >= 1);
  PSTORE_CHECK(n_ <= std::numeric_limits<uint32_t>::max());
  PSTORE_CHECK(theta_ >= 0.0);
  // Pass 1: the summands, kept in cdf_ until their total is known. The
  // model's constant is fitted to the running sum at the head's last rank.
  const uint64_t fit_rank = std::min(kHead, n_ - 1);
  cdf_.resize(n_);
  double total = 0.0;
  double fit_sum = 0.0;
  for (uint64_t r = 0; r < n_; ++r) {
    cdf_[r] = Summand(r, theta_);
    total += cdf_[r];
    if (r == fit_rank) fit_sum = total;
  }
  total_ = total;
  inv_total_ = 1.0 / total;
  if (theta_ != 1.0) inv_one_minus_theta_ = 1.0 / (1.0 - theta_);
  constant_ = fit_sum - Expansion(fit_rank, cdf_[fit_rank], theta_,
                                  inv_one_minus_theta_);

  // Pass 2: the same running sum, normalised, and the model's largest
  // distance from it over the ranks RankOf certifies.
  double sum = 0.0;
  double max_error = 0.0;
  for (uint64_t r = 0; r < n_; ++r) {
    const double summand = cdf_[r];
    sum += summand;
    cdf_[r] = sum / total;
    if (r <= kHead) continue;
    const ModelPair model = Model(r, summand);
    const double error = std::max(std::fabs(model.below - cdf_[r - 1]),
                                  std::fabs(model.above - cdf_[r]));
    if (!(error <= max_error)) {
      max_error = std::isnan(error) ? std::numeric_limits<double>::infinity()
                                    : error;
    }
  }
  if (max_error < kMaxModelError) epsilon_ = max_error + kRoundingMargin;
}

// One compiled body evaluates the model for the constructor's error
// measurement and for RankOf's certificate, so a build that fuses its
// multiply-adds still gives both the same bits.
[[gnu::noinline]] ZipfGenerator::ModelPair ZipfGenerator::Model(
    uint64_t r, double summand) const {
  const double above =
      (Expansion(r, summand, theta_, inv_one_minus_theta_) + constant_) *
      inv_total_;
  // H(r) = H(r + 1) - s exactly, so one summand models both entries.
  return {above - summand * inv_total_, above};
}

uint64_t ZipfGenerator::SearchFrom(uint64_t start, double u) const {
  // Doubling steps away from start bracket the answer in [lo, hi]: every
  // entry below lo is < u, and hi == n_ or cdf_[hi] >= u.
  uint64_t lo = 0;
  uint64_t hi = n_;
  if (cdf_[start] < u) {
    lo = start + 1;
    for (uint64_t step = 1; start + step < n_; step *= 2) {
      if (cdf_[start + step] >= u) {
        hi = start + step;
        break;
      }
      lo = start + step + 1;
    }
  } else {
    hi = start;
    for (uint64_t step = 1; step <= start; step *= 2) {
      if (cdf_[start - step] < u) {
        lo = start - step + 1;
        break;
      }
      hi = start - step;
    }
  }
  const double* cdf = cdf_.data();
  return static_cast<uint64_t>(std::lower_bound(cdf + lo, cdf + hi, u) -
                               cdf);
}

uint64_t ZipfGenerator::NextRank(Rng& rng) const {
  return RankOf(rng.NextDouble());
}

uint64_t ZipfGenerator::RankOf(double u) const {
  // The guess: the model solved for a real rank x, with its first two
  // terms taken together as (m + 1/2)^(1-theta) / (1-theta) (log(m + 1/2)
  // at theta 1), m = x + 1. It is NaN or out of range where u lies
  // beyond the model's reach, and the range test sends those draws to
  // the search.
  const double scaled = u * total_ - constant_;
  const double x =
      std::ceil((theta_ == 1.0 ? std::exp(scaled)
                               : std::pow(scaled * (1.0 - theta_),
                                          inv_one_minus_theta_)) -
                1.5);
  if (x > static_cast<double>(kHead) && x < static_cast<double>(n_)) {
    // The model is within epsilon_ of both entries, so the certificate
    // implies cdf_[r - 1] < u <= cdf_[r]: r is the lower bound of u.
    const auto r = static_cast<uint64_t>(x);
    const ModelPair model = Model(r, Summand(r, theta_));
    if (model.below + epsilon_ < u && u <= model.above - epsilon_) return r;
    return SearchFrom(r, u);
  }
  const uint64_t start = x >= static_cast<double>(n_) ? n_ - 1
                         : x > 0.0 ? static_cast<uint64_t>(x)
                                   : 0;
  return SearchFrom(start, u);
}

uint64_t ZipfGenerator::NextKey(Rng& rng) const {
  // Fibonacci-hash scatter: bijective over 2^64, then reduced mod n.
  // Collisions from the mod reduction only merge popularity mass, never
  // lose keys.
  const uint64_t rank = NextRank(rng);
  return (rank * 0x9e3779b97f4a7c15ULL) % n_;
}

}  // namespace pstore
