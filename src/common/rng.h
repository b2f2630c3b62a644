#ifndef PSTORE_COMMON_RNG_H_
#define PSTORE_COMMON_RNG_H_

#include <cstdint>

namespace pstore {

// Deterministic pseudo-random number generator (xoshiro256**), seeded via
// SplitMix64. Used everywhere instead of std::mt19937 so that experiment
// results are bit-identical across standard library implementations.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform 64-bit value.
  uint64_t NextUint64();

  // Uniform in [0, n). Requires n > 0.
  uint64_t NextUint64(uint64_t n);

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  // Standard normal via Box-Muller (caches the second value).
  double NextGaussian();

  // Exponential with the given mean. Requires mean > 0.
  double NextExponential(double mean);

  // Bernoulli trial with probability p of returning true.
  bool NextBool(double p);

 private:
  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace pstore

#endif  // PSTORE_COMMON_RNG_H_
