#include "common/rng.h"

#include <cmath>

#include "common/logging.h"

namespace pstore {
namespace {

// SplitMix64 step, used only to expand the user seed into generator state.
uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(&s);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextUint64(uint64_t n) {
  PSTORE_CHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -n % n;
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= threshold) return r % n;
  }
}

double Rng::NextDouble() {
  // 53 random bits into [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = NextDouble();
  // Guard against log(0).
  while (u1 <= 0.0) u1 = NextDouble();
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::NextExponential(double mean) {
  PSTORE_CHECK(mean > 0.0);
  double u = NextDouble();
  while (u <= 0.0) u = NextDouble();
  return -mean * std::log(u);
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

}  // namespace pstore
