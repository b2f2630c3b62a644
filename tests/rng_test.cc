#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

namespace pstore {
namespace {

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedUniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
  }
}

TEST(RngTest, BoundedUniformCoversAllResidues) {
  Rng rng(7);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) {
    ++counts[rng.NextUint64(8)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 800);   // expectation 1000, loose bound
    EXPECT_LT(c, 1200);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, DoubleRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, GaussianMomentsAreStandard) {
  Rng rng(42);
  const int n = 200000;
  double sum = 0.0;
  double sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sumsq += g * g;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(42);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double e = rng.NextExponential(2.5);
    EXPECT_GE(e, 0.0);
    sum += e;
  }
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(5);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBool(0.3)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.01);
}

}  // namespace
}  // namespace pstore
