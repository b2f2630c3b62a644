#include "common/linalg.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace pstore {
namespace {

TEST(MatrixTest, TransposeTimesSelf) {
  // A = [[1, 2], [3, 4], [5, 6]]; A^T A = [[35, 44], [44, 56]].
  Matrix a(3, 2);
  a.At(0, 0) = 1;
  a.At(0, 1) = 2;
  a.At(1, 0) = 3;
  a.At(1, 1) = 4;
  a.At(2, 0) = 5;
  a.At(2, 1) = 6;
  Matrix ata = a.TransposeTimesSelf();
  EXPECT_EQ(ata.At(0, 0), 35.0);
  EXPECT_EQ(ata.At(0, 1), 44.0);
  EXPECT_EQ(ata.At(1, 0), 44.0);
  EXPECT_EQ(ata.At(1, 1), 56.0);
}

TEST(MatrixTest, TransposeTimesVector) {
  Matrix a(2, 3);
  // A = [[1, 0, 2], [0, 3, 1]]
  a.At(0, 0) = 1;
  a.At(0, 2) = 2;
  a.At(1, 1) = 3;
  a.At(1, 2) = 1;
  const std::vector<double> atv = a.TransposeTimesVector({2.0, 5.0});
  ASSERT_EQ(atv.size(), 3u);
  EXPECT_EQ(atv[0], 2.0);
  EXPECT_EQ(atv[1], 15.0);
  EXPECT_EQ(atv[2], 9.0);
}

TEST(SolveLinearSystemTest, TwoByTwo) {
  // x + 2y = 5; 3x + 4y = 11  ->  x = 1, y = 2.
  Matrix a(2, 2);
  a.At(0, 0) = 1;
  a.At(0, 1) = 2;
  a.At(1, 0) = 3;
  a.At(1, 1) = 4;
  StatusOr<std::vector<double>> x = SolveLinearSystem(a, {5, 11});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.0, 1e-10);
  EXPECT_NEAR((*x)[1], 2.0, 1e-10);
}

TEST(SolveLinearSystemTest, RequiresPivoting) {
  // Leading zero forces a row swap.
  Matrix a(2, 2);
  a.At(0, 0) = 0;
  a.At(0, 1) = 1;
  a.At(1, 0) = 2;
  a.At(1, 1) = 0;
  StatusOr<std::vector<double>> x = SolveLinearSystem(a, {3, 4});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 2.0, 1e-10);
  EXPECT_NEAR((*x)[1], 3.0, 1e-10);
}

TEST(SolveLinearSystemTest, SingularDetected) {
  Matrix a(2, 2);
  a.At(0, 0) = 1;
  a.At(0, 1) = 2;
  a.At(1, 0) = 2;
  a.At(1, 1) = 4;
  EXPECT_FALSE(SolveLinearSystem(a, {1, 2}).ok());
}

TEST(SolveLinearSystemTest, ShapeMismatch) {
  Matrix a(2, 3);
  EXPECT_FALSE(SolveLinearSystem(a, {1, 2}).ok());
  Matrix b(2, 2);
  EXPECT_FALSE(SolveLinearSystem(b, {1, 2, 3}).ok());
}

TEST(SolveLeastSquaresTest, ExactSystemRecovered) {
  // Overdetermined but consistent: y = 2x + 1 sampled at 4 points.
  Matrix a(4, 2);
  std::vector<double> b(4);
  const double xs[] = {0, 1, 2, 3};
  for (int i = 0; i < 4; ++i) {
    a.At(i, 0) = 1.0;
    a.At(i, 1) = xs[i];
    b[i] = 1.0 + 2.0 * xs[i];
  }
  StatusOr<std::vector<double>> coef = SolveLeastSquares(a, b);
  ASSERT_TRUE(coef.ok());
  EXPECT_NEAR((*coef)[0], 1.0, 1e-6);
  EXPECT_NEAR((*coef)[1], 2.0, 1e-6);
}

TEST(SolveLeastSquaresTest, NoisyRegressionRecoversCoefficients) {
  Rng rng(42);
  const int n = 2000;
  Matrix a(n, 3);
  std::vector<double> b(n);
  for (int i = 0; i < n; ++i) {
    const double x1 = rng.NextDouble(-1, 1);
    const double x2 = rng.NextDouble(-1, 1);
    a.At(i, 0) = 1.0;
    a.At(i, 1) = x1;
    a.At(i, 2) = x2;
    b[i] = 0.5 - 1.5 * x1 + 3.0 * x2 + 0.01 * rng.NextGaussian();
  }
  StatusOr<std::vector<double>> coef = SolveLeastSquares(a, b);
  ASSERT_TRUE(coef.ok());
  EXPECT_NEAR((*coef)[0], 0.5, 0.01);
  EXPECT_NEAR((*coef)[1], -1.5, 0.01);
  EXPECT_NEAR((*coef)[2], 3.0, 0.01);
}

TEST(SolveLeastSquaresTest, UnderdeterminedRejected) {
  Matrix a(2, 3);
  EXPECT_FALSE(SolveLeastSquares(a, {1, 2}).ok());
}

TEST(SolveLeastSquaresTest, CollinearColumnsStabilizedByRidge) {
  // Two identical columns: the normal equations are singular, but the
  // ridge keeps the solve well-posed.
  const int n = 50;
  Matrix a(n, 2);
  std::vector<double> b(n);
  for (int i = 0; i < n; ++i) {
    a.At(i, 0) = i;
    a.At(i, 1) = i;
    b[i] = 2.0 * i;
  }
  StatusOr<std::vector<double>> coef = SolveLeastSquares(a, b, 1e-8);
  ASSERT_TRUE(coef.ok());
  // The fitted function must still predict well even though individual
  // coefficients are not identifiable.
  EXPECT_NEAR((*coef)[0] + (*coef)[1], 2.0, 1e-3);
}

// SolveLeastSquares is the normal equations of A^T A and A^T b handed to
// SolveNormalEquations, bit for bit, with zero entries in A and b.
TEST(SolveNormalEquationsTest, SolveLeastSquaresIsItsNormalEquations) {
  Rng rng(11);
  const size_t rows = 200;
  const size_t cols = 7;
  Matrix a(rows, cols);
  std::vector<double> b(rows);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      a.At(r, c) = (r + c) % 5 == 0 ? 0.0 : rng.NextDouble(-3.0, 3.0);
    }
    b[r] = r % 4 == 0 ? 0.0 : rng.NextDouble(-10.0, 10.0);
  }
  for (const double ridge : {0.0, 1e-8, 1e-2}) {
    const StatusOr<std::vector<double>> least =
        SolveLeastSquares(a, b, ridge);
    const StatusOr<std::vector<double>> normal = SolveNormalEquations(
        a.TransposeTimesSelf(), a.TransposeTimesVector(b), ridge);
    ASSERT_TRUE(least.ok());
    ASSERT_TRUE(normal.ok());
    ASSERT_EQ(least->size(), cols);
    ASSERT_EQ(normal->size(), cols);
    for (size_t c = 0; c < cols; ++c) {
      EXPECT_EQ(std::bit_cast<uint64_t>((*least)[c]),
                std::bit_cast<uint64_t>((*normal)[c]))
          << "ridge " << ridge << ", x[" << c << "]";
    }
  }
}

}  // namespace
}  // namespace pstore
