#ifndef PSTORE_COMMON_LINALG_H_
#define PSTORE_COMMON_LINALG_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace pstore {

// Minimal dense row-major matrix of doubles, sized for the small systems
// the predictors solve (tens of coefficients).
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  // Returns A^T * A (cols x cols).
  Matrix TransposeTimesSelf() const;

  // Returns A^T * v. Requires v.size() == rows().
  std::vector<double> TransposeTimesVector(const std::vector<double>& v) const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

// Solves the square linear system A x = b using Gaussian elimination with
// partial pivoting. Returns kInvalidArgument on shape mismatch and
// kFailedPrecondition if A is (numerically) singular.
StatusOr<std::vector<double>> SolveLinearSystem(const Matrix& a,
                                                const std::vector<double>& b);

// kInvalidArgument when a least-squares problem has fewer rows than
// unknowns; OK otherwise. SolveLeastSquares applies it to A's shape, and
// a caller that builds the normal equations itself applies it to the
// rows it summed.
Status CheckLeastSquaresRows(size_t rows, size_t unknowns);

// Solves the normal equations (A^T A) x = A^T b with Tikhonov damping
// `ridge` (>= 0) on the diagonal, scaled by the largest diagonal entry so
// it is unit-free. The small ridge keeps the solve stable when regressors
// are collinear, which happens on strongly periodic load traces. `ata`
// is taken by value because the damping is added to it in place.
StatusOr<std::vector<double>> SolveNormalEquations(
    Matrix ata, const std::vector<double>& atb, double ridge);

// Solves the least-squares problem min ||A x - b||_2: the normal
// equations of A^T A and A^T b, solved by SolveNormalEquations.
StatusOr<std::vector<double>> SolveLeastSquares(const Matrix& a,
                                                const std::vector<double>& b,
                                                double ridge = 1e-8);

}  // namespace pstore

#endif  // PSTORE_COMMON_LINALG_H_
