#include "common/linalg.h"

#include <cmath>

#include "common/logging.h"
#include "common/status.h"

namespace pstore {

Matrix Matrix::TransposeTimesSelf() const {
  Matrix out(cols_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = &data_[r * cols_];
    for (size_t i = 0; i < cols_; ++i) {
      const double ri = row[i];
      if (ri == 0.0) continue;
      for (size_t j = i; j < cols_; ++j) {
        out.At(i, j) += ri * row[j];
      }
    }
  }
  // Mirror the upper triangle.
  for (size_t i = 0; i < cols_; ++i) {
    for (size_t j = 0; j < i; ++j) {
      out.At(i, j) = out.At(j, i);
    }
  }
  return out;
}

std::vector<double> Matrix::TransposeTimesVector(
    const std::vector<double>& v) const {
  PSTORE_CHECK(v.size() == rows_);
  std::vector<double> out(cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = &data_[r * cols_];
    const double vr = v[r];
    if (vr == 0.0) continue;
    for (size_t c = 0; c < cols_; ++c) {
      out[c] += row[c] * vr;
    }
  }
  return out;
}

StatusOr<std::vector<double>> SolveLinearSystem(const Matrix& a,
                                                const std::vector<double>& b) {
  const size_t n = a.rows();
  if (a.cols() != n || b.size() != n) {
    return Status::InvalidArgument("SolveLinearSystem: shape mismatch");
  }
  // Work on an augmented copy.
  Matrix m(n, n + 1);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) m.At(r, c) = a.At(r, c);
    m.At(r, n) = b[r];
  }
  for (size_t col = 0; col < n; ++col) {
    // Partial pivot.
    size_t pivot = col;
    double best = std::abs(m.At(col, col));
    for (size_t r = col + 1; r < n; ++r) {
      const double mag = std::abs(m.At(r, col));
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (best < 1e-12) {
      return Status::FailedPrecondition("SolveLinearSystem: singular matrix");
    }
    if (pivot != col) {
      for (size_t c = col; c <= n; ++c) {
        std::swap(m.At(col, c), m.At(pivot, c));
      }
    }
    const double inv = 1.0 / m.At(col, col);
    for (size_t r = col + 1; r < n; ++r) {
      const double factor = m.At(r, col) * inv;
      if (factor == 0.0) continue;
      for (size_t c = col; c <= n; ++c) {
        m.At(r, c) -= factor * m.At(col, c);
      }
    }
  }
  // Back substitution.
  std::vector<double> x(n, 0.0);
  for (size_t ri = n; ri-- > 0;) {
    double acc = m.At(ri, n);
    for (size_t c = ri + 1; c < n; ++c) acc -= m.At(ri, c) * x[c];
    x[ri] = acc / m.At(ri, ri);
  }
  return x;
}

Status CheckLeastSquaresRows(size_t rows, size_t unknowns) {
  if (rows < unknowns) {
    return Status::InvalidArgument(
        "SolveLeastSquares: fewer rows than unknowns");
  }
  return Status::OK();
}

StatusOr<std::vector<double>> SolveNormalEquations(
    Matrix ata, const std::vector<double>& atb, double ridge) {
  double diag_max = 0.0;
  for (size_t i = 0; i < ata.rows(); ++i) {
    diag_max = std::max(diag_max, std::abs(ata.At(i, i)));
  }
  const double damping = ridge * (diag_max > 0.0 ? diag_max : 1.0);
  for (size_t i = 0; i < ata.rows(); ++i) {
    ata.At(i, i) += damping;
  }
  return SolveLinearSystem(ata, atb);
}

StatusOr<std::vector<double>> SolveLeastSquares(const Matrix& a,
                                                const std::vector<double>& b,
                                                double ridge) {
  if (a.rows() != b.size()) {
    return Status::InvalidArgument("SolveLeastSquares: shape mismatch");
  }
  const Status rows = CheckLeastSquaresRows(a.rows(), a.cols());
  if (!rows.ok()) return rows;
  return SolveNormalEquations(a.TransposeTimesSelf(),
                              a.TransposeTimesVector(b), ridge);
}

}  // namespace pstore
