#ifndef PSTORE_PREDICTION_RESIDUAL_TRACKER_H_
#define PSTORE_PREDICTION_RESIDUAL_TRACKER_H_

#include <cstddef>
#include <vector>

namespace pstore {

// Rolling mean of one-step relative forecast residuals over a fixed-size
// ring. Shared by ShiftAwarePredictor (the one shift detector) and
// EnsemblePredictor. Slots whose actual load is below kMreMinActual (see
// predictor.h) are skipped, mirroring the MRE reporting guard, so a
// burst of idle slots cannot fake a distribution shift.
class RollingResidualTracker {
 public:
  explicit RollingResidualTracker(size_t capacity);

  // Records |predicted - actual| / |actual| unless the actual is ~zero.
  void Add(double actual, double predicted);

  size_t capacity() const { return ring_.size(); }
  size_t count() const { return count_; }
  bool full() const { return count_ == ring_.size(); }
  // Mean relative residual over the window; 0 when empty.
  double mean() const;
  void Reset();

 private:
  std::vector<double> ring_;
  size_t next_ = 0;
  size_t count_ = 0;
  double sum_ = 0.0;
};

}  // namespace pstore

#endif  // PSTORE_PREDICTION_RESIDUAL_TRACKER_H_
