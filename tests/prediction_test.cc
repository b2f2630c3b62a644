#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/linalg.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/time_series.h"
#include "prediction/ar_model.h"
#include "prediction/arma_model.h"
#include "prediction/naive_models.h"
#include "prediction/online_predictor.h"
#include "prediction/predictor.h"
#include "prediction/spar_model.h"
#include "trace/b2w_trace_generator.h"

namespace pstore {
namespace {

// A small synthetic daily-periodic series: period 48 "half-hour" slots,
// sinusoid plus optional noise and transient offsets.
TimeSeries PeriodicSeries(int periods, double noise_sigma, uint64_t seed,
                          size_t period = 48) {
  Rng rng(seed);
  TimeSeries out(60.0);
  for (int p = 0; p < periods; ++p) {
    for (size_t s = 0; s < period; ++s) {
      const double phase = 2.0 * M_PI * static_cast<double>(s) / period;
      double value = 100.0 + 50.0 * std::sin(phase);
      value *= 1.0 + noise_sigma * rng.NextGaussian();
      out.Append(value);
    }
  }
  return out;
}

// ---- SPAR -----------------------------------------------------------------

SparOptions SmallSpar(size_t max_tau = 8) {
  SparOptions options;
  options.period = 48;
  options.num_periods = 3;
  options.num_recent = 6;
  options.max_tau = max_tau;
  return options;
}

TEST(SparTest, FitRequiresEnoughHistory) {
  SparPredictor spar(SmallSpar());
  EXPECT_FALSE(spar.Fit(PeriodicSeries(2, 0.0, 1)).ok());
  EXPECT_TRUE(spar.Fit(PeriodicSeries(10, 0.0, 1)).ok());
}

TEST(SparTest, PredictBeforeFitFails) {
  SparPredictor spar(SmallSpar());
  EXPECT_FALSE(spar.PredictAhead(PeriodicSeries(10, 0.0, 1), 1).ok());
}

TEST(SparTest, TauOutsideFittedRangeFails) {
  SparPredictor spar(SmallSpar(4));
  ASSERT_TRUE(spar.Fit(PeriodicSeries(10, 0.0, 1)).ok());
  const TimeSeries history = PeriodicSeries(10, 0.0, 1);
  EXPECT_TRUE(spar.PredictAhead(history, 4).ok());
  EXPECT_FALSE(spar.PredictAhead(history, 5).ok());
  EXPECT_FALSE(spar.PredictAhead(history, 0).ok());
}

TEST(SparTest, NoiselessPeriodicSeriesPredictedExactly) {
  SparPredictor spar(SmallSpar());
  const TimeSeries series = PeriodicSeries(10, 0.0, 1);
  ASSERT_TRUE(spar.Fit(series).ok());
  // Walk forward within the same (deterministic) series.
  for (size_t tau : {1u, 4u, 8u}) {
    StatusOr<double> prediction =
        spar.PredictAhead(series.Slice(0, series.size() - tau), tau);
    ASSERT_TRUE(prediction.ok());
    EXPECT_NEAR(*prediction, series[series.size() - 1 - 0], 1.0)
        << "tau=" << tau;
  }
}

TEST(SparTest, RecoversDataGeneratedByASparProcess) {
  // Build data that follows Eq. 8 exactly with known coefficients, then
  // check the fitted model predicts it near-perfectly out of sample.
  const size_t period = 24;
  const size_t n = 2, m = 2;
  Rng rng(7);
  std::vector<double> data;
  for (size_t i = 0; i < period * 3; ++i) {
    data.push_back(100.0 + 20.0 * std::sin(2.0 * M_PI * i / period) +
                   rng.NextGaussian());
  }
  // y(t) = 0.6 y(t-T) + 0.4 y(t-2T) + 0.5 dy(t-1-tau) ... generate with
  // tau = 1: y(t) from periodic part plus transient offsets.
  for (size_t t = data.size(); t < period * 40; ++t) {
    auto dy = [&](size_t idx) {
      return data[idx] - 0.5 * (data[idx - period] + data[idx - 2 * period]);
    };
    const double value = 0.6 * data[t - period] + 0.4 * data[t - 2 * period] +
                         0.5 * dy(t - 2) + 0.1 * rng.NextGaussian();
    data.push_back(value);
  }
  SparOptions options;
  options.period = period;
  options.num_periods = n;
  options.num_recent = m;
  options.max_tau = 1;
  SparPredictor spar(options);
  TimeSeries series(60.0, data);
  ASSERT_TRUE(spar.Fit(series.Slice(0, period * 30)).ok());

  StatusOr<EvaluationResult> eval =
      EvaluatePredictor(spar, series, period * 30, 1);
  ASSERT_TRUE(eval.ok());
  EXPECT_LT(eval->mre, 0.02);
}

TEST(SparTest, BeatsSeasonalNaiveOnB2wLikeLoad) {
  // The paper's setup: train on 4 weeks, predict 60 minutes ahead.
  B2wTraceOptions trace_options;
  trace_options.days = 30;
  trace_options.seed = 5;
  const TimeSeries trace = GenerateB2wTrace(trace_options);

  SparOptions options;
  options.period = 1440;
  options.num_periods = 7;
  options.num_recent = 30;
  options.max_tau = 60;
  SparPredictor spar(options);
  ASSERT_TRUE(spar.Fit(trace.Slice(0, 28 * 1440)).ok());

  SeasonalNaivePredictor naive(1440);
  ASSERT_TRUE(naive.Fit(trace.Slice(0, 28 * 1440)).ok());

  // Evaluate on the two held-out days with tau = 60 minutes.
  const size_t eval_begin = 28 * 1440;
  StatusOr<EvaluationResult> spar_eval =
      EvaluatePredictor(spar, trace, eval_begin, 60);
  StatusOr<EvaluationResult> naive_eval =
      EvaluatePredictor(naive, trace, eval_begin, 60);
  ASSERT_TRUE(spar_eval.ok());
  ASSERT_TRUE(naive_eval.ok());
  EXPECT_LT(spar_eval->mre, naive_eval->mre);
  // And in absolute terms the error should be small (paper: ~10%).
  EXPECT_LT(spar_eval->mre, 0.15);
}

TEST(SparTest, CoefficientsExposedPerTau) {
  SparPredictor spar(SmallSpar(3));
  ASSERT_TRUE(spar.Fit(PeriodicSeries(10, 0.01, 2)).ok());
  const std::vector<double>& c1 = spar.CoefficientsFor(1);
  const std::vector<double>& c3 = spar.CoefficientsFor(3);
  EXPECT_EQ(c1.size(), 3u + 6u);
  EXPECT_EQ(c3.size(), 3u + 6u);
}

// The coefficient table holds one entry per fitted tau, so a stride as
// wide as a huge max_tau fits one tau and serves every tau from it. A
// table of max_tau entries threw std::bad_alloc here.
TEST(SparTest, TableHoldsOnlyTheFittedTaus) {
  SparOptions options = SmallSpar(100000000000000);
  options.tau_stride = 100000000000000;
  SparPredictor spar(options);
  const TimeSeries series = PeriodicSeries(10, 0.01, 2);
  ASSERT_TRUE(spar.Fit(series).ok());
  EXPECT_EQ(spar.CoefficientsFor(40), spar.CoefficientsFor(1));
  const StatusOr<double> prediction = spar.PredictAhead(series, 40);
  ASSERT_TRUE(prediction.ok()) << prediction.status().ToString();
  EXPECT_GT(*prediction, 0.0);
}

// SPAR's PredictHorizon computes the recent offsets once per call. It
// must return exactly what the base class's PredictAhead loop returns:
// the same doubles, or the same Status code and message.
void ExpectHorizonMatchesLoop(const SparPredictor& spar,
                              const TimeSeries& history, size_t horizon) {
  SCOPED_TRACE("history " + std::to_string(history.size()) + ", horizon " +
               std::to_string(horizon));
  const StatusOr<std::vector<double>> fast =
      spar.PredictHorizon(history, horizon);
  const StatusOr<std::vector<double>> loop =
      spar.LoadPredictor::PredictHorizon(history, horizon);
  EXPECT_EQ(fast.status().code(), loop.status().code());
  EXPECT_EQ(fast.status().message(), loop.status().message());
  if (!fast.ok() || !loop.ok()) return;
  ASSERT_EQ(fast->size(), loop->size());
  for (size_t i = 0; i < fast->size(); ++i) {
    EXPECT_EQ((*fast)[i], (*loop)[i]) << "tau " << i + 1;
  }
}

TEST(SparTest, PredictHorizonMatchesPredictAheadLoop) {
  const TimeSeries series = PeriodicSeries(12, 0.05, 7);
  for (const size_t stride : {size_t{1}, size_t{5}}) {
    SCOPED_TRACE("tau_stride " + std::to_string(stride));
    SparOptions options = SmallSpar(12);
    options.tau_stride = stride;
    SparPredictor spar(options);
    // Unfitted: FailedPrecondition, except that horizon 0 is empty OK.
    ExpectHorizonMatchesLoop(spar, series, 0);
    ExpectHorizonMatchesLoop(spar, series, 1);
    ASSERT_TRUE(spar.Fit(series.Slice(0, 10 * 48)).ok());
    for (const size_t end : {spar.MinHistory(), size_t{10 * 48 + 5},
                             series.size()}) {
      const TimeSeries history = series.Slice(0, end);
      for (const size_t horizon : {size_t{0}, size_t{1}, size_t{7},
                                   size_t{12}, size_t{13}}) {
        ExpectHorizonMatchesLoop(spar, history, horizon);
      }
    }
    // One slot too short for the deepest lag: InvalidArgument.
    ExpectHorizonMatchesLoop(
        spar, series.Slice(0, spar.MinHistory() - 1), 12);
  }
}

TEST(SparTest, PredictHorizonMatchesLoopPastOnePeriod) {
  // max_tau above the period: tau = period + 1 has an unobserved
  // periodic lag, which both paths report as InvalidArgument.
  SparOptions options;
  options.period = 8;
  options.num_periods = 3;
  options.num_recent = 4;
  options.max_tau = 12;
  SparPredictor spar(options);
  const TimeSeries series = PeriodicSeries(20, 0.05, 3, 8);
  ASSERT_TRUE(spar.Fit(series).ok());
  for (const size_t horizon : {size_t{8}, size_t{9}, size_t{12},
                               size_t{13}}) {
    ExpectHorizonMatchesLoop(spar, series, horizon);
  }
  const StatusOr<std::vector<double>> past =
      spar.PredictHorizon(series, 9);
  EXPECT_EQ(past.status().code(), StatusCode::kInvalidArgument);
}

// ---- SPAR fit against the design-matrix reference ---------------------------

// The SPAR fit as a design matrix per fitted tau, solved by
// SolveLeastSquares. Fit builds the same normal equations from the series
// and must return the same coefficients bit for bit, or the same first
// error: slot [tau - 1] holds tau's coefficients, empty for skipped taus.
StatusOr<std::vector<std::vector<double>>> ReferenceSparFit(
    const SparOptions& options, const TimeSeries& training) {
  const size_t n = options.num_periods;
  const size_t m = options.num_recent;
  const size_t period = options.period;
  const size_t cols = n + m;
  std::vector<double> offsets(training.size(), 0.0);
  const size_t first_offset_idx = n * period;
  if (first_offset_idx >= training.size()) {
    return Status::InvalidArgument("SPAR: training series too short");
  }
  for (size_t idx = first_offset_idx; idx < training.size(); ++idx) {
    double periodic_mean = 0.0;
    for (size_t k = 1; k <= n; ++k) periodic_mean += training[idx - k * period];
    periodic_mean /= static_cast<double>(n);
    offsets[idx] = training[idx] - periodic_mean;
  }
  std::vector<std::vector<double>> coefficients(options.max_tau);
  for (size_t tau = 1; tau <= options.max_tau; tau += options.tau_stride) {
    const size_t first_p = n * period + m + tau;
    if (first_p >= training.size()) {
      return Status::InvalidArgument(
          "SPAR: training series too short (" +
          std::to_string(training.size()) + " slots, need > " +
          std::to_string(first_p) + ")");
    }
    const size_t rows = training.size() - first_p;
    Matrix a(rows, cols);
    std::vector<double> b(rows);
    for (size_t r = 0; r < rows; ++r) {
      const size_t p = first_p + r;
      for (size_t k = 1; k <= n; ++k) a.At(r, k - 1) = training[p - k * period];
      for (size_t j = 1; j <= m; ++j) {
        a.At(r, n + j - 1) = offsets[p - tau - j];
      }
      b[r] = training[p];
    }
    StatusOr<std::vector<double>> solved =
        SolveLeastSquares(a, b, options.ridge);
    if (!solved.ok()) return solved.status();
    coefficients[tau - 1] = std::move(*solved);
  }
  return coefficients;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// Fits `training` both ways and compares the Status, then every fitted
// tau's coefficients bitwise.
void ExpectFitMatchesReference(const SparOptions& options,
                               const TimeSeries& training) {
  SCOPED_TRACE("n " + std::to_string(options.num_periods) + ", m " +
               std::to_string(options.num_recent) + ", max_tau " +
               std::to_string(options.max_tau) + ", stride " +
               std::to_string(options.tau_stride) + ", size " +
               std::to_string(training.size()));
  SparPredictor spar(options);
  const Status fit = spar.Fit(training);
  const StatusOr<std::vector<std::vector<double>>> reference =
      ReferenceSparFit(options, training);
  ASSERT_EQ(fit.code(), reference.status().code());
  ASSERT_EQ(fit.message(), reference.status().message());
  if (!fit.ok()) return;
  size_t words = 0;
  for (size_t tau = 1; tau <= options.max_tau; tau += options.tau_stride) {
    const std::vector<double>& expected = (*reference)[tau - 1];
    const std::vector<double>& actual = spar.CoefficientsFor(tau);
    ASSERT_EQ(actual.size(), expected.size()) << "tau " << tau;
    for (size_t c = 0; c < expected.size(); ++c, ++words) {
      EXPECT_EQ(Bits(actual[c]), Bits(expected[c]))
          << "tau " << tau << ", coefficient " << c;
    }
  }
  EXPECT_GT(words, 0u);
}

// Zeroes every `every`-th slot, so that lags, offsets and targets hit the
// zero-skips of the Gram and A^T b sums.
TimeSeries WithZeros(TimeSeries series, size_t every) {
  for (size_t i = 0; i < series.size(); i += every) series[i] = 0.0;
  return series;
}

// Zeroes periods 4 to 6 of a period-48 series: the recent offsets are
// then exactly 0 in periods 5 and 6 for n = 1, so the shared recent block
// skips whole rows.
TimeSeries WithIdlePeriods(TimeSeries series) {
  for (size_t i = 4 * 48; i < 7 * 48; ++i) series[i] = 0.0;
  return series;
}

TEST(SparFitDifferentialTest, SmallShapesMatchDesignMatrixBitwise) {
  for (const uint64_t seed : {7u, 42u, 101u}) {
    const TimeSeries noisy = PeriodicSeries(12, 0.05, seed);
    for (const TimeSeries& series :
         {noisy, WithZeros(noisy, 7), WithIdlePeriods(noisy)}) {
      for (const size_t n : {size_t{1}, size_t{3}}) {
        for (const size_t m : {size_t{1}, size_t{6}}) {
          // max_tau below and above the 48-slot period.
          for (const size_t max_tau : {size_t{8}, size_t{70}}) {
            for (const size_t stride : {size_t{1}, size_t{5}}) {
              SparOptions options = SmallSpar(max_tau);
              options.num_periods = n;
              options.num_recent = m;
              options.tau_stride = stride;
              ExpectFitMatchesReference(options, series);
            }
          }
        }
      }
    }
  }
}

// The production shape (n = 7, m = 30) on nine days of minutes, as
// generated and with every 97th slot set to 0.
TEST(SparFitDifferentialTest, B2wShapesMatchDesignMatrixBitwise) {
  B2wTraceOptions trace_options;
  trace_options.days = 9;
  trace_options.seed = 42;
  const TimeSeries trace = GenerateB2wTrace(trace_options);
  for (const TimeSeries& series : {trace, WithZeros(trace, 97)}) {
    SparOptions options;
    options.period = 1440;
    options.num_periods = 7;
    options.num_recent = 30;
    options.max_tau = 240;
    options.tau_stride = 5;
    ExpectFitMatchesReference(options, series);
    options.max_tau = 60;
    options.tau_stride = 1;
    ExpectFitMatchesReference(options, series);
  }
}

// Each error comes first at the same tau as in the reference: the series
// too short for any offset, too short for a tau, fewer rows than
// unknowns, and a singular system.
TEST(SparFitDifferentialTest, ErrorsComeInTheReferenceOrder) {
  const TimeSeries series = PeriodicSeries(12, 0.05, 7);
  const SparOptions small = SmallSpar(8);  // n*T = 144, m = 6, 9 unknowns
  const auto expect_error = [&](const SparOptions& options, size_t size,
                                const std::string& message) {
    SparPredictor spar(options);
    const Status fit = spar.Fit(series.Slice(0, size));
    EXPECT_EQ(fit.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(fit.message().find(message), std::string::npos)
        << fit.message();
    ExpectFitMatchesReference(options, series.Slice(0, size));
  };
  // No offset at all, then no row for tau 1.
  expect_error(small, 144, "SPAR: training series too short");
  expect_error(small, 151, "too short (151 slots, need > 151)");
  // Tau 1 has 5 rows for its 9 unknowns; then taus 1 and 2 have 10 and 9
  // rows, and tau 3 has 8.
  expect_error(small, 156, "fewer rows than unknowns");
  SparOptions wide = small;
  wide.max_tau = 20;
  expect_error(wide, 161, "fewer rows than unknowns");
  // A stride wider than the unknowns jumps from 14 rows to none.
  wide.max_tau = 30;
  wide.tau_stride = 20;
  expect_error(wide, 165, "too short (165 slots, need > 171)");

  // Singular at tau 4, before the shape fails at tau 70: with n = m = 1
  // on a noiseless period-8 series, dy is 0 except at slot 75, which
  // only the rows of taus 1..3 reach. With no ridge, every later tau's
  // recent column is all zero.
  TimeSeries periodic = PeriodicSeries(10, 0.0, 1, 8);
  periodic[75] += 5.0;
  SparOptions singular;
  singular.period = 8;
  singular.num_periods = 1;
  singular.num_recent = 1;
  singular.max_tau = 70;
  singular.ridge = 0.0;
  SparPredictor spar(singular);
  const Status fit = spar.Fit(periodic);
  EXPECT_EQ(fit.code(), StatusCode::kFailedPrecondition) << fit.message();
  ExpectFitMatchesReference(singular, periodic);
  singular.max_tau = 3;
  ExpectFitMatchesReference(singular, periodic);
}

// A refit that fails keeps the previous fit: its forecasts stay the same
// to the bit. OnlinePredictor, the shift-aware wrapper and the backtest's
// refit epochs rely on this.
TEST(SparTest, FailedRefitKeepsThePreviousFit) {
  SparPredictor spar(SmallSpar());
  const TimeSeries series = PeriodicSeries(10, 0.01, 2);
  ASSERT_TRUE(spar.Fit(series).ok());
  std::vector<double> before;
  for (size_t tau = 1; tau <= 8; ++tau) {
    const StatusOr<double> prediction = spar.PredictAhead(series, tau);
    ASSERT_TRUE(prediction.ok());
    before.push_back(*prediction);
  }
  // 3 * 48 + 8 slots leave tau 1 one row for nine unknowns.
  const Status refit = spar.Fit(series.Slice(0, 3 * 48 + 8));
  ASSERT_FALSE(refit.ok());
  EXPECT_NE(refit.message().find("fewer rows than unknowns"),
            std::string::npos)
      << refit.message();
  for (size_t tau = 1; tau <= 8; ++tau) {
    const StatusOr<double> prediction = spar.PredictAhead(series, tau);
    ASSERT_TRUE(prediction.ok()) << prediction.status().message();
    EXPECT_EQ(Bits(*prediction), Bits(before[tau - 1])) << "tau " << tau;
  }
}

// ---- AR ---------------------------------------------------------------------

TEST(ArTest, RecoversAr2Process) {
  // y(t) = 5 + 0.5 y(t-1) + 0.3 y(t-2) + eps.
  Rng rng(3);
  std::vector<double> data = {25.0, 25.0};
  for (int i = 2; i < 5000; ++i) {
    data.push_back(5.0 + 0.5 * data[i - 1] + 0.3 * data[i - 2] +
                   0.2 * rng.NextGaussian());
  }
  ArOptions options;
  options.order = 2;
  ArPredictor ar(options);
  ASSERT_TRUE(ar.Fit(TimeSeries(60.0, data)).ok());
  const std::vector<double>& coef = ar.coefficients();
  ASSERT_EQ(coef.size(), 3u);
  EXPECT_NEAR(coef[0], 5.0, 0.5);
  EXPECT_NEAR(coef[1], 0.5, 0.05);
  EXPECT_NEAR(coef[2], 0.3, 0.05);
}

TEST(ArTest, MultiStepIsIterated) {
  // A deterministic AR(1) y(t) = 0.5 y(t-1): predictions decay by halves.
  std::vector<double> data;
  double v = 1024.0;
  for (int i = 0; i < 200; ++i) {
    data.push_back(v);
    v *= 0.5;
  }
  ArOptions options;
  options.order = 1;
  ArPredictor ar(options);
  TimeSeries series(60.0, data);
  ASSERT_TRUE(ar.Fit(series.Slice(0, 50)).ok());
  // Predict from a prefix whose last value is still large (1024 * 0.5^7)
  // so the ridge-induced intercept bias is negligible in relative terms.
  const TimeSeries history = series.Slice(0, 8);
  const double last = history[7];
  StatusOr<std::vector<double>> horizon = ar.PredictHorizon(history, 2);
  ASSERT_TRUE(horizon.ok());
  EXPECT_NEAR((*horizon)[0], last * 0.5, 1e-3 * last);
  EXPECT_NEAR((*horizon)[1], last * 0.25, 1e-3 * last);
}

TEST(ArTest, FitTooShortFails) {
  ArOptions options;
  options.order = 30;
  ArPredictor ar(options);
  EXPECT_FALSE(ar.Fit(TimeSeries(60.0, std::vector<double>(20, 1.0))).ok());
}

// ---- ARMA ---------------------------------------------------------------

TEST(ArmaTest, FitsAndPredictsPeriodicSeries) {
  ArmaOptions options;
  options.ar_order = 8;
  options.ma_order = 4;
  options.long_ar_order = 20;
  ArmaPredictor arma(options);
  const TimeSeries series = PeriodicSeries(40, 0.02, 9);
  ASSERT_TRUE(arma.Fit(series.Slice(0, 30 * 48)).ok());
  StatusOr<EvaluationResult> eval =
      EvaluatePredictor(arma, series, 30 * 48, 1);
  ASSERT_TRUE(eval.ok());
  EXPECT_LT(eval->mre, 0.08);
}

TEST(ArmaTest, RejectsShortSeries) {
  ArmaOptions options;
  ArmaPredictor arma(options);
  EXPECT_FALSE(arma.Fit(TimeSeries(60.0, std::vector<double>(50, 1.0))).ok());
}

TEST(ArmaTest, PredictBeforeFitFails) {
  ArmaPredictor arma(ArmaOptions{});
  EXPECT_FALSE(arma.PredictAhead(PeriodicSeries(10, 0.0, 1), 1).ok());
}

// ---- Naive & Oracle ----------------------------------------------------------

TEST(SeasonalNaiveTest, ReturnsValueOnePeriodBack) {
  SeasonalNaivePredictor naive(48);
  const TimeSeries series = PeriodicSeries(4, 0.0, 1);
  ASSERT_TRUE(naive.Fit(series).ok());
  StatusOr<double> prediction = naive.PredictAhead(series, 5);
  ASSERT_TRUE(prediction.ok());
  // Target index = (size-1) + 5; value = series[target - 48].
  EXPECT_EQ(*prediction, series[series.size() - 1 + 5 - 48]);
}

TEST(SeasonalNaiveTest, TauBeyondPeriodFails) {
  SeasonalNaivePredictor naive(48);
  const TimeSeries series = PeriodicSeries(4, 0.0, 1);
  EXPECT_FALSE(naive.PredictAhead(series, 49).ok());
}

TEST(LastValueTest, FlatForecast) {
  LastValuePredictor last;
  TimeSeries series(60.0, {1, 2, 3});
  StatusOr<std::vector<double>> horizon = last.PredictHorizon(series, 4);
  ASSERT_TRUE(horizon.ok());
  for (double v : *horizon) EXPECT_EQ(v, 3.0);
}

TEST(OracleTest, ReturnsTruth) {
  TimeSeries truth(60.0, {10, 20, 30, 40, 50});
  OraclePredictor oracle(truth);
  const TimeSeries history = truth.Slice(0, 2);  // knows 10, 20
  StatusOr<double> one = oracle.PredictAhead(history, 1);
  StatusOr<double> three = oracle.PredictAhead(history, 3);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(three.ok());
  EXPECT_EQ(*one, 30.0);
  EXPECT_EQ(*three, 50.0);
  EXPECT_FALSE(oracle.PredictAhead(history, 4).ok());
}

// ---- MRE vs tau decay --------------------------------------------------------

TEST(SparTest, ErrorGrowsGracefullyWithTau) {
  // Fig. 5b: prediction accuracy decays gracefully with tau.
  B2wTraceOptions trace_options;
  trace_options.days = 29;
  trace_options.seed = 6;
  const TimeSeries trace = GenerateB2wTrace(trace_options);
  SparOptions options;
  options.period = 1440;
  options.num_periods = 7;
  options.num_recent = 30;
  options.max_tau = 60;
  SparPredictor spar(options);
  ASSERT_TRUE(spar.Fit(trace.Slice(0, 28 * 1440)).ok());

  const TimeSeries eval_window = trace;
  StatusOr<EvaluationResult> short_tau =
      EvaluatePredictor(spar, eval_window, 28 * 1440, 10);
  StatusOr<EvaluationResult> long_tau =
      EvaluatePredictor(spar, eval_window, 28 * 1440, 60);
  ASSERT_TRUE(short_tau.ok());
  ASSERT_TRUE(long_tau.ok());
  // Longer horizons cannot be (much) more accurate.
  EXPECT_LT(short_tau->mre, long_tau->mre * 1.3 + 0.01);
  // And both stay in a sane range.
  EXPECT_LT(long_tau->mre, 0.2);
}

// ---- Online predictor ---------------------------------------------------------

TEST(OnlinePredictorTest, WarmupFitsAndPredicts) {
  B2wTraceOptions trace_options;
  trace_options.days = 15;
  trace_options.seed = 8;
  const TimeSeries trace = GenerateB2wTrace(trace_options);

  SparOptions spar_options;
  spar_options.period = 1440;
  spar_options.num_periods = 7;
  spar_options.num_recent = 30;
  spar_options.max_tau = 120;
  OnlinePredictorOptions online_options;
  online_options.training_window = 14 * 1440;
  online_options.refit_interval = 7 * 1440;
  online_options.inflation = 1.15;
  OnlinePredictor online(std::make_unique<SparPredictor>(spar_options),
                         online_options);
  // 14 days of history is enough for the 7-period lag structure (the
  // production setup uses 4 weeks; this keeps the test fast).
  ASSERT_TRUE(online.Warmup(trace.Slice(0, 14 * 1440)).ok());
  EXPECT_TRUE(online.fitted());

  StatusOr<std::vector<double>> horizon = online.PredictHorizon(120);
  ASSERT_TRUE(horizon.ok());
  EXPECT_EQ(horizon->size(), 120u);
  for (double v : *horizon) EXPECT_GE(v, 0.0);
}

TEST(OnlinePredictorTest, InflationAppliedToForecasts) {
  TimeSeries truth(60.0, std::vector<double>(100, 200.0));
  OnlinePredictorOptions options;
  options.inflation = 1.5;
  options.training_window = 50;
  OnlinePredictor online(std::make_unique<LastValuePredictor>(), options);
  ASSERT_TRUE(online.Warmup(truth).ok());
  StatusOr<std::vector<double>> horizon = online.PredictHorizon(3);
  ASSERT_TRUE(horizon.ok());
  for (double v : *horizon) EXPECT_NEAR(v, 300.0, 1e-9);
}

TEST(OnlinePredictorTest, FallbackBeforeFitIsFlat) {
  OnlinePredictorOptions options;
  options.inflation = 1.0;
  // SPAR cannot fit on 5 observations, so the fallback must kick in.
  OnlinePredictor online(std::make_unique<SparPredictor>(SmallSpar()),
                         options);
  for (int i = 0; i < 5; ++i) online.Observe(100.0 + i);
  EXPECT_FALSE(online.fitted());
  StatusOr<std::vector<double>> horizon = online.PredictHorizon(4);
  ASSERT_TRUE(horizon.ok());
  for (double v : *horizon) EXPECT_EQ(v, 104.0);
}

TEST(OnlinePredictorTest, ObserveTriggersRefit) {
  OnlinePredictorOptions options;
  options.refit_interval = 48;
  options.training_window = 48 * 8;
  options.inflation = 1.0;
  OnlinePredictor online(std::make_unique<SparPredictor>(SmallSpar()),
                         options);
  // No warmup: observe ten periods' worth one by one; the refits along
  // the way must eventually succeed.
  const TimeSeries series = PeriodicSeries(12, 0.01, 4);
  for (size_t i = 0; i < series.size(); ++i) online.Observe(series[i]);
  EXPECT_TRUE(online.fitted());
}


TEST(OnlinePredictorTest, AutoInflationDerivedFromResiduals) {
  // A model that systematically under-predicts by 20% must earn an
  // effective inflation near 1.2 / quantile of the noise.
  B2wTraceOptions trace_options;
  trace_options.days = 30;
  trace_options.seed = 21;
  const TimeSeries trace = GenerateB2wTrace(trace_options);

  OnlinePredictorOptions options;
  options.auto_inflation = true;
  options.auto_inflation_quantile = 0.95;
  options.auto_inflation_tau = 60;
  options.inflation = 1.0;  // starting point; auto mode overrides
  options.training_window = 28 * 1440;
  OnlinePredictor online(std::make_unique<SeasonalNaivePredictor>(1440),
                         options);
  ASSERT_TRUE(online.Warmup(trace.Slice(0, 28 * 1440)).ok());
  // The seasonal-naive predictor has day-to-day relative errors of a few
  // percent on this trace: the calibrated buffer should be a modest
  // multiplier above 1.
  EXPECT_GT(online.effective_inflation(), 1.01);
  EXPECT_LT(online.effective_inflation(), 1.5);

  // The buffer must actually cover the chosen share of outcomes on
  // held-out data.
  int covered = 0;
  int total = 0;
  for (size_t t = 28 * 1440; t + 60 < trace.size(); t += 7) {
    StatusOr<double> raw = online.model().PredictAhead(
        trace.Slice(0, t + 1), 60);
    if (!raw.ok()) continue;
    ++total;
    if (*raw * online.effective_inflation() >= trace[t + 60]) ++covered;
  }
  ASSERT_GT(total, 50);
  EXPECT_GT(static_cast<double>(covered) / total, 0.85);
}

TEST(OnlinePredictorTest, FixedInflationUnchangedWithoutAutoMode) {
  OnlinePredictorOptions options;
  options.inflation = 1.15;
  options.training_window = 50;
  OnlinePredictor online(std::make_unique<LastValuePredictor>(), options);
  TimeSeries flat(60.0, std::vector<double>(100, 10.0));
  ASSERT_TRUE(online.Warmup(flat).ok());
  EXPECT_EQ(online.effective_inflation(), 1.15);
}

}  // namespace
}  // namespace pstore
