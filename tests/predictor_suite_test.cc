// Predictor suite v2: spec grammar round-trips, the registry factory,
// the shift-aware wrapper (alone and under OnlinePredictor), matrix
// factorization, the ensemble, and the walk-forward backtest harness
// (including the idle-window MRE guard). The step-change tests pin the
// headline v2 behavior: a shift-aware model re-fits within one epoch of
// a regime shift while the plain static model degrades.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/time_series.h"
#include "prediction/backtest.h"
#include "prediction/ensemble.h"
#include "prediction/matrix_factorization.h"
#include "prediction/naive_models.h"
#include "prediction/online_predictor.h"
#include "prediction/predictor.h"
#include "prediction/predictor_spec.h"
#include "prediction/residual_tracker.h"
#include "prediction/shift_aware.h"
#include "prediction/spar_model.h"

namespace pstore {
namespace {

constexpr size_t kPeriod = 48;

// Daily-periodic sinusoid: period 48 slots, optional noise, and a
// seasonal-shape change from `shift_at` onward (0 = no shift): the
// amplitude is scaled by `shift_factor`, so factor -1 inverts the daily
// pattern and 1.6 steepens it. A shape change (rather than a pure level
// scale) is what defeats a stale fit: SPAR's recent-lag terms absorb
// level shifts on their own, but a changed seasonal profile stays wrong
// until the model re-fits.
TimeSeries PeriodicSeries(int periods, double noise_sigma, uint64_t seed,
                          size_t shift_at = 0, double shift_factor = 1.0) {
  Rng rng(seed);
  TimeSeries out(60.0);
  for (int p = 0; p < periods; ++p) {
    for (size_t s = 0; s < kPeriod; ++s) {
      const double phase = 2.0 * M_PI * static_cast<double>(s) / kPeriod;
      const double amplitude =
          (shift_at > 0 && out.size() >= shift_at) ? 50.0 * shift_factor
                                                   : 50.0;
      double value = 100.0 + amplitude * std::sin(phase);
      value *= 1.0 + noise_sigma * rng.NextGaussian();
      out.Append(value);
    }
  }
  return out;
}

PredictorContext SmallContext() {
  PredictorContext context;
  context.period = kPeriod;
  context.max_tau = 8;
  return context;
}

// ---- Spec grammar ---------------------------------------------------------

TEST(PredictorSpecTest, ParsesBareKind) {
  const StatusOr<PredictorSpec> spec = ParsePredictorSpec("spar");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->kind, "spar");
  EXPECT_TRUE(spec->params.empty());
  EXPECT_TRUE(spec->children.empty());
}

TEST(PredictorSpecTest, ParsesParamsAndChildren) {
  const StatusOr<PredictorSpec> spec = ParsePredictorSpec(
      "ensemble(spar(n=7,m=6),ar(p=8),hw,epoch=36,window=72)");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->kind, "ensemble");
  ASSERT_EQ(spec->children.size(), 3u);
  EXPECT_EQ(spec->children[0].kind, "spar");
  EXPECT_EQ(spec->children[0].params.at("n"), "7");
  EXPECT_EQ(spec->children[2].kind, "hw");
  EXPECT_EQ(spec->params.at("epoch"), "36");
}

TEST(PredictorSpecTest, FormatRoundTrips) {
  const char* const inputs[] = {
      "spar",
      "spar(n=7,m=30)",
      "shift(spar(n=7,m=6),window=72,min_mre=0.08)",
      "ensemble(spar,ar(p=8),hw,epoch=36)",
  };
  for (const char* input : inputs) {
    const StatusOr<PredictorSpec> spec = ParsePredictorSpec(input);
    ASSERT_TRUE(spec.ok()) << input;
    const std::string canonical = FormatPredictorSpec(*spec);
    const StatusOr<PredictorSpec> reparsed = ParsePredictorSpec(canonical);
    ASSERT_TRUE(reparsed.ok()) << canonical;
    EXPECT_EQ(FormatPredictorSpec(*reparsed), canonical) << input;
  }
}

TEST(PredictorSpecTest, ParsesCommaSeparatedList) {
  const StatusOr<std::vector<PredictorSpec>> specs =
      ParsePredictorSpecList("spar(n=7,m=6), ar(p=8) ,hw");
  ASSERT_TRUE(specs.ok());
  ASSERT_EQ(specs->size(), 3u);
  EXPECT_EQ((*specs)[0].kind, "spar");
  EXPECT_EQ((*specs)[1].kind, "ar");
  EXPECT_EQ((*specs)[2].kind, "hw");
}

TEST(PredictorSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParsePredictorSpec("").ok());
  EXPECT_FALSE(ParsePredictorSpec("spar(n=7").ok());
  EXPECT_FALSE(ParsePredictorSpec("spar(n=7,n=8)").ok());
  EXPECT_FALSE(ParsePredictorSpec("spar)x").ok());
  EXPECT_FALSE(ParsePredictorSpec("spar(n=)").ok());
  EXPECT_FALSE(ParsePredictorSpecList("spar,,ar").ok());
}

TEST(PredictorSpecTest, MakeRejectsBadSpecs) {
  const PredictorContext context = SmallContext();
  EXPECT_FALSE(MakePredictor("no_such_model", context).ok());
  EXPECT_FALSE(MakePredictor("spar(bogus=1)", context).ok());
  EXPECT_FALSE(MakePredictor("ar(p=0)", context).ok());
  EXPECT_FALSE(MakePredictor("ar(p=abc)", context).ok());
  EXPECT_FALSE(MakePredictor("ensemble(ensemble(spar))", context).ok());
  EXPECT_FALSE(MakePredictor("shift(spar,ar)", context).ok());
}

// spar(m=0) and spar(tau_stride=0) used to build and then CHECK-abort
// in SparPredictor's constructor; a negative or non-finite ridge used to
// run, though SolveLeastSquares documents ridge >= 0.
TEST(PredictorSpecTest, RejectsZeroSparShapesAndBadRidges) {
  const PredictorContext context = SmallContext();
  std::vector<std::string> bad = {"spar(m=0)", "spar(tau_stride=0)"};
  for (const std::string kind : {"spar", "ar", "arma", "mf"}) {
    for (const std::string ridge : {"-1", "-1e-300", "nan", "inf", "-inf"}) {
      bad.push_back(kind + "(ridge=" + ridge + ")");
    }
  }
  bad.push_back("mf(ridge=0)");
  for (const std::string& spec : bad) {
    const StatusOr<std::unique_ptr<LoadPredictor>> made =
        MakePredictor(spec, context);
    ASSERT_FALSE(made.ok()) << spec;
    EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument) << spec;
  }
  for (const std::string spec :
       {"spar(m=1,tau_stride=1,ridge=0)", "ar(ridge=0)", "arma(ridge=0)",
        "mf(ridge=1e-6)"}) {
    EXPECT_TRUE(MakePredictor(spec, context).ok()) << spec;
  }
}

TEST(PredictorSpecTest, RegistryBuildsEveryKind) {
  const PredictorContext context = SmallContext();
  const TimeSeries series = PeriodicSeries(10, 0.01, 3);
  for (const std::string& kind : RegisteredPredictorKinds()) {
    StatusOr<std::unique_ptr<LoadPredictor>> made =
        MakePredictor(kind, context);
    ASSERT_TRUE(made.ok()) << kind << ": " << made.status().ToString();
    EXPECT_TRUE((*made)->Fit(series).ok()) << kind;
    const StatusOr<double> prediction =
        (*made)->PredictAhead(series, 1);
    ASSERT_TRUE(prediction.ok()) << kind;
    EXPECT_GT(*prediction, 0.0) << kind;
  }
}

// A factor left out is grid-searched; one given must be a weight in
// [0, 1]. hw(alpha=2) used to build and run.
TEST(PredictorSpecTest, RejectsHoltWintersFactorsOutsideUnitInterval) {
  const PredictorContext context = SmallContext();
  for (const std::string param : {"alpha", "beta", "gamma"}) {
    for (const std::string value :
         {"2", "-0.1", "1.0000001", "-1", "nan", "inf", "-inf"}) {
      const std::string spec = "hw(" + param + "=" + value + ")";
      const StatusOr<std::unique_ptr<LoadPredictor>> made =
          MakePredictor(spec, context);
      ASSERT_FALSE(made.ok()) << spec;
      EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument) << spec;
      EXPECT_NE(made.status().message().find(param), std::string::npos)
          << spec << ": " << made.status().ToString();
    }
    for (const std::string value : {"0", "0.5", "1"}) {
      EXPECT_TRUE(
          MakePredictor("holt_winters(" + param + "=" + value + ")", context)
              .ok())
          << param << "=" << value;
    }
  }
}

// A forecast's exact bits ("%a"), or its error.
std::string ForecastText(const StatusOr<double>& forecast) {
  if (!forecast.ok()) return forecast.status().ToString();
  char text[32];
  std::snprintf(text, sizeof(text), "%a", *forecast);
  return text;
}

// OnlinePredictor, the shift-aware wrapper and the backtest's refit
// epochs all assume that a failed Fit changes nothing. For every kind
// (and the ARMA shape whose stage 2 fails after its stage 1 succeeds),
// a refit on 12 slots that fails must leave every forecast's bits as
// they were.
TEST(PredictorSpecTest, FailedRefitKeepsForecasts) {
  PredictorContext context = SmallContext();
  context.max_tau = 30;
  const TimeSeries good = PeriodicSeries(10, 0.01, 3);
  const TimeSeries too_short = good.Slice(0, 12);
  std::vector<std::string> specs = RegisteredPredictorKinds();
  specs.push_back("arma(p=2,q=3,long_ar=5)");
  for (const std::string& spec : specs) {
    StatusOr<std::unique_ptr<LoadPredictor>> made =
        MakePredictor(spec, context);
    ASSERT_TRUE(made.ok()) << spec << ": " << made.status().ToString();
    LoadPredictor& model = **made;
    ASSERT_TRUE(model.Fit(good).ok()) << spec;
    std::vector<std::string> before;
    for (const size_t tau : {1, 3, 30}) {
      before.push_back(ForecastText(model.PredictAhead(good, tau)));
    }
    if (model.Fit(too_short).ok()) continue;
    size_t i = 0;
    for (const size_t tau : {1, 3, 30}) {
      EXPECT_EQ(ForecastText(model.PredictAhead(good, tau)), before[i++])
          << spec << " tau " << tau;
    }
  }
}

TEST(PredictorSpecTest, ContextSuppliesPeriodDefaults) {
  // A bare "spar" inherits period/max_tau from the context, so it fits a
  // period-48 series that the 1440-slot default could not.
  StatusOr<std::unique_ptr<LoadPredictor>> made =
      MakePredictor("spar(n=3,m=6)", SmallContext());
  ASSERT_TRUE(made.ok());
  EXPECT_TRUE((*made)->Fit(PeriodicSeries(6, 0.0, 1)).ok());
}

// ---- Matrix factorization -------------------------------------------------

TEST(MatrixFactorizationTest, RecoversPeriodicSignal) {
  MatrixFactorizationOptions options;
  options.period = kPeriod;
  options.rank = 3;
  MatrixFactorizationPredictor mf(options);
  const TimeSeries series = PeriodicSeries(10, 0.0, 1);
  ASSERT_TRUE(mf.Fit(series.Slice(0, 8 * kPeriod)).ok());
  for (size_t tau = 1; tau <= 4; ++tau) {
    const size_t t = 9 * kPeriod;
    const StatusOr<double> prediction =
        mf.PredictAhead(series.Slice(0, t), tau);
    ASSERT_TRUE(prediction.ok());
    const double actual = series[t + tau - 1];
    EXPECT_NEAR(*prediction, actual, 0.06 * actual) << "tau=" << tau;
  }
}

TEST(MatrixFactorizationTest, SlotFactorsHaveRankEntries) {
  MatrixFactorizationOptions options;
  options.period = kPeriod;
  options.rank = 4;
  MatrixFactorizationPredictor mf(options);
  ASSERT_TRUE(mf.Fit(PeriodicSeries(8, 0.0, 1)).ok());
  EXPECT_EQ(mf.SlotFactors(0).size(), 4u);
  EXPECT_EQ(mf.SlotFactors(kPeriod - 1).size(), 4u);
}

TEST(MatrixFactorizationTest, PredictBeforeFitFails) {
  MatrixFactorizationOptions options;
  options.period = kPeriod;
  MatrixFactorizationPredictor mf(options);
  EXPECT_FALSE(mf.PredictAhead(PeriodicSeries(4, 0.0, 1), 1).ok());
}

// ---- Shift-aware wrapper --------------------------------------------------

ShiftAwareOptions FastShiftOptions() {
  ShiftAwareOptions options;
  options.residual_window = 24;
  options.threshold = 1.5;
  options.min_mre = 0.05;
  options.cooldown = 96;
  options.refit_window = 5 * kPeriod;
  options.baseline_samples = 64;
  return options;
}

std::unique_ptr<LoadPredictor> SmallSpar() {
  SparOptions options;
  options.period = kPeriod;
  options.num_periods = 3;
  options.num_recent = 6;
  options.max_tau = 8;
  return std::make_unique<SparPredictor>(options);
}

// A regime-shift series that defeats stale *parameters* rather than
// stale features. Every model here reads its lag/seasonal features from
// the live history at prediction time, so shape or level changes heal
// themselves once the history rolls past the shift; what a stale model
// cannot fix without re-fitting is its fitted lag WEIGHTS. Pre-shift the
// series repeats one random 48-slot profile (every seasonal lag is
// equivalent, so the fit spreads weight across them); from `shift_at`
// onward two different random profiles alternate day-by-day (the true
// period becomes 96), so only the lag-2-periods weight is right and the
// stale spread-out weights average the two profiles — a persistent
// error that only a re-fit on post-shift data removes.
TimeSeries RandomProfileSeries(int periods, double noise_sigma,
                               uint64_t seed, size_t shift_at = 0) {
  Rng profile_rng(seed);
  std::vector<double> pre(kPeriod);
  std::vector<double> post_a(kPeriod);
  std::vector<double> post_b(kPeriod);
  for (size_t s = 0; s < kPeriod; ++s) {
    pre[s] = profile_rng.NextDouble(60.0, 140.0);
    post_a[s] = profile_rng.NextDouble(60.0, 140.0);
    post_b[s] = profile_rng.NextDouble(60.0, 140.0);
  }
  Rng noise(seed + 1);
  TimeSeries out(60.0);
  for (int p = 0; p < periods; ++p) {
    for (size_t s = 0; s < kPeriod; ++s) {
      double value;
      if (shift_at == 0 || out.size() < shift_at) {
        value = pre[s];
      } else {
        const size_t day = (out.size() - shift_at) / kPeriod;
        value = (day % 2 == 0) ? post_a[s] : post_b[s];
      }
      value *= 1.0 + noise_sigma * noise.NextGaussian();
      out.Append(value);
    }
  }
  return out;
}

TEST(ShiftAwareTest, RefitsWithinOneEpochOfStepChange) {
  // 10 pre-shift periods, then the level jumps 60%; the wrapper must
  // notice from rolling residuals and re-fit long before the weekly
  // interval cadence would.
  const size_t shift_at = 10 * kPeriod;
  const TimeSeries series =
      PeriodicSeries(20, 0.01, 7, shift_at, 1.6);
  ShiftAwarePredictor shift(SmallSpar(), FastShiftOptions());
  ASSERT_TRUE(shift.Fit(series.Slice(0, shift_at)).ok());
  EXPECT_GE(shift.baseline_mre(), 0.0);
  EXPECT_LT(shift.baseline_mre(), 0.05);

  size_t first_refit_slot = 0;
  for (size_t t = shift_at; t < series.size(); ++t) {
    const StatusOr<bool> changed = shift.Update(series.Slice(0, t + 1));
    ASSERT_TRUE(changed.ok());
    if (shift.refits() > 0 && first_refit_slot == 0) first_refit_slot = t;
  }
  ASSERT_GE(shift.refits(), 1u);
  // Detected within two periods of the shift — one "epoch" here, versus
  // the 7-day interval the static cadence would wait.
  EXPECT_LT(first_refit_slot, shift_at + 2 * kPeriod);
  EXPECT_GT(shift.recent_mre(), 0.0);
}

TEST(ShiftAwareTest, NoSpuriousRefitsOnStationarySeries) {
  const TimeSeries series = PeriodicSeries(20, 0.01, 7);
  ShiftAwarePredictor shift(SmallSpar(), FastShiftOptions());
  ASSERT_TRUE(shift.Fit(series.Slice(0, 10 * kPeriod)).ok());
  for (size_t t = 10 * kPeriod; t < series.size(); ++t) {
    ASSERT_TRUE(shift.Update(series.Slice(0, t + 1)).ok());
  }
  EXPECT_EQ(shift.refits(), 0u);
}

TEST(ResidualTrackerTest, RollingMeanAndIdleGuard) {
  RollingResidualTracker tracker(4);
  EXPECT_EQ(tracker.mean(), 0.0);
  EXPECT_FALSE(tracker.full());
  tracker.Add(100.0, 110.0);  // 10%
  tracker.Add(100.0, 90.0);   // 10%
  EXPECT_NEAR(tracker.mean(), 0.10, 1e-12);
  // Idle slots are skipped, mirroring the MRE guard.
  tracker.Add(0.0, 50.0);
  EXPECT_EQ(tracker.count(), 2u);
  tracker.Add(100.0, 100.0);
  tracker.Add(100.0, 100.0);
  EXPECT_TRUE(tracker.full());
  EXPECT_NEAR(tracker.mean(), 0.05, 1e-12);
  tracker.Reset();
  EXPECT_EQ(tracker.count(), 0u);
}

// ---- Ensemble -------------------------------------------------------------

TEST(EnsembleTest, StartsOnBestMemberAfterFit) {
  EnsembleOptions options;
  options.epoch_slots = kPeriod;
  options.score_window = kPeriod;
  EnsemblePredictor ensemble(options);
  ensemble.AddMember(SmallSpar());
  ensemble.AddMember(std::make_unique<LastValuePredictor>());
  ASSERT_EQ(ensemble.member_count(), 2u);

  // On a clean periodic series SPAR is near-exact while last-value lags
  // the sinusoid; the fit-time backtest must pick SPAR immediately.
  const TimeSeries series = PeriodicSeries(10, 0.0, 1);
  ASSERT_TRUE(ensemble.Fit(series).ok());
  EXPECT_EQ(ensemble.active_index(), 0u);
  EXPECT_EQ(ensemble.active_name(), "SPAR");

  // Inverse-error weights are maintained in both modes: near-exact SPAR
  // dwarfs the lagging last-value model.
  const std::vector<double> weights = ensemble.weights();
  ASSERT_EQ(weights.size(), 2u);
  EXPECT_GT(weights[0], weights[1]);
  EXPECT_NEAR(weights[0] + weights[1], 1.0, 1e-9);
}

TEST(EnsembleTest, SwitchesWhenTheBestMemberChanges) {
  // After the periodicity doubles, the stale SPAR weights average the
  // two alternating profiles, while a 2-period seasonal-naive reads the
  // correct day straight from the history — the ensemble must re-select
  // within an epoch or two.
  EnsembleOptions options;
  options.epoch_slots = kPeriod / 2;
  options.score_window = kPeriod / 2;
  EnsemblePredictor ensemble(options);
  ensemble.AddMember(SmallSpar());
  ensemble.AddMember(
      std::make_unique<SeasonalNaivePredictor>(2 * kPeriod));

  const size_t shift_at = 10 * kPeriod;
  const TimeSeries series = RandomProfileSeries(14, 0.01, 1, shift_at);
  ASSERT_TRUE(ensemble.Fit(series.Slice(0, shift_at)).ok());
  ASSERT_EQ(ensemble.active_name(), "SPAR");
  for (size_t t = shift_at; t < series.size(); ++t) {
    ASSERT_TRUE(ensemble.Update(series.Slice(0, t + 1)).ok());
  }
  EXPECT_GE(ensemble.switches(), 1u);
  EXPECT_EQ(ensemble.active_name(), "SeasonalNaive");
}

TEST(EnsembleTest, WeightModeNormalizesWeights) {
  EnsembleOptions options;
  options.mode = EnsembleMode::kWeight;
  options.epoch_slots = kPeriod;
  options.score_window = kPeriod;
  EnsemblePredictor ensemble(options);
  ensemble.AddMember(SmallSpar());
  ensemble.AddMember(std::make_unique<LastValuePredictor>());
  const TimeSeries series = PeriodicSeries(10, 0.01, 2);
  ASSERT_TRUE(ensemble.Fit(series).ok());
  const std::vector<double> weights = ensemble.weights();
  ASSERT_EQ(weights.size(), 2u);
  double sum = 0.0;
  for (const double w : weights) {
    EXPECT_GT(w, 0.0);
    sum += w;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  const StatusOr<double> prediction = ensemble.PredictAhead(series, 1);
  ASSERT_TRUE(prediction.ok());
  EXPECT_GT(*prediction, 0.0);
}

// ---- Online harness -------------------------------------------------------

// The interval cadence: one refit per refit_interval observed slots.
TEST(OnlinePredictorTest, CountsRefitsThroughThePolicy) {
  OnlinePredictorOptions options;
  options.refit_interval = kPeriod;
  options.training_window = 6 * kPeriod;
  options.inflation = 1.0;
  OnlinePredictor online(SmallSpar(), options);
  const TimeSeries series = PeriodicSeries(12, 0.01, 5);
  ASSERT_TRUE(online.Warmup(series.Slice(0, 8 * kPeriod)).ok());
  EXPECT_EQ(online.refits(), 1u);  // the warmup fit
  for (size_t t = 8 * kPeriod; t < series.size(); ++t) {
    online.Observe(series[t]);
  }
  // 4 periods observed at a 1-period cadence.
  EXPECT_EQ(online.refits(), 5u);
  EXPECT_TRUE(online.fitted());
}

// The shift(...) spec is the only shift detector: under OnlinePredictor
// it re-fits from the Update() hook, with no help from the interval
// cadence (refit_interval outlasts the run).
std::unique_ptr<OnlinePredictor> ShiftOnline() {
  StatusOr<std::unique_ptr<LoadPredictor>> model = MakePredictor(
      "shift(spar(n=3,m=6),window=24,threshold=1.5,min_mre=0.05,"
      "cooldown=96)",
      SmallContext());
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  if (!model.ok()) return nullptr;
  OnlinePredictorOptions options;
  options.refit_interval = 1000 * kPeriod;
  options.training_window = 10 * kPeriod;
  options.inflation = 1.0;
  return std::make_unique<OnlinePredictor>(std::move(*model), options);
}

const ShiftAwarePredictor& ShiftModel(const OnlinePredictor& online) {
  return dynamic_cast<const ShiftAwarePredictor&>(online.model());
}

TEST(OnlinePredictorTest, ShiftSpecRefitsAfterWorkloadShift) {
  const size_t shift_at = 10 * kPeriod;
  const TimeSeries series = RandomProfileSeries(20, 0.01, 11, shift_at);
  std::unique_ptr<OnlinePredictor> online = ShiftOnline();
  ASSERT_NE(online, nullptr);
  ASSERT_TRUE(online->Warmup(series.Slice(0, shift_at)).ok());
  size_t first_refit_slot = 0;
  for (size_t t = shift_at; t < series.size(); ++t) {
    online->Observe(series[t]);
    if (first_refit_slot == 0 && ShiftModel(*online).refits() > 0) {
      first_refit_slot = t;
    }
  }
  ASSERT_GE(ShiftModel(*online).refits(), 1u);
  EXPECT_LT(first_refit_slot, shift_at + 2 * kPeriod);
  // Every re-fit came from the detector: the interval never fired.
  EXPECT_EQ(online->refits(), 1u);
}

TEST(OnlinePredictorTest, ShiftSpecNeverRefitsOnStationarySeries) {
  const TimeSeries series = RandomProfileSeries(20, 0.01, 11);
  std::unique_ptr<OnlinePredictor> online = ShiftOnline();
  ASSERT_NE(online, nullptr);
  ASSERT_TRUE(online->Warmup(series.Slice(0, 10 * kPeriod)).ok());
  for (size_t t = 10 * kPeriod; t < series.size(); ++t) {
    online->Observe(series[t]);
  }
  EXPECT_EQ(ShiftModel(*online).refits(), 0u);
  EXPECT_EQ(online->refits(), 1u);
}

// ---- Backtest harness -----------------------------------------------------

TEST(BacktestTest, RanksSparAboveLastValueOnPeriodicSeries) {
  const StatusOr<std::vector<PredictorSpec>> specs =
      ParsePredictorSpecList("last_value,spar(n=3,m=6)");
  ASSERT_TRUE(specs.ok());
  const TimeSeries series = PeriodicSeries(12, 0.01, 9);
  BacktestOptions options;
  options.eval_begin = 8 * kPeriod;
  options.horizon = 4;
  const StatusOr<BacktestResult> result =
      RunBacktest(*specs, series, SmallContext(), options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->models.size(), 2u);
  const BacktestModelResult& last_value = result->models[0];
  const BacktestModelResult& spar = result->models[1];
  ASSERT_TRUE(last_value.ok);
  ASSERT_TRUE(spar.ok);
  // All models score the same slots, so the errors are comparable.
  EXPECT_EQ(last_value.one_step_samples, spar.one_step_samples);
  EXPECT_EQ(last_value.horizon_samples, spar.horizon_samples);
  EXPECT_LT(spar.one_step_mre, last_value.one_step_mre);
  EXPECT_EQ(spar.rank, 1u);
  EXPECT_EQ(last_value.rank, 2u);
  EXPECT_GT(spar.horizon_samples, 0u);
}

TEST(BacktestTest, FailedSpecIsReportedNotFatal) {
  // ar(p=200) cannot fit 12 periods of data; the harness must carry the
  // error and still rank the healthy model.
  const StatusOr<std::vector<PredictorSpec>> specs =
      ParsePredictorSpecList("ar(p=2000),spar(n=3,m=6)");
  ASSERT_TRUE(specs.ok());
  const TimeSeries series = PeriodicSeries(12, 0.01, 9);
  BacktestOptions options;
  options.eval_begin = 8 * kPeriod;
  options.horizon = 4;
  const StatusOr<BacktestResult> result =
      RunBacktest(*specs, series, SmallContext(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->models[0].ok);
  EXPECT_FALSE(result->models[0].error.empty());
  EXPECT_EQ(result->models[0].rank, 0u);
  EXPECT_TRUE(result->models[1].ok);
  EXPECT_EQ(result->models[1].rank, 1u);
}

TEST(BacktestTest, ShiftAwareBeatsStaticSparAfterStepChange) {
  // The acceptance shape for fig. 13 in miniature: train both models on
  // pre-shift data, walk them through a swapped daily profile with no
  // harness re-fits, and score the post-shift focus window. The static
  // SPAR stays stale; the shift wrapper re-fits onto the new shape.
  const size_t shift_at = 10 * kPeriod;
  const TimeSeries series = RandomProfileSeries(20, 0.01, 11, shift_at);
  const StatusOr<std::vector<PredictorSpec>> specs = ParsePredictorSpecList(
      "spar(n=3,m=6),"
      "shift(spar(n=3,m=6),window=24,threshold=1.5,min_mre=0.05,"
      "cooldown=96,refit_window=240)");
  ASSERT_TRUE(specs.ok());
  BacktestOptions options;
  options.eval_begin = shift_at;
  options.horizon = 4;
  options.refit_epoch = 0;  // adaptivity must come from the model
  options.focus_begin = 15 * kPeriod;
  options.focus_end = 20 * kPeriod;
  const StatusOr<BacktestResult> result =
      RunBacktest(*specs, series, SmallContext(), options);
  ASSERT_TRUE(result.ok());
  const BacktestModelResult& spar = result->models[0];
  const BacktestModelResult& shift = result->models[1];
  ASSERT_TRUE(spar.ok);
  ASSERT_TRUE(shift.ok);
  ASSERT_GT(spar.focus_mre_samples, 0u);
  // The stale weights average the alternating profiles — a persistent
  // double-digit error; the shift-aware wrapper re-fitted
  // (updates_changed counts it) and recovered.
  EXPECT_GT(spar.focus_mre, 0.10);
  EXPECT_GE(shift.updates_changed, 1u);
  EXPECT_LT(shift.focus_mre, 0.5 * spar.focus_mre);
}

TEST(BacktestTest, CsvHasHeaderAndOneRowPerModel) {
  const StatusOr<std::vector<PredictorSpec>> specs =
      ParsePredictorSpecList("last_value,spar(n=3,m=6)");
  ASSERT_TRUE(specs.ok());
  const TimeSeries series = PeriodicSeries(10, 0.01, 9);
  BacktestOptions options;
  options.eval_begin = 8 * kPeriod;
  options.horizon = 2;
  const StatusOr<BacktestResult> result =
      RunBacktest(*specs, series, SmallContext(), options);
  ASSERT_TRUE(result.ok());
  const std::string csv = BacktestCsv(*result);
  size_t lines = 0;
  for (const char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 3u);  // header + 2 models
  EXPECT_EQ(csv.rfind(BacktestCsvHeader(), 0), 0u);
  EXPECT_NE(csv.find("spar"), std::string::npos);
}

// ---- Idle-window MRE guard ------------------------------------------------

TEST(EvaluatePredictorTest, IdleWindowReportsZeroMreWithNoSamples) {
  // Load drops to zero over the whole evaluation window: MRE must come
  // back 0 with mre_samples == 0 instead of dividing by ~0 (regression
  // guard for the kMreMinActual fix); MAE still measures the miss.
  TimeSeries series(60.0);
  for (size_t t = 0; t < 100; ++t) series.Append(50.0);
  for (size_t t = 0; t < 20; ++t) series.Append(0.0);
  LastValuePredictor last_value;
  ASSERT_TRUE(last_value.Fit(series.Slice(0, 100)).ok());
  const StatusOr<EvaluationResult> eval =
      EvaluatePredictor(last_value, series, 105, 1);
  ASSERT_TRUE(eval.ok());
  EXPECT_EQ(eval->mre, 0.0);
  EXPECT_EQ(eval->mre_samples, 0u);
  EXPECT_GT(eval->actual.size(), 0u);
  EXPECT_GE(eval->mae, 0.0);
}

TEST(EvaluatePredictorTest, MixedWindowCountsOnlyNonIdleSlots) {
  TimeSeries series(60.0);
  for (size_t t = 0; t < 100; ++t) series.Append(50.0);
  for (size_t t = 0; t < 10; ++t) series.Append((t % 2 == 0) ? 50.0 : 0.0);
  LastValuePredictor last_value;
  ASSERT_TRUE(last_value.Fit(series.Slice(0, 100)).ok());
  const StatusOr<EvaluationResult> eval =
      EvaluatePredictor(last_value, series, 100, 1);
  ASSERT_TRUE(eval.ok());
  EXPECT_LT(eval->mre_samples, eval->actual.size());
  EXPECT_GT(eval->mre_samples, 0u);
}

}  // namespace
}  // namespace pstore
