#ifndef PSTORE_PREDICTION_PREDICTOR_SPEC_H_
#define PSTORE_PREDICTION_PREDICTOR_SPEC_H_

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "prediction/predictor.h"

namespace pstore {

// Parsed form of the `--predictor` spec grammar shared by every tool and
// bench (the one way to name a predictor):
//
//   spec     := kind | kind '(' arg (',' arg)* ')'
//   arg      := key '=' value | spec          (nested spec = child model)
//   kind/key := [A-Za-z_][A-Za-z0-9_]*
//   value    := anything up to the next ',' or ')' (no nesting)
//
// Examples:
//   spar
//   spar(period=288,n=7,m=6,max_tau=30)
//   ar(p=8)
//   shift(spar,window=256,threshold=2)
//   ensemble(spar,ar(p=8),hw,mode=switch,epoch=1440)
//
// Whitespace around tokens is ignored. FormatPredictorSpec produces the
// canonical form (children first in order, then params sorted by key)
// and round-trips through ParsePredictorSpec.
struct PredictorSpec {
  std::string kind;
  std::vector<PredictorSpec> children;
  std::map<std::string, std::string> params;
};

StatusOr<PredictorSpec> ParsePredictorSpec(const std::string& text);
// Top-level comma-separated list ("spar,ar(p=8),ensemble(...)"): how
// benches name the whole comparison field in one flag.
StatusOr<std::vector<PredictorSpec>> ParsePredictorSpecList(
    const std::string& text);
std::string FormatPredictorSpec(const PredictorSpec& spec);

// Contextual defaults a caller supplies so spec strings stay short: a
// bare "spar" picks up the run's slot period and planning horizon rather
// than hard-coded per-minute constants.
struct PredictorContext {
  // Seasonal period in slots (fills spar/hw/mf/seasonal-naive `period`).
  size_t period = 1440;
  // Longest horizon the caller will request (fills spar `max_tau`).
  size_t max_tau = 60;
};

// Typed param accessors used by the factories. Consume* erases the key
// so CheckSpecParamsConsumed can reject typo'd or unsupported keys.
// Returns true iff the key was present; the output is left untouched
// when absent.
StatusOr<bool> ConsumeSpecParam(PredictorSpec* spec, const std::string& key,
                                size_t* out);
StatusOr<bool> ConsumeSpecParam(PredictorSpec* spec, const std::string& key,
                                double* out);
StatusOr<bool> ConsumeSpecParam(PredictorSpec* spec, const std::string& key,
                                std::string* out);
// Error iff any params remain unconsumed (lists them).
Status CheckSpecParamsConsumed(const PredictorSpec& spec);

// All kinds MakePredictor accepts, sorted (for error messages / --help).
std::vector<std::string> RegisteredPredictorKinds();

// Registry-backed factory: builds a ready-to-Fit predictor from a spec.
// Kinds and their params (all optional):
//   spar           period, n (periods), m (recent), max_tau, tau_stride,
//                  ridge
//   ar             p (order), ridge
//   arma           p, q, long_ar, ridge
//   hw             period, alpha, beta, gamma   (holt_winters alias;
//                  each factor in [0, 1], grid-searched when left out)
//   seasonal_naive period                       (naive alias)
//   last_value     —
//   mf             period, rank, iters, ridge, lookback
//                  (matrix_factorization alias)
//   shift          one child (default spar), window, threshold, min_mre,
//                  cooldown, refit_window, baseline_samples
//   ensemble       children (default spar,ar,hw), mode=switch|weight,
//                  epoch, window, floor
// Unknown kinds and unknown/malformed params are errors, as are a
// spar period, n, m, max_tau or tau_stride of 0, a ridge that is
// negative or not finite (mf also rejects a ridge of 0), and an hw
// smoothing factor outside [0, 1].
StatusOr<std::unique_ptr<LoadPredictor>> MakePredictor(
    const PredictorSpec& spec, const PredictorContext& context);

// Convenience: parse + build in one call.
StatusOr<std::unique_ptr<LoadPredictor>> MakePredictor(
    const std::string& text, const PredictorContext& context);

}  // namespace pstore

#endif  // PSTORE_PREDICTION_PREDICTOR_SPEC_H_
