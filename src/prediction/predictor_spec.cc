#include "prediction/predictor_spec.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "prediction/ar_model.h"
#include "prediction/arma_model.h"
#include "prediction/ensemble.h"
#include "prediction/holt_winters.h"
#include "prediction/matrix_factorization.h"
#include "prediction/naive_models.h"
#include "prediction/shift_aware.h"
#include "prediction/spar_model.h"

namespace pstore {
namespace {

// ---------------------------------------------------------------------
// Grammar (see predictor_spec.h): recursive descent, no lookahead beyond
// one character.

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

class SpecParser {
 public:
  explicit SpecParser(const std::string& text) : text_(text) {}

  StatusOr<PredictorSpec> ParseOne() {
    StatusOr<PredictorSpec> spec = ParseSpec();
    if (!spec.ok()) return spec.status();
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("unexpected trailing characters");
    }
    return spec;
  }

  StatusOr<std::vector<PredictorSpec>> ParseList() {
    std::vector<PredictorSpec> specs;
    while (true) {
      StatusOr<PredictorSpec> spec = ParseSpec();
      if (!spec.ok()) return spec.status();
      specs.push_back(std::move(*spec));
      SkipWhitespace();
      if (pos_ == text_.size()) break;
      if (text_[pos_] != ',') return Error("expected ',' between specs");
      ++pos_;
    }
    return specs;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("predictor spec '" + text_ +
                                   "': " + message + " at position " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  StatusOr<std::string> ParseIdentifier() {
    SkipWhitespace();
    if (pos_ >= text_.size() || !IsIdentStart(text_[pos_])) {
      return Error("expected an identifier");
    }
    const size_t begin = pos_;
    while (pos_ < text_.size() && IsIdentChar(text_[pos_])) ++pos_;
    return text_.substr(begin, pos_ - begin);
  }

  // Raw param value: everything up to the next ',' or ')', trimmed.
  StatusOr<std::string> ParseParamValue() {
    SkipWhitespace();
    const size_t begin = pos_;
    while (pos_ < text_.size() && text_[pos_] != ',' && text_[pos_] != ')') {
      ++pos_;
    }
    size_t end = pos_;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text_[end - 1])) != 0) {
      --end;
    }
    if (end == begin) return Error("expected a parameter value");
    return text_.substr(begin, end - begin);
  }

  StatusOr<PredictorSpec> ParseSpec() {
    PredictorSpec spec;
    StatusOr<std::string> kind = ParseIdentifier();
    if (!kind.ok()) return kind.status();
    spec.kind = std::move(*kind);
    SkipWhitespace();
    if (pos_ >= text_.size() || text_[pos_] != '(') return spec;
    ++pos_;  // '('
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ')') {
      ++pos_;
      return spec;
    }
    while (true) {
      Status arg = ParseArg(&spec);
      if (!arg.ok()) return arg;
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated '('");
      if (text_[pos_] == ')') {
        ++pos_;
        return spec;
      }
      if (text_[pos_] != ',') return Error("expected ',' or ')'");
      ++pos_;
    }
  }

  // One argument: `key=value` parameter or a nested child spec.
  Status ParseArg(PredictorSpec* parent) {
    StatusOr<std::string> ident = ParseIdentifier();
    if (!ident.ok()) return ident.status();
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '=') {
      ++pos_;
      StatusOr<std::string> value = ParseParamValue();
      if (!value.ok()) return value.status();
      if (!parent->params.emplace(*ident, *value).second) {
        return Error("duplicate parameter '" + *ident + "'");
      }
      return Status::OK();
    }
    PredictorSpec child;
    child.kind = std::move(*ident);
    if (pos_ < text_.size() && text_[pos_] == '(') {
      // Re-enter ParseSpec from the '(' by rewinding to parse the child
      // with its arguments: simplest is to parse args inline here.
      ++pos_;
      SkipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == ')') {
        ++pos_;
      } else {
        while (true) {
          Status arg = ParseArg(&child);
          if (!arg.ok()) return arg;
          SkipWhitespace();
          if (pos_ >= text_.size()) return Error("unterminated '('");
          if (text_[pos_] == ')') {
            ++pos_;
            break;
          }
          if (text_[pos_] != ',') return Error("expected ',' or ')'");
          ++pos_;
        }
      }
    }
    parent->children.push_back(std::move(child));
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

void AppendFormatted(const PredictorSpec& spec, std::string* out) {
  out->append(spec.kind);
  if (spec.children.empty() && spec.params.empty()) return;
  out->push_back('(');
  bool first = true;
  for (const PredictorSpec& child : spec.children) {
    if (!first) out->push_back(',');
    first = false;
    AppendFormatted(child, out);
  }
  for (const std::pair<const std::string, std::string>& kv : spec.params) {
    if (!first) out->push_back(',');
    first = false;
    out->append(kv.first);
    out->push_back('=');
    out->append(kv.second);
  }
  out->push_back(')');
}

// The least-squares models damp their normal equations by `ridge`, which
// SolveLeastSquares documents as finite and >= 0.
Status CheckRidge(const std::string& kind, double ridge) {
  if (std::isfinite(ridge) && ridge >= 0.0) return Status::OK();
  return Status::InvalidArgument(kind + " needs a finite ridge >= 0");
}

// hw's smoothing factors are weights in [0, 1]; a factor left out is
// found by grid search.
Status ConsumeSmoothingFactor(PredictorSpec* spec, const std::string& key,
                              double* factor) {
  const StatusOr<bool> given = ConsumeSpecParam(spec, key, factor);
  if (!given.ok()) return given.status();
  if (*given && !(*factor >= 0.0 && *factor <= 1.0)) {
    return Status::InvalidArgument("hw needs " + key + " in [0, 1]");
  }
  return Status::OK();
}

Status NoChildren(const PredictorSpec& spec) {
  if (spec.children.empty()) return Status::OK();
  return Status::InvalidArgument("predictor kind '" + spec.kind +
                                 "' takes no child specs");
}

// ---------------------------------------------------------------------
// Factories. Each consumes its params (so leftovers are typos) and
// validates child counts. Plain function pointers keep the registry out
// of hot-path-perf lint territory.

using Factory = StatusOr<std::unique_ptr<LoadPredictor>> (*)(
    PredictorSpec spec, const PredictorContext& context);

StatusOr<std::unique_ptr<LoadPredictor>> MakeSpar(
    PredictorSpec spec, const PredictorContext& context) {
  Status status = NoChildren(spec);
  if (!status.ok()) return status;
  SparOptions options;
  options.period = context.period;
  options.max_tau = context.max_tau;
  status = ConsumeSpecParam(&spec, "period", &options.period).status();
  if (status.ok()) {
    status = ConsumeSpecParam(&spec, "n", &options.num_periods).status();
  }
  if (status.ok()) {
    status = ConsumeSpecParam(&spec, "m", &options.num_recent).status();
  }
  if (status.ok()) {
    status = ConsumeSpecParam(&spec, "max_tau", &options.max_tau).status();
  }
  if (status.ok()) {
    status =
        ConsumeSpecParam(&spec, "tau_stride", &options.tau_stride).status();
  }
  if (status.ok()) {
    status = ConsumeSpecParam(&spec, "ridge", &options.ridge).status();
  }
  if (!status.ok()) return status;
  status = CheckSpecParamsConsumed(spec);
  if (!status.ok()) return status;
  if (options.period == 0 || options.num_periods == 0 ||
      options.num_recent == 0 || options.max_tau == 0 ||
      options.tau_stride == 0) {
    return Status::InvalidArgument(
        "spar needs period, n, m, max_tau, and tau_stride all >= 1");
  }
  status = CheckRidge("spar", options.ridge);
  if (!status.ok()) return status;
  return std::unique_ptr<LoadPredictor>(new SparPredictor(options));
}

StatusOr<std::unique_ptr<LoadPredictor>> MakeAr(
    PredictorSpec spec, const PredictorContext& context) {
  (void)context;
  Status status = NoChildren(spec);
  if (!status.ok()) return status;
  ArOptions options;
  status = ConsumeSpecParam(&spec, "p", &options.order).status();
  if (status.ok()) {
    status = ConsumeSpecParam(&spec, "ridge", &options.ridge).status();
  }
  if (!status.ok()) return status;
  status = CheckSpecParamsConsumed(spec);
  if (!status.ok()) return status;
  if (options.order == 0) {
    return Status::InvalidArgument("ar needs p >= 1");
  }
  status = CheckRidge("ar", options.ridge);
  if (!status.ok()) return status;
  return std::unique_ptr<LoadPredictor>(new ArPredictor(options));
}

StatusOr<std::unique_ptr<LoadPredictor>> MakeArma(
    PredictorSpec spec, const PredictorContext& context) {
  (void)context;
  Status status = NoChildren(spec);
  if (!status.ok()) return status;
  ArmaOptions options;
  bool long_ar_given = false;
  status = ConsumeSpecParam(&spec, "p", &options.ar_order).status();
  if (status.ok()) {
    status = ConsumeSpecParam(&spec, "q", &options.ma_order).status();
  }
  if (status.ok()) {
    StatusOr<bool> given =
        ConsumeSpecParam(&spec, "long_ar", &options.long_ar_order);
    if (!given.ok()) {
      status = given.status();
    } else {
      long_ar_given = *given;
    }
  }
  if (status.ok()) {
    status = ConsumeSpecParam(&spec, "ridge", &options.ridge).status();
  }
  if (!status.ok()) return status;
  status = CheckSpecParamsConsumed(spec);
  if (!status.ok()) return status;
  if (options.ar_order == 0) {
    return Status::InvalidArgument("arma needs p >= 1");
  }
  if (!long_ar_given &&
      options.long_ar_order < options.ar_order + options.ma_order) {
    options.long_ar_order = 2 * (options.ar_order + options.ma_order);
  }
  if (options.long_ar_order < options.ar_order + options.ma_order) {
    return Status::InvalidArgument("arma needs long_ar >= p + q");
  }
  status = CheckRidge("arma", options.ridge);
  if (!status.ok()) return status;
  return std::unique_ptr<LoadPredictor>(new ArmaPredictor(options));
}

StatusOr<std::unique_ptr<LoadPredictor>> MakeHoltWinters(
    PredictorSpec spec, const PredictorContext& context) {
  Status status = NoChildren(spec);
  if (!status.ok()) return status;
  HoltWintersOptions options;
  options.period = context.period;
  status = ConsumeSpecParam(&spec, "period", &options.period).status();
  if (status.ok()) {
    status = ConsumeSmoothingFactor(&spec, "alpha", &options.alpha);
  }
  if (status.ok()) {
    status = ConsumeSmoothingFactor(&spec, "beta", &options.beta);
  }
  if (status.ok()) {
    status = ConsumeSmoothingFactor(&spec, "gamma", &options.gamma);
  }
  if (!status.ok()) return status;
  status = CheckSpecParamsConsumed(spec);
  if (!status.ok()) return status;
  if (options.period < 2) {
    return Status::InvalidArgument("hw needs period >= 2");
  }
  return std::unique_ptr<LoadPredictor>(new HoltWintersPredictor(options));
}

StatusOr<std::unique_ptr<LoadPredictor>> MakeSeasonalNaive(
    PredictorSpec spec, const PredictorContext& context) {
  Status status = NoChildren(spec);
  if (!status.ok()) return status;
  size_t period = context.period;
  status = ConsumeSpecParam(&spec, "period", &period).status();
  if (!status.ok()) return status;
  status = CheckSpecParamsConsumed(spec);
  if (!status.ok()) return status;
  if (period == 0) {
    return Status::InvalidArgument("seasonal_naive needs period >= 1");
  }
  return std::unique_ptr<LoadPredictor>(new SeasonalNaivePredictor(period));
}

StatusOr<std::unique_ptr<LoadPredictor>> MakeLastValue(
    PredictorSpec spec, const PredictorContext& context) {
  (void)context;
  Status status = NoChildren(spec);
  if (!status.ok()) return status;
  status = CheckSpecParamsConsumed(spec);
  if (!status.ok()) return status;
  return std::unique_ptr<LoadPredictor>(new LastValuePredictor());
}

StatusOr<std::unique_ptr<LoadPredictor>> MakeMatrixFactorization(
    PredictorSpec spec, const PredictorContext& context) {
  Status status = NoChildren(spec);
  if (!status.ok()) return status;
  MatrixFactorizationOptions options;
  options.period = context.period;
  status = ConsumeSpecParam(&spec, "period", &options.period).status();
  if (status.ok()) {
    status = ConsumeSpecParam(&spec, "rank", &options.rank).status();
  }
  if (status.ok()) {
    status = ConsumeSpecParam(&spec, "iters", &options.iterations).status();
  }
  if (status.ok()) {
    status = ConsumeSpecParam(&spec, "ridge", &options.ridge).status();
  }
  if (status.ok()) {
    status =
        ConsumeSpecParam(&spec, "lookback", &options.u_lookback).status();
  }
  if (!status.ok()) return status;
  status = CheckSpecParamsConsumed(spec);
  if (!status.ok()) return status;
  if (options.period < 2 || options.rank == 0 || options.iterations == 0 ||
      options.ridge <= 0.0 || options.u_lookback == 0) {
    return Status::InvalidArgument(
        "mf needs period >= 2, rank/iters/lookback >= 1, ridge > 0");
  }
  status = CheckRidge("mf", options.ridge);
  if (!status.ok()) return status;
  return std::unique_ptr<LoadPredictor>(
      new MatrixFactorizationPredictor(options));
}

StatusOr<std::unique_ptr<LoadPredictor>> MakeShiftAware(
    PredictorSpec spec, const PredictorContext& context) {
  if (spec.children.size() > 1) {
    return Status::InvalidArgument("shift wraps exactly one child spec");
  }
  PredictorSpec child;
  if (spec.children.empty()) {
    child.kind = "spar";
  } else {
    child = spec.children[0];
  }
  StatusOr<std::unique_ptr<LoadPredictor>> base =
      MakePredictor(child, context);
  if (!base.ok()) return base.status();
  ShiftAwareOptions options;
  Status status =
      ConsumeSpecParam(&spec, "window", &options.residual_window).status();
  if (status.ok()) {
    status =
        ConsumeSpecParam(&spec, "threshold", &options.threshold).status();
  }
  if (status.ok()) {
    status = ConsumeSpecParam(&spec, "min_mre", &options.min_mre).status();
  }
  if (status.ok()) {
    status = ConsumeSpecParam(&spec, "cooldown", &options.cooldown).status();
  }
  if (status.ok()) {
    status = ConsumeSpecParam(&spec, "refit_window", &options.refit_window)
                 .status();
  }
  if (status.ok()) {
    status = ConsumeSpecParam(&spec, "baseline_samples",
                              &options.baseline_samples)
                 .status();
  }
  if (!status.ok()) return status;
  status = CheckSpecParamsConsumed(spec);
  if (!status.ok()) return status;
  if (options.residual_window == 0 || options.threshold <= 1.0) {
    return Status::InvalidArgument(
        "shift needs window >= 1 and threshold > 1");
  }
  return std::unique_ptr<LoadPredictor>(
      new ShiftAwarePredictor(std::move(*base), options));
}

StatusOr<std::unique_ptr<LoadPredictor>> MakeEnsemble(
    PredictorSpec spec, const PredictorContext& context) {
  EnsembleOptions options;
  std::string mode;
  Status status = ConsumeSpecParam(&spec, "mode", &mode).status();
  if (status.ok() && !mode.empty()) {
    if (mode == "switch") {
      options.mode = EnsembleMode::kSwitch;
    } else if (mode == "weight") {
      options.mode = EnsembleMode::kWeight;
    } else {
      return Status::InvalidArgument(
          "ensemble mode must be 'switch' or 'weight', got '" + mode + "'");
    }
  }
  if (status.ok()) {
    status = ConsumeSpecParam(&spec, "epoch", &options.epoch_slots).status();
  }
  if (status.ok()) {
    status =
        ConsumeSpecParam(&spec, "window", &options.score_window).status();
  }
  if (status.ok()) {
    status = ConsumeSpecParam(&spec, "floor", &options.weight_floor).status();
  }
  if (!status.ok()) return status;
  status = CheckSpecParamsConsumed(spec);
  if (!status.ok()) return status;
  if (options.epoch_slots == 0 || options.score_window == 0 ||
      options.weight_floor < 0.0 || options.weight_floor >= 1.0) {
    return Status::InvalidArgument(
        "ensemble needs epoch/window >= 1 and floor in [0, 1)");
  }
  std::vector<PredictorSpec> children = spec.children;
  if (children.empty()) {
    // Default pool: the paper's SPAR plus the AR and Holt-Winters
    // baselines — cheap, diverse, and all fit from a few weeks of data.
    PredictorSpec spar;
    spar.kind = "spar";
    PredictorSpec ar;
    ar.kind = "ar";
    PredictorSpec hw;
    hw.kind = "hw";
    children.push_back(std::move(spar));
    children.push_back(std::move(ar));
    children.push_back(std::move(hw));
  }
  std::unique_ptr<EnsemblePredictor> ensemble(
      new EnsemblePredictor(options));
  for (const PredictorSpec& child : children) {
    if (child.kind == "ensemble") {
      return Status::InvalidArgument("ensembles cannot nest ensembles");
    }
    StatusOr<std::unique_ptr<LoadPredictor>> member =
        MakePredictor(child, context);
    if (!member.ok()) return member.status();
    ensemble->AddMember(std::move(*member));
  }
  return std::unique_ptr<LoadPredictor>(std::move(ensemble));
}

struct RegistryEntry {
  const char* kind;
  Factory factory;
};

// Sorted by kind so RegisteredPredictorKinds() is sorted for free.
constexpr RegistryEntry kRegistry[] = {
    {"ar", &MakeAr},
    {"arma", &MakeArma},
    {"ensemble", &MakeEnsemble},
    {"holt_winters", &MakeHoltWinters},
    {"hw", &MakeHoltWinters},
    {"last_value", &MakeLastValue},
    {"matrix_factorization", &MakeMatrixFactorization},
    {"mf", &MakeMatrixFactorization},
    {"naive", &MakeSeasonalNaive},
    {"seasonal_naive", &MakeSeasonalNaive},
    {"shift", &MakeShiftAware},
    {"spar", &MakeSpar},
};

}  // namespace

StatusOr<PredictorSpec> ParsePredictorSpec(const std::string& text) {
  SpecParser parser(text);
  return parser.ParseOne();
}

StatusOr<std::vector<PredictorSpec>> ParsePredictorSpecList(
    const std::string& text) {
  SpecParser parser(text);
  return parser.ParseList();
}

std::string FormatPredictorSpec(const PredictorSpec& spec) {
  std::string out;
  AppendFormatted(spec, &out);
  return out;
}

StatusOr<bool> ConsumeSpecParam(PredictorSpec* spec, const std::string& key,
                                size_t* out) {
  const auto it = spec->params.find(key);
  if (it == spec->params.end()) return false;
  const std::string& value = it->second;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    return Status::InvalidArgument("param '" + key + "' of '" + spec->kind +
                                   "' is not an integer: '" + value + "'");
  }
  *out = static_cast<size_t>(parsed);
  spec->params.erase(it);
  return true;
}

StatusOr<bool> ConsumeSpecParam(PredictorSpec* spec, const std::string& key,
                                double* out) {
  const auto it = spec->params.find(key);
  if (it == spec->params.end()) return false;
  const std::string& value = it->second;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    return Status::InvalidArgument("param '" + key + "' of '" + spec->kind +
                                   "' is not a number: '" + value + "'");
  }
  *out = parsed;
  spec->params.erase(it);
  return true;
}

StatusOr<bool> ConsumeSpecParam(PredictorSpec* spec, const std::string& key,
                                std::string* out) {
  const auto it = spec->params.find(key);
  if (it == spec->params.end()) return false;
  *out = it->second;
  spec->params.erase(it);
  return true;
}

Status CheckSpecParamsConsumed(const PredictorSpec& spec) {
  if (spec.params.empty()) return Status::OK();
  std::string keys;
  for (const std::pair<const std::string, std::string>& kv : spec.params) {
    if (!keys.empty()) keys += ", ";
    keys += kv.first;
  }
  return Status::InvalidArgument("unknown parameter(s) for '" + spec.kind +
                                 "': " + keys);
}

std::vector<std::string> RegisteredPredictorKinds() {
  std::vector<std::string> kinds;
  kinds.reserve(std::size(kRegistry));
  for (const RegistryEntry& entry : kRegistry) {
    kinds.push_back(entry.kind);
  }
  return kinds;
}

StatusOr<std::unique_ptr<LoadPredictor>> MakePredictor(
    const PredictorSpec& spec, const PredictorContext& context) {
  for (const RegistryEntry& entry : kRegistry) {
    if (spec.kind == entry.kind) return entry.factory(spec, context);
  }
  std::string kinds;
  for (const std::string& kind : RegisteredPredictorKinds()) {
    if (!kinds.empty()) kinds += ", ";
    kinds += kind;
  }
  return Status::InvalidArgument("unknown predictor kind '" + spec.kind +
                                 "' (registered: " + kinds + ")");
}

StatusOr<std::unique_ptr<LoadPredictor>> MakePredictor(
    const std::string& text, const PredictorContext& context) {
  StatusOr<PredictorSpec> spec = ParsePredictorSpec(text);
  if (!spec.ok()) return spec.status();
  return MakePredictor(*spec, context);
}

}  // namespace pstore
