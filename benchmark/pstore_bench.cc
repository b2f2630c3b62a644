// pstore_bench: the repository's benchmark.
//
// Runs the reference workloads of workloads.h serially, one rep per
// child process (so peak RSS is the child's own, read from wait4), and
// reports end-to-end metrics as medians with quartiles over the untraced
// reps, host times also at reference speed (see HostSpeed), plus a
// per-layer split from traced reps. Every rep of a workload must produce
// the same simulated outputs (its sim digest) and pass the workload's
// invariants, or it counts as failed.
//
// Usage (benchmark/run.sh builds the binary and forwards its flags):
//   pstore_bench [--workload NAME[,NAME...]] [--seed N] [--out DIR]
//                [--reps N | --seconds S] [--trace 0|1] [--check]
//
//   --reps N      untraced reps per workload (default 5), plus one traced
//                 rep with --trace 1, interleaved round-robin
//   --seconds S   instead of a rep count, run reps of each workload for
//                 up to S seconds (at least 3 reps); with --trace 1
//                 every second rep is traced
//   --trace 0|1   run traced reps (default 1). The last stdout line is a
//                 JSON summary of the end-to-end metrics with --trace 0
//                 and of the per-layer metrics with --trace 1, printed
//                 when exactly one workload runs.
//   --check       1 untraced + 1 traced rep per workload; also fails when
//                 a traced rep's layers do not sum to within 10% of its
//                 wall time or a host-time layer is negative
//
// Unknown flags and workload names are errors.

#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/status.h"
#include "obs/trace_event.h"
#include "workloads.h"

namespace pstore {
namespace bench {
namespace {

constexpr int kDefaultReps = 5;
// --seconds runs at least this many reps per workload, so a median
// exists even when one rep outlasts the budget.
constexpr int kMinTimedReps = 3;
constexpr double kMaxUnaccountedFrac = 0.10;
// A rep that runs longer than this is killed and counted as failed. The
// longest rep takes about 6 s on the baseline host.
constexpr double kRepTimeoutSeconds = 60.0;

// ---- Metric catalogue ---------------------------------------------------------

struct EndToEndDef {
  const char* name;
  const char* unit;
  const char* better;
  // Share of the parent's median by which the metric may worsen; none
  // unless in_summary.
  double bound;
  // Listed in BENCHMARK.json and in the JSON summary line. The others
  // can read 0 on some workloads, which a relative bound cannot judge;
  // the sim digest guards them instead.
  bool in_summary;
};

// wall_s, setup_s and work_per_s are at reference speed (see
// HostSpeed); host_* are the same times as the clock read them.
const EndToEndDef kEndToEnd[] = {
    {"wall_s", "s", "lower", 0.25, true},
    {"setup_s", "s", "lower", 0.25, true},
    {"peak_rss_mb", "MB", "lower", 0.05, true},
    {"work_per_s", "1/s", "higher", 0.25, true},
    {"sim_machine_hours", "machine-h", "lower", 0.10, true},
    {"sim_sla_violation_s", "s", "lower", 0.0, false},
    {"error_rate", "fraction", "lower", 0.0, false},
    {"host_wall_s", "s", "lower", 0.0, false},
    {"host_setup_s", "s", "lower", 0.0, false},
    {"host_speed", "fraction", "higher", 0.0, false},
};

// Per-layer values a traced rep reports: host seconds, ns per
// transaction, simulated seconds or counts, as the unit says. A workload
// that leaves a layer idle reports 0 for it. BENCHMARK.json lists them
// all as its per-layer metrics.
struct LayerDef {
  const char* name;
  const char* unit;
  const char* better;
  // The end-to-end metric this layer should move, and on which workload.
  const char* moves;
};

const LayerDef kLayers[] = {
    {"b2w.gen_ns_per_txn", "ns", "lower", "wall_s on the b2w engine workloads"},
    {"ycsb.gen_ns_per_txn", "ns", "lower", "wall_s on ycsb_skew_32n"},
    {"engine.submit_ns_per_txn", "ns", "lower",
     "wall_s on the engine workloads, most on b2w_flat_100n"},
    {"engine.txns", "count", "higher", "work_per_s on the engine workloads"},
    {"engine.gen_s", "s", "lower", "wall_s on the engine workloads"},
    {"engine.submit_s", "s", "lower", "wall_s on the engine workloads"},
    {"engine.loop_s", "s", "lower", "wall_s on b2w_pstore_1d"},
    {"engine.finalize_s", "s", "lower", "wall_s on the engine workloads"},
    {"engine.timer_cost_ns", "ns", "lower", "nothing: the probes' clock cost"},
    {"prediction.fit_s", "s", "lower", "wall_s on b2w_pstore_1d"},
    {"prediction.update_s", "s", "lower", "wall_s on b2w_pstore_1d"},
    {"prediction.forecast_s", "s", "lower", "wall_s on capacity_fig12_77d"},
    {"prediction.forecast_calls", "count", "lower",
     "wall_s on capacity_fig12_77d"},
    {"prediction.refits", "count", "lower", "wall_s on b2w_pstore_1d"},
    {"prediction.warmup_s", "s", "lower",
     "setup_s on b2w_pstore_1d and capacity_fig12_77d"},
    {"planner.plan_s", "s", "lower", "wall_s on b2w_pstore_1d, marginally"},
    {"planner.plan_calls", "count", "lower",
     "wall_s on b2w_pstore_1d, marginally"},
    {"planner.infeasible_plans", "count", "lower",
     "sim_sla_violation_s on b2w_pstore_1d"},
    {"controller.cycles", "count", "lower", "wall_s on b2w_pstore_1d"},
    {"migration.reconfigurations", "count", "lower",
     "sim_machine_hours on b2w_pstore_1d"},
    {"migration.chunks", "count", "lower", "wall_s on b2w_pstore_1d"},
    {"migration.sim_active_s", "s", "lower",
     "sim_machine_hours on b2w_pstore_1d"},
    {"sim.predictive_s", "s", "lower", "wall_s on capacity_fig12_77d"},
    {"sim.reactive_s", "s", "lower", "wall_s on capacity_fig12_77d"},
    {"sim.simple_s", "s", "lower", "wall_s on capacity_fig12_77d"},
    {"sim.static_s", "s", "lower", "wall_s on capacity_fig12_77d"},
    {"sim.reconfigurations", "count", "lower", "wall_s on capacity_fig12_77d"},
    {"sim.insufficient_slots", "count", "lower",
     "sim_sla_violation_s on capacity_fig12_77d"},
    {"fleet.mix_s", "s", "lower", "setup_s on fleet_1000t_4d"},
    {"fleet.fleet_mode_s", "s", "lower",
     "wall_s and peak_rss_mb on fleet_1000t_4d"},
    {"fleet.dedicated_mode_s", "s", "lower", "wall_s on fleet_1000t_4d"},
    {"fleet.cycles", "count", "lower", "wall_s on fleet_1000t_4d"},
    {"fleet.repacks", "count", "lower", "wall_s on fleet_1000t_4d"},
    {"fleet.partition_moves", "count", "lower",
     "sim_machine_hours on fleet_1000t_4d"},
    {"fleet.spike_replans", "count", "lower", "wall_s on fleet_1000t_4d"},
    {"trace.generate_s", "s", "lower", "setup_s"},
    {"b2w.load_s", "s", "lower", "setup_s on the b2w engine workloads"},
    {"ycsb.load_s", "s", "lower", "setup_s on ycsb_skew_32n"},
    {"obs.probe_s", "s", "lower",
     "nothing: the engine probes' own clock reads"},
    {"obs.trace_overhead_frac", "fraction", "lower",
     "nothing: traced wall_s / untraced median wall_s - 1"},
    {"bench.spans_dropped", "count", "lower",
     "nothing: per-call spans counted, not written"},
    {"bench.unaccounted_frac", "fraction", "lower",
     "nothing: 1 - sum of disjoint layers / the traced rep's wall_s"},
};

// ---- Statistics ---------------------------------------------------------------

struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  size_t n = 0;
};

// Median and quartiles, the quartiles by the method of Python's
// statistics.quantiles(values, n=4) (its "exclusive" default).
Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  s.median = n % 2 == 1 ? values[n / 2]
                        : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  const auto quartile = [&](size_t i) {
    const size_t m = n + 1;
    size_t j = i * m / 4;
    j = std::clamp<size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - 4.0 * static_cast<double>(j);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

// ---- Child reps ---------------------------------------------------------------

struct Rep {
  bool traced = false;
  bool ok = false;
  std::string failure;  // why the rep failed
  double host_s = 0.0;  // child's whole lifetime, for --seconds budgets
  double peak_rss_mb = 0.0;
  double host_speed = 1.0;  // ReferenceKernel::Speed() around the rep
  std::map<std::string, double> values;  // setup_s, wall_s, work, sim_*
  std::string sim_digest;
  std::map<std::string, double> layers;
};

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Host speed -------------------------------------------------------------

// On a shared host the speed of a CPU moves from minute to minute with
// what other tenants run: on the baseline host by up to 60% for
// arithmetic and by more for memory latency, which the engine workloads'
// lookups wait on. There is no hardware counter to count work instead.
// So the parent runs a fixed reference kernel just before and just after
// every rep, on the CPU the rep runs on, and reports host times also at
// reference speed. The kernel chases pointers through a 16 MB table and
// then runs a dependent arithmetic chain. In two sets of ten 20-second
// runs per workload on the baseline host, scaling by it cut the quartile
// spread of wall_s from 4-11% to 2-5%, and the shift of its median
// between the sets from up to 18% to at most 6%. The kernel is benchmark
// code, so it is the same on every commit.

// Host seconds of one run of the reference kernel in this process.
double ReferenceKernelSeconds() {
  // next[i] = (a * i + c) mod 2^22 with a = 1 (mod 4) and c odd is one
  // cycle through every entry (Hull-Dobell) in an order the hardware
  // cannot prefetch.
  constexpr uint32_t kEntries = uint32_t{1} << 22;
  std::vector<uint32_t> next(kEntries);
  for (uint32_t i = 0; i < kEntries; ++i) {
    next[i] = (1664525u * i + 1013904223u) & (kEntries - 1);
  }
  const double start = MonotonicSeconds();
  uint32_t at = 0;
  for (int i = 0; i < 300000; ++i) at = next[at];
  uint64_t x = 88172645463325252ULL + at;
  for (int i = 0; i < 20000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double seconds = MonotonicSeconds() - start;
  // Using x keeps the chain from being optimised away.
  return x == 0 ? seconds + 1e-9 : seconds;
}

// The host's speed now relative to the baseline host: the kernel's
// typical seconds there over its seconds now. The kernel runs in a
// forked helper so that its table never adds to this process's RSS,
// which a rep's child starts from and ru_maxrss counts. 1 if the helper
// cannot run.
double HostSpeed() {
  constexpr double kBaselineSeconds = 0.08;
  int fds[2];
  if (pipe(fds) != 0) return 1.0;
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    const double seconds = ReferenceKernelSeconds();
    const ssize_t wrote = write(fds[1], &seconds, sizeof(seconds));
    _exit(wrote == static_cast<ssize_t>(sizeof(seconds)) ? 0 : 1);
  }
  close(fds[1]);
  double seconds = 0.0;
  const bool got = pid > 0 && read(fds[0], &seconds, sizeof(seconds)) ==
                                  static_cast<ssize_t>(sizeof(seconds));
  close(fds[0]);
  if (pid > 0) {
    while (waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
    }
  }
  return got && seconds > 0.0 ? kBaselineSeconds / seconds : 1.0;
}

// Pins this process, and so every child it forks, to the highest CPU it
// may use. On the baseline host, migrations between CPUs widened the
// rep-to-rep spread of wall_s on b2w_flat_100n from about 10% to 17%.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

// Child side: runs one rep and writes it to stdout, one "key value" per
// line. Exit 0 = rep ran and passed its checks, 3 = failed a check.
int ChildMain(const std::string& workload, uint64_t seed, bool traced,
              const std::string& out_dir) {
  const std::string spans_path = out_dir + "/" + workload + ".spans.jsonl";
  const StatusOr<RepResult> rep = RunRep(workload, seed, traced, spans_path);
  if (!rep.ok()) {
    std::printf("failure %s\n", rep.status().ToString().c_str());
    return 3;
  }
  std::printf("setup_s %.17g\nwall_s %.17g\nwork %.17g\n", rep->setup_s,
              rep->wall_s, rep->work);
  std::printf("sim_machine_hours %.17g\nsim_sla_violation_s %.17g\n",
              rep->sim_machine_hours, rep->sim_sla_violation_s);
  std::printf("sim_digest %s\n", rep->sim_digest.c_str());
  for (const auto& [name, value] : rep->layers) {
    std::printf("layer %s %.17g\n", name.c_str(), value);
  }
  for (const std::string& failure : rep->failures) {
    std::printf("failure %s\n", failure.c_str());
  }
  return rep->failures.empty() ? 0 : 3;
}

void ParseChildOutput(const std::string& text, Rep* rep) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "failure") {
      std::string rest;
      std::getline(fields, rest);
      if (!rep->failure.empty()) rep->failure += "; ";
      rep->failure += rest.empty() ? rest : rest.substr(1);
    } else if (key == "sim_digest") {
      fields >> rep->sim_digest;
    } else if (key == "layer") {
      std::string name;
      double value = 0.0;
      if (fields >> name >> value) rep->layers[name] = value;
    } else if (!key.empty()) {
      double value = 0.0;
      if (fields >> value) rep->values[key] = value;
    }
  }
}

// Runs one rep in a child process of this binary and waits for it.
Rep RunChild(const std::string& self, const std::string& workload,
             uint64_t seed, bool traced, const std::string& out_dir) {
  Rep rep;
  rep.traced = traced;
  const double start = MonotonicSeconds();
  const double speed_before = HostSpeed();
  const std::string seed_arg = std::to_string(seed);
  std::vector<std::string> args = {self,     "--child", "--workload",
                                   workload, "--seed",  seed_arg,
                                   "--trace", traced ? "1" : "0",
                                   "--out",  out_dir};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    rep.failure = std::string("pipe: ") + std::strerror(errno);
    return rep;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    rep.failure = std::string("fork: ") + std::strerror(errno);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    return rep;
  }
  if (pid == 0) {
    dup2(pipe_fds[1], STDOUT_FILENO);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    execv(self.c_str(), argv.data());
    _exit(127);
  }
  close(pipe_fds[1]);

  std::string output;
  bool timed_out = false;
  char buf[4096];
  for (;;) {
    const double left = kRepTimeoutSeconds - (MonotonicSeconds() - start);
    if (left <= 0.0) {
      timed_out = true;
      kill(pid, SIGKILL);
      break;
    }
    pollfd pfd{pipe_fds[0], POLLIN, 0};
    const int ready = poll(&pfd, 1, static_cast<int>(left * 1000.0) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    const ssize_t got = read(pipe_fds[0], buf, sizeof(buf));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    output.append(buf, static_cast<size_t>(got));
  }
  close(pipe_fds[0]);

  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  rep.host_speed = 0.5 * (speed_before + HostSpeed());
  rep.host_s = MonotonicSeconds() - start;
  rep.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  ParseChildOutput(output, &rep);
  if (timed_out) {
    rep.failure = "timed out after " + std::to_string(kRepTimeoutSeconds) + " s";
  } else if (WIFSIGNALED(status)) {
    rep.failure = std::string("killed by signal ") + strsignal(WTERMSIG(status));
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    if (rep.failure.empty()) {
      rep.failure = "exit code " + std::to_string(WEXITSTATUS(status));
    }
  } else if (rep.sim_digest.empty() || rep.values.count("wall_s") == 0) {
    rep.failure = "incomplete child output";
  } else {
    rep.ok = true;
  }
  return rep;
}

// ---- Host context -------------------------------------------------------------

struct LoadAvg {
  double one = 0.0, five = 0.0, fifteen = 0.0;
};

LoadAvg ReadLoadAvg() {
  double values[3] = {0.0, 0.0, 0.0};
  LoadAvg load;
  if (getloadavg(values, 3) == 3) {
    load.one = values[0];
    load.five = values[1];
    load.fifteen = values[2];
  }
  return load;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon != std::string::npos) {
      const size_t begin = line.find_first_not_of(' ', colon + 1);
      return begin == std::string::npos ? "" : line.substr(begin);
    }
  }
  return "unknown";
}

// ---- Recorded digests ---------------------------------------------------------

// benchmark/sim_digests.txt: "<workload> <seed> <digest>" per line.
std::map<std::pair<std::string, uint64_t>, std::string> ReadRecordedDigests() {
  std::map<std::pair<std::string, uint64_t>, std::string> recorded;
  std::ifstream in(std::string(PSTORE_BENCH_SOURCE_DIR) + "/sim_digests.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, digest;
    uint64_t seed = 0;
    if (fields >> workload >> seed >> digest) {
      recorded[{workload, seed}] = digest;
    }
  }
  return recorded;
}

// ---- Aggregation --------------------------------------------------------------

struct WorkloadReport {
  const WorkloadInfo* info = nullptr;
  std::vector<Rep> reps;
  std::string sim_digest;
  std::string recorded_digest;  // empty when none is recorded
  std::map<std::string, Summary> end_to_end;
  std::map<std::string, Summary> layers;
  std::vector<std::string> failures;
  int attempted = 0;
  int failed = 0;
};

// Marks reps whose sim digest differs from the first good rep's, then
// summarises the good reps.
void Aggregate(WorkloadReport* report) {
  for (size_t i = 0; i < report->reps.size(); ++i) {
    Rep& rep = report->reps[i];
    if (rep.ok) {
      if (report->sim_digest.empty()) {
        report->sim_digest = rep.sim_digest;
      } else if (rep.sim_digest != report->sim_digest) {
        rep.ok = false;
        rep.failure = "determinism: sim digest " + rep.sim_digest +
                      " != " + report->sim_digest;
      }
    }
    ++report->attempted;
    if (!rep.ok) {
      ++report->failed;
      report->failures.push_back("rep " + std::to_string(i) +
                                 (rep.traced ? " (traced): " : ": ") +
                                 rep.failure);
    }
  }

  // A host time at reference speed is the host time times the host's
  // speed around the rep.
  std::map<std::string, std::vector<double>> untraced;
  for (const Rep& rep : report->reps) {
    if (!rep.ok || rep.traced) continue;
    const double wall = rep.values.at("wall_s") * rep.host_speed;
    untraced["wall_s"].push_back(wall);
    untraced["setup_s"].push_back(rep.values.at("setup_s") * rep.host_speed);
    untraced["host_wall_s"].push_back(rep.values.at("wall_s"));
    untraced["host_setup_s"].push_back(rep.values.at("setup_s"));
    untraced["host_speed"].push_back(rep.host_speed);
    untraced["peak_rss_mb"].push_back(rep.peak_rss_mb);
    untraced["work_per_s"].push_back(rep.values.at("work") / wall);
    untraced["sim_machine_hours"].push_back(
        rep.values.at("sim_machine_hours"));
    untraced["sim_sla_violation_s"].push_back(
        rep.values.at("sim_sla_violation_s"));
  }
  for (auto& [name, values] : untraced) {
    report->end_to_end[name] = Summarize(values);
  }
  report->end_to_end["error_rate"] = Summarize(
      {report->attempted > 0 ? static_cast<double>(report->failed) /
                                   report->attempted
                             : 0.0});

  // Traced reps. The layers of a rep (host times) are set against its own
  // host wall_s; the probes' cost shows against the untraced median, both
  // at reference speed.
  if (untraced.count("wall_s") == 0) return;
  const double untraced_wall = report->end_to_end["wall_s"].median;
  std::map<std::string, std::vector<double>> layers;
  for (const Rep& rep : report->reps) {
    if (!rep.ok || !rep.traced) continue;
    std::map<std::string, double> values = rep.layers;
    const double wall = rep.values.at("wall_s");
    values["obs.trace_overhead_frac"] =
        wall * rep.host_speed / untraced_wall - 1.0;
    values["bench.unaccounted_frac"] =
        1.0 - values["bench.layer_sum_s"] / wall;
    for (const auto& [name, value] : values) layers[name].push_back(value);
  }
  for (auto& [name, values] : layers) {
    report->layers[name] = Summarize(std::move(values));
  }
}

// ---- Output -------------------------------------------------------------------

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  obs::AppendJsonEscaped(text, &out);
  out += '"';
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

struct RunConfig {
  std::vector<std::string> workloads;
  uint64_t seed = 42;
  int reps = kDefaultReps;
  double seconds = 0.0;  // > 0: time-bounded reps
  bool trace = true;
  bool check = false;
  std::string out_dir;
};

void PrintLines(const WorkloadReport& report) {
  const char* name = report.info->name;
  for (const EndToEndDef& def : kEndToEnd) {
    const auto it = report.end_to_end.find(def.name);
    if (it == report.end_to_end.end()) continue;
    std::printf("%s %s %.6g %s\n", name, def.name, it->second.median, def.unit);
  }
  for (const LayerDef& def : kLayers) {
    const auto it = report.layers.find(def.name);
    if (it == report.layers.end()) continue;
    std::printf("%s %s %.6g %s\n", name, def.name, it->second.median, def.unit);
  }
  std::printf("%s sim_digest %s recorded %s\n", name,
              report.sim_digest.empty() ? "-" : report.sim_digest.c_str(),
              report.recorded_digest.empty() ? "-"
                                             : report.recorded_digest.c_str());
  if (!report.recorded_digest.empty() && !report.sim_digest.empty() &&
      report.sim_digest != report.recorded_digest) {
    std::printf("%s note: sim digest differs from the recorded one; the "
                "sim_* metrics show the direction of the change\n",
                name);
  }
  for (const std::string& failure : report.failures) {
    std::printf("%s FAILED %s\n", name, failure.c_str());
  }
}

std::string SummaryJson(const Summary& s, const char* unit) {
  return "{\"median\": " + JsonNumber(s.median) +
         ", \"q1\": " + JsonNumber(s.q1) + ", \"q3\": " + JsonNumber(s.q3) +
         ", \"n\": " + std::to_string(s.n) + ", \"unit\": " +
         JsonString(unit);
}

Status WriteResults(const RunConfig& config,
                    const std::vector<WorkloadReport>& reports,
                    const LoadAvg& before, const LoadAvg& after) {
  std::string out = "{\n  \"benchmark\": \"pstore_bench\",\n";
  out += "  \"seed\": " + std::to_string(config.seed) + ",\n";
  out += "  \"schedule\": {\"reps\": " +
         std::to_string(config.seconds > 0.0 ? 0 : config.reps) +
         ", \"seconds\": " + JsonNumber(config.seconds) +
         ", \"trace\": " + (config.trace ? "true" : "false") +
         ", \"check\": " + (config.check ? "true" : "false") + "},\n";
  out += "  \"host\": {\"nproc\": " +
         std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"cpu_model\": " + JsonString(CpuModel()) +
         ", \"compiler\": " + JsonString(__VERSION__) +
         ", \"build_type\": " + JsonString(PSTORE_BENCH_BUILD_TYPE) +
         ", \"load_avg_before\": [" + JsonNumber(before.one) + ", " +
         JsonNumber(before.five) + ", " + JsonNumber(before.fifteen) +
         "], \"load_avg_after\": [" + JsonNumber(after.one) + ", " +
         JsonNumber(after.five) + ", " + JsonNumber(after.fifteen) + "]},\n";
  out += "  \"workloads\": {";
  for (size_t w = 0; w < reports.size(); ++w) {
    const WorkloadReport& r = reports[w];
    out += w == 0 ? "\n" : ",\n";
    out += "    " + JsonString(r.info->name) + ": {\n";
    out += "      \"why\": " + JsonString(r.info->why) + ",\n";
    out += "      \"work_unit\": " + JsonString(r.info->work_unit) + ",\n";
    out += "      \"attempted\": " + std::to_string(r.attempted) +
           ", \"failed\": " + std::to_string(r.failed) + ",\n";
    out += "      \"sim_digest\": " + JsonString(r.sim_digest) +
           ", \"recorded_sim_digest\": " +
           (r.recorded_digest.empty() ? "null"
                                      : JsonString(r.recorded_digest)) +
           ",\n";
    out += "      \"end_to_end\": {";
    bool first = true;
    for (const EndToEndDef& def : kEndToEnd) {
      const auto it = r.end_to_end.find(def.name);
      if (it == r.end_to_end.end()) continue;
      out += first ? "\n" : ",\n";
      first = false;
      out += "        " + JsonString(def.name) + ": " +
             SummaryJson(it->second, def.unit) +
             ", \"better\": " + JsonString(def.better) + ", \"bound\": " +
             (def.in_summary ? JsonNumber(def.bound) : "null") + "}";
    }
    out += "\n      },\n      \"per_layer\": {";
    first = true;
    for (const LayerDef& def : kLayers) {
      const auto it = r.layers.find(def.name);
      if (it == r.layers.end()) continue;
      out += first ? "\n" : ",\n";
      first = false;
      out += "        " + JsonString(def.name) + ": " +
             SummaryJson(it->second, def.unit) +
             ", \"better\": " + JsonString(def.better) +
             ", \"moves\": " + JsonString(def.moves) + "}";
    }
    out += "\n      },\n      \"failures\": [";
    for (size_t i = 0; i < r.failures.size(); ++i) {
      out += (i == 0 ? "" : ", ") + JsonString(r.failures[i]);
    }
    out += "]\n    }";
  }
  out += "\n  }\n}\n";

  const std::string path = config.out_dir + "/results.json";
  std::ofstream file(path);
  file << out;
  file.close();
  if (!file) return Status::Internal("cannot write " + path);
  return Status::OK();
}

// The last stdout line: one workload's end-to-end metrics (untraced
// run) or per-layer metrics (traced run), those of BENCHMARK.json.
// Layers a workload does not exercise read 0.
void PrintSummaryLine(const RunConfig& config, const WorkloadReport& report) {
  std::string metrics;
  const auto add = [&metrics](const char* name, double value,
                              const char* unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(name) + ": {\"value\": " + JsonNumber(value) +
               ", \"unit\": " + JsonString(unit) + "}";
  };
  if (!config.trace) {
    for (const EndToEndDef& def : kEndToEnd) {
      if (!def.in_summary) continue;
      const auto it = report.end_to_end.find(def.name);
      add(def.name, it == report.end_to_end.end() ? 0.0 : it->second.median,
          def.unit);
    }
  } else {
    for (const LayerDef& def : kLayers) {
      const auto it = report.layers.find(def.name);
      add(def.name, it == report.layers.end() ? 0.0 : it->second.median,
          def.unit);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {%s}}\n",
              report.failed == 0 ? "true" : "false", report.attempted,
              report.failed, metrics.c_str());
}

// ---- Flags --------------------------------------------------------------------

int Usage(const std::string& error) {
  std::fprintf(stderr,
               "pstore_bench: %s\n"
               "usage: pstore_bench [--workload NAME[,NAME...]] [--seed N] "
               "[--out DIR]\n"
               "                    [--reps N | --seconds S] [--trace 0|1] "
               "[--check]\n",
               error.c_str());
  return 2;
}

const WorkloadInfo* FindWorkload(const std::string& name) {
  for (const WorkloadInfo& info : Workloads()) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream in(text);
  while (std::getline(in, part, ',')) parts.push_back(part);
  return parts;
}

// Parses the flags of both modes; returns a Usage error message or "".
std::string ParseFlags(const FlagParser& flags, RunConfig* config,
                       bool* child) {
  static const std::set<std::string> kKnown = {
      "workload", "seed", "reps", "seconds", "trace", "out", "check", "child"};
  for (const auto& [name, value] : flags.flags()) {
    if (kKnown.count(name) == 0) return "unknown flag --" + name;
  }
  if (!flags.positional().empty()) {
    return "unexpected argument '" + flags.positional().front() + "'";
  }
  *child = flags.GetBool("child", false);
  config->check = flags.GetBool("check", false);

  const std::string workloads = flags.GetString("workload", "");
  if (workloads.empty() || workloads == "true") {
    if (flags.flags().count("workload")) return "--workload needs a name";
    for (const WorkloadInfo& info : Workloads()) {
      config->workloads.push_back(info.name);
    }
  } else {
    for (const std::string& name : SplitCommas(workloads)) {
      if (FindWorkload(name) == nullptr) return "unknown workload '" + name + "'";
      config->workloads.push_back(name);
    }
  }

  const StatusOr<int64_t> seed = flags.GetInt("seed", 42);
  const StatusOr<int64_t> reps = flags.GetInt("reps", kDefaultReps);
  const StatusOr<double> seconds = flags.GetDouble("seconds", 0.0);
  const StatusOr<int64_t> trace = flags.GetInt("trace", 1);
  for (const Status& status :
       {seed.status(), reps.status(), seconds.status(), trace.status()}) {
    if (!status.ok()) return status.message();
  }
  if (*seed < 0) return "--seed must be >= 0";
  if (*reps < 1) return "--reps must be >= 1";
  if (*seconds < 0.0) return "--seconds must be > 0";
  if (*trace != 0 && *trace != 1) return "--trace must be 0 or 1";
  if (flags.flags().count("reps") && flags.flags().count("seconds")) {
    return "--reps and --seconds are exclusive";
  }
  if (config->check && (flags.flags().count("reps") ||
                        flags.flags().count("seconds") || *trace == 0)) {
    return "--check fixes the schedule (1 untraced + 1 traced rep)";
  }
  config->seed = static_cast<uint64_t>(*seed);
  config->reps = config->check ? 1 : static_cast<int>(*reps);
  config->seconds = *seconds;
  config->trace = *trace == 1;
  config->out_dir = flags.GetString("out", "build/benchmark/results");
  return "";
}

std::string SelfPath() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return buf;
}

// ---- Parent -------------------------------------------------------------------

int ParentMain(const RunConfig& config) {
  std::error_code ec;
  std::filesystem::create_directories(config.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "pstore_bench: cannot create %s: %s\n",
                 config.out_dir.c_str(), ec.message().c_str());
    return 1;
  }
  const std::string self = SelfPath();
  if (self.empty()) {
    std::fprintf(stderr, "pstore_bench: cannot locate own binary\n");
    return 1;
  }
  const auto recorded = ReadRecordedDigests();
  const LoadAvg before = ReadLoadAvg();

  std::vector<WorkloadReport> reports(config.workloads.size());
  std::vector<double> spent(config.workloads.size(), 0.0);
  for (size_t w = 0; w < reports.size(); ++w) {
    reports[w].info = FindWorkload(config.workloads[w]);
  }
  // Round-robin over workloads, one rep each per round, the parent
  // never running two children at once. --reps: N untraced rounds then
  // one traced round. --seconds: every second rep traced, and no rep
  // started that would, at the mean rep time so far, end past S.
  PinToOneCpu();
  for (int round = 0;; ++round) {
    bool any = false;
    for (size_t w = 0; w < reports.size(); ++w) {
      bool traced = false;
      if (config.seconds > 0.0) {
        const auto reps = static_cast<double>(reports[w].reps.size());
        if (reps >= kMinTimedReps && spent[w] + spent[w] / reps > config.seconds) {
          continue;
        }
        traced = config.trace && round % 2 == 1;
      } else {
        if (round >= config.reps + (config.trace ? 1 : 0)) continue;
        traced = round >= config.reps;
      }
      any = true;
      Rep rep = RunChild(self, config.workloads[w], config.seed, traced,
                         config.out_dir);
      spent[w] += rep.host_s;
      std::fprintf(stderr,
                   "[pstore_bench] %s rep %d%s: %s, host wall_s %.4f, host "
                   "speed %.3f (%.2f s)\n",
                   config.workloads[w].c_str(), round,
                   traced ? " traced" : "",
                   rep.ok ? "ok" : rep.failure.c_str(),
                   rep.values.count("wall_s") ? rep.values["wall_s"] : 0.0,
                   rep.host_speed, rep.host_s);
      reports[w].reps.push_back(std::move(rep));
    }
    if (!any) break;
  }
  const LoadAvg after = ReadLoadAvg();

  bool all_ok = true;
  for (WorkloadReport& report : reports) {
    const auto it = recorded.find({report.info->name, config.seed});
    if (it != recorded.end()) report.recorded_digest = it->second;
    Aggregate(&report);
    if (report.failed > 0) all_ok = false;
    if (config.check) {
      const auto frac = report.layers.find("bench.unaccounted_frac");
      if (frac == report.layers.end() ||
          std::fabs(frac->second.median) > kMaxUnaccountedFrac) {
        report.failures.push_back(
            "check: |bench.unaccounted_frac| > 0.10 or missing");
        all_ok = false;
      }
      // engine.loop_s and engine.submit_ns_per_txn are what is left of
      // the probe's gaps after the clock correction, so the layers sum to
      // the traced wall_s by construction; a time below 0 means the
      // correction took out more than the probes cost.
      for (const LayerDef& def : kLayers) {
        const auto layer = report.layers.find(def.name);
        const bool time = std::strcmp(def.unit, "s") == 0 ||
                          std::strcmp(def.unit, "ns") == 0;
        if (time && layer != report.layers.end() &&
            layer->second.median < 0.0) {
          report.failures.push_back(std::string("check: ") + def.name +
                                    " < 0");
          all_ok = false;
        }
      }
    }
    PrintLines(report);
  }
  std::printf("host nproc %ld load_avg_before %.2f load_avg_after %.2f\n",
              sysconf(_SC_NPROCESSORS_ONLN), before.one, after.one);
  const Status written = WriteResults(config, reports, before, after);
  if (!written.ok()) {
    std::fprintf(stderr, "pstore_bench: %s\n", written.ToString().c_str());
    all_ok = false;
  }
  std::printf("results: %s/results.json\n", config.out_dir.c_str());
  if (reports.size() == 1) PrintSummaryLine(config, reports.front());
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace pstore

int main(int argc, char** argv) {
  using namespace pstore::bench;
  pstore::FlagParser flags;
  const pstore::Status parsed = flags.Parse(argc - 1, argv + 1);
  if (!parsed.ok()) return Usage(parsed.ToString());
  RunConfig config;
  bool child = false;
  const std::string error = ParseFlags(flags, &config, &child);
  if (!error.empty()) return Usage(error);
  if (child) {
    return ChildMain(config.workloads.front(), config.seed, config.trace,
                     config.out_dir);
  }
  return ParentMain(config);
}
