// Microbenchmarks for the simulated engine: transaction submission
// throughput (the hot path of every experiment, inline from
// WorkloadDriver::Tick) with and without a tracer attached, key hashing,
// the transaction factory alone, YCSB's Zipf key draw, and bucket
// handoff.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>

#include "b2w/procedures.h"
#include "b2w/workload.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/zipf.h"
#include "engine/cluster.h"
#include "engine/metrics.h"
#include "engine/murmur_hash.h"
#include "engine/txn_executor.h"
#include "micro_util.h"
#include "obs/tracer.h"

namespace pstore {
namespace {

// `nodes` active machines of 6 partitions each over `buckets` buckets.
ClusterOptions BenchCluster(int nodes = 4, int buckets = 3600) {
  ClusterOptions options;
  options.partitions_per_node = 6;
  options.max_nodes = std::max(nodes, 10);
  options.initial_nodes = nodes;
  options.num_buckets = buckets;
  return options;
}

void BM_MurmurHash(benchmark::State& state) {
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MurmurHash64(++key));
  }
}
BENCHMARK(BM_MurmurHash);

// Args are {nodes, buckets}: the small cluster the other cases use, and
// the scale of the b2w_flat_100n benchmark workload (100 nodes, 600
// partitions, 15360 buckets), so this case's ns/txn can be set beside
// that workload's engine.submit_ns_per_txn. The loop also times the
// transaction factory (BM_TxnFactoryOnly), which that layer excludes.
void BM_TxnSubmit(benchmark::State& state) {
  Cluster cluster(BenchCluster(static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(1))));
  MetricsCollector metrics;
  TxnExecutor executor(&cluster, &metrics, ExecutorOptions{});
  PSTORE_CHECK(b2w::RegisterProcedures(&executor).ok());
  b2w::B2wWorkloadOptions workload_options;
  workload_options.cart_pool = 100000;
  workload_options.checkout_pool = 40000;
  b2w::Workload workload(workload_options);
  PSTORE_CHECK(workload.LoadInitialData(&cluster).ok());
  Rng rng(1);
  SimTime now = 0;
  for (auto _ : state) {
    now += 300;  // ~3333 txn/s offered
    benchmark::DoNotOptimize(
        executor.Submit(workload.NextTransaction(rng), now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TxnSubmit)->Args({4, 3600})->Args({100, 15360});

// The same hot path with a live tracer attached. With the default mask
// the per-transaction engine.txn events sit in kVerbose and are skipped
// after a null + bitmask check, so this measures the cost tracing-on
// runs pay when the firehose is off (the acceptance bar is < 5% vs
// BM_TxnSubmit). state.range(0) == 1 additionally enables kVerbose, so
// every submit builds and emits an event into a counting sink.
void BM_TxnSubmitTraced(benchmark::State& state) {
  Cluster cluster(BenchCluster());
  MetricsCollector metrics;
  TxnExecutor executor(&cluster, &metrics, ExecutorOptions{});
  PSTORE_CHECK(b2w::RegisterProcedures(&executor).ok());
  b2w::B2wWorkloadOptions workload_options;
  workload_options.cart_pool = 100000;
  workload_options.checkout_pool = 40000;
  b2w::Workload workload(workload_options);
  PSTORE_CHECK(workload.LoadInitialData(&cluster).ok());
  obs::Tracer tracer;
  tracer.SetSink(std::make_unique<obs::CountingTraceSink>());
  if (state.range(0) == 1) {
    tracer.Enable(obs::TraceCategory::kVerbose);
  }
  executor.set_tracer(&tracer);
  Rng rng(1);
  SimTime now = 0;
  for (auto _ : state) {
    now += 300;  // ~3333 txn/s offered
    benchmark::DoNotOptimize(
        executor.Submit(workload.NextTransaction(rng), now));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["events"] =
      static_cast<double>(tracer.events_emitted());
}
BENCHMARK(BM_TxnSubmitTraced)->Arg(0)->Arg(1);

void BM_TxnFactoryOnly(benchmark::State& state) {
  b2w::Workload workload(b2w::B2wWorkloadOptions{});
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload.NextTransaction(rng));
  }
}
BENCHMARK(BM_TxnFactoryOnly);

// One key draw from ycsb_skew_32n's generator (1 M records) at theta =
// state.range(0) / 100. A draw reads the 8 MB CDF only near its head or
// when the model cannot decide; in this loop even a full search of it
// would hit a warm cache, which the engine's rows evict, so the loop
// understates what a draw saves inside the engine (DESIGN.md, "Zipf
// draws").
void BM_ZipfNextKey(benchmark::State& state) {
  const ZipfGenerator zipf(1000000,
                           static_cast<double>(state.range(0)) / 100.0);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.NextKey(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfNextKey)->Arg(60)->Arg(99)->Arg(120);

void BM_BucketHandoff(benchmark::State& state) {
  Cluster cluster(BenchCluster());
  b2w::B2wWorkloadOptions workload_options;
  workload_options.cart_pool = 100000;
  workload_options.checkout_pool = 40000;
  b2w::Workload workload(workload_options);
  PSTORE_CHECK(workload.LoadInitialData(&cluster).ok());
  int flip = 0;
  for (auto _ : state) {
    // Bounce bucket 7 between two partitions.
    cluster.MoveBucket(7, flip ? 0 : 6);
    flip ^= 1;
  }
}
BENCHMARK(BM_BucketHandoff);

}  // namespace
}  // namespace pstore

PSTORE_MICRO_BENCH_MAIN("engine")
