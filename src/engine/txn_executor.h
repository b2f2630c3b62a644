#ifndef PSTORE_ENGINE_TXN_EXECUTOR_H_
#define PSTORE_ENGINE_TXN_EXECUTOR_H_

#include <array>
#include <cstdint>

#include "common/rng.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "engine/cluster.h"
#include "engine/metrics.h"
#include "engine/transaction.h"
#include "obs/tracer.h"

namespace pstore {

// Execution-cost model for transactions. The paper adds a small
// artificial delay per transaction so that a 6-partition server
// saturates at ~438 txn/s (§7, §8.1); the default mean service time of
// 6/438 s per partition reproduces that operating point.
struct ExecutorOptions {
  double mean_service_seconds = 6.0 / 438.0;
  // Multi-partition (distributed) transactions pay two-phase-commit
  // overhead: every participant's service time is multiplied by
  // (1 + two_pc_overhead), and the result is only visible after an
  // extra coordination delay. This is the cost that makes "few
  // distributed transactions" (§4.2) a requirement for linear
  // scalability.
  double two_pc_overhead = 1.0;
  double coordination_delay_seconds = 0.002;
  uint64_t seed = 99;
};

// Routes single-partition transactions to the partition owning their
// key's bucket, runs the stored-procedure logic against that partition's
// storage, charges the partition an exponentially-distributed service
// time, and records the latency with the metrics collector.
class TxnExecutor {
 public:
  TxnExecutor(Cluster* cluster, MetricsCollector* metrics,
              const ExecutorOptions& options);
  TxnExecutor(const TxnExecutor&) = delete;
  TxnExecutor& operator=(const TxnExecutor&) = delete;

  // Registers the handler for a procedure id. `service_scale` multiplies
  // the mean service time for this procedure (heavier procedures > 1).
  Status RegisterProcedure(ProcedureId id, ProcedureHandler handler,
                           double service_scale = 1.0);

  // Registers a multi-key procedure: requests must carry extra keys.
  Status RegisterMultiProcedure(ProcedureId id, MultiProcedureHandler handler,
                                double service_scale = 1.0);

  // Executes one transaction submitted at simulated time `now`. Returns
  // the procedure's logical result; timing lands in the metrics.
  TxnResult Submit(const TxnRequest& request, SimTime now);

  // Routes the request's key or keys and prefetches, on each owning
  // partition, the bucket record and the keys' home slots (see
  // Partition::Prefetch). Reads only: no result, counter or random draw
  // changes. Called for the next arrival before the current one is
  // submitted, it overlaps the next transaction's cache misses with the
  // current one's work.
  void Prefetch(const TxnRequest& request) const;

  int64_t submitted_count() const { return submitted_count_; }
  int64_t committed_count() const { return committed_count_; }
  int64_t aborted_count() const { return aborted_count_; }
  // Multi-key transactions whose keys spanned > 1 partition.
  int64_t distributed_count() const { return distributed_count_; }
  // Transactions rejected because a needed node was down (a subset of
  // aborted_count); nonzero only under fault injection.
  int64_t unavailable_count() const { return unavailable_count_; }

  // Per-procedure outcome counters (commits and aborts), for workload
  // mix reporting.
  struct ProcedureStats {
    int64_t committed = 0;
    int64_t aborted = 0;
  };
  const ProcedureStats& procedure_stats(ProcedureId id) const {
    return procedure_stats_[id];
  }

  Cluster* cluster() { return cluster_; }

  // Observability: emits one engine.txn event per submitted transaction
  // under the kVerbose category (off in the default trace mask — this is
  // the per-transaction firehose).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  TxnResult SubmitMulti(const TxnRequest& request, SimTime now);
  void CountOutcome(ProcedureId id, const TxnResult& result);

  Cluster* cluster_;
  MetricsCollector* metrics_;
  ExecutorOptions options_;
  Rng rng_;
  std::array<ProcedureHandler, kMaxProcedures> handlers_ = {};
  std::array<MultiProcedureHandler, kMaxProcedures> multi_handlers_ = {};
  std::array<double, kMaxProcedures> service_scale_ = {};
  int64_t submitted_count_ = 0;
  int64_t committed_count_ = 0;
  int64_t aborted_count_ = 0;
  int64_t distributed_count_ = 0;
  int64_t unavailable_count_ = 0;
  std::array<ProcedureStats, kMaxProcedures> procedure_stats_ = {};
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace pstore

#endif  // PSTORE_ENGINE_TXN_EXECUTOR_H_
