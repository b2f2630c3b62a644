#include "engine/txn_executor.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "engine/cluster.h"
#include "engine/metrics.h"
#include "engine/partition.h"
#include "engine/transaction.h"
#include "obs/tracer.h"

namespace pstore {

TxnExecutor::TxnExecutor(Cluster* cluster, MetricsCollector* metrics,
                         const ExecutorOptions& options)
    : cluster_(cluster),
      metrics_(metrics),
      options_(options),
      rng_(options.seed) {
  PSTORE_CHECK(cluster_ != nullptr);
  PSTORE_CHECK(options_.mean_service_seconds > 0.0);
}

Status TxnExecutor::RegisterProcedure(ProcedureId id, ProcedureHandler handler,
                                      double service_scale) {
  if (id >= kMaxProcedures) {
    return Status::OutOfRange("procedure id " + std::to_string(id) +
                              " exceeds kMaxProcedures");
  }
  if (handler == nullptr) {
    return Status::InvalidArgument("null procedure handler");
  }
  if (service_scale <= 0.0) {
    return Status::InvalidArgument("service_scale must be positive");
  }
  if (handlers_[id] != nullptr) {
    return Status::AlreadyExists("procedure " + std::to_string(id) +
                                 " already registered");
  }
  handlers_[id] = handler;
  service_scale_[id] = service_scale;
  return Status::OK();
}

Status TxnExecutor::RegisterMultiProcedure(ProcedureId id,
                                           MultiProcedureHandler handler,
                                           double service_scale) {
  if (id >= kMaxProcedures) {
    return Status::OutOfRange("procedure id " + std::to_string(id) +
                              " exceeds kMaxProcedures");
  }
  if (handler == nullptr) {
    return Status::InvalidArgument("null procedure handler");
  }
  if (service_scale <= 0.0) {
    return Status::InvalidArgument("service_scale must be positive");
  }
  if (handlers_[id] != nullptr || multi_handlers_[id] != nullptr) {
    return Status::AlreadyExists("procedure " + std::to_string(id) +
                                 " already registered");
  }
  multi_handlers_[id] = handler;
  service_scale_[id] = service_scale;
  return Status::OK();
}

void TxnExecutor::CountOutcome(ProcedureId id, const TxnResult& result) {
  if (result.status == TxnStatus::kCommitted) {
    ++committed_count_;
    ++procedure_stats_[id].committed;
  } else {
    ++aborted_count_;
    ++procedure_stats_[id].aborted;
  }
}

TxnResult TxnExecutor::SubmitMulti(const TxnRequest& request, SimTime now) {
  const int num_keys = 1 + request.num_extra_keys;
  TxnContext contexts[kMaxTxnKeys];
  bool distributed = false;
  for (int i = 0; i < num_keys; ++i) {
    const uint64_t key = i == 0 ? request.key : request.extra_keys[i - 1];
    const BucketId bucket = cluster_->BucketForKey(key);
    const int partition_id = cluster_->PartitionOfBucket(bucket);
    if (!cluster_->IsNodeUp(cluster_->NodeOfPartition(partition_id))) {
      ++unavailable_count_;
      if (metrics_ != nullptr) metrics_->RecordUnavailable(now);
      const TxnResult result{TxnStatus::kUnavailable, 0};
      CountOutcome(request.procedure, result);
      return result;
    }
    contexts[i].partition = &cluster_->partition(partition_id);
    contexts[i].bucket = bucket;
    contexts[i].key = key;
    contexts[i].arg = request.arg;
    contexts[i].partition->RecordAccess(bucket);
    if (contexts[i].partition != contexts[0].partition) distributed = true;
  }
  if (distributed) ++distributed_count_;

  const TxnResult result =
      multi_handlers_[request.procedure](contexts, num_keys);

  // Every participant executes its fragment; a distributed transaction
  // additionally pays 2PC overhead on each participant and completes
  // only after all participants have, plus the coordination delay.
  const double base_mean =
      options_.mean_service_seconds * service_scale_[request.procedure];
  const double mean =
      distributed ? base_mean * (1.0 + options_.two_pc_overhead) : base_mean;
  SimTime completion = 0;
  for (int i = 0; i < num_keys; ++i) {
    // Skip duplicate partitions (both keys on the same partition = one
    // fragment).
    bool duplicate = false;
    for (int j = 0; j < i; ++j) {
      if (contexts[j].partition == contexts[i].partition) duplicate = true;
    }
    if (duplicate) continue;
    const SimTime service = FromSeconds(rng_.NextExponential(mean));
    completion =
        std::max(completion, contexts[i].partition->Submit(now, service));
  }
  if (distributed) {
    completion += FromSeconds(options_.coordination_delay_seconds);
  }
  if (metrics_ != nullptr) metrics_->RecordTxn(now, completion);
  CountOutcome(request.procedure, result);
  PSTORE_TRACE(tracer_, ::pstore::obs::TraceCategory::kVerbose, now,
               "engine.txn",
               .With("proc", request.procedure)
                   .With("committed", result.status == TxnStatus::kCommitted)
                   .With("distributed", distributed)
                   .With("latency_us", completion - now));
  return result;
}

void TxnExecutor::Prefetch(const TxnRequest& request) const {
  if (request.procedure >= kMaxProcedures) return;
  const int extra_keys =
      multi_handlers_[request.procedure] == nullptr
          ? 0
          : std::clamp(request.num_extra_keys, 0, kMaxTxnKeys - 1);
  for (int i = 0; i <= extra_keys; ++i) {
    const uint64_t key = i == 0 ? request.key : request.extra_keys[i - 1];
    const BucketId bucket = cluster_->BucketForKey(key);
    cluster_->partition(cluster_->PartitionOfBucket(bucket))
        .Prefetch(bucket, key);
  }
}

TxnResult TxnExecutor::Submit(const TxnRequest& request, SimTime now) {
  ++submitted_count_;
  if (request.procedure >= kMaxProcedures ||
      (handlers_[request.procedure] == nullptr &&
       multi_handlers_[request.procedure] == nullptr)) {
    ++aborted_count_;
    return TxnResult{TxnStatus::kUnknownProcedure, 0};
  }
  if (multi_handlers_[request.procedure] != nullptr) {
    if (request.num_extra_keys < 0 ||
        request.num_extra_keys > kMaxTxnKeys - 1) {
      ++aborted_count_;
      return TxnResult{TxnStatus::kAborted, 0};
    }
    return SubmitMulti(request, now);
  }

  const BucketId bucket = cluster_->BucketForKey(request.key);
  const int partition_id = cluster_->PartitionOfBucket(bucket);
  if (!cluster_->IsNodeUp(cluster_->NodeOfPartition(partition_id))) {
    // The owning node is crashed: fail fast without executing or
    // charging service time (the client sees an error, not a stall).
    ++unavailable_count_;
    if (metrics_ != nullptr) metrics_->RecordUnavailable(now);
    const TxnResult result{TxnStatus::kUnavailable, 0};
    CountOutcome(request.procedure, result);
    return result;
  }
  Partition& partition = cluster_->partition(partition_id);
  partition.RecordAccess(bucket);

  TxnContext context;
  context.partition = &partition;
  context.bucket = bucket;
  context.key = request.key;
  context.arg = request.arg;
  const TxnResult result = handlers_[request.procedure](context);

  const double mean =
      options_.mean_service_seconds * service_scale_[request.procedure];
  const SimTime service = FromSeconds(rng_.NextExponential(mean));
  const SimTime completion = partition.Submit(now, service);
  if (metrics_ != nullptr) metrics_->RecordTxn(now, completion);

  CountOutcome(request.procedure, result);
  PSTORE_TRACE(tracer_, ::pstore::obs::TraceCategory::kVerbose, now,
               "engine.txn",
               .With("proc", request.procedure)
                   .With("committed", result.status == TxnStatus::kCommitted)
                   .With("distributed", false)
                   .With("latency_us", completion - now));
  return result;
}

}  // namespace pstore
