#ifndef ENHANCENET_SHARD_EXECUTOR_H_
#define ENHANCENET_SHARD_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "runtime/allocator.h"
#include "runtime/context.h"
#include "shard/halo.h"
#include "shard/shard_plan.h"
#include "tensor/tensor.h"

namespace enhancenet {
namespace obs {
class Gauge;
}  // namespace obs

namespace shard {

/// Entity-sharded execution of the per-entity aggregation kernels
/// (DESIGN.md §12): the graph applies — the only cross-entity operations in
/// any model family — are partitioned by a ShardPlan, and each shard's rows
/// run with that shard's own RuntimeContext bound (private allocator,
/// private workspace, a num_threads slice of the owning context's budget).
/// Every temporary a shard stages — its output slab, its halo buffer, its
/// workspace scratch — therefore lives on that shard's allocator, and the
/// whole set retires together when the executor does.
///
/// Bitwise contract: shard kernels iterate exactly the row slices of the
/// single-context kernels with the same per-row operand order (CSR entry
/// order survives the halo remap; the dense apply runs AdjacencyMatMul's
/// tiled GEMM on the shard's row block, whose rows keep their bits), so any
/// shard count S >= 1 produces bit-identical output to shards=1. Shards
/// execute in plan order; within a shard, rows parallelize under the usual
/// ownership contract.
///
/// Scope: serving/no-grad forwards. The routing sites (graph::ApplyAdjacency
/// and graph::ApplySparseAdjacency) fall back to the single-context kernels
/// whenever a gradient is being recorded.
class EntityShardedExecutor {
 public:
  /// Builds one RuntimeContext per shard. Thread budget: each shard context
  /// gets max(1, T/S) ParallelFor threads, where T is the budget of the
  /// context bound at construction. Its topk setting is copied;
  /// shard contexts always run shards=1 (no recursive sharding).
  explicit EntityShardedExecutor(ShardPlan plan);

  const ShardPlan& plan() const { return plan_; }
  int num_shards() const { return plan_.num_shards(); }
  runtime::RuntimeContext& context(int s) { return *contexts_[s]; }

  /// y = adj · x computed shard-by-shard: adj [N,N], x [B,N,C] -> [B,N,C].
  /// Bitwise-identical to autograd::AdjacencyMatMul's forward.
  Tensor ApplyDense(const Tensor& adj, const Tensor& x);

  /// y = A·x (or Aᵀ·x) for a CSR top-k pattern, with halo exchange: each
  /// shard gathers the external rows its entries reference into a local
  /// buffer before applying its block. Bitwise-identical to
  /// autograd::SparseAdjacencyMatMul's forward.
  Tensor ApplySparse(const autograd::SparseIndex& index, const Tensor& values,
                     const Tensor& x, bool transpose);

  /// Shard s's allocator accounting (the anti-vacuousness probe: sharded
  /// applies must put traffic on every shard's allocator).
  AllocatorStats ShardAllocatorStats(int s) const {
    return contexts_[s]->allocator().GetStats();
  }

  /// The executor parked on the calling thread's current RuntimeContext,
  /// built on first use from its ExecConfig::shards (clamped to
  /// num_entities) and rebuilt if the entity count or shard count changed.
  /// Returns null when exec().shards <= 1 or the graph is too small to
  /// split — callers fall back to the single-context kernels. The executor
  /// is stored in the context's extension slot, so its S per-shard
  /// allocators retire as a unit with the owning context.
  static std::shared_ptr<EntityShardedExecutor> ForCurrentContext(
      int64_t num_entities);

 private:
  void PublishShardMetrics() const;

  ShardPlan plan_;
  std::vector<std::unique_ptr<runtime::RuntimeContext>> contexts_;
  /// Cached obs handles: shard.<s>.alloc.{requests,bytes_outstanding}.
  std::vector<obs::Gauge*> gauge_requests_;
  std::vector<obs::Gauge*> gauge_bytes_;
};

}  // namespace shard
}  // namespace enhancenet

#endif  // ENHANCENET_SHARD_EXECUTOR_H_
