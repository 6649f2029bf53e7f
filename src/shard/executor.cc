#include "shard/executor.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "obs/metrics.h"
#include "runtime/parallel.h"
#include "tensor/tensor_ops.h"

namespace enhancenet {
namespace shard {

namespace ag = ::enhancenet::autograd;

EntityShardedExecutor::EntityShardedExecutor(ShardPlan plan)
    : plan_(std::move(plan)) {
  ENHANCENET_CHECK(plan_.defined());
  const int num_shards = plan_.num_shards();
  runtime::RuntimeContext& owner = runtime::RuntimeContext::Current();
  const int total_threads =
      owner.exec().num_threads.load(std::memory_order_relaxed);
  const int slice = std::max(1, total_threads / std::max(1, num_shards));
  contexts_.reserve(num_shards);
  obs::Registry& registry = obs::Registry::Global();
  for (int s = 0; s < num_shards; ++s) {
    runtime::RuntimeContext::Options options;
    options.private_allocator = true;
    options.private_exec = true;
    auto context = std::make_unique<runtime::RuntimeContext>(options);
    context->exec().num_threads.store(slice, std::memory_order_relaxed);
    context->exec().shards.store(1, std::memory_order_relaxed);
    context->exec().topk.store(
        owner.exec().topk.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    contexts_.push_back(std::move(context));
    const std::string prefix = "shard." + std::to_string(s) + ".alloc";
    gauge_requests_.push_back(registry.GetGauge(prefix + ".requests"));
    gauge_bytes_.push_back(registry.GetGauge(prefix + ".bytes_outstanding"));
  }
}

void EntityShardedExecutor::PublishShardMetrics() const {
  for (int s = 0; s < plan_.num_shards(); ++s) {
    const AllocatorStats stats = contexts_[s]->allocator().GetStats();
    gauge_requests_[s]->Set(static_cast<double>(stats.requests));
    gauge_bytes_[s]->Set(static_cast<double>(stats.bytes_outstanding));
  }
}

Tensor EntityShardedExecutor::ApplyDense(const Tensor& adj, const Tensor& x) {
  ENHANCENET_CHECK_EQ(adj.dim(), 2);
  ENHANCENET_CHECK_EQ(x.dim(), 3);
  const int64_t batch = x.size(0);
  const int64_t n = x.size(1);
  const int64_t channels = x.size(2);
  ENHANCENET_CHECK_EQ(adj.size(0), n);
  ENHANCENET_CHECK_EQ(adj.size(1), n);
  ENHANCENET_CHECK_EQ(plan_.num_entities, n);

  Tensor out = Tensor::Uninitialized(x.shape());  // owner-context storage
  float* po = out.data();

  for (int s = 0; s < plan_.num_shards(); ++s) {
    runtime::RuntimeContext::Bind bind(*contexts_[s]);
    const int64_t b0 = plan_.begin(s);
    const int64_t sz = plan_.size(s);
    // The shard's rows of the single-context GEMM, staged in a shard-local
    // slab, then merged. The slab is the shard's execution placement: its
    // bytes live (and pool) on this shard's allocator, not the session's.
    const Tensor slab =
        ops::BatchGemmSharedA(adj, x, /*trans_a=*/false, b0, sz);
    const float* ps = slab.data();
    ParallelFor(0, batch * sz, channels * kCostElement,
                [=](int64_t r0, int64_t r1) {
                  for (int64_t rr = r0; rr < r1; ++rr) {
                    const int64_t b = rr / sz;
                    const int64_t i = b0 + rr % sz;
                    std::memcpy(po + (b * n + i) * channels,
                                ps + rr * channels,
                                channels * sizeof(float));
                  }
                });
  }
  PublishShardMetrics();
  return out;
}

Tensor EntityShardedExecutor::ApplySparse(const ag::SparseIndex& index,
                                          const Tensor& values,
                                          const Tensor& x, bool transpose) {
  ENHANCENET_CHECK_EQ(x.dim(), 3);
  const int64_t batch = x.size(0);
  const int64_t n = x.size(1);
  const int64_t channels = x.size(2);
  ENHANCENET_CHECK_EQ(index.batch, batch);
  ENHANCENET_CHECK_EQ(index.n, n);
  ENHANCENET_CHECK_EQ(plan_.num_entities, n);
  ENHANCENET_CHECK_EQ(values.numel(), index.nnz);
  if (transpose) {
    ENHANCENET_CHECK_EQ(index.t_perm.numel, index.nnz)
        << "sharded transposed apply needs the CSC half of the pattern";
  }

  Tensor out = Tensor::Uninitialized(x.shape());
  HaloExchange exchange(index, plan_, transpose);
  const float* pv = values.data();
  const float* px = x.data();
  float* po = out.data();
  const int32_t* bounds =
      transpose ? index.t_row_offsets.data() : index.row_offsets.data();
  const int32_t* tperm = transpose ? index.t_perm.data() : nullptr;
  const int64_t row_cost =
      index.nnz / std::max<int64_t>(batch * n, 1) * channels * kCostElement;

  for (int s = 0; s < plan_.num_shards(); ++s) {
    runtime::RuntimeContext::Bind bind(*contexts_[s]);
    const int64_t b0 = plan_.begin(s);
    const int64_t sz = plan_.size(s);
    exchange.GatherShard(s, x);  // halo buffer on this shard's allocator
    const ShardHalo& halo = exchange.halo(s);
    const float* ph = halo.buffer.data();
    const int64_t h = static_cast<int64_t>(halo.entities.size());
    const int32_t* remap = halo.remap.data();
    const int64_t* slot_base = halo.slot_base.data();

    Tensor slab = Tensor::Uninitialized({batch, sz, channels});
    float* ps = slab.data();
    ParallelFor(
        0, batch * sz, row_cost, [=](int64_t r0, int64_t r1) {
          for (int64_t rr = r0; rr < r1; ++rr) {
            const int64_t b = rr / sz;
            const int64_t i = b0 + rr % sz;
            const int64_t r = b * n + i;
            float* orow = ps + rr * channels;
            std::fill(orow, orow + channels, 0.0f);
            const float* xb = px + b * n * channels;
            const float* hb = ph + b * h * channels;
            const int64_t p0 = bounds[r];
            const int64_t p1 = bounds[r + 1];
            // Positions in their single-context order; each operand row is
            // the same float data whether read from x or from the gathered
            // halo copy, so the accumulation is bit-identical.
            int64_t slot = slot_base[b] + (p0 - bounds[b * n + b0]);
            for (int64_t p = p0; p < p1; ++p, ++slot) {
              const int64_t e = transpose ? tperm[p] : p;
              const float a = pv[e];
              const int32_t m = remap[slot];
              const float* xrow = m >= 0 ? xb + m * channels
                                         : hb + static_cast<int64_t>(~m) *
                                                    channels;
              for (int64_t c = 0; c < channels; ++c) {
                orow[c] += a * xrow[c];
              }
            }
          }
        });
    ParallelFor(0, batch * sz, channels * kCostElement,
                [=](int64_t r0, int64_t r1) {
                  for (int64_t rr = r0; rr < r1; ++rr) {
                    const int64_t b = rr / sz;
                    const int64_t i = b0 + rr % sz;
                    std::memcpy(po + (b * n + i) * channels,
                                ps + rr * channels,
                                channels * sizeof(float));
                  }
                });
  }
  exchange.PublishMetrics(batch, channels);
  PublishShardMetrics();
  return out;
}

std::shared_ptr<EntityShardedExecutor>
EntityShardedExecutor::ForCurrentContext(int64_t num_entities) {
  static const char kExtensionTag = 0;
  runtime::RuntimeContext& context = runtime::RuntimeContext::Current();
  const int shards = context.exec().shards.load(std::memory_order_relaxed);
  if (shards <= 1 || num_entities <= 1) return nullptr;
  const int effective =
      static_cast<int>(std::min<int64_t>(shards, num_entities));
  auto existing = std::static_pointer_cast<EntityShardedExecutor>(
      context.GetExtension(&kExtensionTag));
  if (existing != nullptr &&
      existing->plan().num_entities == num_entities &&
      existing->num_shards() == effective) {
    return existing;
  }
  auto executor = std::make_shared<EntityShardedExecutor>(
      MakeContiguousPlan(num_entities, effective));
  context.SetExtension(&kExtensionTag, executor);
  return executor;
}

}  // namespace shard
}  // namespace enhancenet
