#include "shard/halo.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "obs/metrics.h"
#include "runtime/parallel.h"

namespace enhancenet {
namespace shard {

namespace ag = ::enhancenet::autograd;

HaloExchange::HaloExchange(const ag::SparseIndex& index, const ShardPlan& plan,
                           bool transpose) {
  ENHANCENET_CHECK(plan.defined());
  ENHANCENET_CHECK_EQ(plan.num_entities, index.n);
  const int64_t batch = index.batch;
  const int64_t n = index.n;
  const int64_t kk = index.nnz / (batch * n);  // uniform degree
  const int32_t* cols = index.cols.data();
  const int32_t* off = index.row_offsets.data();
  const int32_t* toff = transpose ? index.t_row_offsets.data() : nullptr;
  const int32_t* tperm = transpose ? index.t_perm.data() : nullptr;
  if (transpose) {
    ENHANCENET_CHECK(toff != nullptr && tperm != nullptr)
        << "HaloExchange(transpose) needs the CSC half of the pattern";
  }

  const int num_shards = plan.num_shards();
  halos_.resize(num_shards);
  // Scratch shared across shard builds: entity id -> halo slot (or -1).
  std::vector<int32_t> slot_of(n, -1);

  for (int s = 0; s < num_shards; ++s) {
    ShardHalo& halo = halos_[s];
    const int64_t b0 = plan.begin(s);
    const int64_t b1 = plan.end(s);

    // The operand entity of a position, in the exact order the shard-local
    // kernel will consume positions. CSR: the entry's column. CSC: the
    // entry's source row (the transposed apply gathers by target column).
    const auto operand_of = [&](int64_t pos) -> int64_t {
      return transpose ? (tperm[pos] / kk) % n
                       : static_cast<int64_t>(cols[pos]);
    };
    const int32_t* bounds = transpose ? toff : off;

    // Pass 1: count positions per batch and mark external entities.
    halo.slot_base.assign(batch + 1, 0);
    halo.entities.clear();
    for (int64_t b = 0; b < batch; ++b) {
      const int64_t p0 = bounds[b * n + b0];
      const int64_t p1 = bounds[b * n + b1];
      halo.slot_base[b + 1] = halo.slot_base[b] + (p1 - p0);
      for (int64_t p = p0; p < p1; ++p) {
        const int64_t id = operand_of(p);
        if (id < b0 || id >= b1) {
          if (slot_of[id] < 0) {
            slot_of[id] = 0;  // provisional; numbered after the sort
            halo.entities.push_back(static_cast<int32_t>(id));
          }
        }
      }
    }
    std::sort(halo.entities.begin(), halo.entities.end());
    for (size_t h = 0; h < halo.entities.size(); ++h) {
      slot_of[halo.entities[h]] = static_cast<int32_t>(h);
    }

    // Pass 2: remap every position. Owned operands keep their global entity
    // id (they are read straight from x); external ones point into the halo
    // buffer via the one's-complement encoding.
    halo.remap = ag::AcquireIndexArray(halo.slot_base[batch]);
    int32_t* remap = halo.remap.data();
    int64_t slot = 0;
    for (int64_t b = 0; b < batch; ++b) {
      const int64_t p0 = bounds[b * n + b0];
      const int64_t p1 = bounds[b * n + b1];
      for (int64_t p = p0; p < p1; ++p, ++slot) {
        const int64_t id = operand_of(p);
        remap[slot] = (id >= b0 && id < b1) ? static_cast<int32_t>(id)
                                            : ~slot_of[id];
      }
    }

    for (const int32_t id : halo.entities) slot_of[id] = -1;  // reset scratch
  }
}

void HaloExchange::GatherShard(int s, const Tensor& x) {
  ENHANCENET_CHECK_EQ(x.dim(), 3);
  ShardHalo& halo = halos_[s];
  const int64_t batch = x.size(0);
  const int64_t n = x.size(1);
  const int64_t channels = x.size(2);
  const int64_t h = static_cast<int64_t>(halo.entities.size());
  halo.buffer = Tensor::Uninitialized({batch, h, channels});
  if (h == 0) return;
  const float* px = x.data();
  const int32_t* ids = halo.entities.data();
  float* pb = halo.buffer.data();
  ParallelFor(0, batch * h, channels * kCostElement,
              [=](int64_t r0, int64_t r1) {
                for (int64_t r = r0; r < r1; ++r) {
                  const int64_t b = r / h;
                  const int64_t slot = r % h;
                  std::memcpy(pb + r * channels,
                              px + (b * n + ids[slot]) * channels,
                              channels * sizeof(float));
                }
              });
}

void HaloExchange::PublishMetrics(int64_t batch, int64_t channels) const {
  static obs::Gauge* entities =
      obs::Registry::Global().GetGauge("shard.halo.entities");
  static obs::Gauge* bytes =
      obs::Registry::Global().GetGauge("shard.halo.bytes");
  const int64_t total = TotalHaloEntities();
  entities->Set(static_cast<double>(total));
  bytes->Set(static_cast<double>(total * batch * channels *
                                 static_cast<int64_t>(sizeof(float))));
}

int64_t HaloExchange::TotalHaloEntities() const {
  int64_t total = 0;
  for (const ShardHalo& halo : halos_) {
    total += static_cast<int64_t>(halo.entities.size());
  }
  return total;
}

}  // namespace shard
}  // namespace enhancenet
