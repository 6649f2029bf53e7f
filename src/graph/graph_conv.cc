#include "graph/graph_conv.h"

#include <algorithm>

#include "autograd/grad_mode.h"
#include "autograd/ops.h"
#include "common/logging.h"
#include "nn/init.h"
#include "shard/executor.h"

namespace enhancenet {
namespace graph {

namespace ag = ::enhancenet::autograd;

ag::Variable ApplyAdjacency(const ag::Variable& adj, const ag::Variable& x) {
  ENHANCENET_CHECK_EQ(x.data().dim(), 3);
  const int64_t batch = x.size(0);
  const int64_t n = x.size(1);
  if (adj.data().dim() == 2) {
    ENHANCENET_CHECK_EQ(adj.size(0), n);
    ENHANCENET_CHECK_EQ(adj.size(1), n);
    // Entity-sharded serving path (DESIGN.md §12): no-grad forwards with
    // ExecConfig::shards > 1 run the apply shard-by-shard on per-shard
    // contexts, bitwise-identical to AdjacencyMatMul.
    if (!ag::GradMode::IsEnabled()) {
      if (auto executor = shard::EntityShardedExecutor::ForCurrentContext(n)) {
        return ag::Variable::Leaf(executor->ApplyDense(adj.data(), x.data()),
                                  /*requires_grad=*/false);
      }
    }
    // A · X computed directly in [B,N,C] layout, one graph node.
    return ag::AdjacencyMatMul(adj, x);
  }
  ENHANCENET_CHECK_EQ(adj.data().dim(), 3);
  ENHANCENET_CHECK_EQ(adj.size(0), batch);
  ENHANCENET_CHECK_EQ(adj.size(1), n);
  ENHANCENET_CHECK_EQ(adj.size(2), n);
  return ag::BatchMatMul(adj, x);
}

namespace {

/// One hop of a support: y ← adj·y, plus C·y when the sparse part is set.
ag::Variable Hop(const Support& support, const ag::Variable& y) {
  if (!support.sparse.defined()) return ApplyAdjacency(support.adj, y);
  ag::Variable dynamic =
      ApplySparseAdjacency(support.sparse, y, support.transposed);
  return ag::Add(ApplyAdjacency(support.adj, y), dynamic);
}

/// True if `a` and `b` apply the same operator per hop — the same dense
/// part, sparse values and index pattern in the same direction, as every
/// hop count of one Damgn::CombinedSupports call does — so that the hops of
/// one extend the hops of the other.
bool SameHopOperator(const Support& a, const Support& b) {
  return a.adj.node() == b.adj.node() &&
         a.sparse.values.node() == b.sparse.values.node() &&
         a.sparse.index.cols.storage == b.sparse.index.cols.storage &&
         a.transposed == b.transposed;
}

}  // namespace

ag::Variable ApplySupport(const Support& support, const ag::Variable& x) {
  // Hop-by-hop application of (adj + C)^hops without materializing the power.
  ag::Variable y = x;
  for (int h = 0; h < support.hops; ++h) y = Hop(support, y);
  return y;
}

ag::Variable MixSupports(const ag::Variable& x,
                         const std::vector<Support>& supports,
                         bool include_self) {
  std::vector<ag::Variable> parts;
  parts.reserve(supports.size() + 1);
  if (include_self) parts.push_back(x);
  // Supports that share one hop operator share one hop chain: the h-hop
  // output continues from the chain's (h-1)-hop output, so
  // {(A')¹, (A')², …} costs one hop per support instead of 1 + 2 + ….
  // Each output comes out of the op sequence ApplySupport runs, so it is
  // bitwise equal to an independent ApplySupport call.
  struct HopChain {
    const Support* hop_operator;  // any support on the chain
    int hops;                     // hops applied so far
    ag::Variable y;               // (adj + C)^hops · x
  };
  std::vector<HopChain> chains;
  for (const Support& support : supports) {
    auto chain = std::find_if(
        chains.begin(), chains.end(), [&](const HopChain& c) {
          return c.hops <= support.hops &&
                 SameHopOperator(*c.hop_operator, support);
        });
    if (chain == chains.end()) {
      chains.push_back({&support, 0, x});
      chain = chains.end() - 1;
    }
    for (; chain->hops < support.hops; ++chain->hops) {
      chain->y = Hop(support, chain->y);
    }
    parts.push_back(chain->y);
  }
  ENHANCENET_CHECK(!parts.empty());
  if (parts.size() == 1) return parts[0];
  return ag::Concat(parts, /*axis=*/-1);
}

GraphConvLayer::GraphConvLayer(int64_t num_supports, int64_t in_channels,
                               int64_t out_channels, Rng& rng)
    : num_supports_(num_supports),
      in_channels_(in_channels),
      out_channels_(out_channels) {
  ENHANCENET_CHECK_GE(num_supports, 0);
  weight_ = RegisterParameter(
      "weight",
      nn::GlorotUniform({(1 + num_supports) * in_channels, out_channels},
                        rng));
  bias_ = RegisterParameter("bias", Tensor::Zeros({out_channels}));
}

ag::Variable GraphConvLayer::Forward(
    const ag::Variable& x, const std::vector<Support>& supports) const {
  ENHANCENET_CHECK_EQ(static_cast<int64_t>(supports.size()), num_supports_);
  ENHANCENET_CHECK_EQ(x.size(-1), in_channels_);
  ag::Variable mixed = MixSupports(x, supports, /*include_self=*/true);
  const int64_t batch = x.size(0);
  const int64_t n = x.size(1);
  ag::Variable flat =
      ag::Reshape(mixed, {batch * n, (1 + num_supports_) * in_channels_});
  ag::Variable out = ag::Add(ag::MatMul(flat, weight_), bias_);
  return ag::Reshape(out, {batch, n, out_channels_});
}

}  // namespace graph
}  // namespace enhancenet
