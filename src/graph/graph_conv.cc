#include "graph/graph_conv.h"

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

ag::Variable ApplySupport(const Support& support, const ag::Variable& x) {
  if (!support.is_sparse()) return ApplyAdjacency(support.dense, x);
  // Hop-by-hop application of (S + C)^h without materializing the power:
  // each hop is a dense [N,N] apply plus a sparse top-k apply.
  ag::Variable y = x;
  for (int h = 0; h < support.hops; ++h) {
    ag::Variable dynamic =
        ApplySparseAdjacency(support.sparse, y, support.transposed);
    y = support.static_part.defined()
            ? ag::Add(ApplyAdjacency(support.static_part, y), dynamic)
            : dynamic;
  }
  return y;
}

ag::Variable MixSupports(const ag::Variable& x,
                         const std::vector<Support>& supports,
                         bool include_self) {
  std::vector<ag::Variable> parts;
  parts.reserve(supports.size() + 1);
  if (include_self) parts.push_back(x);
  for (const Support& support : supports) {
    parts.push_back(ApplySupport(support, x));
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
