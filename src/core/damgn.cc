#include "core/damgn.h"

#include "common/logging.h"
#include "graph/adjacency.h"
#include "nn/init.h"
#include "runtime/context.h"
#include "tensor/tensor_ops.h"

namespace enhancenet {
namespace core {

namespace ag = ::enhancenet::autograd;

Damgn::Damgn(Tensor static_adjacency, int64_t num_entities,
             int64_t in_channels, int64_t mem_dim, int64_t embed_dim, Rng& rng)
    : num_entities_(num_entities),
      in_channels_(in_channels),
      theta_(in_channels, embed_dim, rng, /*bias=*/false),
      phi_(in_channels, embed_dim, rng, /*bias=*/false) {
  ENHANCENET_CHECK_EQ(static_adjacency.dim(), 2);
  ENHANCENET_CHECK_EQ(static_adjacency.size(0), num_entities);
  ENHANCENET_CHECK_EQ(static_adjacency.size(1), num_entities);
  static_adj_ = ag::Variable::Leaf(graph::RowNormalize(static_adjacency),
                                   /*requires_grad=*/false);
  b1_ = RegisterParameter("b1",
                          nn::GlorotUniform({num_entities, mem_dim}, rng));
  b2_ = RegisterParameter("b2",
                          nn::GlorotUniform({num_entities, mem_dim}, rng));
  RegisterSubmodule("theta", &theta_);
  RegisterSubmodule("phi", &phi_);
  // λ_A = 1, λ_B = λ_C = 0: the enhanced graph convolution starts out
  // identical to the base one and learns to deviate.
  lambda_a_ = RegisterParameter("lambda_a", Tensor::Scalar(1.0f));
  lambda_b_ = RegisterParameter("lambda_b", Tensor::Scalar(0.0f));
  lambda_c_ = RegisterParameter("lambda_c", Tensor::Scalar(0.0f));
}

ag::Variable Damgn::AdaptiveB() const {
  // B = softmax(ReLU(B₁ B₂ᵀ))                        (Equation 15)
  ag::Variable scores =
      ag::MatMul(b1_, ag::Transpose(b2_, 0, 1));  // [N, N]
  return ag::SoftmaxLastDim(ag::Relu(scores));
}

ag::Variable Damgn::DynamicC(const ag::Variable& x) const {
  ENHANCENET_CHECK_EQ(x.data().dim(), 3);
  ENHANCENET_CHECK_EQ(x.size(1), num_entities_);
  ENHANCENET_CHECK_EQ(x.size(2), in_channels_);
  // C[i,j] = exp(θ(x_i)ᵀ φ(x_j)) / Σ_j exp(θ(x_i)ᵀ φ(x_j))   (Equation 16)
  ag::Variable e_src = theta_.Forward(x);  // [B, N, e]
  ag::Variable e_dst = phi_.Forward(x);    // [B, N, e]
  // Fused attention node: the φ-transpose and raw scores are staged in the
  // bound context's Workspace arena in training too, so the recorded graph
  // retains only the [B,N,N] probabilities. Forward values are bitwise
  // identical to the BatchMatMul/Transpose/SoftmaxLastDim chain (same Into
  // kernels); in no-grad mode the result adopts a workspace block and parks
  // it back on the arena when the last alias drops.
  return ag::AttentionProbs(e_src, e_dst);
}

graph::SparseAdjacency Damgn::SparseDynamicC(const ag::Variable& x,
                                             int64_t k) const {
  ENHANCENET_CHECK_EQ(x.data().dim(), 3);
  ENHANCENET_CHECK_EQ(x.size(1), num_entities_);
  ENHANCENET_CHECK_EQ(x.size(2), in_channels_);
  ag::Variable e_src = theta_.Forward(x);
  ag::Variable e_dst = phi_.Forward(x);
  graph::SparseAdjacency sparse;
  sparse.values = ag::TopKAttention(e_src, e_dst, k, &sparse.index);
  return sparse;
}

ag::Variable Damgn::StaticMix() const {
  return ag::Add(ag::Mul(lambda_a_, static_adj_),
                 ag::Mul(lambda_b_, AdaptiveB()));
}

ag::Variable Damgn::Combined(const ag::Variable& x) const {
  // A' = λ_A·A + λ_B·B + λ_C·C_t                       (Equation 13)
  ag::Variable dynamic_part = ag::Mul(lambda_c_, DynamicC(x));  // [B, N, N]
  return ag::Add(dynamic_part, StaticMix());  // broadcast over batch
}

std::vector<graph::Support> Damgn::CombinedSupports(const ag::Variable& x,
                                                    int max_hops,
                                                    bool bidirectional) const {
  ENHANCENET_CHECK_GE(max_hops, 1);
  const int topk = runtime::RuntimeContext::Current().exec().topk.load(
      std::memory_order_relaxed);
  // The per-hop operator: A' itself ([B,N,N]) on the dense path; on the
  // sparse path A' kept split as S + λ_C·C_topk, so no [B,N,N] tensor is
  // built. Either way MixSupports walks (A')ʰ·X hop by hop (Sec. V-A's
  // (A')ᵏ) and no power is materialized.
  ag::Variable adj;
  graph::SparseAdjacency c;
  if (topk > 0) {
    adj = StaticMix();
    c = SparseDynamicC(x, topk);
    c.values = ag::Mul(lambda_c_, c.values);
  } else {
    adj = Combined(x);
  }
  std::vector<graph::Support> supports;
  for (int hop = 1; hop <= max_hops; ++hop) {
    supports.emplace_back(adj, c, hop, /*transposed=*/false);
  }
  if (bidirectional) {
    const ag::Variable adj_t = ag::Transpose(adj, -2, -1);
    for (int hop = 1; hop <= max_hops; ++hop) {
      supports.emplace_back(adj_t, c, hop, /*transposed=*/true);
    }
  }
  return supports;
}

}  // namespace core
}  // namespace enhancenet
