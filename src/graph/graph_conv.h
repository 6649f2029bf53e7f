#ifndef ENHANCENET_GRAPH_GRAPH_CONV_H_
#define ENHANCENET_GRAPH_GRAPH_CONV_H_

#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "graph/sparse_adjacency.h"
#include "nn/module.h"

namespace enhancenet {
namespace graph {

/// Applies an adjacency matrix to a batched graph signal:
///   adj [N,N]   × x [B,N,C] -> [B,N,C]   (static support)
///   adj [B,N,N] × x [B,N,C] -> [B,N,C]   (per-sample dynamic support)
/// Row i of the result aggregates x over i's neighbourhood.
autograd::Variable ApplyAdjacency(const autograd::Variable& adj,
                                  const autograd::Variable& x);

/// One support for graph convolution: a hop operator applied `hops` times,
///   y ← adj·y            (+ C·y when the sparse part C is set)
/// so the support aggregates over (adj + C)^hops without materializing the
/// power (DESIGN.md §10).
///
///  * Static supports (an explicit adjacency, or a precomputed power such as
///    graph::DiffusionSupports emits) are a plain `adj` at hops = 1; the
///    implicit Variable constructor builds them.
///  * The DAMGN's k=0 supports are A' ([B,N,N]) at hops 1..max_hops, so the
///    h-hop term is A'·(the (h−1)-hop term) and no [B,N,N] power is built.
///  * Its top-k supports split A' into a dense static part
///    adj = λ_A·A + λ_B·B ([N,N]) and a sparse dynamic part C (already
///    λ_C-scaled), so every hop is O(N·(N+k)·C).
struct Support {
  Support(autograd::Variable adj_)  // NOLINT: implicit on purpose
      : adj(std::move(adj_)) {}
  Support(autograd::Variable adj_, SparseAdjacency sparse_, int hops_,
          bool transposed_)
      : adj(std::move(adj_)),
        sparse(std::move(sparse_)),
        hops(hops_),
        transposed(transposed_) {}

  autograd::Variable adj;   ///< dense per-hop operator, [N,N] or [B,N,N]
  SparseAdjacency sparse;   ///< optional sparse part C
  int hops = 1;             ///< how many times adj (+ C) is applied
  bool transposed = false;  ///< apply Cᵀ (CSC half) instead of C; adj is
                            ///< passed already transposed
};

/// Aggregates x over one support's neighbourhood (see Support above).
autograd::Variable ApplySupport(const Support& support,
                                const autograd::Variable& x);

/// Concatenates the neighbourhood aggregations of all supports along the
/// channel axis, optionally prefixed by the identity (0-hop) term:
///   out [B,N,(self + |supports|)·C]
/// This reduces graph convolution Z = Σ_s A_s·X·S_s (Equation 12 generalized
/// to a support set) to a single channel-mixing matmul, which can then be
/// shared (Linear) or entity-specific (DFGN-generated bank).
///
/// Supports with the same hop operator (every hop count one
/// Damgn::CombinedSupports call returns for one direction) share one hop
/// chain: the h-hop term is one hop past the (h−1)-hop term instead of h
/// hops from x. Outputs are bitwise equal to independent ApplySupport calls.
autograd::Variable MixSupports(const autograd::Variable& x,
                               const std::vector<Support>& supports,
                               bool include_self);

/// Graph convolution layer with entity-invariant (shared) channel weights:
///   Z = [X ‖ A_1X ‖ ... ‖ A_SX] · W + b       (Equation 12 of the paper)
class GraphConvLayer : public nn::Module {
 public:
  /// `num_supports` counts the adjacency matrices passed to Forward;
  /// the identity term is always included.
  GraphConvLayer(int64_t num_supports, int64_t in_channels,
                 int64_t out_channels, Rng& rng);

  /// x: [B,N,Cin]; supports: `num_supports` matrices, each [N,N] or [B,N,N].
  autograd::Variable Forward(const autograd::Variable& x,
                             const std::vector<Support>& supports) const;

  int64_t num_supports() const { return num_supports_; }

 private:
  int64_t num_supports_;
  int64_t in_channels_;
  int64_t out_channels_;
  autograd::Variable weight_;  // [(1+S)*Cin, Cout]
  autograd::Variable bias_;    // [Cout]
};

}  // namespace graph
}  // namespace enhancenet

#endif  // ENHANCENET_GRAPH_GRAPH_CONV_H_
