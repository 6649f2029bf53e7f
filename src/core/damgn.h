#ifndef ENHANCENET_CORE_DAMGN_H_
#define ENHANCENET_CORE_DAMGN_H_

#include <vector>

#include "autograd/ops.h"
#include "graph/graph_conv.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace enhancenet {
namespace core {

/// Dynamic Adjacency Matrix Generation Network (Sec. V-B, Figure 9).
///
/// Generates, per timestamp, the enhanced adjacency matrix
///
///   A' = λ_A·A + λ_B·B + λ_C·C_t                         (Equation 13)
///
/// where
///  * A is the static, distance-derived adjacency (row-normalized here so
///    all three terms are row-stochastic-like and comparable in scale);
///  * B = softmax(ReLU(B₁·B₂ᵀ)) is a *global adaptive* adjacency learned
///    from two small N×M memory matrices (source / target vertex memories,
///    Equation 15) — static but data-driven;
///  * C_t = softmax-normalized embedded Gaussian θ(x_t)ᵀφ(x_t) attention over
///    the input signal at timestamp t (Equation 16) — dynamic and adaptive.
///
/// The λs are learnable scalars initialized to (1, 0, 0): at initialization
/// the enhanced graph convolution is exactly the base graph convolution, so
/// an enhanced model is at least as expressive as its base (Sec. V-B).
class Damgn : public nn::Module {
 public:
  /// `static_adjacency`: raw [N,N] distance-kernel adjacency (Sec. VI-A);
  /// row-normalized internally. `mem_dim` is M of the paper (default 10),
  /// `embed_dim` the width of the θ/φ embeddings.
  Damgn(Tensor static_adjacency, int64_t num_entities, int64_t in_channels,
        int64_t mem_dim, int64_t embed_dim, Rng& rng);

  /// The learned global adaptive adjacency B, [N, N].
  autograd::Variable AdaptiveB() const;

  /// The time-specific adjacency C for a batch of per-timestamp signals.
  /// x: [B, N, C] -> [B, N, N]; row i is softmax over sources j.
  autograd::Variable DynamicC(const autograd::Variable& x) const;

  /// Top-k sparsified C for the same batch of signals: the k strongest
  /// attention neighbours per row, softmax-normalized over the selection
  /// (DESIGN.md §10). Values are the *unscaled* probabilities — callers
  /// multiply by λ_C.
  graph::SparseAdjacency SparseDynamicC(const autograd::Variable& x,
                                        int64_t k) const;

  /// The static half of A' — λ_A·A + λ_B·B, [N, N].
  autograd::Variable StaticMix() const;

  /// A' = λ_A·A + λ_B·B + λ_C·C_t, broadcast over the batch: [B, N, N].
  autograd::Variable Combined(const autograd::Variable& x) const;

  /// Support set for diffusion-style graph convolution using A' in place of
  /// A (and (A')ᵏ in place of Aᵏ, Sec. V-A). With bidirectional=true the
  /// transposed supports are appended, mirroring the fwd/bwd static set:
  ///   { A', (A')², ..., A'ᵀ, (A'ᵀ)², ... }
  /// Each is a hop operator with a hop count (graph::Support), never a
  /// materialized power: graph::MixSupports walks one hop chain per
  /// direction, so the h-hop term is A'·(the (h−1)-hop term).
  ///
  /// Honors ExecConfig::topk of the bound RuntimeContext: k=0 uses the dense
  /// A' ([B,N,N]) as the operator, equal to the precomputed-power oracle
  /// (tests/reference) to float reassociation tolerance; k>0 splits it into
  /// S + λ_C·C_topk and never builds a [B,N,N] tensor.
  std::vector<graph::Support> CombinedSupports(const autograd::Variable& x,
                                               int max_hops,
                                               bool bidirectional) const;

  /// The static (row-normalized) A as a constant Variable, [N, N].
  const autograd::Variable& static_adjacency() const { return static_adj_; }

  /// Current values of the mixing coefficients (λ_A, λ_B, λ_C).
  float lambda_a() const { return lambda_a_.data().item(); }
  float lambda_b() const { return lambda_b_.data().item(); }
  float lambda_c() const { return lambda_c_.data().item(); }

  int64_t num_entities() const { return num_entities_; }
  int64_t in_channels() const { return in_channels_; }

 private:
  int64_t num_entities_;
  int64_t in_channels_;
  autograd::Variable static_adj_;  // constant leaf, row-normalized
  autograd::Variable b1_;          // [N, M] source-vertex memory
  autograd::Variable b2_;          // [N, M] target-vertex memory
  nn::Linear theta_;               // C -> embed
  nn::Linear phi_;                 // C -> embed
  autograd::Variable lambda_a_;    // scalar
  autograd::Variable lambda_b_;    // scalar
  autograd::Variable lambda_c_;    // scalar
};

}  // namespace core
}  // namespace enhancenet

#endif  // ENHANCENET_CORE_DAMGN_H_
