#ifndef ENHANCENET_TESTS_REFERENCE_REFERENCE_H_
#define ENHANCENET_TESTS_REFERENCE_REFERENCE_H_

#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/rng.h"
#include "core/damgn.h"
#include "core/enhance_gru_cell.h"
#include "core/enhance_tcn_layer.h"
#include "graph/graph_conv.h"
#include "nn/gru.h"
#include "optim/optimizer.h"

namespace enhancenet {
namespace reference {

/// Test oracle: the unfused op compositions that the production kernels
/// replace (DESIGN.md §8). Every function here is built only from the
/// elementary autograd ops (MatMul, Add, Slice, Sigmoid, Tanh, Mul, ...), so
/// its forward value and its gradients follow from those ops' own,
/// individually finite-difference-checked backwards. The equivalence tests
/// run a production cell, layer, op or optimizer and the matching oracle on
/// the same parameters and compare outputs and gradients. Only test targets
/// link this library.

// --- op-level chains ---------------------------------------------------------

/// The GRU cell tail ag::FusedGruCell replaces: from gx = x·Wx + b and
/// gh = h·Wh (both [rows, 3H], gate order r, u, candidate) and h [rows, H],
/// h' = u ⊙ h + (1-u) ⊙ tanh(gx_c + r ⊙ gh_c).
autograd::Variable GruCellTail(const autograd::Variable& gx,
                               const autograd::Variable& gh,
                               const autograd::Variable& h);

/// The LSTM cell tail ag::FusedLstmCell replaces (gate order i, f, g, o).
void LstmCellTail(const autograd::Variable& gates,
                  const autograd::Variable& c_prev, autograd::Variable* h_new,
                  autograd::Variable* c_new);

/// The r/u gate tail ag::FusedGruGates replaces: rh = σ(gates_r) ⊙ h,
/// u = σ(gates_u).
void GruGates(const autograd::Variable& gates, const autograd::Variable& h,
              autograd::Variable* rh, autograd::Variable* u);

/// The state combine ag::GruCombine replaces: u ⊙ h + (1-u) ⊙ c.
autograd::Variable GruCombine(const autograd::Variable& u,
                              const autograd::Variable& h,
                              const autograd::Variable& c);

/// Add(MatMul(a, w), bias), the pair ag::MatMulBias replaces. `bias` may be
/// undefined (plain MatMul).
autograd::Variable MatMulBias(const autograd::Variable& a,
                              const autograd::Variable& w,
                              const autograd::Variable& bias);

/// The Transpose/Reshape/MatMul chain ag::AdjacencyMatMul replaces:
/// adj [N,N] applied to x [B,N,C] through [N, B·C] and back.
autograd::Variable AdjacencyMatMul(const autograd::Variable& adj,
                                   const autograd::Variable& x);

/// The chain ag::AttentionProbs replaces:
/// SoftmaxLastDim(BatchMatMul(e_src, Transpose(e_dst, 1, 2))).
autograd::Variable AttentionProbs(const autograd::Variable& e_src,
                                  const autograd::Variable& e_dst);

/// Shared-filter dilated conv + gating, the chain ag::FusedGatedConv
/// replaces: K tap GEMMs over the (left-padded) time axis, bias Add, then
/// z = tanh(f) ⊙ σ(g), or z = f ⊙ σ(g) with `glu` (the STGCN temporal GLU).
/// x is [B,N,T,C]; taps[k] is [C, 2C']; returns [B,N,T_out,C'].
autograd::Variable GatedConv(const autograd::Variable& x,
                             const std::vector<autograd::Variable>& taps,
                             const autograd::Variable& bias, int64_t dilation,
                             int64_t pad_left, bool glu);

/// Per-entity (DFGN) dilated causal conv + tanh·σ gating, the chain
/// ag::FusedGatedConvPerEntity replaces. `filters` is [N, K·C·2C'] as
/// core::Dfgn::Generate emits it.
autograd::Variable GatedConvPerEntity(const autograd::Variable& x,
                                      const autograd::Variable& filters,
                                      const autograd::Variable& bias,
                                      int64_t kernel, int64_t dilation);

// --- module-level forwards ---------------------------------------------------
// Each runs the module's forward with the unfused chains above (graph
// supports applied through AdjacencyMatMul, Linear layers as MatMul + Add),
// reading the module's own parameters by name, so gradients land on the
// same Variables the production forward trains.

autograd::Variable GruCellForward(const nn::GruCell& cell,
                                  const autograd::Variable& x,
                                  const autograd::Variable& h);

nn::LstmCell::State LstmCellForward(const nn::LstmCell& cell,
                                    const autograd::Variable& x,
                                    const nn::LstmCell::State& state);

autograd::Variable EnhanceGruCellForward(
    const core::EnhanceGruCell& cell, const autograd::Variable& x,
    const autograd::Variable& h, const std::vector<graph::Support>& supports);

core::EnhanceTcnLayer::Output TcnLayerForward(
    const core::EnhanceTcnLayer& layer, const autograd::Variable& x,
    const std::vector<graph::Support>& supports, Rng& rng);

// --- DAMGN supports ----------------------------------------------------------

/// The dense (k=0) support set of core::Damgn::CombinedSupports with every
/// power materialized: A' = damgn.Combined(x) and (A')ʰ built by batched
/// GEMMs, each a [B,N,N] support applied once,
///   { A', (A')², ..., A'ᵀ, (A'ᵀ)², ... }.
/// The production hop chain computes the same function with A' applied h
/// times; the two agree to float reassociation tolerance.
std::vector<graph::Support> DenseCombinedSupports(const core::Damgn& damgn,
                                                  const autograd::Variable& x,
                                                  int max_hops,
                                                  bool bidirectional);

// --- optimizers --------------------------------------------------------------

/// optim::Sgd as one serial scalar loop per parameter. Parameters without a
/// gradient are skipped (no velocity decay, no parameter touch).
class ScalarSgd : public optim::Optimizer {
 public:
  ScalarSgd(std::vector<autograd::Variable> params, float lr,
            float momentum = 0.0f);
  void Step() override;

 private:
  float momentum_;
  std::vector<Tensor> velocity_;
};

/// optim::Adam as one serial scalar loop per parameter.
class ScalarAdam : public optim::Optimizer {
 public:
  ScalarAdam(std::vector<autograd::Variable> params, float lr,
             float beta1 = 0.9f, float beta2 = 0.999f, float eps = 1e-8f,
             float weight_decay = 0.0f);
  void Step() override;

 private:
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  int64_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace reference
}  // namespace enhancenet

#endif  // ENHANCENET_TESTS_REFERENCE_REFERENCE_H_
