#ifndef ENHANCENET_CORE_ENHANCE_TCN_LAYER_H_
#define ENHANCENET_CORE_ENHANCE_TCN_LAYER_H_

#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "core/dfgn.h"
#include "graph/graph_conv.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace enhancenet {
namespace core {

/// Folds the time axis into the batch axis: [B,N,T,C] -> [B·T,N,C].
/// Graph convolution treats every timestamp independently, so supports of
/// shape [N,N] (static) or [B·T,N,N] (dynamic, one per timestamp) apply
/// uniformly to the folded signal.
autograd::Variable FoldTime(const autograd::Variable& x);

/// Inverse of FoldTime: [B·T,N,C] -> [B,N,T,C].
autograd::Variable UnfoldTime(const autograd::Variable& x, int64_t batch,
                              int64_t time);

/// Configuration of an EnhanceTcnLayer.
struct TcnLayerConfig {
  int64_t num_entities = 0;
  int64_t in_channels = 0;    // residual-path channels entering the layer
  int64_t conv_channels = 0;  // C': gated convolution output channels
  int64_t skip_channels = 0;
  int64_t kernel_size = 2;    // K
  int64_t dilation = 1;       // d
  /// Supports for the graph convolution applied after the causal conv
  /// (Sec. V-C2). 0 disables GC (plain TCN / D-TCN).
  int64_t num_supports = 0;
  /// Entity-specific causal-convolution filters via DFGN. Each layer owns
  /// its own DFGN (Sec. IV-C2, Figure 8).
  bool use_dfgn = false;
  int64_t dfgn_hidden1 = 16;
  int64_t dfgn_hidden2 = 4;
  float dropout = 0.3f;
  /// The final layer of a stack feeds only the skip path; setting this false
  /// drops the (otherwise dead) residual projection.
  bool compute_residual = true;
  /// Project only the last timestep through skip_proj_. The TCN head keeps
  /// just t = T−1 of every layer's skip, so projecting all T timesteps is
  /// O(T) wasted GEMM work; with this set the skip output is
  /// [B,N,1,skip_channels]. Off by default for callers that consume the full
  /// skip sequence.
  bool skip_last_only = false;
};

/// One WaveNet-style block: dilated causal convolution with tanh/σ gating
/// (the paper's TCN base model), optionally followed by graph convolution
/// (GTCN) and with optionally DFGN-generated, entity-specific conv filters
/// (D-TCN / D-GTCN). Produces a residual output (same channel count as the
/// input, for stacking) and a skip output (accumulated by the model head).
class EnhanceTcnLayer : public nn::Module {
 public:
  struct Output {
    /// [B,N,T,in_channels]; undefined when config.compute_residual is false.
    autograd::Variable residual;
    /// [B,N,T,skip_channels], or [B,N,1,skip_channels] with skip_last_only.
    autograd::Variable skip;
  };

  /// `memory` is the shared entity memory bank; required iff use_dfgn.
  EnhanceTcnLayer(const TcnLayerConfig& config,
                  const autograd::Variable* memory, Rng& rng);

  /// x: [B,N,T,C]; supports: matrices of shape [N,N] or [B·T,N,N].
  /// `rng` drives dropout when training() is true.
  Output Forward(const autograd::Variable& x,
                 const std::vector<graph::Support>& supports,
                 Rng& rng) const;

  /// This pass's causal-conv filters: the DFGN bank [N, K·C·2C'] generated
  /// from the memories (k-major, input-channel-minor rows), or the K shared
  /// tap weights stacked along dim 0 into [K·C, 2C'].
  autograd::Variable GenerateFilters() const;

  const TcnLayerConfig& config() const { return config_; }

 private:
  TcnLayerConfig config_;
  const autograd::Variable* memory_;

  // Shared-filter path: one fused weight per tap, [C, 2C'] (filter ‖ gate).
  std::vector<autograd::Variable> tap_weights_;
  // DFGN path: generates all taps at once, o = K·C·2C'.
  std::unique_ptr<Dfgn> dfgn_;
  autograd::Variable conv_bias_;  // [2C']

  // Post-conv graph convolution (entity-invariant weights).
  std::unique_ptr<nn::Linear> gc_mix_;  // [(1+S)·C', C']

  std::unique_ptr<nn::Linear> residual_proj_;  // C' -> C
  std::unique_ptr<nn::Linear> skip_proj_;      // C' -> skip
};

}  // namespace core
}  // namespace enhancenet

#endif  // ENHANCENET_CORE_ENHANCE_TCN_LAYER_H_
