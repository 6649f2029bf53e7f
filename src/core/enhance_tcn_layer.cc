#include "core/enhance_tcn_layer.h"

#include "common/logging.h"
#include "graph/graph_conv.h"
#include "nn/init.h"

namespace enhancenet {
namespace core {

namespace ag = ::enhancenet::autograd;

ag::Variable FoldTime(const ag::Variable& x) {
  ENHANCENET_CHECK_EQ(x.data().dim(), 4);
  const int64_t batch = x.size(0);
  const int64_t n = x.size(1);
  const int64_t time = x.size(2);
  const int64_t channels = x.size(3);
  // [B,N,T,C] -> [B,T,N,C] -> [B·T,N,C]
  return ag::Reshape(ag::Transpose(x, 1, 2), {batch * time, n, channels});
}

ag::Variable UnfoldTime(const ag::Variable& x, int64_t batch, int64_t time) {
  ENHANCENET_CHECK_EQ(x.data().dim(), 3);
  ENHANCENET_CHECK_EQ(x.size(0), batch * time);
  const int64_t n = x.size(1);
  const int64_t channels = x.size(2);
  return ag::Transpose(ag::Reshape(x, {batch, time, n, channels}), 1, 2);
}

EnhanceTcnLayer::EnhanceTcnLayer(const TcnLayerConfig& config,
                                 const ag::Variable* memory, Rng& rng)
    : config_(config), memory_(memory) {
  ENHANCENET_CHECK_GT(config.num_entities, 0);
  ENHANCENET_CHECK_GT(config.in_channels, 0);
  ENHANCENET_CHECK_GT(config.conv_channels, 0);
  ENHANCENET_CHECK_GT(config.skip_channels, 0);
  ENHANCENET_CHECK_GE(config.kernel_size, 1);
  ENHANCENET_CHECK_GE(config.dilation, 1);
  const int64_t c_in = config.in_channels;
  const int64_t c_conv = config.conv_channels;

  if (config.use_dfgn) {
    ENHANCENET_CHECK(memory != nullptr) << "DFGN requires an entity memory";
    dfgn_ = std::make_unique<Dfgn>(
        memory->size(1), config.dfgn_hidden1, config.dfgn_hidden2,
        config.kernel_size * c_in * 2 * c_conv, rng);
    dfgn_->CalibrateGeneratedScale(*memory, c_in, 2 * c_conv);
    RegisterSubmodule("dfgn", dfgn_.get());
  } else {
    for (int64_t k = 0; k < config.kernel_size; ++k) {
      tap_weights_.push_back(RegisterParameter(
          "tap" + std::to_string(k),
          nn::GlorotUniform({c_in, 2 * c_conv}, rng)));
    }
  }
  conv_bias_ = RegisterParameter("conv_bias", Tensor::Zeros({2 * c_conv}));

  if (config.num_supports > 0) {
    gc_mix_ = std::make_unique<nn::Linear>(
        (1 + config.num_supports) * c_conv, c_conv, rng);
    RegisterSubmodule("gc_mix", gc_mix_.get());
  }
  if (config.compute_residual) {
    residual_proj_ = std::make_unique<nn::Linear>(c_conv, c_in, rng);
    RegisterSubmodule("residual_proj", residual_proj_.get());
  }
  skip_proj_ = std::make_unique<nn::Linear>(c_conv, config.skip_channels, rng);
  RegisterSubmodule("skip_proj", skip_proj_.get());
}

ag::Variable EnhanceTcnLayer::GenerateFilters() const {
  if (config_.use_dfgn) return dfgn_->Generate(*memory_);
  return ag::Concat(tap_weights_, 0);
}

EnhanceTcnLayer::Output EnhanceTcnLayer::Forward(
    const ag::Variable& x, const std::vector<graph::Support>& supports,
    Rng& rng) const {
  ENHANCENET_CHECK_EQ(x.data().dim(), 4);
  ENHANCENET_CHECK_EQ(static_cast<int64_t>(supports.size()),
                      config_.num_supports);
  const int64_t batch = x.size(0);
  const int64_t time = x.size(2);
  ENHANCENET_CHECK_EQ(x.size(3), config_.in_channels);
  const int64_t kernel = config_.kernel_size;
  const int64_t dilation = config_.dilation;

  // Dilated causal convolution (Equation 8) with WaveNet gating
  // z = tanh(f) ⊙ σ(g): left-padding by d·(K-1) makes output[t] see only
  // inputs at t, t-d, ..., t-d(K-1). One stacked gated-epilogue GEMM covers
  // the K tap products, the bias and the gating tail (DESIGN.md §8).
  // The filters are a temporary of this statement, so in no-grad forwards
  // their storage returns to the pool before the projections run.
  const int64_t pad_left = dilation * (kernel - 1);
  ag::Variable z =
      config_.use_dfgn
          ? ag::FusedGatedConvPerEntity(
                x, GenerateFilters(), conv_bias_, kernel, dilation, pad_left,
                ops::GemmEpilogue::kBiasGatedTanhSigmoid)
          : ag::FusedGatedConv(x, GenerateFilters(), conv_bias_, kernel,
                               dilation, pad_left,
                               ops::GemmEpilogue::kBiasGatedTanhSigmoid);

  // Graph convolution on the gated output (Sec. V-C2), per timestamp.
  if (config_.num_supports > 0) {
    ag::Variable folded = FoldTime(z);  // [B·T,N,C']
    ag::Variable mixed =
        graph::MixSupports(folded, supports, /*include_self=*/true);
    ag::Variable gc = gc_mix_->Forward(mixed);
    z = UnfoldTime(gc, batch, time);
  }

  z = ag::Dropout(z, config_.dropout, training(), rng);

  Output out;
  // The TCN head keeps only t = T−1 of the skip path: slicing before the
  // projection saves the other T−1 rows of skip GEMM work. Row independence
  // of the GEMM makes slice-then-project equal to project-then-slice.
  out.skip = config_.skip_last_only
                 ? skip_proj_->Forward(ag::Slice(z, 2, time - 1, 1))
                 : skip_proj_->Forward(z);
  if (residual_proj_ != nullptr) {
    out.residual = ag::Add(residual_proj_->Forward(z), x);
  }
  return out;
}

}  // namespace core
}  // namespace enhancenet
