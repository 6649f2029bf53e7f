#include "models/stgcn.h"

#include "autograd/ops.h"
#include "common/logging.h"
#include "core/enhance_tcn_layer.h"
#include "graph/adjacency.h"
#include "graph/graph_conv.h"
#include "nn/init.h"

namespace enhancenet {
namespace models {

namespace ag = ::enhancenet::autograd;

Stgcn::Stgcn(const StgcnConfig& config, Rng& rng) : config_(config) {
  ENHANCENET_CHECK_GT(config.num_entities, 0);
  ENHANCENET_CHECK_EQ(config.adjacency.dim(), 2);
  name_ = config.name;
  history_ = config.history;
  horizon_ = config.horizon;
  const int64_t kernel = config.temporal_kernel;
  // Two ST-Conv blocks shrink T by 2*(K-1) each; the output conv needs at
  // least one step left.
  const int64_t remaining = config.history - 4 * (kernel - 1);
  ENHANCENET_CHECK_GE(remaining, 1)
      << "history too short for STGCN temporal kernels";

  adjacency_ = ag::Variable::Leaf(graph::SymNormalize(config.adjacency),
                                  /*requires_grad=*/false);

  int64_t in_ch = config.in_channels;
  for (int block_idx = 0; block_idx < 2; ++block_idx) {
    const std::string prefix = "b" + std::to_string(block_idx);
    Block block;
    for (int64_t k = 0; k < kernel; ++k) {
      block.taps1.push_back(RegisterParameter(
          prefix + "_t1_" + std::to_string(k),
          nn::GlorotUniform({in_ch, 2 * config.block_channels}, rng)));
    }
    block.bias1 = RegisterParameter(
        prefix + "_bias1",
        Tensor::Zeros({2 * config.block_channels}));
    block.spatial = std::make_unique<nn::Linear>(
        2 * config.block_channels, config.spatial_channels, rng);
    RegisterSubmodule(prefix + "_spatial",
                      block.spatial.get());
    for (int64_t k = 0; k < kernel; ++k) {
      block.taps2.push_back(RegisterParameter(
          prefix + "_t2_" + std::to_string(k),
          nn::GlorotUniform(
              {config.spatial_channels, 2 * config.block_channels}, rng)));
    }
    block.bias2 = RegisterParameter(
        prefix + "_bias2",
        Tensor::Zeros({2 * config.block_channels}));
    blocks_.push_back(std::move(block));
    in_ch = config.block_channels;
  }

  for (int64_t k = 0; k < remaining; ++k) {
    out_taps_.push_back(RegisterParameter(
        "out_t" + std::to_string(k),
        nn::GlorotUniform({config.block_channels, 2 * config.block_channels},
                          rng)));
  }
  out_bias_ = RegisterParameter("out_bias",
                                Tensor::Zeros({2 * config.block_channels}));
  head_ = std::make_unique<nn::Linear>(config.block_channels, config.horizon,
                                       rng);
  RegisterSubmodule("head", head_.get());
}

ag::Variable Stgcn::TemporalGlu(const ag::Variable& x,
                                const std::vector<ag::Variable>& taps,
                                const ag::Variable& bias,
                                int64_t out_channels) const {
  const int64_t kernel = static_cast<int64_t>(taps.size());
  ENHANCENET_CHECK_GE(x.size(2) - kernel + 1, 1);
  ENHANCENET_CHECK_EQ(taps[0].size(1), 2 * out_channels);
  // Valid (unpadded) conv + GLU (first half gated by the sigmoid of the
  // second half) in one stacked gated-epilogue GEMM.
  return ag::FusedGatedConv(x, ag::Concat(taps, 0), bias, kernel,
                            /*dilation=*/1, /*pad_left=*/0,
                            ops::GemmEpilogue::kBiasGlu);
}

ag::Variable Stgcn::Forward(const Tensor& x, const Tensor* /*teacher*/,
                            float /*teacher_prob*/, Rng& rng) const {
  ENHANCENET_CHECK_EQ(x.dim(), 4);
  const int64_t batch = x.size(0);
  const int64_t n = x.size(1);
  ENHANCENET_CHECK_EQ(n, config_.num_entities);
  ENHANCENET_CHECK_EQ(x.size(2), config_.history);
  ENHANCENET_CHECK_EQ(x.size(3), config_.in_channels);

  ag::Variable h = ag::Variable::Leaf(x, /*requires_grad=*/false);
  for (const Block& block : blocks_) {
    h = TemporalGlu(h, block.taps1, block.bias1, config_.block_channels);
    // Spatial graph convolution per remaining timestamp.
    const int64_t t_mid = h.size(2);
    ag::Variable folded = core::FoldTime(h);
    ag::Variable mixed =
        graph::MixSupports(folded, {adjacency_}, /*include_self=*/true);
    ag::Variable spatial = ag::Relu(block.spatial->Forward(mixed));
    h = core::UnfoldTime(spatial, batch, t_mid);
    h = TemporalGlu(h, block.taps2, block.bias2, config_.block_channels);
    h = ag::Dropout(h, config_.dropout, training(), rng);
  }

  // Final temporal conv collapses the remaining steps to one.
  h = TemporalGlu(h, out_taps_, out_bias_, config_.block_channels);
  ENHANCENET_CHECK_EQ(h.size(2), 1);
  ag::Variable last =
      ag::Reshape(h, {batch, n, config_.block_channels});
  return head_->Forward(ag::Relu(last));  // [B,N,F]
}

}  // namespace models
}  // namespace enhancenet
