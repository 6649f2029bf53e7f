#include "core/enhance_gru_cell.h"

#include "common/logging.h"
#include "graph/graph_conv.h"
#include "nn/init.h"

namespace enhancenet {
namespace core {

namespace ag = ::enhancenet::autograd;

EnhanceGruCell::EnhanceGruCell(const GruCellConfig& config,
                               const ag::Variable* memory, Rng& rng)
    : config_(config), memory_(memory) {
  ENHANCENET_CHECK_GT(config.num_entities, 0);
  ENHANCENET_CHECK_GT(config.in_channels, 0);
  ENHANCENET_CHECK_GT(config.hidden, 0);
  const int64_t xh = config.in_channels + config.hidden;
  mixed_in_ = (1 + config.num_supports) * xh;
  const int64_t hidden = config.hidden;

  if (config.use_dfgn) {
    ENHANCENET_CHECK(memory != nullptr) << "DFGN requires an entity memory";
    ENHANCENET_CHECK_EQ(memory->size(0), config.num_entities);
    // One generator emits the r/u filters and the candidate filters jointly:
    // o = mixed_in·2C' + mixed_in·C' = 3·mixed_in·C'.
    dfgn_ = std::make_unique<Dfgn>(memory->size(1), config.dfgn_hidden1,
                                   config.dfgn_hidden2, 3 * mixed_in_ * hidden,
                                   rng);
    dfgn_->CalibrateGeneratedScale(*memory, mixed_in_, hidden);
    RegisterSubmodule("dfgn", dfgn_.get());
  } else {
    w_ru_ = RegisterParameter("w_ru",
                              nn::GlorotUniform({mixed_in_, 2 * hidden}, rng));
    w_c_ =
        RegisterParameter("w_c", nn::GlorotUniform({mixed_in_, hidden}, rng));
  }
  b_ru_ = RegisterParameter("b_ru", Tensor::Zeros({2 * hidden}));
  b_c_ = RegisterParameter("b_c", Tensor::Zeros({hidden}));
}

ag::Variable EnhanceGruCell::Transform(const ag::Variable& mixed,
                                       const ag::Variable& weight,
                                       const ag::Variable& bias,
                                       int64_t in_dim, int64_t out_dim) const {
  const int64_t batch = mixed.size(0);
  const int64_t n = mixed.size(1);
  ENHANCENET_CHECK_EQ(mixed.size(2), in_dim);
  if (!config_.use_dfgn) {
    ag::Variable flat = ag::Reshape(mixed, {batch * n, in_dim});
    ag::Variable out = ag::Add(ag::MatMul(flat, weight), bias);
    return ag::Reshape(out, {batch, n, out_dim});
  }
  // Per-entity filters: [B,N,Cin] -> [N,B,Cin] ·bmm· [N,Cin,Cout].
  ag::Variable xt = ag::Transpose(mixed, 0, 1);
  ag::Variable out = ag::BatchMatMul(xt, weight);  // [N,B,Cout]
  return ag::Add(ag::Transpose(out, 0, 1), bias);
}

EnhanceGruCell::Filters EnhanceGruCell::GenerateFilters() const {
  if (!config_.use_dfgn) return {w_ru_, w_c_};
  const int64_t hidden = config_.hidden;
  ag::Variable generated = dfgn_->Generate(*memory_);  // [N, 3·mixed_in·C']
  Filters filters;
  filters.w_ru = ag::Reshape(
      ag::Slice(generated, -1, 0, 2 * mixed_in_ * hidden),
      {config_.num_entities, mixed_in_, 2 * hidden});
  filters.w_c = ag::Reshape(
      ag::Slice(generated, -1, 2 * mixed_in_ * hidden, mixed_in_ * hidden),
      {config_.num_entities, mixed_in_, hidden});
  return filters;
}

ag::Variable EnhanceGruCell::Forward(
    const ag::Variable& x, const ag::Variable& h,
    const std::vector<graph::Support>& supports, const Filters& filters) const {
  ENHANCENET_CHECK_EQ(static_cast<int64_t>(supports.size()),
                      config_.num_supports);
  ENHANCENET_CHECK_EQ(x.size(2), config_.in_channels);
  ENHANCENET_CHECK_EQ(h.size(2), config_.hidden);
  const int64_t hidden = config_.hidden;
  const ag::Variable& w_ru = filters.w_ru;
  const ag::Variable& w_c = filters.w_c;

  // r, u gates (Equations 3–4, with matmul generalized to graph conv).
  ag::Variable xh = ag::Concat({x, h}, -1);
  ag::Variable mixed_ru =
      graph::MixSupports(xh, supports, /*include_self=*/true);
  ag::Variable gates = Transform(mixed_ru, w_ru, b_ru_, mixed_in_, 2 * hidden);
  ag::Variable u;
  ag::Variable xrh;
  {
    // Single-pass r/u gate tail; r is consumed only through r ⊙ h, and rh
    // only through the candidate input, so it goes out of scope here.
    ag::Variable rh;
    ag::FusedGruGates(gates, h, &rh, &u);
    xrh = ag::Concat({x, rh}, -1);  // candidate input (Equation 5)
  }
  ag::Variable mixed_c =
      graph::MixSupports(xrh, supports, /*include_self=*/true);
  ag::Variable candidate =
      ag::Tanh(Transform(mixed_c, w_c, b_c_, mixed_in_, hidden));

  // h' = u ⊙ h + (1-u) ⊙ ĥ (Equation 6). The candidate depends on r through
  // a second graph convolution, so only the final combine fuses here.
  return ag::GruCombine(u, h, candidate);
}

}  // namespace core
}  // namespace enhancenet
