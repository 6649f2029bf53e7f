#include "reference/reference.h"

#include <cmath>
#include <string>

#include "common/logging.h"
#include "nn/module.h"

namespace enhancenet {
namespace reference {

namespace ag = ::enhancenet::autograd;

// Calls between oracle functions are qualified with reference::, because
// argument-dependent lookup would also find the production autograd
// functions of the same names.

// --- op-level chains ---------------------------------------------------------

ag::Variable GruCellTail(const ag::Variable& gx, const ag::Variable& gh,
                         const ag::Variable& h) {
  const int64_t hs = h.size(-1);
  ag::Variable r = ag::Sigmoid(
      ag::Add(ag::Slice(gx, -1, 0, hs), ag::Slice(gh, -1, 0, hs)));
  ag::Variable u = ag::Sigmoid(
      ag::Add(ag::Slice(gx, -1, hs, hs), ag::Slice(gh, -1, hs, hs)));
  ag::Variable candidate = ag::Tanh(ag::Add(
      ag::Slice(gx, -1, 2 * hs, hs),
      ag::Mul(r, ag::Slice(gh, -1, 2 * hs, hs))));

  // h' = u ⊙ h + (1 - u) ⊙ ĥ   (Equation 6)
  return reference::GruCombine(u, h, candidate);
}

void LstmCellTail(const ag::Variable& gates, const ag::Variable& c_prev,
                  ag::Variable* h_new, ag::Variable* c_new) {
  const int64_t hs = c_prev.size(-1);
  ag::Variable i = ag::Sigmoid(ag::Slice(gates, -1, 0, hs));
  ag::Variable f = ag::Sigmoid(ag::Slice(gates, -1, hs, hs));
  ag::Variable g = ag::Tanh(ag::Slice(gates, -1, 2 * hs, hs));
  ag::Variable o = ag::Sigmoid(ag::Slice(gates, -1, 3 * hs, hs));

  *c_new = ag::Add(ag::Mul(f, c_prev), ag::Mul(i, g));
  *h_new = ag::Mul(o, ag::Tanh(*c_new));
}

void GruGates(const ag::Variable& gates, const ag::Variable& h,
              ag::Variable* rh, ag::Variable* u) {
  const int64_t hs = h.size(-1);
  ag::Variable r = ag::Sigmoid(ag::Slice(gates, -1, 0, hs));
  *u = ag::Sigmoid(ag::Slice(gates, -1, hs, hs));
  *rh = ag::Mul(r, h);
}

ag::Variable GruCombine(const ag::Variable& u, const ag::Variable& h,
                        const ag::Variable& c) {
  ag::Variable one_minus_u = ag::AddScalar(ag::Neg(u), 1.0f);
  return ag::Add(ag::Mul(u, h), ag::Mul(one_minus_u, c));
}

ag::Variable MatMulBias(const ag::Variable& a, const ag::Variable& w,
                        const ag::Variable& bias) {
  ag::Variable y = ag::MatMul(a, w);
  return bias.defined() ? ag::Add(y, bias) : y;
}

ag::Variable AdjacencyMatMul(const ag::Variable& adj, const ag::Variable& x) {
  const int64_t batch = x.size(0);
  const int64_t n = x.size(1);
  const int64_t channels = x.size(2);
  // [B,N,C] -> [N,B,C] -> [N, B*C];  A · X  -> back.
  ag::Variable xt = ag::Reshape(ag::Transpose(x, 0, 1), {n, batch * channels});
  ag::Variable mixed = ag::MatMul(adj, xt);
  return ag::Transpose(ag::Reshape(mixed, {n, batch, channels}), 0, 1);
}

ag::Variable AttentionProbs(const ag::Variable& e_src,
                            const ag::Variable& e_dst) {
  ag::Variable scores =
      ag::BatchMatMul(e_src, ag::Transpose(e_dst, 1, 2));  // [B, N, N]
  return ag::SoftmaxLastDim(scores);
}

ag::Variable GatedConv(const ag::Variable& x,
                       const std::vector<ag::Variable>& taps,
                       const ag::Variable& bias, int64_t dilation,
                       int64_t pad_left, bool glu) {
  const int64_t batch = x.size(0);
  const int64_t n = x.size(1);
  const int64_t time = x.size(2);
  const int64_t c_in = x.size(3);
  const int64_t kernel = static_cast<int64_t>(taps.size());
  const int64_t t_out = time + pad_left - dilation * (kernel - 1);
  const int64_t half = taps[0].size(1) / 2;
  // Dilated causal convolution (Equation 8): left-padding by d·(K-1) makes
  // output[t] see only inputs at t, t-d, ..., t-d(K-1).
  ag::Variable padded = pad_left > 0 ? ag::PadAxis(x, 2, pad_left, 0) : x;
  ag::Variable conv;
  for (int64_t k = 0; k < kernel; ++k) {
    ag::Variable tap_in = ag::Slice(padded, 2, k * dilation, t_out);
    ag::Variable flat = ag::Reshape(tap_in, {batch * n * t_out, c_in});
    ag::Variable term = ag::MatMul(flat, taps[static_cast<size_t>(k)]);
    conv = (k == 0) ? term : ag::Add(conv, term);
  }
  conv = ag::Add(conv, bias);
  ag::Variable a = ag::Slice(conv, -1, 0, half);
  ag::Variable b = ag::Slice(conv, -1, half, half);
  ag::Variable z = glu ? ag::Mul(a, ag::Sigmoid(b))
                       : ag::Mul(ag::Tanh(a), ag::Sigmoid(b));
  return ag::Reshape(z, {batch, n, t_out, half});
}

ag::Variable GatedConvPerEntity(const ag::Variable& x,
                                const ag::Variable& filters,
                                const ag::Variable& bias, int64_t kernel,
                                int64_t dilation) {
  const int64_t batch = x.size(0);
  const int64_t n = x.size(1);
  const int64_t time = x.size(2);
  const int64_t c_in = x.size(3);
  const int64_t c_conv = bias.size(0) / 2;
  // Per-entity tap filters, regenerated from the memories each pass.
  std::vector<ag::Variable> taps;
  for (int64_t k = 0; k < kernel; ++k) {
    taps.push_back(ag::Reshape(
        ag::Slice(filters, -1, k * c_in * 2 * c_conv, c_in * 2 * c_conv),
        {n, c_in, 2 * c_conv}));
  }
  ag::Variable padded = ag::PadAxis(x, 2, dilation * (kernel - 1), 0);
  ag::Variable conv;  // [B,N,T,2C']
  for (int64_t k = 0; k < kernel; ++k) {
    ag::Variable tap_in = ag::Slice(padded, 2, k * dilation, time);
    // [B,N,T,C] -> [N,B·T,C] ·bmm· [N,C,2C'] -> back.
    ag::Variable by_entity =
        ag::Reshape(ag::Transpose(tap_in, 0, 1), {n, batch * time, c_in});
    ag::Variable mixed = ag::BatchMatMul(by_entity, taps[k]);
    ag::Variable term =
        ag::Transpose(ag::Reshape(mixed, {n, batch, time, 2 * c_conv}), 0, 1);
    conv = (k == 0) ? term : ag::Add(conv, term);
  }
  conv = ag::Add(conv, bias);

  // WaveNet gating: z = tanh(f) ⊙ σ(g).
  ag::Variable filter_part = ag::Slice(conv, -1, 0, c_conv);
  ag::Variable gate_part = ag::Slice(conv, -1, c_conv, c_conv);
  return ag::Mul(ag::Tanh(filter_part), ag::Sigmoid(gate_part));
}

// --- module-level forwards ---------------------------------------------------

namespace {

ag::Variable DenseApply(const ag::Variable& adj, const ag::Variable& x) {
  return adj.data().dim() == 2 ? reference::AdjacencyMatMul(adj, x)
                               : ag::BatchMatMul(adj, x);
}

ag::Variable SupportApply(const graph::Support& support,
                          const ag::Variable& x) {
  // Sparse supports go through graph::ApplySupport unchanged on both paths;
  // the oracle only covers single-hop dense supports.
  ENHANCENET_CHECK(!support.sparse.defined());
  ENHANCENET_CHECK_EQ(support.hops, 1);
  return DenseApply(support.adj, x);
}

/// graph::MixSupports with every dense 2-D support applied through
/// AdjacencyMatMul.
ag::Variable MixSupports(const ag::Variable& x,
                         const std::vector<graph::Support>& supports,
                         bool include_self) {
  std::vector<ag::Variable> parts;
  if (include_self) parts.push_back(x);
  for (const graph::Support& support : supports) {
    parts.push_back(SupportApply(support, x));
  }
  ENHANCENET_CHECK(!parts.empty());
  if (parts.size() == 1) return parts[0];
  return ag::Concat(parts, /*axis=*/-1);
}

/// The named parameter of `module`, or an undefined Variable when absent.
ag::Variable FindParameter(const nn::Module& module, const std::string& name) {
  for (const auto& [param_name, param] : module.NamedParameters()) {
    if (param_name == name) return param;
  }
  return ag::Variable();
}

ag::Variable RequireParameter(const nn::Module& module,
                              const std::string& name) {
  ag::Variable param = FindParameter(module, name);
  ENHANCENET_CHECK(param.defined()) << "no parameter named " << name;
  return param;
}

/// A Linear submodule's forward, by parameter-name prefix.
ag::Variable LinearByName(const nn::Module& owner, const std::string& prefix,
                          const ag::Variable& x) {
  const ag::Variable weight = RequireParameter(owner, prefix + "weight");
  const int64_t in_features = weight.size(0);
  Shape out_shape = x.shape();
  out_shape.back() = weight.size(1);
  ag::Variable flat = ag::Reshape(x, {-1, in_features});
  ag::Variable y = reference::MatMulBias(
      flat, weight, FindParameter(owner, prefix + "bias"));
  return ag::Reshape(y, std::move(out_shape));
}

}  // namespace

ag::Variable GruCellForward(const nn::GruCell& cell, const ag::Variable& x,
                            const ag::Variable& h) {
  ag::Variable gx = ag::Add(ag::MatMul(x, RequireParameter(cell, "wx")),
                            RequireParameter(cell, "bias"));
  ag::Variable gh = ag::MatMul(h, RequireParameter(cell, "wh"));
  return reference::GruCellTail(gx, gh, h);
}

nn::LstmCell::State LstmCellForward(const nn::LstmCell& cell,
                                    const ag::Variable& x,
                                    const nn::LstmCell::State& state) {
  ag::Variable gates =
      ag::Add(ag::Add(ag::MatMul(x, RequireParameter(cell, "wx")),
                      ag::MatMul(state.h, RequireParameter(cell, "wh"))),
              RequireParameter(cell, "bias"));
  nn::LstmCell::State next;
  reference::LstmCellTail(gates, state.c, &next.h, &next.c);
  return next;
}

ag::Variable EnhanceGruCellForward(
    const core::EnhanceGruCell& cell, const ag::Variable& x,
    const ag::Variable& h, const std::vector<graph::Support>& supports) {
  const core::GruCellConfig& config = cell.config();
  const core::EnhanceGruCell::Filters filters = cell.GenerateFilters();
  // The cell's channel-mixing transform: the shared weight, or the
  // per-entity generated bank ([B,N,Cin] -> [N,B,Cin] ·bmm· [N,Cin,Cout]).
  auto transform = [&](const ag::Variable& mixed, const ag::Variable& weight,
                       const ag::Variable& bias) {
    const int64_t batch = mixed.size(0);
    const int64_t n = mixed.size(1);
    if (!config.use_dfgn) {
      ag::Variable flat = ag::Reshape(mixed, {batch * n, mixed.size(2)});
      ag::Variable out = ag::Add(ag::MatMul(flat, weight), bias);
      return ag::Reshape(out, {batch, n, weight.size(-1)});
    }
    ag::Variable out = ag::BatchMatMul(ag::Transpose(mixed, 0, 1), weight);
    return ag::Add(ag::Transpose(out, 0, 1), bias);
  };

  // r, u gates (Equations 3–4, with matmul generalized to graph conv).
  ag::Variable xh = ag::Concat({x, h}, -1);
  ag::Variable mixed_ru =
      reference::MixSupports(xh, supports, /*include_self=*/true);
  ag::Variable gates =
      transform(mixed_ru, filters.w_ru, RequireParameter(cell, "b_ru"));
  ag::Variable rh;
  ag::Variable u;
  reference::GruGates(gates, h, &rh, &u);

  // Candidate state (Equation 5).
  ag::Variable xrh = ag::Concat({x, rh}, -1);
  ag::Variable mixed_c =
      reference::MixSupports(xrh, supports, /*include_self=*/true);
  ag::Variable candidate =
      ag::Tanh(transform(mixed_c, filters.w_c, RequireParameter(cell, "b_c")));
  return reference::GruCombine(u, h, candidate);
}

core::EnhanceTcnLayer::Output TcnLayerForward(
    const core::EnhanceTcnLayer& layer, const ag::Variable& x,
    const std::vector<graph::Support>& supports, Rng& rng) {
  const core::TcnLayerConfig& config = layer.config();
  const int64_t batch = x.size(0);
  const int64_t time = x.size(2);
  const int64_t kernel = config.kernel_size;
  const int64_t dilation = config.dilation;
  const ag::Variable conv_bias = RequireParameter(layer, "conv_bias");

  ag::Variable z;  // gated conv output [B,N,T,C']
  if (config.use_dfgn) {
    z = reference::GatedConvPerEntity(x, layer.GenerateFilters(), conv_bias,
                                      kernel, dilation);
  } else {
    std::vector<ag::Variable> taps;
    for (int64_t k = 0; k < kernel; ++k) {
      taps.push_back(RequireParameter(layer, "tap" + std::to_string(k)));
    }
    z = reference::GatedConv(x, taps, conv_bias, dilation,
                             dilation * (kernel - 1), /*glu=*/false);
  }

  // Graph convolution on the gated output (Sec. V-C2), per timestamp.
  if (config.num_supports > 0) {
    ag::Variable mixed = reference::MixSupports(core::FoldTime(z), supports,
                                                /*include_self=*/true);
    z = core::UnfoldTime(LinearByName(layer, "gc_mix.", mixed), batch, time);
  }

  z = ag::Dropout(z, config.dropout, layer.training(), rng);

  core::EnhanceTcnLayer::Output out;
  out.skip = config.skip_last_only
                 ? LinearByName(layer, "skip_proj.",
                                ag::Slice(z, 2, time - 1, 1))
                 : LinearByName(layer, "skip_proj.", z);
  if (config.compute_residual) {
    out.residual = ag::Add(LinearByName(layer, "residual_proj.", z), x);
  }
  return out;
}

// --- DAMGN supports ----------------------------------------------------------

std::vector<graph::Support> DenseCombinedSupports(const core::Damgn& damgn,
                                                  const ag::Variable& x,
                                                  int max_hops,
                                                  bool bidirectional) {
  ENHANCENET_CHECK_GE(max_hops, 1);
  const ag::Variable combined = damgn.Combined(x);
  std::vector<graph::Support> supports{combined};
  ag::Variable power = combined;
  for (int hop = 2; hop <= max_hops; ++hop) {
    power = ag::BatchMatMul(power, combined);
    supports.push_back(power);
  }
  if (bidirectional) {
    const ag::Variable transposed = ag::Transpose(combined, 1, 2);
    supports.push_back(transposed);
    ag::Variable tpower = transposed;
    for (int hop = 2; hop <= max_hops; ++hop) {
      tpower = ag::BatchMatMul(tpower, transposed);
      supports.push_back(tpower);
    }
  }
  return supports;
}

// --- optimizers --------------------------------------------------------------

ScalarSgd::ScalarSgd(std::vector<ag::Variable> params, float lr,
                     float momentum)
    : Optimizer(std::move(params), lr), momentum_(momentum) {
  for (const auto& p : params_) velocity_.emplace_back(p.shape());
}

void ScalarSgd::Step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (!p.has_grad()) continue;
    const float* g = p.grad().data();
    float* w = p.mutable_data().data();
    const int64_t n = p.numel();
    if (momentum_ > 0.0f) {
      // v = momentum * v + g;  p -= lr * v
      float* vel = velocity_[i].data();
      for (int64_t j = 0; j < n; ++j) {
        vel[j] = momentum_ * vel[j] + g[j];
        w[j] -= lr_ * vel[j];
      }
    } else {
      for (int64_t j = 0; j < n; ++j) w[j] -= lr_ * g[j];
    }
  }
}

ScalarAdam::ScalarAdam(std::vector<ag::Variable> params, float lr, float beta1,
                       float beta2, float eps, float weight_decay)
    : Optimizer(std::move(params), lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  for (const auto& p : params_) {
    m_.emplace_back(p.shape());
    v_.emplace_back(p.shape());
  }
}

void ScalarAdam::Step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (!p.has_grad()) continue;
    const float* g = p.grad().data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    float* w = p.mutable_data().data();
    for (int64_t j = 0; j < p.numel(); ++j) {
      float gj = g[j];
      if (weight_decay_ > 0.0f) gj += weight_decay_ * w[j];
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * gj;
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * gj * gj;
      const float m_hat = m[j] / bc1;
      const float v_hat = v[j] / bc2;
      w[j] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
    }
  }
}

}  // namespace reference
}  // namespace enhancenet
