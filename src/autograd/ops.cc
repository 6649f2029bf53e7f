#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "autograd/grad_mode.h"
#include "common/logging.h"
#include "runtime/context.h"
#include "runtime/parallel.h"
#include "tensor/tensor_ops.h"

namespace enhancenet {
namespace autograd {
namespace {

bool AnyRequiresGrad(const std::vector<Variable>& inputs) {
  for (const Variable& v : inputs) {
    if (v.requires_grad()) return true;
  }
  return false;
}

/// True when the op producing an output of `v` must record a graph edge:
/// gradient recording is enabled on this thread and `v` participates in
/// differentiation. Ops use this to skip computing backward-only auxiliary
/// tensors (masks, signs) during no-grad inference.
bool Records(const Variable& v) {
  return GradMode::IsEnabled() && v.requires_grad();
}

/// Builds the result variable for an op. If gradient recording is disabled
/// on this thread (NoGradGuard) or no input requires grad, the result is a
/// detached constant and `backward` is dropped without ever being converted
/// to a std::function (no Node, no closure allocation, no graph growth).
/// Otherwise the closure is stored and the parents are linked for the
/// topological sweep.
template <typename BackwardFn>
Variable MakeResult(Tensor out, const char* op_name,
                    std::vector<Variable> inputs, BackwardFn&& backward) {
  if (!GradMode::IsEnabled() || !AnyRequiresGrad(inputs)) {
    return Variable::Leaf(std::move(out), /*requires_grad=*/false);
  }
  auto node = std::make_shared<Node>();
  node->data = std::move(out);
  node->requires_grad = true;
  node->is_leaf = false;
  node->op_name = op_name;
  node->parents.reserve(inputs.size());
  for (const Variable& v : inputs) node->parents.push_back(v.node());
  node->backward_fn = std::forward<BackwardFn>(backward);
  return Variable::FromNode(std::move(node));
}

/// Accumulates `g` into `v` only when it participates in differentiation.
void MaybeAccumulate(Variable v, const Tensor& g) {
  if (v.requires_grad()) v.AccumulateGrad(g);
}

/// Rvalue form: a freshly computed gradient temp is adopted as the grad
/// buffer instead of being deep-cloned. Only for tensors with private
/// storage — never the upstream grad_out, which fans out to siblings.
void MaybeAccumulate(Variable v, Tensor&& g) {
  if (v.requires_grad()) v.AccumulateGrad(std::move(g));
}

/// Reduces a broadcast gradient back to the operand's shape and accumulates.
void AccumulateBroadcast(Variable v, const Tensor& g) {
  if (!v.requires_grad()) return;
  if (g.shape() == v.shape()) {
    v.AccumulateGrad(g);
  } else {
    v.AccumulateGrad(ops::ReduceToShape(g, v.shape()));
  }
}

/// Rvalue form; same private-storage contract as MaybeAccumulate above.
void AccumulateBroadcast(Variable v, Tensor&& g) {
  if (!v.requires_grad()) return;
  if (g.shape() == v.shape()) {
    v.AccumulateGrad(std::move(g));
  } else {
    v.AccumulateGrad(ops::ReduceToShape(g, v.shape()));
  }
}

/// Expands `g` (with `axis` kept as size 1) back to `full` by broadcasting.
Tensor ExpandAlong(const Tensor& g, const Shape& full) {
  return ops::Add(Tensor::Zeros(full), g);
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  Tensor out = ops::Add(a.data(), b.data());
  return MakeResult(std::move(out), "add", {a, b},
                    [a, b](const Tensor& g) {
                      AccumulateBroadcast(a, g);
                      AccumulateBroadcast(b, g);
                    });
}

Variable Sub(const Variable& a, const Variable& b) {
  Tensor out = ops::Sub(a.data(), b.data());
  return MakeResult(std::move(out), "sub", {a, b},
                    [a, b](const Tensor& g) {
                      AccumulateBroadcast(a, g);
                      AccumulateBroadcast(b, ops::Neg(g));
                    });
}

Variable Mul(const Variable& a, const Variable& b) {
  Tensor out = ops::Mul(a.data(), b.data());
  return MakeResult(std::move(out), "mul", {a, b},
                    [a, b](const Tensor& g) {
                      AccumulateBroadcast(a, ops::Mul(g, b.data()));
                      AccumulateBroadcast(b, ops::Mul(g, a.data()));
                    });
}

Variable Neg(const Variable& v) {
  return MakeResult(ops::Neg(v.data()), "neg", {v}, [v](const Tensor& g) {
    MaybeAccumulate(v, ops::Neg(g));
  });
}

Variable Abs(const Variable& v) {
  Tensor sign = Records(v) ? ops::Sign(v.data()) : Tensor();
  return MakeResult(ops::Abs(v.data()), "abs", {v},
                    [v, sign](const Tensor& g) {
                      MaybeAccumulate(v, ops::Mul(g, sign));
                    });
}

Variable Sigmoid(const Variable& v) {
  Tensor y = ops::Sigmoid(v.data());
  return MakeResult(y, "sigmoid", {v}, [v, y](const Tensor& g) {
    // dy/dx = y (1 - y)
    Tensor one_minus = ops::AddScalar(ops::Neg(y), 1.0f);
    MaybeAccumulate(v, ops::Mul(g, ops::Mul(y, one_minus)));
  });
}

Variable Tanh(const Variable& v) {
  Tensor y = ops::Tanh(v.data());
  return MakeResult(y, "tanh", {v}, [v, y](const Tensor& g) {
    // dy/dx = 1 - y^2
    Tensor d = ops::AddScalar(ops::Neg(ops::Square(y)), 1.0f);
    MaybeAccumulate(v, ops::Mul(g, d));
  });
}

Variable Relu(const Variable& v) {
  Tensor mask = Records(v) ? ops::ReluMask(v.data()) : Tensor();
  return MakeResult(ops::Relu(v.data()), "relu", {v},
                    [v, mask](const Tensor& g) {
                      MaybeAccumulate(v, ops::Mul(g, mask));
                    });
}

Variable Exp(const Variable& v) {
  Tensor y = ops::Exp(v.data());
  return MakeResult(y, "exp", {v}, [v, y](const Tensor& g) {
    MaybeAccumulate(v, ops::Mul(g, y));
  });
}

Variable Log(const Variable& v) {
  Tensor x = v.data();
  return MakeResult(ops::Log(x), "log", {v}, [v, x](const Tensor& g) {
    MaybeAccumulate(v, ops::Div(g, x));
  });
}

Variable Sqrt(const Variable& v) {
  Tensor y = ops::Sqrt(v.data());
  return MakeResult(y, "sqrt", {v}, [v, y](const Tensor& g) {
    // dy/dx = 0.5 / y
    MaybeAccumulate(v, ops::Div(ops::MulScalar(g, 0.5f), y));
  });
}

Variable Square(const Variable& v) {
  Tensor x = v.data();
  return MakeResult(ops::Square(x), "square", {v}, [v, x](const Tensor& g) {
    MaybeAccumulate(v, ops::Mul(g, ops::MulScalar(x, 2.0f)));
  });
}

Variable AddScalar(const Variable& v, float s) {
  return MakeResult(ops::AddScalar(v.data(), s), "add_scalar", {v},
                    [v](const Tensor& g) { MaybeAccumulate(v, g); });
}

Variable MulScalar(const Variable& v, float s) {
  return MakeResult(ops::MulScalar(v.data(), s), "mul_scalar", {v},
                    [v, s](const Tensor& g) {
                      MaybeAccumulate(v, ops::MulScalar(g, s));
                    });
}

Variable MatMul(const Variable& a, const Variable& b) {
  Tensor out = ops::MatMul(a.data(), b.data());
  return MakeResult(std::move(out), "matmul", {a, b},
                    [a, b](const Tensor& g) {
                      if (a.requires_grad()) {
                        a.AccumulateGrad(ops::Gemm(g, b.data(), false, true));
                      }
                      if (b.requires_grad()) {
                        b.AccumulateGrad(ops::Gemm(a.data(), g, true, false));
                      }
                    });
}

Variable MatMulBias(const Variable& a, const Variable& b,
                    const Variable& bias) {
  Tensor out = ops::Gemm(a.data(), b.data(), /*trans_a=*/false,
                         /*trans_b=*/false, ops::GemmEpilogue::kBias,
                         &bias.data());
  return MakeResult(std::move(out), "matmul_bias", {a, b, bias},
                    [a, b, bias](const Tensor& g) {
                      if (a.requires_grad()) {
                        a.AccumulateGrad(ops::Gemm(g, b.data(), false, true));
                      }
                      if (b.requires_grad()) {
                        b.AccumulateGrad(ops::Gemm(a.data(), g, true, false));
                      }
                      AccumulateBroadcast(bias, g);
                    });
}

Variable BatchMatMul(const Variable& a, const Variable& b) {
  Tensor out = ops::BatchMatMul(a.data(), b.data());
  return MakeResult(std::move(out), "bmm", {a, b}, [a, b](const Tensor& g) {
    if (a.requires_grad()) {
      a.AccumulateGrad(ops::BatchGemm(g, b.data(), false, true));
    }
    if (b.requires_grad()) {
      b.AccumulateGrad(ops::BatchGemm(a.data(), g, true, false));
    }
  });
}

Variable Transpose(const Variable& v, int64_t d0, int64_t d1) {
  return MakeResult(ops::Transpose(v.data(), d0, d1), "transpose", {v},
                    [v, d0, d1](const Tensor& g) {
                      MaybeAccumulate(v, ops::Transpose(g, d0, d1));
                    });
}

Variable Reshape(const Variable& v, Shape new_shape) {
  Shape old_shape = v.shape();
  Tensor out = v.data().Reshape(std::move(new_shape)).Clone();
  return MakeResult(std::move(out), "reshape", {v},
                    [v, old_shape](const Tensor& g) {
                      MaybeAccumulate(v, g.Reshape(old_shape).Clone());
                    });
}

Variable Concat(const std::vector<Variable>& parts, int64_t axis) {
  ENHANCENET_CHECK(!parts.empty());
  std::vector<Tensor> tensors;
  tensors.reserve(parts.size());
  for (const Variable& p : parts) tensors.push_back(p.data());
  Tensor out = ops::Concat(tensors, axis);
  const int64_t resolved_axis = axis < 0 ? axis + parts[0].data().dim() : axis;
  return MakeResult(
      std::move(out), "concat", parts,
      [parts, resolved_axis](const Tensor& g) {
        int64_t offset = 0;
        for (const Variable& p : parts) {
          const int64_t len = p.size(resolved_axis);
          if (p.requires_grad()) {
            p.AccumulateGrad(ops::Slice(g, resolved_axis, offset, len));
          }
          offset += len;
        }
      });
}

Variable Slice(const Variable& v, int64_t axis, int64_t start, int64_t length) {
  const int64_t resolved_axis = axis < 0 ? axis + v.data().dim() : axis;
  const int64_t total = v.size(resolved_axis);
  Tensor out = ops::Slice(v.data(), resolved_axis, start, length);
  return MakeResult(std::move(out), "slice", {v},
                    [v, resolved_axis, start, length, total](const Tensor& g) {
                      MaybeAccumulate(
                          v, ops::PadAxis(g, resolved_axis, start,
                                          total - start - length));
                    });
}

Variable PadAxis(const Variable& v, int64_t axis, int64_t before,
                 int64_t after) {
  const int64_t resolved_axis = axis < 0 ? axis + v.data().dim() : axis;
  const int64_t len = v.size(resolved_axis);
  Tensor out = ops::PadAxis(v.data(), resolved_axis, before, after);
  return MakeResult(std::move(out), "pad", {v},
                    [v, resolved_axis, before, len](const Tensor& g) {
                      MaybeAccumulate(
                          v, ops::Slice(g, resolved_axis, before, len));
                    });
}

Variable SumAll(const Variable& v) {
  Shape in_shape = v.shape();
  return MakeResult(ops::SumAll(v.data()), "sum_all", {v},
                    [v, in_shape](const Tensor& g) {
                      MaybeAccumulate(v, Tensor::Full(in_shape, g.item()));
                    });
}

Variable MeanAll(const Variable& v) {
  Shape in_shape = v.shape();
  const float scale = 1.0f / static_cast<float>(v.numel());
  return MakeResult(ops::MeanAll(v.data()), "mean_all", {v},
                    [v, in_shape, scale](const Tensor& g) {
                      MaybeAccumulate(v,
                                      Tensor::Full(in_shape, g.item() * scale));
                    });
}

Variable Sum(const Variable& v, int64_t axis, bool keepdim) {
  const int64_t resolved_axis = axis < 0 ? axis + v.data().dim() : axis;
  Shape in_shape = v.shape();
  Tensor out = ops::Sum(v.data(), resolved_axis, keepdim);
  return MakeResult(std::move(out), "sum", {v},
                    [v, in_shape, resolved_axis, keepdim](const Tensor& g) {
                      if (!v.requires_grad()) return;
                      Tensor gk = g;
                      if (!keepdim) {
                        Shape kshape = in_shape;
                        kshape[static_cast<size_t>(resolved_axis)] = 1;
                        gk = g.Reshape(kshape);
                      }
                      v.AccumulateGrad(ExpandAlong(gk, in_shape));
                    });
}

Variable Mean(const Variable& v, int64_t axis, bool keepdim) {
  const int64_t resolved_axis = axis < 0 ? axis + v.data().dim() : axis;
  const float scale = 1.0f / static_cast<float>(v.size(resolved_axis));
  return MulScalar(Sum(v, resolved_axis, keepdim), scale);
}

Variable SoftmaxLastDim(const Variable& v) {
  Tensor y = ops::SoftmaxLastDim(v.data());
  return MakeResult(y, "softmax", {v}, [v, y](const Tensor& g) {
    if (!v.requires_grad()) return;
    // dx = y * (g - sum(g * y, last, keepdim))
    Tensor gy = ops::Mul(g, y);
    Tensor s = ops::Sum(gy, -1, /*keepdim=*/true);
    v.AccumulateGrad(ops::Mul(y, ops::Sub(g, s)));
  });
}

namespace {

/// Same numerically-stable formula as ops::Sigmoid, so fused forwards agree
/// with the unfused Sigmoid op to the last bit on each gate value.
inline float StableSigmoid(float x) {
  if (x >= 0.0f) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}

/// True when an op over these inputs must record a graph (and therefore save
/// its activations for the fused backward).
bool RecordsAny(const Variable& a, const Variable& b, const Variable& c) {
  return GradMode::IsEnabled() &&
         (a.requires_grad() || b.requires_grad() || c.requires_grad());
}

}  // namespace

Variable FusedGruCell(const Variable& gx, const Variable& gh,
                      const Variable& h) {
  const int64_t hs = h.size(-1);
  ENHANCENET_CHECK_EQ(gx.size(-1), 3 * hs);
  ENHANCENET_CHECK_EQ(gh.size(-1), 3 * hs);
  const int64_t rows = h.numel() / hs;
  ENHANCENET_CHECK_EQ(gx.numel(), rows * 3 * hs);
  ENHANCENET_CHECK_EQ(gh.numel(), rows * 3 * hs);

  const bool record = RecordsAny(gx, gh, h);
  Tensor out = Tensor::Uninitialized(h.shape());
  // Saved activations for the fused backward; never allocated in no-grad
  // mode (the same contract the unfused ops honor via Records()).
  Tensor r_saved = record ? Tensor::Uninitialized(h.shape()) : Tensor();
  Tensor u_saved = record ? Tensor::Uninitialized(h.shape()) : Tensor();
  Tensor c_saved = record ? Tensor::Uninitialized(h.shape()) : Tensor();

  {
    const float* pgx = gx.data().data();
    const float* pgh = gh.data().data();
    const float* ph = h.data().data();
    float* po = out.data();
    float* pr = record ? r_saved.data() : nullptr;
    float* pu = record ? u_saved.data() : nullptr;
    float* pc = record ? c_saved.data() : nullptr;
    const int64_t row_cost =
        hs * (3 * kCostTranscendental + 4 * kCostElement);
    ParallelFor(0, rows, row_cost, [=](int64_t r0, int64_t r1) {
      for (int64_t row = r0; row < r1; ++row) {
        const float* gxr = pgx + row * 3 * hs;
        const float* ghr = pgh + row * 3 * hs;
        const float* hr = ph + row * hs;
        float* orow = po + row * hs;
        for (int64_t k = 0; k < hs; ++k) {
          const float rv = StableSigmoid(gxr[k] + ghr[k]);
          const float uv = StableSigmoid(gxr[hs + k] + ghr[hs + k]);
          const float cv = std::tanh(gxr[2 * hs + k] + rv * ghr[2 * hs + k]);
          orow[k] = uv * hr[k] + (1.0f - uv) * cv;
          if (pr != nullptr) {
            pr[row * hs + k] = rv;
            pu[row * hs + k] = uv;
            pc[row * hs + k] = cv;
          }
        }
      }
    });
  }

  return MakeResult(
      std::move(out), "fused_gru_cell", {gx, gh, h},
      [gx, gh, h, r_saved, u_saved, c_saved, rows, hs](const Tensor& g) {
        Tensor dgx = Tensor::Uninitialized(gx.shape());
        Tensor dgh = Tensor::Uninitialized(gh.shape());
        Tensor dh = Tensor::Uninitialized(h.shape());
        const float* pg = g.data();
        const float* pr = r_saved.data();
        const float* pu = u_saved.data();
        const float* pc = c_saved.data();
        const float* ph = h.data().data();
        const float* pgh_in = gh.data().data();
        float* pdgx = dgx.data();
        float* pdgh = dgh.data();
        float* pdh = dh.data();
        const int64_t row_cost = hs * 8 * kCostElement;
        ParallelFor(0, rows, row_cost, [=](int64_t r0, int64_t r1) {
          for (int64_t row = r0; row < r1; ++row) {
            const int64_t base = row * hs;
            const int64_t base3 = row * 3 * hs;
            for (int64_t k = 0; k < hs; ++k) {
              const float gv = pg[base + k];
              const float rv = pr[base + k];
              const float uv = pu[base + k];
              const float cv = pc[base + k];
              const float hv = ph[base + k];
              const float ghc = pgh_in[base3 + 2 * hs + k];
              // h' = u h + (1-u) c with c = tanh(gx_c + r gh_c),
              // r/u = σ(gx + gh slices); chain rule in one pass.
              const float dpre_c = gv * (1.0f - uv) * (1.0f - cv * cv);
              const float dpre_u =
                  gv * (hv - cv) * uv * (1.0f - uv);
              const float dpre_r = dpre_c * ghc * rv * (1.0f - rv);
              pdgx[base3 + k] = dpre_r;
              pdgx[base3 + hs + k] = dpre_u;
              pdgx[base3 + 2 * hs + k] = dpre_c;
              pdgh[base3 + k] = dpre_r;
              pdgh[base3 + hs + k] = dpre_u;
              pdgh[base3 + 2 * hs + k] = dpre_c * rv;
              pdh[base + k] = gv * uv;
            }
          }
        });
        MaybeAccumulate(gx, std::move(dgx));
        MaybeAccumulate(gh, std::move(dgh));
        MaybeAccumulate(h, std::move(dh));
      });
}

void FusedLstmCell(const Variable& gates, const Variable& c_prev,
                   Variable* h_new, Variable* c_new) {
  ENHANCENET_CHECK(h_new != nullptr && c_new != nullptr);
  const int64_t hs = c_prev.size(-1);
  ENHANCENET_CHECK_EQ(gates.size(-1), 4 * hs);
  const int64_t rows = c_prev.numel() / hs;
  ENHANCENET_CHECK_EQ(gates.numel(), rows * 4 * hs);

  const bool record = RecordsAny(gates, c_prev, c_prev);
  Tensor h_out = Tensor::Uninitialized(c_prev.shape());
  Tensor c_out = Tensor::Uninitialized(c_prev.shape());
  Tensor i_saved = record ? Tensor::Uninitialized(c_prev.shape()) : Tensor();
  Tensor f_saved = record ? Tensor::Uninitialized(c_prev.shape()) : Tensor();
  Tensor g_saved = record ? Tensor::Uninitialized(c_prev.shape()) : Tensor();
  Tensor o_saved = record ? Tensor::Uninitialized(c_prev.shape()) : Tensor();
  Tensor t_saved = record ? Tensor::Uninitialized(c_prev.shape()) : Tensor();

  {
    const float* pga = gates.data().data();
    const float* pcp = c_prev.data().data();
    float* pho = h_out.data();
    float* pco = c_out.data();
    float* pi = record ? i_saved.data() : nullptr;
    float* pf = record ? f_saved.data() : nullptr;
    float* pgg = record ? g_saved.data() : nullptr;
    float* po = record ? o_saved.data() : nullptr;
    float* pt = record ? t_saved.data() : nullptr;
    const int64_t row_cost =
        hs * (5 * kCostTranscendental + 4 * kCostElement);
    ParallelFor(0, rows, row_cost, [=](int64_t r0, int64_t r1) {
      for (int64_t row = r0; row < r1; ++row) {
        const float* garow = pga + row * 4 * hs;
        const int64_t base = row * hs;
        for (int64_t k = 0; k < hs; ++k) {
          const float iv = StableSigmoid(garow[k]);
          const float fv = StableSigmoid(garow[hs + k]);
          const float gv = std::tanh(garow[2 * hs + k]);
          const float ov = StableSigmoid(garow[3 * hs + k]);
          const float cv = fv * pcp[base + k] + iv * gv;
          const float tv = std::tanh(cv);
          pco[base + k] = cv;
          pho[base + k] = ov * tv;
          if (pi != nullptr) {
            pi[base + k] = iv;
            pf[base + k] = fv;
            pgg[base + k] = gv;
            po[base + k] = ov;
            pt[base + k] = tv;
          }
        }
      }
    });
  }

  // Two result nodes over the same parents and saved activations. Each node
  // owns the complete chain rule for its own output, so the gradients the
  // next time step sends into h' and c' both reach gates/c_prev, in any
  // order the topological sweep fires them.
  *c_new = MakeResult(
      std::move(c_out), "fused_lstm_c", {gates, c_prev},
      [gates, c_prev, i_saved, f_saved, g_saved, rows, hs](const Tensor& g) {
        Tensor dgates = Tensor::Uninitialized(gates.shape());
        Tensor dc = Tensor::Uninitialized(c_prev.shape());
        const float* pg = g.data();
        const float* pi = i_saved.data();
        const float* pf = f_saved.data();
        const float* pgg = g_saved.data();
        const float* pcp = c_prev.data().data();
        float* pdg = dgates.data();
        float* pdc = dc.data();
        const int64_t row_cost = hs * 8 * kCostElement;
        ParallelFor(0, rows, row_cost, [=](int64_t r0, int64_t r1) {
          for (int64_t row = r0; row < r1; ++row) {
            const int64_t base = row * hs;
            const int64_t base4 = row * 4 * hs;
            for (int64_t k = 0; k < hs; ++k) {
              const float gc = pg[base + k];
              const float iv = pi[base + k];
              const float fv = pf[base + k];
              const float gv = pgg[base + k];
              // c' = f c_prev + i g; no o-gate term through this output.
              pdg[base4 + k] = gc * gv * iv * (1.0f - iv);
              pdg[base4 + hs + k] =
                  gc * pcp[base + k] * fv * (1.0f - fv);
              pdg[base4 + 2 * hs + k] = gc * iv * (1.0f - gv * gv);
              pdg[base4 + 3 * hs + k] = 0.0f;
              pdc[base + k] = gc * fv;
            }
          }
        });
        MaybeAccumulate(gates, std::move(dgates));
        MaybeAccumulate(c_prev, std::move(dc));
      });
  *h_new = MakeResult(
      std::move(h_out), "fused_lstm_h", {gates, c_prev},
      [gates, c_prev, i_saved, f_saved, g_saved, o_saved, t_saved, rows,
       hs](const Tensor& g) {
        Tensor dgates = Tensor::Uninitialized(gates.shape());
        Tensor dc = Tensor::Uninitialized(c_prev.shape());
        const float* pg = g.data();
        const float* pi = i_saved.data();
        const float* pf = f_saved.data();
        const float* pgg = g_saved.data();
        const float* po = o_saved.data();
        const float* pt = t_saved.data();
        const float* pcp = c_prev.data().data();
        float* pdg = dgates.data();
        float* pdc = dc.data();
        const int64_t row_cost = hs * 8 * kCostElement;
        ParallelFor(0, rows, row_cost, [=](int64_t r0, int64_t r1) {
          for (int64_t row = r0; row < r1; ++row) {
            const int64_t base = row * hs;
            const int64_t base4 = row * 4 * hs;
            for (int64_t k = 0; k < hs; ++k) {
              const float gh = pg[base + k];
              const float iv = pi[base + k];
              const float fv = pf[base + k];
              const float gv = pgg[base + k];
              const float ov = po[base + k];
              const float tv = pt[base + k];
              // h' = o tanh(c'); route the tanh(c') term through the whole
              // c' = f c_prev + i g expression.
              const float dcn = gh * ov * (1.0f - tv * tv);
              pdg[base4 + k] = dcn * gv * iv * (1.0f - iv);
              pdg[base4 + hs + k] =
                  dcn * pcp[base + k] * fv * (1.0f - fv);
              pdg[base4 + 2 * hs + k] = dcn * iv * (1.0f - gv * gv);
              pdg[base4 + 3 * hs + k] = gh * tv * ov * (1.0f - ov);
              pdc[base + k] = dcn * fv;
            }
          }
        });
        MaybeAccumulate(gates, std::move(dgates));
        MaybeAccumulate(c_prev, std::move(dc));
      });
}

Variable GruCombine(const Variable& u, const Variable& h, const Variable& c) {
  ENHANCENET_CHECK(u.shape() == h.shape() && u.shape() == c.shape())
      << "GruCombine shape mismatch: " << ShapeToString(u.shape()) << " vs "
      << ShapeToString(h.shape()) << " vs " << ShapeToString(c.shape());
  const int64_t n = u.numel();

  Tensor out = Tensor::Uninitialized(u.shape());
  {
    const float* pu = u.data().data();
    const float* ph = h.data().data();
    const float* pc = c.data().data();
    float* po = out.data();
    ParallelFor(0, n, 2 * kCostElement, [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        po[i] = pu[i] * ph[i] + (1.0f - pu[i]) * pc[i];
      }
    });
  }

  return MakeResult(
      std::move(out), "gru_combine", {u, h, c},
      [u, h, c, n](const Tensor& g) {
        Tensor du = Tensor::Uninitialized(u.shape());
        Tensor dh = Tensor::Uninitialized(u.shape());
        Tensor dc = Tensor::Uninitialized(u.shape());
        const float* pg = g.data();
        const float* pu = u.data().data();
        const float* ph = h.data().data();
        const float* pc = c.data().data();
        float* pdu = du.data();
        float* pdh = dh.data();
        float* pdc = dc.data();
        ParallelFor(0, n, 3 * kCostElement, [=](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            pdu[i] = pg[i] * (ph[i] - pc[i]);
            pdh[i] = pg[i] * pu[i];
            pdc[i] = pg[i] * (1.0f - pu[i]);
          }
        });
        MaybeAccumulate(u, std::move(du));
        MaybeAccumulate(h, std::move(dh));
        MaybeAccumulate(c, std::move(dc));
      });
}

void FusedGruGates(const Variable& gates, const Variable& h, Variable* rh,
                   Variable* u) {
  ENHANCENET_CHECK(rh != nullptr && u != nullptr);
  const int64_t hs = h.size(-1);
  ENHANCENET_CHECK_EQ(gates.size(-1), 2 * hs);
  const int64_t rows = h.numel() / hs;
  ENHANCENET_CHECK_EQ(gates.numel(), rows * 2 * hs);

  const bool record = RecordsAny(gates, h, h);
  Tensor rh_out = Tensor::Uninitialized(h.shape());
  Tensor u_out = Tensor::Uninitialized(h.shape());
  Tensor r_saved = record ? Tensor::Uninitialized(h.shape()) : Tensor();

  {
    const float* pg = gates.data().data();
    const float* ph = h.data().data();
    float* prh = rh_out.data();
    float* pu = u_out.data();
    float* pr = record ? r_saved.data() : nullptr;
    const int64_t row_cost =
        hs * (2 * kCostTranscendental + 2 * kCostElement);
    ParallelFor(0, rows, row_cost, [=](int64_t r0, int64_t r1) {
      for (int64_t row = r0; row < r1; ++row) {
        const float* grow = pg + row * 2 * hs;
        for (int64_t k = 0; k < hs; ++k) {
          const float rv = StableSigmoid(grow[k]);
          prh[row * hs + k] = rv * ph[row * hs + k];
          pu[row * hs + k] = StableSigmoid(grow[hs + k]);
          if (pr != nullptr) pr[row * hs + k] = rv;
        }
      }
    });
  }

  // u's value is its own node data; keep a storage-sharing handle for the
  // backward (node data is never mutated, so the alias is read-only).
  Tensor u_saved = record ? u_out : Tensor();

  *rh = MakeResult(
      std::move(rh_out), "fused_gru_rh", {gates, h},
      [gates, h, r_saved, rows, hs](const Tensor& g) {
        Tensor dgates = Tensor::Uninitialized(gates.shape());
        Tensor dh = Tensor::Uninitialized(h.shape());
        const float* pg = g.data();
        const float* pr = r_saved.data();
        const float* ph = h.data().data();
        float* pdg = dgates.data();
        float* pdh = dh.data();
        const int64_t row_cost = hs * 3 * kCostElement;
        ParallelFor(0, rows, row_cost, [=](int64_t r0, int64_t r1) {
          for (int64_t row = r0; row < r1; ++row) {
            const int64_t base = row * hs;
            const int64_t base2 = row * 2 * hs;
            for (int64_t k = 0; k < hs; ++k) {
              const float gv = pg[base + k];
              const float rv = pr[base + k];
              // rh = σ(gates_r) ⊙ h; the u half owes nothing to this output.
              pdg[base2 + k] = gv * ph[base + k] * rv * (1.0f - rv);
              pdg[base2 + hs + k] = 0.0f;
              pdh[base + k] = gv * rv;
            }
          }
        });
        MaybeAccumulate(gates, std::move(dgates));
        MaybeAccumulate(h, std::move(dh));
      });
  *u = MakeResult(
      std::move(u_out), "fused_gru_u", {gates},
      [gates, u_saved, rows, hs](const Tensor& g) {
        Tensor dgates = Tensor::Uninitialized(gates.shape());
        const float* pg = g.data();
        const float* pu = u_saved.data();
        float* pdg = dgates.data();
        const int64_t row_cost = hs * 2 * kCostElement;
        ParallelFor(0, rows, row_cost, [=](int64_t r0, int64_t r1) {
          for (int64_t row = r0; row < r1; ++row) {
            const int64_t base = row * hs;
            const int64_t base2 = row * 2 * hs;
            for (int64_t k = 0; k < hs; ++k) {
              const float uv = pu[base + k];
              pdg[base2 + k] = 0.0f;
              pdg[base2 + hs + k] = pg[base + k] * uv * (1.0f - uv);
            }
          }
        });
        MaybeAccumulate(gates, std::move(dgates));
      });
}

Variable AdjacencyMatMul(const Variable& adj, const Variable& x) {
  ENHANCENET_CHECK_EQ(adj.data().dim(), 2);
  ENHANCENET_CHECK_EQ(x.data().dim(), 3);
  const int64_t n = x.size(1);
  ENHANCENET_CHECK_EQ(adj.size(0), n);
  ENHANCENET_CHECK_EQ(adj.size(1), n);

  // out[b] = adj · x[b], one tiled GEMM per slice (batched ≡ single).
  return MakeResult(
      ops::BatchGemmSharedA(adj.data(), x.data(), /*trans_a=*/false),
      "adj_matmul", {adj, x}, [adj, x](const Tensor& g) {
        if (x.requires_grad()) {
          // dx[b] = adjᵀ · g[b].
          MaybeAccumulate(x, ops::BatchGemmSharedA(adj.data(), g,
                                                   /*trans_a=*/true));
        }
        if (adj.requires_grad()) {
          // dadj = Σ_b g[b] · x[b]ᵀ, summed in ascending b.
          MaybeAccumulate(adj, ops::BatchGemmSum(g, x.data(), /*trans_a=*/false,
                                                 /*trans_b=*/true));
        }
      });
}

namespace {

/// int32 index storage caps the entry count (not the entity count) — far
/// beyond any plan the allocator could hold, but CHECKed for honesty.
constexpr int64_t kMaxInt32Index =
    static_cast<int64_t>(std::numeric_limits<int32_t>::max());

/// Storage for sparse-attention results: allocator-backed when the graph is
/// recorded (the tensors outlive the op as node data / saved activations),
/// Workspace-backed on the no-grad serving path so every step reuses the
/// same arena blocks.
Tensor SparseStage(bool record, Shape shape) {
  if (record) return Tensor::Uninitialized(std::move(shape));
  runtime::Workspace& ws = runtime::RuntimeContext::Current().workspace();
  const int64_t numel = NumElements(shape);
  return Tensor::WithStorage(ws.Acquire(numel), std::move(shape));
}

/// A Workspace-staged temporary that dies at the end of the op's forward
/// pass (used in recorded mode too — nothing retains it).
Tensor WorkspaceTemp(Shape shape) {
  runtime::Workspace& ws = runtime::RuntimeContext::Current().workspace();
  const int64_t numel = NumElements(shape);
  return Tensor::WithStorage(ws.Acquire(numel), std::move(shape));
}

void BuildSparseTransposeImpl(SparseIndex* index) {
  const int64_t rows = index->batch * index->n;
  const int64_t n = index->n;
  const int64_t nnz = index->nnz;
  index->t_row_offsets = AcquireIndexArray(rows + 1);
  index->t_perm = AcquireIndexArray(nnz);
  const int32_t* pc = index->cols.data();
  const int32_t* po = index->row_offsets.data();
  int32_t* pto = index->t_row_offsets.data();
  int32_t* ptp = index->t_perm.data();
  // Deterministic counting sort over the entries, O(nnz) and serial: count
  // entries per target column, prefix-sum into offsets, then append entries
  // in their natural (source-row ascending) order. Transposed rows therefore
  // list their entries sorted by source row, independent of thread count.
  std::fill(pto, pto + rows + 1, 0);
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t batch_base = (r / n) * n;
    const int64_t e0 = po[r];
    const int64_t e1 = po[r + 1];
    for (int64_t e = e0; e < e1; ++e) {
      pto[batch_base + pc[e] + 1] += 1;
    }
  }
  for (int64_t r = 0; r < rows; ++r) pto[r + 1] += pto[r];
  IntArray cursor = AcquireIndexArray(rows);
  int32_t* pcur = cursor.data();
  std::copy(pto, pto + rows, pcur);
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t batch_base = (r / n) * n;
    const int64_t e0 = po[r];
    const int64_t e1 = po[r + 1];
    for (int64_t e = e0; e < e1; ++e) {
      const int64_t tr = batch_base + pc[e];
      ptp[pcur[tr]] = static_cast<int32_t>(e);
      pcur[tr] += 1;
    }
  }
}

/// Entries per row of a uniform-degree pattern.
int64_t SparseDegree(const SparseIndex& index) {
  return index.nnz / std::max<int64_t>(index.batch * index.n, 1);
}

/// y[b,i,:] = Σ_{e in CSR row (b,i)} values[e] · x[b, cols[e], :].
void SparseApplyCsr(const SparseIndex& idx, const float* pv, const float* px,
                    int64_t channels, float* po) {
  const int64_t n = idx.n;
  const int32_t* pc = idx.cols.data();
  const int32_t* poff = idx.row_offsets.data();
  ParallelFor(0, idx.batch * n, SparseDegree(idx) * channels * kCostElement,
              [=](int64_t r0, int64_t r1) {
                for (int64_t r = r0; r < r1; ++r) {
                  const int64_t b = r / n;
                  float* orow = po + r * channels;
                  std::fill(orow, orow + channels, 0.0f);
                  const float* xb = px + b * n * channels;
                  const int64_t e0 = poff[r];
                  const int64_t e1 = poff[r + 1];
                  for (int64_t e = e0; e < e1; ++e) {
                    const float a = pv[e];
                    const float* xrow = xb + pc[e] * channels;
                    for (int64_t c = 0; c < channels; ++c) {
                      orow[c] += a * xrow[c];
                    }
                  }
                }
              });
}

/// y[b,j,:] = Σ_{e with cols[e]==j} values[e] · x[b, row(e), :] — the
/// transposed apply, driven by the CSC half so each output row is owned by
/// one chunk (gather, never scatter).
void SparseApplyCsc(const SparseIndex& idx, const float* pv, const float* px,
                    int64_t channels, float* po) {
  const int64_t n = idx.n;
  const int64_t kk = SparseDegree(idx);
  const int32_t* ptoff = idx.t_row_offsets.data();
  const int32_t* ptp = idx.t_perm.data();
  ParallelFor(0, idx.batch * n, kk * channels * kCostElement,
              [=](int64_t r0, int64_t r1) {
                for (int64_t tr = r0; tr < r1; ++tr) {
                  const int64_t b = tr / n;
                  float* orow = po + tr * channels;
                  std::fill(orow, orow + channels, 0.0f);
                  const float* xb = px + b * n * channels;
                  const int64_t w0 = ptoff[tr];
                  const int64_t w1 = ptoff[tr + 1];
                  for (int64_t w = w0; w < w1; ++w) {
                    const int64_t e = ptp[w];
                    const int64_t src_row = e / kk;  // uniform degree
                    const float* xrow =
                        xb + (src_row % n) * channels;
                    const float a = pv[e];
                    for (int64_t c = 0; c < channels; ++c) {
                      orow[c] += a * xrow[c];
                    }
                  }
                }
              });
}

/// dvalues[e] = Σ_c g[b, out_row(e), c] · x[b, in_row(e), c], where for the
/// plain apply out=CSR row / in=column and for the transposed apply the two
/// swap. Parallel over CSR rows: every entry is owned by exactly one chunk.
void SparseValueGrad(const SparseIndex& idx, bool transpose_adj,
                     const float* pg, const float* px, int64_t channels,
                     float* pdv) {
  const int64_t n = idx.n;
  const int32_t* pc = idx.cols.data();
  const int32_t* poff = idx.row_offsets.data();
  ParallelFor(0, idx.batch * n, SparseDegree(idx) * channels * kCostElement,
              [=](int64_t r0, int64_t r1) {
                for (int64_t r = r0; r < r1; ++r) {
                  const int64_t b = r / n;
                  const int64_t i = r % n;
                  const float* gb = pg + b * n * channels;
                  const float* xb = px + b * n * channels;
                  const int64_t e0 = poff[r];
                  const int64_t e1 = poff[r + 1];
                  for (int64_t e = e0; e < e1; ++e) {
                    const int64_t j = pc[e];
                    const float* grow =
                        gb + (transpose_adj ? j : i) * channels;
                    const float* xrow =
                        xb + (transpose_adj ? i : j) * channels;
                    float s = 0.0f;
                    for (int64_t c = 0; c < channels; ++c) {
                      s += grow[c] * xrow[c];
                    }
                    pdv[e] = s;
                  }
                }
              });
}

}  // namespace

IntArray AcquireIndexArray(int64_t numel) {
  ENHANCENET_CHECK_GE(numel, 0);
  ENHANCENET_CHECK_LE(numel, kMaxInt32Index);
  // Always workspace-backed (recorded or not): index arrays are rebuilt every
  // step, and the deleter parks safely even after the owning context retires.
  runtime::Workspace& ws = runtime::RuntimeContext::Current().workspace();
  IntArray out;
  out.storage = ws.AcquireInts(numel);
  out.numel = numel;
  return out;
}

void BuildSparseTranspose(SparseIndex* index) {
  ENHANCENET_CHECK(index != nullptr);
  ENHANCENET_CHECK_GT(index->nnz, 0);
  BuildSparseTransposeImpl(index);
}

Variable AttentionProbs(const Variable& e_src, const Variable& e_dst) {
  const Tensor& src = e_src.data();
  const Tensor& dst = e_dst.data();
  ENHANCENET_CHECK_EQ(src.dim(), 3);
  ENHANCENET_CHECK(dst.shape() == src.shape());
  const int64_t batch = src.size(0);
  const int64_t n = src.size(1);
  const int64_t e = src.size(2);
  const bool record = GradMode::IsEnabled() &&
                      (e_src.requires_grad() || e_dst.requires_grad());
  Tensor probs;
  {
    Tensor dst_t = WorkspaceTemp({batch, e, n});
    ops::TransposeInto(dst, 1, 2, &dst_t);
    Tensor scores = WorkspaceTemp({batch, n, n});
    ops::BatchMatMulInto(src, dst_t, &scores);
    probs = SparseStage(record, {batch, n, n});
    ops::SoftmaxLastDimInto(scores, &probs);
  }
  Tensor y = probs;  // alias saved for the backward pass
  return MakeResult(
      std::move(probs), "attention_probs", {e_src, e_dst},
      [e_src, e_dst, y](const Tensor& g) {
        // dscores = y ⊙ (g − Σ_last g⊙y); chain through scores = src·dstᵀ.
        Tensor gy = ops::Mul(g, y);
        Tensor s = ops::Sum(gy, -1, /*keepdim=*/true);
        Tensor dscores = ops::Mul(y, ops::Sub(g, s));
        if (e_src.requires_grad()) {
          MaybeAccumulate(e_src, ops::BatchMatMul(dscores, e_dst.data()));
        }
        if (e_dst.requires_grad()) {
          MaybeAccumulate(e_dst, ops::BatchGemm(dscores, e_src.data(),
                                                /*trans_a=*/true,
                                                /*trans_b=*/false));
        }
      });
}

Variable TopKAttention(const Variable& e_src, const Variable& e_dst, int64_t k,
                       SparseIndex* index) {
  ENHANCENET_CHECK(index != nullptr);
  const Tensor& src = e_src.data();
  const Tensor& dst = e_dst.data();
  ENHANCENET_CHECK_EQ(src.dim(), 3);
  ENHANCENET_CHECK(dst.shape() == src.shape());
  ENHANCENET_CHECK_GE(k, 1);
  const int64_t batch = src.size(0);
  const int64_t n = src.size(1);
  const int64_t e = src.size(2);
  const int64_t kk = std::min(k, n);
  const int64_t rows = batch * n;
  const int64_t nnz = rows * kk;
  ENHANCENET_CHECK_LT(nnz, kMaxInt32Index)
      << "sparse adjacency too large for int32 indices";
  const bool record = GradMode::IsEnabled() &&
                      (e_src.requires_grad() || e_dst.requires_grad());
  Tensor values;
  {
    Tensor dst_t = WorkspaceTemp({batch, e, n});
    ops::TransposeInto(dst, 1, 2, &dst_t);
    Tensor scores = WorkspaceTemp({batch, n, n});
    ops::BatchMatMulInto(src, dst_t, &scores);

    values = SparseStage(record, {batch, n, kk});
    index->cols = AcquireIndexArray(nnz);
    index->row_offsets = AcquireIndexArray(rows + 1);
    index->batch = batch;
    index->n = n;
    index->nnz = nnz;

    const float* ps = scores.data();
    float* pv = values.data();
    int32_t* pc = index->cols.data();
    ParallelFor(0, rows, n * kCostElement, [=](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const float* srow = ps + r * n;
        float* vrow = pv + r * kk;
        int32_t* crow = pc + r * kk;
        // Row-local selection: keep a kk-sized working set in the output
        // buffers and replace its minimum on a strictly greater score. The
        // strict compare keeps the earliest (lowest) column among ties.
        int64_t mn = 0;
        for (int64_t j = 0; j < kk; ++j) {
          vrow[j] = srow[j];
          crow[j] = static_cast<int32_t>(j);
          if (srow[j] < vrow[mn]) mn = j;
        }
        for (int64_t j = kk; j < n; ++j) {
          if (srow[j] > vrow[mn]) {
            vrow[mn] = srow[j];
            crow[mn] = static_cast<int32_t>(j);
            mn = 0;
            for (int64_t s = 1; s < kk; ++s) {
              if (vrow[s] < vrow[mn]) mn = s;
            }
          }
        }
        // Store selected columns ascending (insertion sort over kk entries)
        // so a k >= N row reproduces the dense softmax order bitwise.
        for (int64_t s = 1; s < kk; ++s) {
          const int32_t cv = crow[s];
          const float vv = vrow[s];
          int64_t t = s - 1;
          while (t >= 0 && crow[t] > cv) {
            crow[t + 1] = crow[t];
            vrow[t + 1] = vrow[t];
            --t;
          }
          crow[t + 1] = cv;
          vrow[t + 1] = vv;
        }
        // Stable softmax over the selected raw scores — identical to the
        // dense row's probabilities restricted to the selection and
        // renormalized. Fully-masked rows fall back to uniform (the same
        // guard ops::SoftmaxLastDim applies).
        float mx = vrow[0];
        for (int64_t s = 1; s < kk; ++s) mx = std::max(mx, vrow[s]);
        if (mx == -std::numeric_limits<float>::infinity()) {
          const float uniform = 1.0f / static_cast<float>(kk);
          for (int64_t s = 0; s < kk; ++s) vrow[s] = uniform;
          continue;
        }
        double denom = 0.0;
        for (int64_t s = 0; s < kk; ++s) {
          vrow[s] = std::exp(vrow[s] - mx);
          denom += vrow[s];
        }
        const float inv = static_cast<float>(1.0 / denom);
        for (int64_t s = 0; s < kk; ++s) vrow[s] *= inv;
      }
    });
    int32_t* po = index->row_offsets.data();
    for (int64_t r = 0; r <= rows; ++r) {
      po[r] = static_cast<int32_t>(r * kk);
    }
    BuildSparseTransposeImpl(index);
  }
  SparseIndex idx = *index;  // shared-handle copy for the closure
  Tensor y = values;
  return MakeResult(
      values, "topk_attention", {e_src, e_dst},
      [e_src, e_dst, idx, y, batch, n, e, kk](const Tensor& g) {
        const int64_t rows = batch * n;
        const float* pg = g.data();
        const float* py = y.data();
        const int32_t* pc = idx.cols.data();
        // Softmax backward restricted to the selected entries (the selection
        // itself is piecewise constant, so unselected scores get zero grad).
        Tensor dsel = Tensor::Uninitialized({batch, n, kk});
        float* pd = dsel.data();
        const int64_t dsel_cost = 2 * kk * kCostElement;
        ParallelFor(0, rows, dsel_cost, [=](int64_t r0, int64_t r1) {
          for (int64_t r = r0; r < r1; ++r) {
            const float* grow = pg + r * kk;
            const float* yrow = py + r * kk;
            float* drow = pd + r * kk;
            float dot = 0.0f;
            for (int64_t s = 0; s < kk; ++s) dot += grow[s] * yrow[s];
            for (int64_t s = 0; s < kk; ++s) {
              drow[s] = yrow[s] * (grow[s] - dot);
            }
          }
        });
        if (e_src.requires_grad()) {
          // de_src[b,i,:] = Σ_s dsel[b,i,s] · e_dst[b, cols[b,i,s], :].
          Tensor de_src = Tensor::Uninitialized(e_src.shape());
          const float* pdst = e_dst.data().data();
          float* pds = de_src.data();
          const int64_t row_cost = kk * e * kCostElement;
          ParallelFor(0, rows, row_cost, [=](int64_t r0, int64_t r1) {
            for (int64_t r = r0; r < r1; ++r) {
              const int64_t b = r / n;
              float* orow = pds + r * e;
              std::fill(orow, orow + e, 0.0f);
              const float* dstb = pdst + b * n * e;
              for (int64_t s = 0; s < kk; ++s) {
                const float d = pd[r * kk + s];
                const float* drow = dstb + pc[r * kk + s] * e;
                for (int64_t c = 0; c < e; ++c) orow[c] += d * drow[c];
              }
            }
          });
          MaybeAccumulate(e_src, std::move(de_src));
        }
        if (e_dst.requires_grad()) {
          // de_dst[b,j,:] = Σ_{entries with col j} dsel[e]·e_src[b,row(e),:]
          // — gathered through the CSC half, one output row per chunk.
          Tensor de_dst = Tensor::Uninitialized(e_dst.shape());
          const float* psrc = e_src.data().data();
          const int32_t* ptoff = idx.t_row_offsets.data();
          const int32_t* ptp = idx.t_perm.data();
          float* pdd = de_dst.data();
          const int64_t row_cost = kk * e * kCostElement;
          ParallelFor(0, rows, row_cost, [=](int64_t r0, int64_t r1) {
            for (int64_t tr = r0; tr < r1; ++tr) {
              const int64_t b = tr / n;
              float* orow = pdd + tr * e;
              std::fill(orow, orow + e, 0.0f);
              const float* srcb = psrc + b * n * e;
              const int64_t w0 = ptoff[tr];
              const int64_t w1 = ptoff[tr + 1];
              for (int64_t w = w0; w < w1; ++w) {
                const int64_t entry = ptp[w];
                const float d = pd[entry];
                const float* srow = srcb + ((entry / kk) % n) * e;
                for (int64_t c = 0; c < e; ++c) orow[c] += d * srow[c];
              }
            }
          });
          MaybeAccumulate(e_dst, std::move(de_dst));
        }
      });
}

Variable SparseAdjacencyMatMul(const Variable& values, const SparseIndex& index,
                               const Variable& x, bool transpose_adj) {
  const Tensor& xt = x.data();
  ENHANCENET_CHECK_EQ(xt.dim(), 3);
  ENHANCENET_CHECK_EQ(xt.size(0), index.batch);
  ENHANCENET_CHECK_EQ(xt.size(1), index.n);
  ENHANCENET_CHECK_EQ(values.numel(), index.nnz);
  ENHANCENET_CHECK_EQ(index.t_perm.numel, index.nnz)
      << "SparseAdjacencyMatMul needs the transpose half of the index";
  const int64_t channels = xt.size(2);

  Tensor out = Tensor::Uninitialized(xt.shape());
  if (transpose_adj) {
    SparseApplyCsc(index, values.data().data(), xt.data(), channels,
                   out.data());
  } else {
    SparseApplyCsr(index, values.data().data(), xt.data(), channels,
                   out.data());
  }

  SparseIndex idx = index;  // shared-handle copy for the closure
  return MakeResult(
      std::move(out), "sparse_adj_matmul", {values, x},
      [values, x, idx, transpose_adj, channels](const Tensor& g) {
        if (values.requires_grad()) {
          Tensor dv = Tensor::Uninitialized(values.shape());
          SparseValueGrad(idx, transpose_adj, g.data(), x.data().data(),
                          channels, dv.data());
          MaybeAccumulate(values, std::move(dv));
        }
        if (x.requires_grad()) {
          // dx = Aᵀ·g for the plain apply, A·g for the transposed one.
          Tensor dx = Tensor::Uninitialized(x.shape());
          if (transpose_adj) {
            SparseApplyCsr(idx, values.data().data(), g.data(), channels,
                           dx.data());
          } else {
            SparseApplyCsc(idx, values.data().data(), g.data(), channels,
                           dx.data());
          }
          MaybeAccumulate(x, std::move(dx));
        }
      });
}

namespace {

/// Resolved shapes of a fused gated conv call, shared by the two variants.
struct GatedConvDims {
  int64_t batch, n, t_in, c_in, t_out, half;
};

/// Gathers the K dilated tap windows of x [B,N,T,C] into the stacked GEMM
/// operand: row (pair, t) holds taps k = 0..K-1 side by side,
///   S[pair, t, k·C + c] = x[b, i, t + k·dilation − pad_left, c]
/// (zero outside [0,T)). `by_entity` selects the pair ordering: false packs
/// rows as (b·N + i) — matching x's own layout, for the shared-filter 2-D
/// GEMM — true as (i·B + b), grouping each entity's rows contiguously for
/// the per-entity BatchGemm. Pure per-pair gather: each (b, i) pair's rows
/// are written entirely by the chunk that owns the pair.
void GatherTapWindows(const float* px, int64_t batch, int64_t n_entities,
                      int64_t t_in, int64_t c_in, int64_t t_out,
                      int64_t kernel, int64_t dilation, int64_t pad_left,
                      bool by_entity, float* ps) {
  const int64_t kc = kernel * c_in;
  ParallelFor(
      0, batch * n_entities, t_out * kc * kCostElement,
      [=](int64_t p0, int64_t p1) {
        for (int64_t p = p0; p < p1; ++p) {
          const int64_t b = by_entity ? p % batch : p / n_entities;
          const int64_t i = by_entity ? p / batch : p % n_entities;
          const float* src = px + (b * n_entities + i) * t_in * c_in;
          float* dst = ps + p * t_out * kc;
          for (int64_t t = 0; t < t_out; ++t) {
            float* drow = dst + t * kc;
            for (int64_t k = 0; k < kernel; ++k) {
              const int64_t ts = t + k * dilation - pad_left;
              if (ts >= 0 && ts < t_in) {
                std::copy(src + ts * c_in, src + (ts + 1) * c_in,
                          drow + k * c_in);
              } else {
                std::fill(drow + k * c_in, drow + (k + 1) * c_in, 0.0f);
              }
            }
          }
        }
      });
}

/// Transpose of GatherTapWindows for the backward pass: accumulates the
/// stacked-operand gradient dS back onto dx. Parallel over dx's own (b, i)
/// pairs — every dx row is owned by one chunk, and within it taps accumulate
/// in ascending (t, k) order, so the scatter is bitwise thread-invariant.
void ScatterTapWindows(const float* pds, int64_t batch, int64_t n_entities,
                       int64_t t_in, int64_t c_in, int64_t t_out,
                       int64_t kernel, int64_t dilation, int64_t pad_left,
                       bool by_entity, float* pdx) {
  const int64_t kc = kernel * c_in;
  ParallelFor(
      0, batch * n_entities, t_out * kc * kCostElement,
      [=](int64_t q0, int64_t q1) {
        for (int64_t q = q0; q < q1; ++q) {
          const int64_t b = q / n_entities;
          const int64_t i = q % n_entities;
          const int64_t p = by_entity ? i * batch + b : q;
          const float* srow = pds + p * t_out * kc;
          float* dxrow = pdx + q * t_in * c_in;
          std::fill(dxrow, dxrow + t_in * c_in, 0.0f);
          for (int64_t t = 0; t < t_out; ++t) {
            for (int64_t k = 0; k < kernel; ++k) {
              const int64_t ts = t + k * dilation - pad_left;
              if (ts < 0 || ts >= t_in) continue;
              const float* s = srow + t * kc + k * c_in;
              float* d = dxrow + ts * c_in;
              for (int64_t c = 0; c < c_in; ++c) d[c] += s[c];
            }
          }
        }
      });
}

/// Single-pass gate backward: from upstream grad g [rows, C'] and the saved
/// biased pre-activations [rows, 2C'], recomputes the gate values and emits
/// the pre-activation gradient [rows, 2C']. With s_f/s_g the two halves and
/// σ' = σ(s_g)(1−σ(s_g)):
///   tanh⊙σ:  d s_f = g · σ(s_g) · (1 − tanh²(s_f)),  d s_g = g · tanh(s_f) · σ'
///   GLU:     d s_f = g · σ(s_g),                      d s_g = g · s_f · σ'
void GatedConvBackwardRows(ops::GemmEpilogue gate, const float* pg,
                           const float* ppre, int64_t rows, int64_t half,
                           float* pdpre) {
  const bool glu = gate == ops::GemmEpilogue::kBiasGlu;
  const int64_t row_cost =
      half * (2 * kCostTranscendental + 4 * kCostElement);
  ParallelFor(0, rows, row_cost, [=](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* grow = pg + r * half;
      const float* prow = ppre + r * 2 * half;
      float* drow = pdpre + r * 2 * half;
      for (int64_t j = 0; j < half; ++j) {
        const float sf = prow[j];
        const float sg = prow[half + j];
        const float gatev = StableSigmoid(sg);
        const float gv = grow[j];
        float fval;
        if (glu) {
          drow[j] = gv * gatev;
          fval = sf;
        } else {
          const float tf = std::tanh(sf);
          drow[j] = gv * (1.0f - tf * tf) * gatev;
          fval = tf;
        }
        drow[half + j] = gv * fval * gatev * (1.0f - gatev);
      }
    }
  });
}

/// Shape checks shared by the two fused gated conv variants.
GatedConvDims CheckGatedConvDims(const Variable& x, int64_t kernel,
                                 int64_t dilation, int64_t pad_left,
                                 int64_t two_cp, ops::GemmEpilogue gate) {
  ENHANCENET_CHECK(ops::IsGatedEpilogue(gate))
      << "FusedGatedConv needs a gated epilogue";
  ENHANCENET_CHECK_EQ(x.data().dim(), 4);
  ENHANCENET_CHECK(kernel >= 1 && dilation >= 1 && pad_left >= 0);
  ENHANCENET_CHECK_EQ(two_cp % 2, 0);
  GatedConvDims d;
  d.batch = x.size(0);
  d.n = x.size(1);
  d.t_in = x.size(2);
  d.c_in = x.size(3);
  d.t_out = d.t_in + pad_left - dilation * (kernel - 1);
  ENHANCENET_CHECK_GE(d.t_out, 1)
      << "gated conv receptive field " << dilation * (kernel - 1) + 1
      << " exceeds padded input length " << d.t_in + pad_left;
  d.half = two_cp / 2;
  return d;
}

}  // namespace

Variable FusedGatedConv(const Variable& x, const Variable& weight,
                        const Variable& bias, int64_t kernel, int64_t dilation,
                        int64_t pad_left, ops::GemmEpilogue gate) {
  ENHANCENET_CHECK_EQ(weight.data().dim(), 2);
  ENHANCENET_CHECK_EQ(bias.data().dim(), 1);
  const int64_t two_cp = weight.size(1);
  ENHANCENET_CHECK_EQ(bias.size(0), two_cp);
  const GatedConvDims d =
      CheckGatedConvDims(x, kernel, dilation, pad_left, two_cp, gate);
  const int64_t kc = kernel * d.c_in;
  ENHANCENET_CHECK_EQ(weight.size(0), kc)
      << "FusedGatedConv weight rows must be kernel*channels";
  const int64_t rows = d.batch * d.n * d.t_out;

  const bool record = RecordsAny(x, weight, bias);
  // The biased pre-activations are the only saved activation — allocator-
  // backed when recorded (the backward closure outlives the forward),
  // Workspace-backed otherwise.
  Tensor preact = SparseStage(record, {rows, two_cp});
  Tensor z;
  {
    Tensor stacked = WorkspaceTemp({rows, kc});
    GatherTapWindows(x.data().data(), d.batch, d.n, d.t_in, d.c_in, d.t_out,
                     kernel, dilation, pad_left, /*by_entity=*/false,
                     stacked.data());
    z = ops::Gemm(stacked, weight.data(), /*trans_a=*/false,
                  /*trans_b=*/false, gate, &bias.data(), &preact);
  }

  return MakeResult(
      z.Reshape({d.batch, d.n, d.t_out, d.half}), "fused_gated_conv",
      {x, weight, bias},
      [x, weight, bias, preact, gate, kernel, dilation, pad_left, d, kc,
       rows](const Tensor& g) {
        const int64_t two_cp = 2 * d.half;
        Tensor dpre = WorkspaceTemp({rows, two_cp});
        GatedConvBackwardRows(gate, g.data(), preact.data(), rows, d.half,
                              dpre.data());
        if (weight.requires_grad()) {
          Tensor stacked = WorkspaceTemp({rows, kc});
          GatherTapWindows(x.data().data(), d.batch, d.n, d.t_in, d.c_in,
                           d.t_out, kernel, dilation, pad_left,
                           /*by_entity=*/false, stacked.data());
          MaybeAccumulate(weight, ops::Gemm(stacked, dpre, /*trans_a=*/true,
                                            /*trans_b=*/false));
        }
        if (bias.requires_grad()) {
          MaybeAccumulate(bias, ops::ReduceToShape(dpre, bias.shape()));
        }
        if (x.requires_grad()) {
          const Tensor ds = ops::Gemm(dpre, weight.data(), /*trans_a=*/false,
                                      /*trans_b=*/true);
          Tensor dx = Tensor::Uninitialized(x.shape());
          ScatterTapWindows(ds.data(), d.batch, d.n, d.t_in, d.c_in, d.t_out,
                            kernel, dilation, pad_left, /*by_entity=*/false,
                            dx.data());
          MaybeAccumulate(x, std::move(dx));
        }
      });
}

namespace {

/// z_e [N, B·T', C'] (entity-major) <-> out [B, N, T', C'] permutation;
/// each (b, i) pair moves one contiguous T'·C' block, parallel over pairs.
void UnfoldEntityRows(const float* pz, int64_t batch, int64_t n_entities,
                      int64_t block, float* po) {
  ParallelFor(0, batch * n_entities, block * kCostElement,
              [=](int64_t q0, int64_t q1) {
                for (int64_t q = q0; q < q1; ++q) {
                  const int64_t b = q / n_entities;
                  const int64_t i = q % n_entities;
                  const float* src = pz + (i * batch + b) * block;
                  std::copy(src, src + block, po + q * block);
                }
              });
}

/// Inverse of UnfoldEntityRows: regroups [B, N, T', C'] by entity.
void FoldEntityRows(const float* po, int64_t batch, int64_t n_entities,
                    int64_t block, float* pz) {
  ParallelFor(0, batch * n_entities, block * kCostElement,
              [=](int64_t p0, int64_t p1) {
                for (int64_t p = p0; p < p1; ++p) {
                  const int64_t i = p / batch;
                  const int64_t b = p % batch;
                  const float* src = po + (b * n_entities + i) * block;
                  std::copy(src, src + block, pz + p * block);
                }
              });
}

}  // namespace

Variable FusedGatedConvPerEntity(const Variable& x, const Variable& filters,
                                 const Variable& bias, int64_t kernel,
                                 int64_t dilation, int64_t pad_left,
                                 ops::GemmEpilogue gate) {
  ENHANCENET_CHECK_EQ(filters.data().dim(), 2);
  ENHANCENET_CHECK_EQ(bias.data().dim(), 1);
  const int64_t two_cp = bias.size(0);
  const GatedConvDims d =
      CheckGatedConvDims(x, kernel, dilation, pad_left, two_cp, gate);
  const int64_t kc = kernel * d.c_in;
  ENHANCENET_CHECK_EQ(filters.size(0), d.n);
  ENHANCENET_CHECK_EQ(filters.size(1), kc * two_cp)
      << "FusedGatedConvPerEntity filters must be [N, K*C*2C']";
  const int64_t erows = d.batch * d.t_out;  // rows per entity slice
  const int64_t rows = d.n * erows;

  const bool record = RecordsAny(x, filters, bias);
  // Dfgn::Generate emits tap-major, input-channel-minor flat filters, which
  // is exactly the [N, K·C, 2C'] stacked layout — a zero-copy view.
  const Tensor w_view = filters.data().Reshape({d.n, kc, two_cp});
  Tensor preact = SparseStage(record, {d.n, erows, two_cp});
  Tensor out = Tensor::Uninitialized({d.batch, d.n, d.t_out, d.half});
  {
    Tensor stacked = WorkspaceTemp({d.n, erows, kc});
    GatherTapWindows(x.data().data(), d.batch, d.n, d.t_in, d.c_in, d.t_out,
                     kernel, dilation, pad_left, /*by_entity=*/true,
                     stacked.data());
    const Tensor z_e =
        ops::BatchGemm(stacked, w_view, /*trans_a=*/false, /*trans_b=*/false,
                       gate, &bias.data(), &preact);
    UnfoldEntityRows(z_e.data(), d.batch, d.n, d.t_out * d.half, out.data());
  }

  return MakeResult(
      std::move(out), "fused_gated_conv_entity", {x, filters, bias},
      [x, filters, bias, preact, gate, kernel, dilation, pad_left, d, kc,
       erows, rows](const Tensor& g) {
        const int64_t two_cp = 2 * d.half;
        const Tensor w_view = filters.data().Reshape({d.n, kc, two_cp});
        Tensor g_e = WorkspaceTemp({d.n, erows, d.half});
        FoldEntityRows(g.data(), d.batch, d.n, d.t_out * d.half, g_e.data());
        Tensor dpre = WorkspaceTemp({d.n, erows, two_cp});
        GatedConvBackwardRows(gate, g_e.data(), preact.data(), rows, d.half,
                              dpre.data());
        if (filters.requires_grad()) {
          Tensor stacked = WorkspaceTemp({d.n, erows, kc});
          GatherTapWindows(x.data().data(), d.batch, d.n, d.t_in, d.c_in,
                           d.t_out, kernel, dilation, pad_left,
                           /*by_entity=*/true, stacked.data());
          Tensor dw = ops::BatchGemm(stacked, dpre, /*trans_a=*/true,
                                     /*trans_b=*/false);
          MaybeAccumulate(filters, dw.Reshape(filters.shape()));
        }
        if (bias.requires_grad()) {
          MaybeAccumulate(bias, ops::ReduceToShape(dpre, bias.shape()));
        }
        if (x.requires_grad()) {
          const Tensor ds = ops::BatchGemm(dpre, w_view, /*trans_a=*/false,
                                           /*trans_b=*/true);
          Tensor dx = Tensor::Uninitialized(x.shape());
          ScatterTapWindows(ds.data(), d.batch, d.n, d.t_in, d.c_in, d.t_out,
                            kernel, dilation, pad_left, /*by_entity=*/true,
                            dx.data());
          MaybeAccumulate(x, std::move(dx));
        }
      });
}

Variable Dropout(const Variable& v, float p, bool training, Rng& rng) {
  ENHANCENET_CHECK(p >= 0.0f && p < 1.0f) << "dropout p=" << p;
  if (!training || p == 0.0f) return v;
  Tensor mask(v.shape());
  const float keep_scale = 1.0f / (1.0f - p);
  float* m = mask.data();
  for (int64_t i = 0; i < mask.numel(); ++i) {
    m[i] = (rng.Uniform() < p) ? 0.0f : keep_scale;
  }
  Tensor out = ops::Mul(v.data(), mask);
  return MakeResult(std::move(out), "dropout", {v},
                    [v, mask](const Tensor& g) {
                      MaybeAccumulate(v, ops::Mul(g, mask));
                    });
}

}  // namespace autograd
}  // namespace enhancenet
