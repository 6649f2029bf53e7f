#include "autograd/ops.h"

#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>

#include "autograd/grad_mode.h"
#include "autograd/variable.h"
#include "gtest/gtest.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace enhancenet {
namespace {

namespace ag = ::enhancenet::autograd;
using ::enhancenet::testing::ExpectGradientsMatch;
using ::enhancenet::testing::ExpectTensorNear;

// ---------------------------------------------------------------------------
// Variable mechanics
// ---------------------------------------------------------------------------

TEST(VariableTest, LeafProperties) {
  ag::Variable v = ag::Variable::Leaf(Tensor::Ones({2, 2}), true);
  EXPECT_TRUE(v.defined());
  EXPECT_TRUE(v.requires_grad());
  EXPECT_FALSE(v.has_grad());
  EXPECT_EQ(v.numel(), 4);
}

TEST(VariableTest, DefaultIsUndefined) {
  ag::Variable v;
  EXPECT_FALSE(v.defined());
}

TEST(VariableTest, CopySharesNode) {
  ag::Variable a = ag::Variable::Leaf(Tensor::Zeros({2}), true);
  ag::Variable b = a;
  b.mutable_data().data()[0] = 5.0f;
  EXPECT_EQ(a.data().data()[0], 5.0f);
}

TEST(VariableTest, AccumulateGradAddsUp) {
  ag::Variable v = ag::Variable::Leaf(Tensor::Zeros({2}), true);
  v.AccumulateGrad(Tensor::FromVector({2}, {1, 2}));
  v.AccumulateGrad(Tensor::FromVector({2}, {10, 20}));
  ExpectTensorNear(v.grad(), Tensor::FromVector({2}, {11, 22}));
  v.ZeroGrad();
  EXPECT_FALSE(v.has_grad());
}

TEST(VariableTest, BackwardSeedsOnes) {
  ag::Variable v = ag::Variable::Leaf(Tensor::Scalar(3.0f), true);
  ag::Variable y = ag::MulScalar(v, 2.0f);
  y.Backward();
  EXPECT_EQ(v.grad().item(), 2.0f);
}

TEST(VariableTest, DetachCutsGraph) {
  ag::Variable v = ag::Variable::Leaf(Tensor::Scalar(3.0f), true);
  ag::Variable d = ag::Square(v).Detach();
  EXPECT_FALSE(d.requires_grad());
  EXPECT_EQ(d.data().item(), 9.0f);
  ag::Variable y = ag::MulScalar(d, 2.0f);
  EXPECT_FALSE(y.requires_grad());
}

TEST(VariableTest, NoGradInputsSkipGraphConstruction) {
  ag::Variable a = ag::Variable::Leaf(Tensor::Ones({2}), false);
  ag::Variable b = ag::Variable::Leaf(Tensor::Ones({2}), false);
  ag::Variable c = ag::Add(a, b);
  EXPECT_FALSE(c.requires_grad());
  EXPECT_TRUE(c.node()->is_leaf);  // recorded as a constant
}

TEST(GradModeTest, NoGradGuardDetachesOpsOnGradInputs) {
  ag::Variable w = ag::Variable::Leaf(Tensor::Ones({2, 2}), true);
  EXPECT_TRUE(ag::GradMode::IsEnabled());
  {
    ag::NoGradGuard no_grad;
    EXPECT_FALSE(ag::GradMode::IsEnabled());
    ag::Variable y = ag::Square(w);
    // Same forward values, but no graph: leaf result, no parents, no
    // backward closure, requires_grad off.
    EXPECT_EQ(y.data().at({0, 0}), 1.0f);
    EXPECT_FALSE(y.requires_grad());
    EXPECT_TRUE(y.node()->is_leaf);
    EXPECT_TRUE(y.node()->parents.empty());
    EXPECT_FALSE(static_cast<bool>(y.node()->backward_fn));
  }
  // Mode restored: the same op records again.
  EXPECT_TRUE(ag::GradMode::IsEnabled());
  ag::Variable z = ag::Square(w);
  EXPECT_TRUE(z.requires_grad());
  EXPECT_FALSE(z.node()->is_leaf);
}

TEST(GradModeTest, GuardsNestAndRestoreOnException) {
  {
    ag::NoGradGuard outer;
    {
      ag::NoGradGuard inner;
      EXPECT_FALSE(ag::GradMode::IsEnabled());
    }
    // Inner guard restores the *outer* disabled state, not enabled.
    EXPECT_FALSE(ag::GradMode::IsEnabled());
  }
  EXPECT_TRUE(ag::GradMode::IsEnabled());

  try {
    ag::NoGradGuard guard;
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error&) {
  }
  EXPECT_TRUE(ag::GradMode::IsEnabled());  // RAII restored during unwind
}

TEST(GradModeTest, GuardIsPerThread) {
  ag::NoGradGuard no_grad;
  bool other_thread_enabled = false;
  std::thread probe(
      [&] { other_thread_enabled = ag::GradMode::IsEnabled(); });
  probe.join();
  // Disabling grad on this (serving) thread leaves trainer threads alone.
  EXPECT_TRUE(other_thread_enabled);
  EXPECT_FALSE(ag::GradMode::IsEnabled());
}

TEST(VariableTest, DiamondGraphAccumulatesBothPaths) {
  // y = x*x + x*x -> dy/dx = 4x.
  ag::Variable x = ag::Variable::Leaf(Tensor::Scalar(3.0f), true);
  ag::Variable sq = ag::Square(x);
  ag::Variable y = ag::Add(sq, sq);
  y.Backward();
  EXPECT_NEAR(x.grad().item(), 12.0f, 1e-5f);
}

TEST(VariableTest, ReusedLeafAccumulatesAcrossOps) {
  // y = sum(x) + sum(2x) -> dy/dx_i = 3.
  ag::Variable x = ag::Variable::Leaf(Tensor::Ones({3}), true);
  ag::Variable y =
      ag::Add(ag::SumAll(x), ag::SumAll(ag::MulScalar(x, 2.0f)));
  y.Backward();
  ExpectTensorNear(x.grad(), Tensor::Full({3}, 3.0f));
}

TEST(VariableTest, DeepChainBackwardDoesNotOverflowStack) {
  ag::Variable x = ag::Variable::Leaf(Tensor::Scalar(1.0f), true);
  ag::Variable y = x;
  for (int i = 0; i < 5000; ++i) y = ag::AddScalar(y, 0.0f);
  y.Backward();
  EXPECT_EQ(x.grad().item(), 1.0f);
}

// ---------------------------------------------------------------------------
// Forward values
// ---------------------------------------------------------------------------

TEST(AutogradOpsTest, ForwardMatchesTensorOps) {
  Rng rng(1);
  Tensor ta = Tensor::Randn({3, 4}, rng);
  Tensor tb = Tensor::Randn({3, 4}, rng);
  ag::Variable a = ag::Variable::Leaf(ta, true);
  ag::Variable b = ag::Variable::Leaf(tb, true);
  ExpectTensorNear(ag::Add(a, b).data(), ops::Add(ta, tb));
  ExpectTensorNear(ag::Mul(a, b).data(), ops::Mul(ta, tb));
  ExpectTensorNear(ag::Sigmoid(a).data(), ops::Sigmoid(ta));
  ExpectTensorNear(ag::SoftmaxLastDim(a).data(), ops::SoftmaxLastDim(ta));
}

// ---------------------------------------------------------------------------
// Parameterized finite-difference gradient checks, one case per op.
// ---------------------------------------------------------------------------

struct GradCase {
  std::string name;
  // Builds the scalar output from the (fixed) inputs.
  std::function<ag::Variable(const std::vector<ag::Variable>&)> fn;
  std::vector<Shape> input_shapes;
  // Positive-only inputs (for log/sqrt).
  bool positive = false;
};

class GradCheckTest : public ::testing::TestWithParam<GradCase> {};

TEST_P(GradCheckTest, MatchesFiniteDifferences) {
  const GradCase& test_case = GetParam();
  Rng rng(42);
  std::vector<ag::Variable> inputs;
  for (const Shape& shape : test_case.input_shapes) {
    Tensor init = test_case.positive
                      ? Tensor::RandUniform(shape, rng, 0.5f, 2.0f)
                      : Tensor::Randn(shape, rng, 0.8f);
    inputs.push_back(ag::Variable::Leaf(init, true));
  }
  ExpectGradientsMatch([&] { return test_case.fn(inputs); }, inputs);
}

ag::Variable Scalarize(const ag::Variable& v) {
  // Weighted sum (not plain mean) so gradient errors cannot cancel.
  ag::Variable flat = ag::Reshape(v, {v.numel()});
  Tensor weights({v.numel()});
  for (int64_t i = 0; i < v.numel(); ++i) {
    weights.data()[i] = 0.1f * static_cast<float>(i % 7) + 0.3f;
  }
  ag::Variable w = ag::Variable::Leaf(weights, false);
  return ag::SumAll(ag::Mul(flat, w));
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, GradCheckTest,
    ::testing::Values(
        GradCase{"add",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::Add(in[0], in[1]));
                 },
                 {{3, 4}, {3, 4}}},
        GradCase{"add_broadcast_bias",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::Add(in[0], in[1]));
                 },
                 {{3, 4}, {4}}},
        GradCase{"add_broadcast_batch",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::Add(in[0], in[1]));
                 },
                 {{2, 3, 3}, {3, 3}}},
        GradCase{"sub",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::Sub(in[0], in[1]));
                 },
                 {{2, 3}, {2, 3}}},
        GradCase{"mul",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::Mul(in[0], in[1]));
                 },
                 {{2, 3}, {2, 3}}},
        GradCase{"mul_broadcast_scalar",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::Mul(in[0], in[1]));
                 },
                 {{2, 3}, {}}},
        GradCase{"neg",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::Neg(in[0]));
                 },
                 {{5}}},
        GradCase{"abs",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::Abs(in[0]));
                 },
                 {{6}},
                 /*positive=*/true},  // avoid the kink at 0
        GradCase{"sigmoid",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::Sigmoid(in[0]));
                 },
                 {{4, 3}}},
        GradCase{"tanh",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::Tanh(in[0]));
                 },
                 {{4, 3}}},
        GradCase{"relu",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::Relu(in[0]));
                 },
                 {{6}},
                 /*positive=*/true},  // avoid the kink at 0
        GradCase{"exp",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::Exp(in[0]));
                 },
                 {{3, 2}}},
        GradCase{"log",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::Log(in[0]));
                 },
                 {{5}},
                 /*positive=*/true},
        GradCase{"sqrt",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::Sqrt(in[0]));
                 },
                 {{5}},
                 /*positive=*/true},
        GradCase{"square",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::Square(in[0]));
                 },
                 {{3, 3}}},
        GradCase{"add_scalar",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::AddScalar(in[0], 1.7f));
                 },
                 {{4}}},
        GradCase{"mul_scalar",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::MulScalar(in[0], -0.6f));
                 },
                 {{4}}},
        GradCase{"matmul",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::MatMul(in[0], in[1]));
                 },
                 {{3, 4}, {4, 2}}},
        GradCase{"bmm",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::BatchMatMul(in[0], in[1]));
                 },
                 {{2, 3, 4}, {2, 4, 2}}},
        GradCase{"transpose_2d",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::Transpose(in[0], 0, 1));
                 },
                 {{3, 4}}},
        GradCase{"transpose_3d",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::Transpose(in[0], 0, 2));
                 },
                 {{2, 3, 4}}},
        GradCase{"reshape",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::Reshape(in[0], {4, 3}));
                 },
                 {{3, 4}}},
        GradCase{"concat",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::Concat({in[0], in[1]}, 1));
                 },
                 {{2, 3}, {2, 2}}},
        GradCase{"slice",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::Slice(in[0], 1, 1, 2));
                 },
                 {{3, 4}}},
        GradCase{"pad",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::PadAxis(in[0], 1, 2, 1));
                 },
                 {{2, 3}}},
        GradCase{"sum_all",
                 [](const std::vector<ag::Variable>& in) {
                   return ag::SumAll(in[0]);
                 },
                 {{3, 4}}},
        GradCase{"mean_all",
                 [](const std::vector<ag::Variable>& in) {
                   return ag::MeanAll(ag::Square(in[0]));
                 },
                 {{3, 4}}},
        GradCase{"sum_axis_keepdim",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::Sum(in[0], 1, true));
                 },
                 {{3, 4}}},
        GradCase{"sum_axis_nokeepdim",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::Sum(in[0], 0, false));
                 },
                 {{3, 4}}},
        GradCase{"mean_axis",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::Mean(in[0], -1, false));
                 },
                 {{2, 5}}},
        GradCase{"softmax",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::SoftmaxLastDim(in[0]));
                 },
                 {{3, 5}}},
        GradCase{"composite_gru_like",
                 [](const std::vector<ag::Variable>& in) {
                   // σ(xW) ⊙ tanh(xU) — the gating pattern used everywhere.
                   ag::Variable g = ag::Sigmoid(ag::MatMul(in[0], in[1]));
                   ag::Variable c = ag::Tanh(ag::MatMul(in[0], in[2]));
                   return Scalarize(ag::Mul(g, c));
                 },
                 {{3, 4}, {4, 2}, {4, 2}}},
        GradCase{"composite_attention_like",
                 [](const std::vector<ag::Variable>& in) {
                   // softmax(E1 E2ᵀ) · X — the DAMGN dynamic-C pattern.
                   ag::Variable scores = ag::MatMul(
                       in[0], ag::Transpose(in[1], 0, 1));
                   ag::Variable attn = ag::SoftmaxLastDim(scores);
                   return Scalarize(ag::MatMul(attn, in[2]));
                 },
                 {{4, 3}, {4, 3}, {4, 2}}},
        // Hand-written single-pass backwards of the fused kernels.
        GradCase{"fused_gru_cell",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::FusedGruCell(in[0], in[1], in[2]));
                 },
                 {{3, 6}, {3, 6}, {3, 2}}},
        GradCase{"fused_lstm_cell_h",
                 [](const std::vector<ag::Variable>& in) {
                   ag::Variable h, c;
                   ag::FusedLstmCell(in[0], in[1], &h, &c);
                   return Scalarize(h);
                 },
                 {{3, 8}, {3, 2}}},
        GradCase{"fused_lstm_cell_c",
                 [](const std::vector<ag::Variable>& in) {
                   ag::Variable h, c;
                   ag::FusedLstmCell(in[0], in[1], &h, &c);
                   return Scalarize(c);
                 },
                 {{3, 8}, {3, 2}}},
        GradCase{"gru_combine",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::GruCombine(in[0], in[1], in[2]));
                 },
                 {{2, 3}, {2, 3}, {2, 3}}},
        GradCase{"fused_gru_gates",
                 [](const std::vector<ag::Variable>& in) {
                   ag::Variable rh, u;
                   ag::FusedGruGates(in[0], in[1], &rh, &u);
                   return Scalarize(ag::Concat({rh, u}, -1));
                 },
                 {{3, 4}, {3, 2}}},
        GradCase{"adjacency_matmul",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::AdjacencyMatMul(in[0], in[1]));
                 },
                 {{4, 4}, {2, 4, 3}}},
        GradCase{"topk_attention",
                 [](const std::vector<ag::Variable>& in) {
                   // k=3 of N=5: the masked, renormalized softmax.
                   ag::SparseIndex index;
                   return Scalarize(ag::TopKAttention(in[0], in[1], 3, &index));
                 },
                 {{2, 5, 3}, {2, 5, 3}}},
        GradCase{"matmul_bias",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::MatMulBias(in[0], in[1], in[2]));
                 },
                 {{3, 4}, {4, 5}, {5}}},
        GradCase{"attention_probs",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::AttentionProbs(in[0], in[1]));
                 },
                 {{2, 4, 3}, {2, 4, 3}}},
        GradCase{"fused_gated_conv_tanh_sigmoid",
                 [](const std::vector<ag::Variable>& in) {
                   // Causal: K=2, d=2, left pad d·(K-1) keeps T.
                   return Scalarize(ag::FusedGatedConv(
                       in[0], in[1], in[2], /*kernel=*/2, /*dilation=*/2,
                       /*pad_left=*/2,
                       ops::GemmEpilogue::kBiasGatedTanhSigmoid));
                 },
                 {{2, 3, 5, 2}, {4, 4}, {4}}},
        GradCase{"fused_gated_conv_glu",
                 [](const std::vector<ag::Variable>& in) {
                   // Valid: K=3, d=1, no pad, T shrinks by K-1.
                   return Scalarize(ag::FusedGatedConv(
                       in[0], in[1], in[2], /*kernel=*/3, /*dilation=*/1,
                       /*pad_left=*/0, ops::GemmEpilogue::kBiasGlu));
                 },
                 {{2, 2, 5, 2}, {6, 4}, {4}}},
        GradCase{"fused_gated_conv_per_entity",
                 [](const std::vector<ag::Variable>& in) {
                   return Scalarize(ag::FusedGatedConvPerEntity(
                       in[0], in[1], in[2], /*kernel=*/2, /*dilation=*/1,
                       /*pad_left=*/1,
                       ops::GemmEpilogue::kBiasGatedTanhSigmoid));
                 },
                 {{2, 3, 4, 2}, {3, 16}, {4}}}),
    [](const ::testing::TestParamInfo<GradCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Dropout
// ---------------------------------------------------------------------------

TEST(DropoutTest, IdentityWhenEval) {
  Rng rng(3);
  ag::Variable x = ag::Variable::Leaf(Tensor::Ones({100}), true);
  ag::Variable y = ag::Dropout(x, 0.5f, /*training=*/false, rng);
  ExpectTensorNear(y.data(), x.data());
}

TEST(DropoutTest, ZeroProbabilityIsIdentity) {
  Rng rng(3);
  ag::Variable x = ag::Variable::Leaf(Tensor::Ones({100}), true);
  ag::Variable y = ag::Dropout(x, 0.0f, /*training=*/true, rng);
  ExpectTensorNear(y.data(), x.data());
}

TEST(DropoutTest, ScalesKeptElements) {
  Rng rng(3);
  ag::Variable x = ag::Variable::Leaf(Tensor::Ones({10000}), true);
  ag::Variable y = ag::Dropout(x, 0.3f, /*training=*/true, rng);
  int64_t zeros = 0;
  for (int64_t i = 0; i < y.numel(); ++i) {
    const float v = y.data().data()[i];
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.7f, 1e-5f);
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.3, 0.03);
  // Expectation is preserved.
  EXPECT_NEAR(ops::MeanAll(y.data()).item(), 1.0f, 0.05f);
}

TEST(DropoutTest, GradientUsesSameMask) {
  Rng rng(5);
  ag::Variable x = ag::Variable::Leaf(Tensor::Ones({1000}), true);
  ag::Variable y = ag::Dropout(x, 0.4f, /*training=*/true, rng);
  ag::SumAll(y).Backward();
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_EQ(x.grad().data()[i], y.data().data()[i]);
  }
}

}  // namespace
}  // namespace enhancenet
