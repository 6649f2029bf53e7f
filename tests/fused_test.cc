#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/grad_mode.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/rng.h"
#include "core/enhance_gru_cell.h"
#include "core/enhance_tcn_layer.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "graph/adjacency.h"
#include "models/model_factory.h"
#include "nn/gru.h"
#include "obs/metrics.h"
#include "optim/optimizer.h"
#include "reference/reference.h"
#include "runtime/allocator.h"
#include "runtime/parallel.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace enhancenet {
namespace {

namespace ag = ::enhancenet::autograd;

constexpr float kGradTol = 1e-6f;

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.numel(), b.numel());
  float max_diff = 0.0f;
  for (int64_t i = 0; i < a.numel(); ++i) {
    max_diff = std::max(max_diff, std::abs(a.data()[i] - b.data()[i]));
  }
  return max_diff;
}

float MaxAbs(const Tensor& t) {
  float max_abs = 0.0f;
  for (int64_t i = 0; i < t.numel(); ++i) {
    max_abs = std::max(max_abs, std::abs(t.data()[i]));
  }
  return max_abs;
}

/// Every entry of `fused` within kGradTol of the oracle's `reference`.
void ExpectAllNear(const std::vector<Tensor>& fused,
                   const std::vector<Tensor>& reference) {
  ASSERT_EQ(fused.size(), reference.size());
  for (size_t i = 0; i < fused.size(); ++i) {
    EXPECT_LE(MaxAbsDiff(fused[i], reference[i]), kGradTol) << "tensor " << i;
  }
}

TEST(FusedGruCellTest, ForwardAndGradMatchUnfusedChain) {
  Rng rng(7);
  const int64_t rows = 6;
  const int64_t hs = 5;
  const Tensor gx0 = Tensor::Randn({rows, 3 * hs}, rng);
  const Tensor gh0 = Tensor::Randn({rows, 3 * hs}, rng);
  const Tensor h0 = Tensor::Randn({rows, hs}, rng);
  const Tensor upstream = Tensor::Randn({rows, hs}, rng);

  auto run = [&](bool fused) {
    ag::Variable gx = ag::Variable::Leaf(gx0.Clone(), /*requires_grad=*/true);
    ag::Variable gh = ag::Variable::Leaf(gh0.Clone(), /*requires_grad=*/true);
    ag::Variable h = ag::Variable::Leaf(h0.Clone(), /*requires_grad=*/true);
    ag::Variable out = fused ? ag::FusedGruCell(gx, gh, h)
                             : reference::GruCellTail(gx, gh, h);
    // Non-uniform upstream gradient so every element's chain rule is probed.
    ag::Variable loss = ag::SumAll(
        ag::Mul(out, ag::Variable::Leaf(upstream.Clone(), false)));
    loss.Backward();
    return std::vector<Tensor>{out.data().Clone(), gx.grad().Clone(),
                               gh.grad().Clone(), h.grad().Clone()};
  };

  std::vector<Tensor> fused = run(true);
  std::vector<Tensor> reference = run(false);
  EXPECT_LE(MaxAbsDiff(fused[0], reference[0]), kGradTol) << "forward";
  EXPECT_LE(MaxAbsDiff(fused[1], reference[1]), kGradTol) << "d gx";
  EXPECT_LE(MaxAbsDiff(fused[2], reference[2]), kGradTol) << "d gh";
  EXPECT_LE(MaxAbsDiff(fused[3], reference[3]), kGradTol) << "d h";
}

TEST(FusedLstmCellTest, ForwardAndGradMatchUnfusedChain) {
  Rng rng(11);
  const int64_t rows = 4;
  const int64_t hs = 6;
  const Tensor gates0 = Tensor::Randn({rows, 4 * hs}, rng);
  const Tensor c0 = Tensor::Randn({rows, hs}, rng);
  const Tensor up_h = Tensor::Randn({rows, hs}, rng);
  const Tensor up_c = Tensor::Randn({rows, hs}, rng);

  auto run = [&](bool fused) {
    ag::Variable gates =
        ag::Variable::Leaf(gates0.Clone(), /*requires_grad=*/true);
    ag::Variable c_prev = ag::Variable::Leaf(c0.Clone(), /*requires_grad=*/true);
    ag::Variable h_new, c_new;
    if (fused) {
      ag::FusedLstmCell(gates, c_prev, &h_new, &c_new);
    } else {
      reference::LstmCellTail(gates, c_prev, &h_new, &c_new);
    }
    // Send distinct gradients into both outputs, as the next step would.
    ag::Variable loss = ag::Add(
        ag::SumAll(ag::Mul(h_new, ag::Variable::Leaf(up_h.Clone(), false))),
        ag::SumAll(ag::Mul(c_new, ag::Variable::Leaf(up_c.Clone(), false))));
    loss.Backward();
    return std::vector<Tensor>{h_new.data().Clone(), c_new.data().Clone(),
                               gates.grad().Clone(), c_prev.grad().Clone()};
  };

  std::vector<Tensor> fused = run(true);
  std::vector<Tensor> reference = run(false);
  EXPECT_LE(MaxAbsDiff(fused[0], reference[0]), kGradTol) << "h'";
  EXPECT_LE(MaxAbsDiff(fused[1], reference[1]), kGradTol) << "c'";
  EXPECT_LE(MaxAbsDiff(fused[2], reference[2]), kGradTol) << "d gates";
  EXPECT_LE(MaxAbsDiff(fused[3], reference[3]), kGradTol) << "d c_prev";
}

TEST(GruCombineTest, ForwardAndGradMatchUnfusedChain) {
  Rng rng(13);
  const Tensor u0 = Tensor::Randn({3, 4, 5}, rng);
  const Tensor h0 = Tensor::Randn({3, 4, 5}, rng);
  const Tensor c0 = Tensor::Randn({3, 4, 5}, rng);
  const Tensor upstream = Tensor::Randn({3, 4, 5}, rng);

  auto run = [&](bool fused) {
    ag::Variable u = ag::Variable::Leaf(u0.Clone(), /*requires_grad=*/true);
    ag::Variable h = ag::Variable::Leaf(h0.Clone(), /*requires_grad=*/true);
    ag::Variable c = ag::Variable::Leaf(c0.Clone(), /*requires_grad=*/true);
    ag::Variable out =
        fused ? ag::GruCombine(u, h, c) : reference::GruCombine(u, h, c);
    ag::Variable loss = ag::SumAll(
        ag::Mul(out, ag::Variable::Leaf(upstream.Clone(), false)));
    loss.Backward();
    return std::vector<Tensor>{out.data().Clone(), u.grad().Clone(),
                               h.grad().Clone(), c.grad().Clone()};
  };

  const std::vector<Tensor> fused = run(true);
  ExpectAllNear(fused, run(false));
}

TEST(FusedGruGatesTest, ForwardAndGradMatchUnfusedChain) {
  Rng rng(23);
  const int64_t rows = 7;
  const int64_t hs = 4;
  const Tensor gates0 = Tensor::Randn({rows, 2 * hs}, rng);
  const Tensor h0 = Tensor::Randn({rows, hs}, rng);
  const Tensor up_rh = Tensor::Randn({rows, hs}, rng);
  const Tensor up_u = Tensor::Randn({rows, hs}, rng);

  auto run = [&](bool fused) {
    ag::Variable gates =
        ag::Variable::Leaf(gates0.Clone(), /*requires_grad=*/true);
    ag::Variable h = ag::Variable::Leaf(h0.Clone(), /*requires_grad=*/true);
    ag::Variable rh, u;
    if (fused) {
      ag::FusedGruGates(gates, h, &rh, &u);
    } else {
      reference::GruGates(gates, h, &rh, &u);
    }
    // Distinct upstream gradients into both outputs so each node's chain
    // rule (including the zero half of dgates) is probed independently.
    ag::Variable loss = ag::Add(
        ag::SumAll(ag::Mul(rh, ag::Variable::Leaf(up_rh.Clone(), false))),
        ag::SumAll(ag::Mul(u, ag::Variable::Leaf(up_u.Clone(), false))));
    loss.Backward();
    return std::vector<Tensor>{rh.data().Clone(), u.data().Clone(),
                               gates.grad().Clone(), h.grad().Clone()};
  };

  const std::vector<Tensor> fused = run(true);
  ExpectAllNear(fused, run(false));
}

TEST(AdjacencyMatMulTest, ForwardAndGradMatchTransposeChain) {
  Rng rng(29);
  const int64_t batch = 3;
  const int64_t n = 5;
  const int64_t channels = 4;
  Tensor adj0 = Tensor::Randn({n, n}, rng);
  // Zero a few entries, as a thresholded support has.
  adj0.data()[1] = 0.0f;
  adj0.data()[n + 2] = 0.0f;
  adj0.data()[3 * n] = 0.0f;
  const Tensor x0 = Tensor::Randn({batch, n, channels}, rng);
  const Tensor upstream = Tensor::Randn({batch, n, channels}, rng);

  auto run = [&](bool fused) {
    ag::Variable adj = ag::Variable::Leaf(adj0.Clone(), /*requires_grad=*/true);
    ag::Variable x = ag::Variable::Leaf(x0.Clone(), /*requires_grad=*/true);
    ag::Variable out = fused ? ag::AdjacencyMatMul(adj, x)
                             : reference::AdjacencyMatMul(adj, x);
    ag::Variable loss = ag::SumAll(
        ag::Mul(out, ag::Variable::Leaf(upstream.Clone(), false)));
    loss.Backward();
    return std::vector<Tensor>{out.data().Clone(), adj.grad().Clone(),
                               x.grad().Clone()};
  };

  std::vector<Tensor> fused = run(true);
  std::vector<Tensor> reference = run(false);
  EXPECT_LE(MaxAbsDiff(fused[0], reference[0]), kGradTol) << "forward";
  EXPECT_LE(MaxAbsDiff(fused[1], reference[1]), kGradTol) << "d adj";
  EXPECT_LE(MaxAbsDiff(fused[2], reference[2]), kGradTol) << "d x";
}

/// AdjacencyMatMul on fresh leaves of adj0/x0 with upstream gradient `up`:
/// {out, d adj, d x}.
std::vector<Tensor> AdjacencyMatMulRun(const Tensor& adj0, const Tensor& x0,
                                       const Tensor& up, bool production) {
  ag::Variable adj = ag::Variable::Leaf(adj0.Clone(), /*requires_grad=*/true);
  ag::Variable x = ag::Variable::Leaf(x0.Clone(), /*requires_grad=*/true);
  ag::Variable out = production ? ag::AdjacencyMatMul(adj, x)
                                : reference::AdjacencyMatMul(adj, x);
  ag::SumAll(ag::Mul(out, ag::Variable::Leaf(up.Clone(), false))).Backward();
  return {out.data().Clone(), adj.grad().Clone(), x.grad().Clone()};
}

/// An [n, n] support with about 40% zeros, like a thresholded adjacency.
Tensor ThresholdedAdjacency(int64_t n, Rng& rng) {
  Tensor adj = Tensor::RandUniform({n, n}, rng, 0.0f, 1.0f);
  for (int64_t i = 0; i < adj.numel(); ++i) {
    if (adj.data()[i] < 0.4f) adj.data()[i] = 0.0f;
  }
  return adj;
}

TEST(AdjacencyMatMulTest, RaggedShapesMatchTransposeChain) {
  Rng rng(31);
  for (const int64_t n : {37, 130}) {
    for (const int64_t channels : {1, 17, 33}) {
      for (const int64_t batch : {1, 3}) {
        const Tensor adj = ThresholdedAdjacency(n, rng);
        const Tensor x = Tensor::Randn({batch, n, channels}, rng);
        const Tensor up = Tensor::Randn({batch, n, channels}, rng);
        const std::vector<Tensor> got = AdjacencyMatMulRun(adj, x, up, true);
        const std::vector<Tensor> want =
            AdjacencyMatMulRun(adj, x, up, false);
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_LE(MaxAbsDiff(got[i], want[i]),
                    kGradTol * std::max(1.0f, MaxAbs(want[i])))
              << "N=" << n << " C=" << channels << " B=" << batch
              << " tensor " << i;
        }
      }
    }
  }
}

TEST(AdjacencyMatMulTest, BatchedSlicesBitwiseMatchSingleCalls) {
  Rng rng(37);
  for (const int64_t n : {37, 130}) {
    const int64_t batch = 3, channels = 17;
    const Tensor adj = ThresholdedAdjacency(n, rng);
    const Tensor x = Tensor::Randn({batch, n, channels}, rng);
    const Tensor up = Tensor::Randn({batch, n, channels}, rng);
    const std::vector<Tensor> batched = AdjacencyMatMulRun(adj, x, up, true);
    for (int64_t b = 0; b < batch; ++b) {
      const std::vector<Tensor> single = AdjacencyMatMulRun(
          adj, ops::Slice(x, 0, b, 1), ops::Slice(up, 0, b, 1), true);
      // out and d x are per slice; d adj sums over the batch.
      EXPECT_EQ(MaxAbsDiff(ops::Slice(batched[0], 0, b, 1), single[0]), 0.0f)
          << "N=" << n << " out slice " << b;
      EXPECT_EQ(MaxAbsDiff(ops::Slice(batched[2], 0, b, 1), single[2]), 0.0f)
          << "N=" << n << " d x slice " << b;
    }
  }
}

TEST(AdjacencyMatMulTest, BitwiseAcrossThreadCounts) {
  Rng rng(41);
  // B=8, C=33: the forward product and both gradient products cost more
  // than two minimum chunks at every N, so the 4-thread run splits each of
  // them. N=207 is the production graph; N=300 spans two K blocks of the
  // tiled GEMM.
  for (const int64_t n : {130, 207, 300}) {
    const Tensor adj = ThresholdedAdjacency(n, rng);
    const Tensor x = Tensor::Randn({8, n, 33}, rng);
    const Tensor up = Tensor::Randn({8, n, 33}, rng);
    const int prev_threads = GetNumThreads();
    SetNumThreads(1);
    const std::vector<Tensor> one = AdjacencyMatMulRun(adj, x, up, true);
    SetNumThreads(4);
    std::vector<Tensor> four;
    const int64_t pooled = ::enhancenet::testing::PooledRegions(
        [&] { four = AdjacencyMatMulRun(adj, x, up, true); });
    SetNumThreads(prev_threads);
    EXPECT_GE(pooled, 3) << "N=" << n;
    for (size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(MaxAbsDiff(one[i], four[i]), 0.0f)
          << "N=" << n << " tensor " << i;
    }
  }
}

// End-to-end wiring check: the whole cell (GEMMs included) agrees with the
// unfused oracle, including the gradients that reach the parameters.
TEST(FusedCellWiringTest, GruCellMatchesReference) {
  Rng rng(17);
  nn::GruCell cell(3, 4, rng);
  const Tensor x0 = Tensor::Randn({5, 3}, rng);
  const Tensor h0 = Tensor::Randn({5, 4}, rng);

  auto run = [&](bool fused) {
    const ag::Variable x = ag::Variable::Leaf(x0.Clone(), false);
    const ag::Variable h = ag::Variable::Leaf(h0.Clone(), false);
    ag::Variable out = fused ? cell.Forward(x, h)
                             : reference::GruCellForward(cell, x, h);
    ag::Variable loss = ag::MeanAll(ag::Square(out));
    for (auto& p : cell.Parameters()) p.ZeroGrad();
    loss.Backward();
    std::vector<Tensor> result{out.data().Clone()};
    for (const auto& p : cell.Parameters()) result.push_back(p.grad().Clone());
    return result;
  };

  const std::vector<Tensor> fused = run(true);
  ExpectAllNear(fused, run(false));
}

TEST(FusedCellWiringTest, LstmCellMatchesReference) {
  Rng rng(19);
  nn::LstmCell cell(3, 4, rng);
  const Tensor x0 = Tensor::Randn({5, 3}, rng);

  auto run = [&](bool fused) {
    nn::LstmCell::State state{ag::Variable::Leaf(Tensor::Zeros({5, 4}), false),
                              ag::Variable::Leaf(Tensor::Zeros({5, 4}), false)};
    for (int t = 0; t < 3; ++t) {
      const ag::Variable x = ag::Variable::Leaf(x0.Clone(), false);
      state = fused ? cell.Forward(x, state)
                    : reference::LstmCellForward(cell, x, state);
    }
    ag::Variable loss = ag::MeanAll(ag::Square(state.h));
    for (auto& p : cell.Parameters()) p.ZeroGrad();
    loss.Backward();
    std::vector<Tensor> result{state.h.data().Clone(), state.c.data().Clone()};
    for (const auto& p : cell.Parameters()) result.push_back(p.grad().Clone());
    return result;
  };

  const std::vector<Tensor> fused = run(true);
  ExpectAllNear(fused, run(false));
}

TEST(FusedOpsTest, NoGradModeReturnsDetachedLeaves) {
  Rng rng(23);
  ag::NoGradGuard no_grad;
  ag::Variable gx = ag::Variable::Leaf(Tensor::Randn({2, 9}, rng), true);
  ag::Variable gh = ag::Variable::Leaf(Tensor::Randn({2, 9}, rng), true);
  ag::Variable h = ag::Variable::Leaf(Tensor::Randn({2, 3}, rng), true);
  ag::Variable out = ag::FusedGruCell(gx, gh, h);
  EXPECT_FALSE(out.requires_grad());
  EXPECT_TRUE(out.node()->is_leaf);

  ag::Variable gates = ag::Variable::Leaf(Tensor::Randn({2, 12}, rng), true);
  ag::Variable h_new, c_new;
  ag::FusedLstmCell(gates, h, &h_new, &c_new);
  EXPECT_FALSE(h_new.requires_grad());
  EXPECT_FALSE(c_new.requires_grad());
}

// Eager backward release: once Backward() has swept a 12-step rollout,
// every non-leaf node has dropped its gradient buffer and its backward
// closure (with the activations it captured), and the graph's exported
// live bytes are exactly every node's data plus the leaf gradients.
TEST(EagerBackwardReleaseTest, ReleasesNonLeafStateOnGruRollout) {
  Rng rng(29);
  nn::GruCell cell(8, 32, rng);
  const Tensor x0 = Tensor::Randn({16, 8}, rng);
  ag::Variable h = ag::Variable::Leaf(Tensor::Zeros({16, 32}), false);
  for (int t = 0; t < 12; ++t) {
    h = cell.Forward(ag::Variable::Leaf(x0.Clone(), false), h);
  }
  ag::Variable loss = ag::MeanAll(ag::Square(h));
  for (auto& p : cell.Parameters()) p.ZeroGrad();
  loss.Backward();

  // Parent links survive the sweep, so the whole graph is still reachable.
  std::vector<ag::Node*> stack{loss.node().get()};
  std::set<ag::Node*> seen{loss.node().get()};
  int64_t expected_bytes = 0;
  int64_t non_leaf = 0;
  while (!stack.empty()) {
    ag::Node* node = stack.back();
    stack.pop_back();
    expected_bytes += node->data.numel() * static_cast<int64_t>(sizeof(float));
    if (node->is_leaf) {
      if (node->grad_defined) {
        expected_bytes +=
            node->grad.numel() * static_cast<int64_t>(sizeof(float));
      }
    } else {
      ++non_leaf;
      EXPECT_FALSE(node->grad_defined) << node->op_name;
      EXPECT_FALSE(static_cast<bool>(node->backward_fn)) << node->op_name;
    }
    for (const auto& parent : node->parents) {
      if (seen.insert(parent.get()).second) stack.push_back(parent.get());
    }
  }
  EXPECT_GT(non_leaf, 12);
  for (const auto& p : cell.Parameters()) EXPECT_TRUE(p.has_grad());
  EXPECT_EQ(obs::Registry::Global()
                .GetGauge("autograd.graph.live_bytes")
                ->Get(),
            static_cast<double>(expected_bytes));
}

// --- GEMM epilogues (DESIGN.md §8) --------------------------------------

/// MatMul result with the bias row added in the same per-element order the
/// epilogue uses: (accumulated product) + bias[j].
Tensor MatMulPlusBias(const Tensor& a, const Tensor& b, const Tensor& bias) {
  Tensor full = ops::MatMul(a, b);
  const int64_t m = full.size(0);
  const int64_t n = full.size(1);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      full.data()[i * n + j] += bias.data()[j];
    }
  }
  return full;
}

// kBias folds the bias add into the GEMM write-back. The accumulation order
// is unchanged (bias is added after the final K-block partial, exactly where
// the separate Add pass would run), so the claim is bitwise equality — in
// both the SmallGemm regime and the tiled regime.
TEST(GemmEpilogueTest, BiasMatchesMatMulAddBitwise) {
  Rng rng(31);
  const std::array<std::array<int64_t, 3>, 2> shapes = {
      {{5, 4, 7}, {96, 72, 130}}};  // small-dispatch and tiled-dispatch
  for (const auto& s : shapes) {
    const int64_t m = s[0], k = s[1], n = s[2];
    const Tensor a = Tensor::Randn({m, k}, rng);
    const Tensor b = Tensor::Randn({k, n}, rng);
    const Tensor bias = Tensor::Randn({n}, rng);
    const Tensor fused =
        ops::Gemm(a, b, false, false, ops::GemmEpilogue::kBias, &bias);
    const Tensor reference = MatMulPlusBias(a, b, bias);
    EXPECT_EQ(MaxAbsDiff(fused, reference), 0.0f) << "m=" << m << " n=" << n;
  }
}

// kBiasTanh / kBiasSigmoid apply the activation to the bitwise-identical
// pre-activation with the same scalar functions ops::Tanh / ops::Sigmoid
// use, so these too are exact.
TEST(GemmEpilogueTest, TanhAndSigmoidMatchComposedOps) {
  Rng rng(37);
  const std::array<std::array<int64_t, 3>, 2> shapes = {
      {{6, 5, 9}, {80, 64, 96}}};
  for (const auto& s : shapes) {
    const int64_t m = s[0], k = s[1], n = s[2];
    const Tensor a = Tensor::Randn({m, k}, rng);
    const Tensor b = Tensor::Randn({k, n}, rng);
    const Tensor bias = Tensor::Randn({n}, rng);
    const Tensor pre = MatMulPlusBias(a, b, bias);

    const Tensor tanh_fused =
        ops::Gemm(a, b, false, false, ops::GemmEpilogue::kBiasTanh, &bias);
    EXPECT_EQ(MaxAbsDiff(tanh_fused, ops::Tanh(pre)), 0.0f) << "tanh m=" << m;

    const Tensor sig_fused =
        ops::Gemm(a, b, false, false, ops::GemmEpilogue::kBiasSigmoid, &bias);
    EXPECT_EQ(MaxAbsDiff(sig_fused, ops::Sigmoid(pre)), 0.0f)
        << "sigmoid m=" << m;
  }
}

/// Checks one gated epilogue (tanh·σ or GLU) against a composed reference:
/// z is half-width, preact carries the full-width post-bias pre-activations.
void ExpectGatedGemmMatches(int64_t m, int64_t k, int64_t n, bool glu,
                            Rng& rng) {
  const int64_t half = n / 2;
  const Tensor a = Tensor::Randn({m, k}, rng);
  const Tensor b = Tensor::Randn({k, n}, rng);
  const Tensor bias = Tensor::Randn({n}, rng);
  Tensor preact = Tensor::Uninitialized({m, n});
  const Tensor z = ops::Gemm(
      a, b, false, false,
      glu ? ops::GemmEpilogue::kBiasGlu
          : ops::GemmEpilogue::kBiasGatedTanhSigmoid,
      &bias, &preact);
  ASSERT_EQ(z.size(0), m);
  ASSERT_EQ(z.size(1), half);

  const Tensor pre_ref = MatMulPlusBias(a, b, bias);
  EXPECT_EQ(MaxAbsDiff(preact, pre_ref), 0.0f) << "saved pre-activations";
  const Tensor sig = ops::Sigmoid(pre_ref);  // same StableSigmoid scalar
  Tensor z_ref = Tensor::Uninitialized({m, half});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < half; ++j) {
      const float sf = pre_ref.data()[i * n + j];
      z_ref.data()[i * half + j] =
          (glu ? sf : std::tanh(sf)) * sig.data()[i * n + half + j];
    }
  }
  EXPECT_EQ(MaxAbsDiff(z, z_ref), 0.0f) << "gated output";
}

TEST(GemmEpilogueTest, GatedTanhSigmoidMatchesComposedOps) {
  Rng rng(41);
  ExpectGatedGemmMatches(6, 4, 10, /*glu=*/false, rng);  // SmallGemm path
  // Tiled path spanning two N panels (n > kNC) and two K blocks (k > kKC),
  // so the "apply once at the final (pc, jc)" bookkeeping is exercised.
  ExpectGatedGemmMatches(96, 300, 520, /*glu=*/false, rng);
}

TEST(GemmEpilogueTest, GluMatchesComposedOps) {
  Rng rng(43);
  ExpectGatedGemmMatches(7, 5, 8, /*glu=*/true, rng);
  ExpectGatedGemmMatches(64, 80, 192, /*glu=*/true, rng);
}

TEST(GemmEpilogueTest, BatchGemmGatedMatchesPerSliceChain) {
  Rng rng(47);
  // Small slices take the whole-slice kernel; the bigger case takes the
  // tiled kernel.
  const std::array<std::array<int64_t, 4>, 2> shapes = {
      {{5, 6, 4, 8}, {2, 64, 64, 96}}};  // {batch, m, k, n}
  for (const auto& s : shapes) {
    const int64_t batch = s[0], m = s[1], k = s[2], n = s[3];
    const int64_t half = n / 2;
    const Tensor a = Tensor::Randn({batch, m, k}, rng);
    const Tensor b = Tensor::Randn({batch, k, n}, rng);
    const Tensor bias = Tensor::Randn({n}, rng);
    Tensor preact = Tensor::Uninitialized({batch, m, n});
    const Tensor z =
        ops::BatchGemm(a, b, false, false,
                       ops::GemmEpilogue::kBiasGatedTanhSigmoid, &bias,
                       &preact);
    ASSERT_EQ(z.size(2), half);
    for (int64_t s_idx = 0; s_idx < batch; ++s_idx) {
      const Tensor a_s = ops::Slice(a, 0, s_idx, 1).Reshape({m, k});
      const Tensor b_s = ops::Slice(b, 0, s_idx, 1).Reshape({k, n});
      const Tensor pre_ref = MatMulPlusBias(a_s, b_s, bias);
      const Tensor sig = ops::Sigmoid(pre_ref);
      EXPECT_EQ(MaxAbsDiff(ops::Slice(preact, 0, s_idx, 1).Reshape({m, n}),
                           pre_ref),
                0.0f)
          << "slice " << s_idx << " preact";
      const Tensor z_s = ops::Slice(z, 0, s_idx, 1).Reshape({m, half});
      Tensor z_ref = Tensor::Uninitialized({m, half});
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < half; ++j) {
          z_ref.data()[i * half + j] = std::tanh(pre_ref.data()[i * n + j]) *
                                       sig.data()[i * n + half + j];
        }
      }
      EXPECT_EQ(MaxAbsDiff(z_s, z_ref), 0.0f) << "slice " << s_idx << " z";
    }
  }
}

TEST(MatMulBiasTest, ForwardAndGradMatchMatMulAddChain) {
  Rng rng(53);
  const Tensor a0 = Tensor::Randn({9, 6}, rng);
  const Tensor w0 = Tensor::Randn({6, 7}, rng);
  const Tensor bias0 = Tensor::Randn({7}, rng);
  const Tensor upstream = Tensor::Randn({9, 7}, rng);

  auto run = [&](bool fused) {
    ag::Variable a = ag::Variable::Leaf(a0.Clone(), /*requires_grad=*/true);
    ag::Variable w = ag::Variable::Leaf(w0.Clone(), /*requires_grad=*/true);
    ag::Variable bias =
        ag::Variable::Leaf(bias0.Clone(), /*requires_grad=*/true);
    ag::Variable out = fused ? ag::MatMulBias(a, w, bias)
                             : reference::MatMulBias(a, w, bias);
    ag::Variable loss = ag::SumAll(
        ag::Mul(out, ag::Variable::Leaf(upstream.Clone(), false)));
    loss.Backward();
    return std::vector<Tensor>{out.data().Clone(), a.grad().Clone(),
                               w.grad().Clone(), bias.grad().Clone()};
  };

  const std::vector<Tensor> fused = run(true);
  ExpectAllNear(fused, run(false));
}

// --- fused gated convolution --------------------------------------------

/// Runs the fused-vs-reference comparison for shared-filter FusedGatedConv
/// and checks forward + every input gradient to kGradTol.
void ExpectFusedGatedConvMatches(int64_t kernel, int64_t dilation,
                                 int64_t pad_left, bool glu, uint64_t seed) {
  Rng rng(seed);
  const int64_t batch = 2, n = 3, time = 8, c_in = 4, half = 5;
  const int64_t t_out = time + pad_left - dilation * (kernel - 1);
  const Tensor x0 = Tensor::Randn({batch, n, time, c_in}, rng);
  std::vector<Tensor> taps0;
  for (int64_t k = 0; k < kernel; ++k) {
    taps0.push_back(Tensor::Randn({c_in, 2 * half}, rng));
  }
  const Tensor bias0 = Tensor::Randn({2 * half}, rng);
  const Tensor upstream = Tensor::Randn({batch, n, t_out, half}, rng);

  auto run = [&](bool fused) {
    ag::Variable x = ag::Variable::Leaf(x0.Clone(), /*requires_grad=*/true);
    std::vector<ag::Variable> taps;
    for (const Tensor& t : taps0) {
      taps.push_back(ag::Variable::Leaf(t.Clone(), /*requires_grad=*/true));
    }
    ag::Variable bias =
        ag::Variable::Leaf(bias0.Clone(), /*requires_grad=*/true);
    ag::Variable out =
        fused ? ag::FusedGatedConv(
                    x, ag::Concat(taps, 0), bias, kernel, dilation, pad_left,
                    glu ? ops::GemmEpilogue::kBiasGlu
                        : ops::GemmEpilogue::kBiasGatedTanhSigmoid)
              : reference::GatedConv(x, taps, bias, dilation, pad_left, glu);
    ag::Variable loss = ag::SumAll(
        ag::Mul(out, ag::Variable::Leaf(upstream.Clone(), false)));
    loss.Backward();
    std::vector<Tensor> result{out.data().Clone(), x.grad().Clone(),
                               bias.grad().Clone()};
    for (const ag::Variable& t : taps) result.push_back(t.grad().Clone());
    return result;
  };

  std::vector<Tensor> fused = run(true);
  std::vector<Tensor> reference = run(false);
  ASSERT_EQ(fused.size(), reference.size());
  EXPECT_LE(MaxAbsDiff(fused[0], reference[0]), kGradTol) << "forward";
  for (size_t i = 1; i < fused.size(); ++i) {
    // Gradients accumulate over the stacked K·C columns in a different order
    // than the K separate per-tap GEMMs, so the bound is 1e-6 *relative* to
    // the gradient's magnitude.
    EXPECT_LE(MaxAbsDiff(fused[i], reference[i]),
              kGradTol * std::max(1.0f, MaxAbs(reference[i])))
        << "tensor " << i;
  }
}

TEST(FusedGatedConvTest, CausalTanhSigmoidMatchesUnfusedChain) {
  // The EnhanceTcnLayer configuration: K=2, d=2, left pad keeps T.
  ExpectFusedGatedConvMatches(/*kernel=*/2, /*dilation=*/2, /*pad_left=*/2,
                              /*glu=*/false, /*seed=*/59);
}

TEST(FusedGatedConvTest, ValidGluMatchesUnfusedChain) {
  // The Stgcn::TemporalGlu configuration: K=3, unpadded, T shrinks by K-1.
  ExpectFusedGatedConvMatches(/*kernel=*/3, /*dilation=*/1, /*pad_left=*/0,
                              /*glu=*/true, /*seed=*/61);
}

TEST(FusedGatedConvPerEntityTest, MatchesBatchMatMulChain) {
  Rng rng(67);
  const int64_t batch = 2, n = 3, time = 6, c_in = 3, half = 4;
  const int64_t kernel = 2, dilation = 1;
  const int64_t pad_left = dilation * (kernel - 1);
  const Tensor x0 = Tensor::Randn({batch, n, time, c_in}, rng);
  // DFGN layout: per entity, taps flattened k-major / c-minor.
  const Tensor filters0 =
      Tensor::Randn({n, kernel * c_in * 2 * half}, rng);
  const Tensor bias0 = Tensor::Randn({2 * half}, rng);
  const Tensor upstream = Tensor::Randn({batch, n, time, half}, rng);

  auto run = [&](bool fused) {
    ag::Variable x = ag::Variable::Leaf(x0.Clone(), /*requires_grad=*/true);
    ag::Variable filters =
        ag::Variable::Leaf(filters0.Clone(), /*requires_grad=*/true);
    ag::Variable bias =
        ag::Variable::Leaf(bias0.Clone(), /*requires_grad=*/true);
    ag::Variable out =
        fused ? ag::FusedGatedConvPerEntity(
                    x, filters, bias, kernel, dilation, pad_left,
                    ops::GemmEpilogue::kBiasGatedTanhSigmoid)
              : reference::GatedConvPerEntity(x, filters, bias, kernel,
                                              dilation);
    ag::Variable loss = ag::SumAll(
        ag::Mul(out, ag::Variable::Leaf(upstream.Clone(), false)));
    loss.Backward();
    return std::vector<Tensor>{out.data().Clone(), x.grad().Clone(),
                               filters.grad().Clone(), bias.grad().Clone()};
  };

  std::vector<Tensor> fused = run(true);
  std::vector<Tensor> reference = run(false);
  EXPECT_LE(MaxAbsDiff(fused[0], reference[0]), kGradTol) << "forward";
  EXPECT_LE(MaxAbsDiff(fused[1], reference[1]), kGradTol) << "d x";
  EXPECT_LE(MaxAbsDiff(fused[2], reference[2]), kGradTol) << "d filters";
  EXPECT_LE(MaxAbsDiff(fused[3], reference[3]), kGradTol) << "d bias";
}

// --- layer wiring against the oracle ------------------------------------

core::TcnLayerConfig SmallTcnLayerConfig() {
  core::TcnLayerConfig config;
  config.num_entities = 3;
  config.in_channels = 4;
  config.conv_channels = 5;
  config.skip_channels = 6;
  config.kernel_size = 2;
  config.dilation = 2;
  config.dropout = 0.0f;  // determinism across the two forwards
  return config;
}

TEST(FusedTcnWiringTest, TcnLayerMatchesReference) {
  Rng rng(71);
  core::EnhanceTcnLayer layer(SmallTcnLayerConfig(), nullptr, rng);
  const Tensor x0 = Tensor::Randn({2, 3, 8, 4}, rng);
  Rng fwd_rng(5);

  auto run = [&](bool fused) {
    ag::Variable x = ag::Variable::Leaf(x0.Clone(), /*requires_grad=*/true);
    core::EnhanceTcnLayer::Output out =
        fused ? layer.Forward(x, {}, fwd_rng)
              : reference::TcnLayerForward(layer, x, {}, fwd_rng);
    ag::Variable loss = ag::Add(ag::MeanAll(ag::Square(out.skip)),
                                ag::MeanAll(ag::Square(out.residual)));
    for (auto& p : layer.Parameters()) p.ZeroGrad();
    loss.Backward();
    std::vector<Tensor> result{out.skip.data().Clone(),
                               out.residual.data().Clone(), x.grad().Clone()};
    for (const auto& p : layer.Parameters()) result.push_back(p.grad().Clone());
    return result;
  };

  const std::vector<Tensor> fused = run(true);
  ExpectAllNear(fused, run(false));
}

TEST(FusedTcnWiringTest, DfgnLayerMatchesReference) {
  Rng rng(73);
  core::TcnLayerConfig config = SmallTcnLayerConfig();
  config.use_dfgn = true;
  ag::Variable memory =
      ag::Variable::Leaf(Tensor::Randn({config.num_entities, 8}, rng),
                         /*requires_grad=*/true);
  core::EnhanceTcnLayer layer(config, &memory, rng);
  const Tensor x0 = Tensor::Randn({2, 3, 8, 4}, rng);
  Rng fwd_rng(5);

  auto run = [&](bool fused) {
    ag::Variable x = ag::Variable::Leaf(x0.Clone(), /*requires_grad=*/true);
    core::EnhanceTcnLayer::Output out =
        fused ? layer.Forward(x, {}, fwd_rng)
              : reference::TcnLayerForward(layer, x, {}, fwd_rng);
    ag::Variable loss = ag::Add(ag::MeanAll(ag::Square(out.skip)),
                                ag::MeanAll(ag::Square(out.residual)));
    for (auto& p : layer.Parameters()) p.ZeroGrad();
    memory.ZeroGrad();
    loss.Backward();
    std::vector<Tensor> result{out.skip.data().Clone(),
                               out.residual.data().Clone(), x.grad().Clone(),
                               memory.grad().Clone()};
    for (const auto& p : layer.Parameters()) result.push_back(p.grad().Clone());
    return result;
  };

  const std::vector<Tensor> fused = run(true);
  ExpectAllNear(fused, run(false));
}

// A GTCN layer: the gated conv feeds a graph convolution over one static
// [N,N] support and one dynamic [B·T,N,N] support, then the projections.
TEST(FusedTcnWiringTest, GraphConvLayerMatchesReference) {
  Rng rng(75);
  core::TcnLayerConfig config = SmallTcnLayerConfig();
  config.num_supports = 2;
  config.skip_last_only = true;
  core::EnhanceTcnLayer layer(config, nullptr, rng);
  const Tensor x0 = Tensor::Randn({2, 3, 8, 4}, rng);
  const std::vector<graph::Support> supports = {
      ag::Variable::Leaf(Tensor::Randn({3, 3}, rng), false),
      ag::Variable::Leaf(Tensor::Randn({2 * 8, 3, 3}, rng), false)};
  Rng fwd_rng(5);

  auto run = [&](bool fused) {
    ag::Variable x = ag::Variable::Leaf(x0.Clone(), /*requires_grad=*/true);
    core::EnhanceTcnLayer::Output out =
        fused ? layer.Forward(x, supports, fwd_rng)
              : reference::TcnLayerForward(layer, x, supports, fwd_rng);
    ag::Variable loss = ag::Add(ag::MeanAll(ag::Square(out.skip)),
                                ag::MeanAll(ag::Square(out.residual)));
    for (auto& p : layer.Parameters()) p.ZeroGrad();
    loss.Backward();
    std::vector<Tensor> result{out.skip.data().Clone(),
                               out.residual.data().Clone(), x.grad().Clone()};
    for (const auto& p : layer.Parameters()) result.push_back(p.grad().Clone());
    return result;
  };

  const std::vector<Tensor> fused = run(true);
  ExpectAllNear(fused, run(false));
}

// The enhanced GRU cell (the D-DA-GRNN step): graph convolution over a
// static and a dynamic support, shared or DFGN-generated filters, fused r/u
// gates and state combine, against the unfused chain.
void ExpectEnhanceGruCellMatchesReference(bool use_dfgn, uint64_t seed) {
  Rng rng(seed);
  const int64_t batch = 2, n = 4, c_in = 3, hidden = 5;
  core::GruCellConfig config;
  config.num_entities = n;
  config.in_channels = c_in;
  config.hidden = hidden;
  config.num_supports = 2;
  config.use_dfgn = use_dfgn;
  config.dfgn_hidden1 = 6;
  config.dfgn_hidden2 = 3;
  ag::Variable memory = ag::Variable::Leaf(Tensor::Randn({n, 4}, rng),
                                           /*requires_grad=*/true);
  core::EnhanceGruCell cell(config, &memory, rng);
  const Tensor x0 = Tensor::Randn({batch, n, c_in}, rng);
  const Tensor h0 = Tensor::Randn({batch, n, hidden}, rng);
  const Tensor static0 = Tensor::Randn({n, n}, rng);
  const Tensor dynamic0 = Tensor::Randn({batch, n, n}, rng);

  auto run = [&](bool fused) {
    ag::Variable x = ag::Variable::Leaf(x0.Clone(), /*requires_grad=*/true);
    ag::Variable h = ag::Variable::Leaf(h0.Clone(), /*requires_grad=*/true);
    ag::Variable dynamic =
        ag::Variable::Leaf(dynamic0.Clone(), /*requires_grad=*/true);
    const std::vector<graph::Support> supports = {
        ag::Variable::Leaf(static0.Clone(), false), dynamic};
    ag::Variable out =
        fused ? cell.Forward(x, h, supports)
              : reference::EnhanceGruCellForward(cell, x, h, supports);
    ag::Variable loss = ag::MeanAll(ag::Square(out));
    for (auto& p : cell.Parameters()) p.ZeroGrad();
    memory.ZeroGrad();
    loss.Backward();
    std::vector<Tensor> result{out.data().Clone(), x.grad().Clone(),
                               h.grad().Clone(), dynamic.grad().Clone()};
    if (use_dfgn) result.push_back(memory.grad().Clone());
    for (const auto& p : cell.Parameters()) result.push_back(p.grad().Clone());
    return result;
  };

  const std::vector<Tensor> fused = run(true);
  ExpectAllNear(fused, run(false));
}

TEST(FusedCellWiringTest, EnhanceGruCellMatchesReference) {
  ExpectEnhanceGruCellMatchesReference(/*use_dfgn=*/false, /*seed=*/97);
}

TEST(FusedCellWiringTest, DfgnEnhanceGruCellMatchesReference) {
  ExpectEnhanceGruCellMatchesReference(/*use_dfgn=*/true, /*seed=*/101);
}

// The satellite bugfix: projecting only t = T−1 through skip_proj_ must give
// exactly the last timestep of the full-sequence projection.
TEST(FusedTcnWiringTest, SkipLastOnlyMatchesLastTimestepOfFullProjection) {
  auto make = [](bool last_only) {
    core::TcnLayerConfig config = SmallTcnLayerConfig();
    config.skip_last_only = last_only;
    Rng rng(79);  // identical init for both layers
    return std::make_unique<core::EnhanceTcnLayer>(config, nullptr, rng);
  };
  std::unique_ptr<core::EnhanceTcnLayer> full = make(false);
  std::unique_ptr<core::EnhanceTcnLayer> last = make(true);
  Rng data_rng(83);
  const int64_t time = 8;
  const Tensor x0 = Tensor::Randn({2, 3, time, 4}, data_rng);
  Rng r_full(5), r_last(5);
  const ag::Variable x = ag::Variable::Leaf(x0, /*requires_grad=*/false);
  const Tensor skip_full = full->Forward(x, {}, r_full).skip.data();
  const Tensor skip_last = last->Forward(x, {}, r_last).skip.data();
  ASSERT_EQ(skip_last.size(2), 1);
  EXPECT_LE(MaxAbsDiff(ops::Slice(skip_full, 2, time - 1, 1), skip_last),
            kGradTol);
}

// --- determinism across thread counts -----------------------------------

// Every element of every fused output (and gradient) is computed by its
// owning ParallelFor chunk, so the results must be bit-identical whether the
// pool has 1 worker or 8. The shapes are large enough for the cost policy
// to split the conv, its gate backward and the GEMMs.
TEST(FusedThreadInvarianceTest, GatedConvAndEpilogueGemmBitwise) {
  Rng rng(89);
  const int64_t batch = 8, n = 64, time = 32, c_in = 16, half = 32;
  const int64_t kernel = 2, dilation = 2;
  const int64_t pad_left = dilation * (kernel - 1);
  const Tensor x0 = Tensor::Randn({batch, n, time, c_in}, rng);
  const Tensor w0 = Tensor::Randn({kernel * c_in, 2 * half}, rng);
  const Tensor bias0 = Tensor::Randn({2 * half}, rng);
  const Tensor upstream = Tensor::Randn({batch, n, time, half}, rng);
  // A tiled-regime Linear-style GEMM rides along so the non-gated epilogue
  // write-back is covered too.
  const Tensor a0 = Tensor::Randn({600, 96}, rng);
  const Tensor lw0 = Tensor::Randn({96, 144}, rng);
  const Tensor lb0 = Tensor::Randn({144}, rng);
  const Tensor lup = Tensor::Randn({600, 144}, rng);

  auto run = [&](int threads) {
    SetNumThreads(threads);
    ag::Variable x = ag::Variable::Leaf(x0.Clone(), /*requires_grad=*/true);
    ag::Variable w = ag::Variable::Leaf(w0.Clone(), /*requires_grad=*/true);
    ag::Variable bias =
        ag::Variable::Leaf(bias0.Clone(), /*requires_grad=*/true);
    ag::Variable out = ag::FusedGatedConv(
        x, w, bias, kernel, dilation, pad_left,
        ops::GemmEpilogue::kBiasGatedTanhSigmoid);
    ag::Variable loss = ag::SumAll(
        ag::Mul(out, ag::Variable::Leaf(upstream.Clone(), false)));
    loss.Backward();

    ag::Variable a = ag::Variable::Leaf(a0.Clone(), /*requires_grad=*/true);
    ag::Variable lw = ag::Variable::Leaf(lw0.Clone(), /*requires_grad=*/true);
    ag::Variable lb = ag::Variable::Leaf(lb0.Clone(), /*requires_grad=*/true);
    ag::Variable y = ag::MatMulBias(a, lw, lb);
    ag::Variable loss2 =
        ag::SumAll(ag::Mul(y, ag::Variable::Leaf(lup.Clone(), false)));
    loss2.Backward();
    return std::vector<Tensor>{
        out.data().Clone(), x.grad().Clone(),  w.grad().Clone(),
        bias.grad().Clone(), y.data().Clone(), a.grad().Clone(),
        lw.grad().Clone(),   lb.grad().Clone()};
  };

  const int prev_threads = GetNumThreads();
  std::vector<Tensor> one = run(1);
  std::vector<Tensor> eight;
  const int64_t pooled =
      ::enhancenet::testing::PooledRegions([&] { eight = run(8); });
  SetNumThreads(prev_threads);
  EXPECT_GT(pooled, 0);
  ASSERT_EQ(one.size(), eight.size());
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(MaxAbsDiff(one[i], eight[i]), 0.0f) << "tensor " << i;
  }
}

// --- allocation-free TCN training steps ---------------------------------

// The perf acceptance gate's allocator half: after warmup, a full TCN train
// step (fused gated conv + epilogue GEMMs + Adam) allocates nothing from the
// heap — every tensor comes from the pool, every fusion temporary from the
// Workspace.
TEST(FusedTcnAllocatorTest, TcnTrainStepsAllocFreeAfterWarmup) {
  TensorAllocator& allocator = TensorAllocator::Global();
  const int64_t entities = 8;
  data::CtsData data = data::MakeEbLike(entities, /*days=*/2, /*seed=*/7);
  const int64_t train_end = data.num_steps() * 7 / 10;
  data::StandardScaler scaler;
  scaler.Fit(data.series, 0, train_end);
  const Tensor scaled = scaler.Transform(data.series);
  models::ModelSizing sizing;
  sizing.tcn_channels = 8;
  sizing.skip_channels = 8;
  sizing.end_channels = 16;
  sizing.dilations = {1, 2};
  data::WindowDataset train(scaled, data.series, /*target_channel=*/0, 0,
                            train_end, sizing.history, sizing.horizon);
  Rng model_rng(11);
  std::unique_ptr<models::ForecastingModel> model = models::MakeModel(
      "TCN", entities, 1, graph::GaussianKernelAdjacency(data.distances),
      sizing, model_rng);
  model->SetTraining(true);
  optim::Adam optimizer(model->Parameters(), 0.01f);
  const data::Batch batch = train.MakeBatch({0, 3, 6, 9});
  Rng rng(3);

  auto step = [&] {
    ag::Variable pred =
        model->Forward(batch.x, &batch.y_scaled, /*teacher_prob=*/1.0f, rng);
    ag::Variable loss = ag::MeanAll(ag::Abs(
        ag::Sub(pred, ag::Variable::Leaf(batch.y_scaled, false))));
    model->ZeroGrad();
    loss.Backward();
    optim::ClipGradNorm(optimizer.params(), 5.0f);
    optimizer.Step();
  };

  for (int i = 0; i < 2; ++i) step();  // warmup populates pool + workspace
  allocator.ResetStats();
  for (int i = 0; i < 3; ++i) step();

  const AllocatorStats stats = allocator.GetStats();
  ASSERT_GT(stats.requests, 0);
  EXPECT_GT(stats.pool_hits, 0);
  EXPECT_EQ(stats.pool_misses + stats.oversize, 0)
      << "steady-state TCN steps must be allocation-free: misses="
      << stats.pool_misses << " oversize=" << stats.oversize;
}

}  // namespace
}  // namespace enhancenet
