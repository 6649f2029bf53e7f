// Sparse top-k dynamic adjacency suite (DESIGN.md §10).
//
// Covers the three layers of the sparse path:
//  * graph::TopKSparsify — neighbour selection vs a reference argsort,
//    tie-breaking, and full-k equivalence with the dense matmul;
//  * ag::TopKAttention / ag::SparseAdjacencyMatMul — bitwise full-k parity
//    with the dense softmax, gradients vs a masked-dense reference and vs
//    central finite differences, and bitwise determinism across thread
//    counts;
//  * Damgn / training — sparse CombinedSupports parity with the dense
//    supports at k=N, the dense (k=0) hop chain against the materialized
//    power oracle, one hop chain per direction on both paths, the
//    all-masked-row softmax fallback, and the steady-state allocation-free
//    training guarantee with sparse enabled.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/grad_mode.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/rng.h"
#include "core/damgn.h"
#include "data/synthetic.h"
#include "graph/adjacency.h"
#include "graph/graph_conv.h"
#include "graph/sparse_adjacency.h"
#include "models/model_factory.h"
#include "nn/module.h"
#include "optim/optimizer.h"
#include "reference/reference.h"
#include "runtime/allocator.h"
#include "runtime/context.h"
#include "runtime/parallel.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace enhancenet {
namespace {

namespace ag = ::enhancenet::autograd;
using ::enhancenet::testing::ExpectGradientsMatch;
using ::enhancenet::testing::ExpectTensorNear;

constexpr float kInf = std::numeric_limits<float>::infinity();

/// Reference top-k: argsort by (value desc, column asc), keep k, return the
/// selected columns in ascending column order.
std::vector<int64_t> ReferenceTopK(const float* row, int64_t n, int64_t k) {
  std::vector<int64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    if (row[a] != row[b]) return row[a] > row[b];
    return a < b;
  });
  order.resize(std::min(k, n));
  std::sort(order.begin(), order.end());
  return order;
}

TEST(SparseTest, TopKSparsifyMatchesReferenceArgsort) {
  Rng rng(17);
  const int64_t batch = 3, n = 9, k = 4;
  const Tensor dense = Tensor::Randn({batch, n, n}, rng);
  const graph::SparseAdjacency sparse = graph::TopKSparsify(dense, k);
  ASSERT_EQ(sparse.index.nnz, batch * n * k);
  const float* pv = sparse.values.data().data();
  const int32_t* pc = sparse.index.cols.data();
  for (int64_t r = 0; r < batch * n; ++r) {
    const float* row = dense.data() + r * n;
    const std::vector<int64_t> want = ReferenceTopK(row, n, k);
    for (int64_t s = 0; s < k; ++s) {
      EXPECT_EQ(static_cast<int64_t>(pc[r * k + s]), want[s])
          << "row " << r << " slot " << s;
      EXPECT_EQ(pv[r * k + s], row[want[s]]);
    }
  }
  // CSR offsets are uniform-degree, CSC is a permutation of all entries.
  const int32_t* po = sparse.index.row_offsets.data();
  for (int64_t r = 0; r <= batch * n; ++r) {
    EXPECT_EQ(static_cast<int64_t>(po[r]), r * k);
  }
  std::vector<bool> seen(sparse.index.nnz, false);
  const int32_t* pt = sparse.index.t_perm.data();
  for (int64_t e = 0; e < sparse.index.nnz; ++e) {
    const int64_t entry = static_cast<int64_t>(pt[e]);
    ASSERT_GE(entry, 0);
    ASSERT_LT(entry, sparse.index.nnz);
    EXPECT_FALSE(seen[entry]) << "t_perm repeats entry " << entry;
    seen[entry] = true;
  }
}

TEST(SparseTest, TopKSparsifyTieBreaksTowardLowestColumn) {
  // Row of identical scores: the k lowest columns win.
  const int64_t n = 6, k = 3;
  Tensor dense = Tensor::Full({n, n}, 0.5f);
  const graph::SparseAdjacency sparse = graph::TopKSparsify(dense, k);
  const int32_t* pc = sparse.index.cols.data();
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t s = 0; s < k; ++s) {
      EXPECT_EQ(static_cast<int64_t>(pc[r * k + s]), s) << "row " << r;
    }
  }
}

TEST(SparseTest, Int32IndexMatchesLegacyFloatEncodingAtSmallN) {
  // PR 10 moved the index arrays from float-encoded columns (exact only
  // below 2^24) to int32 storage. At small N, where the float encoding was
  // exact, the new arrays must reproduce the legacy encoding bit-for-bit
  // once cast back through float — i.e. the storage change alone must not
  // perturb a single selected column, offset, or permutation slot.
  Rng rng(71);
  const int64_t batch = 2, n = 11, k = 4;
  const Tensor dense = Tensor::Randn({batch, n, n}, rng);
  const graph::SparseAdjacency sparse = graph::TopKSparsify(dense, k);

  // Legacy reference: the float-encoded replace-the-minimum scan exactly as
  // the float-index implementation ran it (float column slots throughout,
  // including the ascending insertion sort's float compares).
  const float* pa = dense.data();
  for (int64_t r = 0; r < batch * n; ++r) {
    const float* arow = pa + r * n;
    std::vector<float> vrow(k), crow(k);
    int64_t mn = 0;
    for (int64_t j = 0; j < k; ++j) {
      vrow[j] = arow[j];
      crow[j] = static_cast<float>(j);
      if (arow[j] < vrow[mn]) mn = j;
    }
    for (int64_t j = k; j < n; ++j) {
      if (arow[j] > vrow[mn]) {
        vrow[mn] = arow[j];
        crow[mn] = static_cast<float>(j);
        mn = 0;
        for (int64_t s = 1; s < k; ++s) {
          if (vrow[s] < vrow[mn]) mn = s;
        }
      }
    }
    for (int64_t s = 1; s < k; ++s) {
      const float cv = crow[s];
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
    const int32_t* pc = sparse.index.cols.data();
    const float* pv = sparse.values.data().data();
    for (int64_t s = 0; s < k; ++s) {
      EXPECT_EQ(static_cast<float>(pc[r * k + s]), crow[s])
          << "row " << r << " slot " << s;
      EXPECT_EQ(pv[r * k + s], vrow[s]);
    }
  }
  // Offsets and the transpose permutation round-trip float exactly at this
  // size (all values far below 2^24).
  const int32_t* po = sparse.index.row_offsets.data();
  for (int64_t r = 0; r <= batch * n; ++r) {
    EXPECT_EQ(static_cast<int32_t>(static_cast<float>(po[r])), po[r]);
  }
  const int32_t* pt = sparse.index.t_perm.data();
  for (int64_t e = 0; e < sparse.index.nnz; ++e) {
    EXPECT_EQ(static_cast<int32_t>(static_cast<float>(pt[e])), pt[e]);
  }
}

TEST(SparseTest, WindowedTopKFullWindowBitwiseMatchesFullScan) {
  // k_cand = N degenerates the candidate window to the whole row, visiting
  // columns in exactly the full-scan order — the selection, values, and
  // transpose half must be bitwise-identical to the unwindowed overload.
  Rng rng(83);
  const int64_t batch = 2, n = 13, k = 5;
  const Tensor dense = Tensor::Randn({batch, n, n}, rng);
  const graph::SparseAdjacency full = graph::TopKSparsify(dense, k);
  const graph::SparseAdjacency windowed = graph::TopKSparsify(dense, k, n);
  ASSERT_EQ(full.index.nnz, windowed.index.nnz);
  for (int64_t e = 0; e < full.index.nnz; ++e) {
    ASSERT_EQ(full.index.cols.data()[e], windowed.index.cols.data()[e]);
    ASSERT_EQ(full.values.data().data()[e], windowed.values.data().data()[e]);
    ASSERT_EQ(full.index.t_perm.data()[e], windowed.index.t_perm.data()[e]);
  }
}

TEST(SparseTest, WindowedTopKSelectsWithinWindow) {
  // A small window must still pick the k best columns — but only among the
  // window's candidates, centred on the row's own entity and clamped at the
  // matrix edge.
  Rng rng(89);
  const int64_t n = 16, k = 2, k_cand = 6;
  const Tensor dense = Tensor::Randn({n, n}, rng);
  const graph::SparseAdjacency sparse = graph::TopKSparsify(dense, k, k_cand);
  const int32_t* pc = sparse.index.cols.data();
  const float* pv = sparse.values.data().data();
  for (int64_t i = 0; i < n; ++i) {
    const int64_t lo = std::clamp<int64_t>(i - k_cand / 2, 0, n - k_cand);
    const std::vector<int64_t> want =
        ReferenceTopK(dense.data() + i * n + lo, k_cand, k);
    for (int64_t s = 0; s < k; ++s) {
      EXPECT_EQ(pc[i * k + s], lo + want[s]) << "row " << i << " slot " << s;
      EXPECT_EQ(pv[i * k + s], dense.data()[i * n + lo + want[s]]);
    }
  }
}

TEST(SparseTest, FullKApplyMatchesDenseMatMul) {
  Rng rng(5);
  const int64_t batch = 2, n = 6, c = 5;
  const Tensor dense = Tensor::Randn({batch, n, n}, rng);
  const Tensor xt = Tensor::Randn({batch, n, c}, rng);
  const graph::SparseAdjacency sparse = graph::TopKSparsify(dense, n);
  const ag::Variable x = ag::Variable::Leaf(xt, /*requires_grad=*/false);
  const ag::Variable a = ag::Variable::Leaf(dense, /*requires_grad=*/false);

  const ag::Variable got = graph::ApplySparseAdjacency(sparse, x);
  const ag::Variable want = ag::BatchMatMul(a, x);
  ExpectTensorNear(got.data(), want.data(), 1e-6f);

  const ag::Variable got_t =
      graph::ApplySparseAdjacency(sparse, x, /*transpose=*/true);
  const ag::Variable want_t = ag::BatchMatMul(ag::Transpose(a, 1, 2), x);
  ExpectTensorNear(got_t.data(), want_t.data(), 1e-6f);
}

TEST(SparseTest, SparseAdjacencyMatMulGradCheck) {
  Rng rng(23);
  const int64_t batch = 1, n = 6, k = 3, c = 4;
  const graph::SparseAdjacency pattern =
      graph::TopKSparsify(Tensor::Randn({batch, n, n}, rng), k);
  for (const bool transpose : {false, true}) {
    ag::Variable values =
        ag::Variable::Leaf(Tensor::Randn({batch, n, k}, rng), true);
    ag::Variable x = ag::Variable::Leaf(Tensor::Randn({batch, n, c}, rng), true);
    ExpectGradientsMatch(
        [&]() {
          return ag::SumAll(ag::Square(
              ag::SparseAdjacencyMatMul(values, pattern.index, x, transpose)));
        },
        {values, x});
  }
}

TEST(SparseTest, TopKAttentionFullKBitwiseMatchesDenseSoftmax) {
  Rng rng(31);
  const int64_t batch = 2, n = 5, e = 3;
  const Tensor src = Tensor::Randn({batch, n, e}, rng);
  const Tensor dst = Tensor::Randn({batch, n, e}, rng);
  const ag::Variable e_src = ag::Variable::Leaf(src.Clone(), true);
  const ag::Variable e_dst = ag::Variable::Leaf(dst.Clone(), true);

  ag::SparseIndex index;
  const ag::Variable sparse = ag::TopKAttention(e_src, e_dst, n, &index);

  const ag::Variable dense = ag::SoftmaxLastDim(
      ag::BatchMatMul(e_src, ag::Transpose(e_dst, 1, 2)));

  // At k = N the selection keeps every column in ascending order and the
  // restricted softmax runs over the very same scores in the same order, so
  // the [B,N,k=N] values ARE the dense probability rows — bitwise.
  ASSERT_EQ(sparse.numel(), dense.numel());
  const float* ps = sparse.data().data();
  const float* pd = dense.data().data();
  for (int64_t i = 0; i < dense.numel(); ++i) {
    EXPECT_EQ(ps[i], pd[i]) << "element " << i;
  }
  const int32_t* pc = index.cols.data();
  for (int64_t r = 0; r < batch * n; ++r) {
    for (int64_t s = 0; s < n; ++s) {
      EXPECT_EQ(static_cast<int64_t>(pc[r * n + s]), s);
    }
  }
}

TEST(SparseTest, TopKAttentionMatchesMaskedDenseReference) {
  // Small k: the reference is the dense chain with unselected scores masked
  // to -inf — mathematically the restricted softmax, and its e_src/e_dst
  // gradients must match the sparse op's.
  Rng rng(41);
  const int64_t batch = 2, n = 7, e = 4, k = 3;
  const Tensor src = Tensor::Randn({batch, n, e}, rng);
  const Tensor dst = Tensor::Randn({batch, n, e}, rng);

  ag::Variable e_src = ag::Variable::Leaf(src.Clone(), true);
  ag::Variable e_dst = ag::Variable::Leaf(dst.Clone(), true);
  ag::SparseIndex index;
  ag::Variable values = ag::TopKAttention(e_src, e_dst, k, &index);
  ag::Variable sparse_loss = ag::SumAll(ag::Square(values));
  sparse_loss.Backward();

  Tensor mask = Tensor::Full({batch, n, n}, -kInf);
  const int32_t* pc = index.cols.data();
  for (int64_t r = 0; r < batch * n; ++r) {
    for (int64_t s = 0; s < k; ++s) {
      mask.data()[r * n + pc[r * k + s]] = 0.0f;
    }
  }
  ag::Variable e_src2 = ag::Variable::Leaf(src.Clone(), true);
  ag::Variable e_dst2 = ag::Variable::Leaf(dst.Clone(), true);
  ag::Variable probs = ag::SoftmaxLastDim(
      ag::Add(ag::BatchMatMul(e_src2, ag::Transpose(e_dst2, 1, 2)),
              ag::Variable::Leaf(mask, false)));
  // Masked entries are exactly 0 after softmax, so squaring and summing
  // gives the same loss as summing over the k kept entries.
  ag::Variable dense_loss = ag::SumAll(ag::Square(probs));
  dense_loss.Backward();

  EXPECT_NEAR(sparse_loss.data().item(), dense_loss.data().item(), 1e-6f);
  ExpectTensorNear(e_src.grad(), e_src2.grad(), 1e-5f);
  ExpectTensorNear(e_dst.grad(), e_dst2.grad(), 1e-5f);
}

TEST(SparseTest, AttentionProbsMatchesUnfusedChain) {
  Rng rng(53);
  const int64_t batch = 2, n = 6, e = 4;
  const Tensor src = Tensor::Randn({batch, n, e}, rng);
  const Tensor dst = Tensor::Randn({batch, n, e}, rng);
  const Tensor weight = Tensor::Randn({batch, n, n}, rng);

  ag::Variable fs = ag::Variable::Leaf(src.Clone(), true);
  ag::Variable fd = ag::Variable::Leaf(dst.Clone(), true);
  ag::Variable fused = ag::AttentionProbs(fs, fd);
  ag::SumAll(ag::Mul(fused, ag::Variable::Leaf(weight, false))).Backward();

  ag::Variable us = ag::Variable::Leaf(src.Clone(), true);
  ag::Variable ud = ag::Variable::Leaf(dst.Clone(), true);
  ag::Variable unfused = reference::AttentionProbs(us, ud);
  ag::SumAll(ag::Mul(unfused, ag::Variable::Leaf(weight, false))).Backward();

  // Forward is bitwise identical (same Into kernels under the hood).
  const float* pf = fused.data().data();
  const float* pu = unfused.data().data();
  for (int64_t i = 0; i < fused.numel(); ++i) {
    EXPECT_EQ(pf[i], pu[i]) << "element " << i;
  }
  ExpectTensorNear(fs.grad(), us.grad(), 1e-5f);
  ExpectTensorNear(fd.grad(), ud.grad(), 1e-5f);
}

TEST(SparseTest, SoftmaxAllMaskedRowFallsBackToUniform) {
  // Regression: a fully -inf row used to produce exp(-inf-(-inf)) = NaN.
  Tensor t = Tensor::FromVector({2, 3}, {-kInf, -kInf, -kInf,  //
                                         0.0f, 1.0f, 2.0f});
  const Tensor y = ops::SoftmaxLastDim(t);
  const float* p = y.data();
  EXPECT_FLOAT_EQ(p[0], 1.0f / 3.0f);
  EXPECT_FLOAT_EQ(p[1], 1.0f / 3.0f);
  EXPECT_FLOAT_EQ(p[2], 1.0f / 3.0f);
  // Finite rows are untouched by the guard.
  double denom = 0.0;
  for (int i = 0; i < 3; ++i) denom += std::exp(static_cast<float>(i) - 2.0f);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(p[3 + i],
                std::exp(static_cast<float>(i) - 2.0f) / denom, 1e-6f);
    EXPECT_TRUE(std::isfinite(p[3 + i]));
  }
}

TEST(SparseTest, DynamicCAllMaskedRowsStayFinite) {
  // Drive the attention scores to -inf through float overflow: θ ≫ 0 and
  // φ ≪ 0 make every raw score -inf, the historical NaN trigger.
  Rng rng(7);
  const int64_t n = 5, c = 2;
  core::Damgn damgn(Tensor::Ones({n, n}), n, c, /*mem_dim=*/3,
                    /*embed_dim=*/4, rng);
  for (auto& [name, param] : damgn.NamedParameters()) {
    const float fill = name == "theta.weight"  ? 1e25f
                       : name == "phi.weight" ? -1e25f
                                               : 0.0f;
    if (fill == 0.0f) continue;
    float* p = param.mutable_data().data();
    for (int64_t i = 0; i < param.numel(); ++i) p[i] = fill;
  }
  const ag::Variable x = ag::Variable::Leaf(Tensor::Ones({1, n, c}), false);
  const float uniform = 1.0f / static_cast<float>(n);
  {
    ag::NoGradGuard no_grad;  // workspace-backed AttentionProbs result
    const Tensor probs = damgn.DynamicC(x).data();
    for (int64_t i = 0; i < probs.numel(); ++i) {
      EXPECT_EQ(probs.data()[i], uniform) << "element " << i;
    }
  }
  {
    const Tensor probs = damgn.DynamicC(x).data();  // recorded graph node
    for (int64_t i = 0; i < probs.numel(); ++i) {
      EXPECT_EQ(probs.data()[i], uniform) << "element " << i;
    }
  }
  {
    // The top-k restricted softmax has the same guard (uniform over the k
    // selected neighbours).
    ag::NoGradGuard no_grad;
    const graph::SparseAdjacency sparse = damgn.SparseDynamicC(x, 3);
    const Tensor values = sparse.values.data();
    for (int64_t i = 0; i < values.numel(); ++i) {
      EXPECT_EQ(values.data()[i], 1.0f / 3.0f) << "element " << i;
    }
  }
}

TEST(SparseTest, BitwiseDeterministicAcrossThreadCounts) {
  Rng rng(67);
  const int64_t batch = 2, n = 48, e = 8, k = 6, c = 16;
  const Tensor src = Tensor::Randn({batch, n, e}, rng);
  const Tensor dst = Tensor::Randn({batch, n, e}, rng);
  const Tensor xin = Tensor::Randn({batch, n, c}, rng);

  struct Run {
    std::vector<int32_t> cols;
    Tensor values, y, yt, dsrc, ddst, dx;
  };
  const auto run = [&](int threads) {
    SetNumThreads(threads);
    ag::Variable e_src = ag::Variable::Leaf(src.Clone(), true);
    ag::Variable e_dst = ag::Variable::Leaf(dst.Clone(), true);
    ag::Variable x = ag::Variable::Leaf(xin.Clone(), true);
    ag::SparseIndex index;
    ag::Variable values = ag::TopKAttention(e_src, e_dst, k, &index);
    ag::Variable y = ag::SparseAdjacencyMatMul(values, index, x);
    ag::Variable yt =
        ag::SparseAdjacencyMatMul(values, index, x, /*transpose_adj=*/true);
    ag::Add(ag::SumAll(ag::Square(y)), ag::SumAll(ag::Square(yt))).Backward();
    return Run{std::vector<int32_t>(index.cols.data(),
                                    index.cols.data() + index.cols.numel),
               values.data().Clone(),
               y.data().Clone(),   yt.data().Clone(),
               e_src.grad().Clone(), e_dst.grad().Clone(), x.grad().Clone()};
  };

  const int restore = GetNumThreads();
  const Run serial = run(1);
  const Run parallel = run(8);
  SetNumThreads(restore);

  const auto expect_bitwise = [](const Tensor& a, const Tensor& b,
                                 const char* what) {
    ASSERT_EQ(a.numel(), b.numel());
    for (int64_t i = 0; i < a.numel(); ++i) {
      ASSERT_EQ(a.data()[i], b.data()[i]) << what << " element " << i;
    }
  };
  ASSERT_EQ(serial.cols, parallel.cols);
  expect_bitwise(serial.values, parallel.values, "values");
  expect_bitwise(serial.y, parallel.y, "y");
  expect_bitwise(serial.yt, parallel.yt, "yt");
  expect_bitwise(serial.dsrc, parallel.dsrc, "d_src");
  expect_bitwise(serial.ddst, parallel.ddst, "d_dst");
  expect_bitwise(serial.dx, parallel.dx, "d_x");
}

/// Nonzero mixing coefficients, so A, B and C all reach every hop of the
/// DAMGN's supports. `module` is a Damgn or a model that owns one.
void SetMixingCoefficients(nn::Module* module) {
  for (auto& [name, param] : module->NamedParameters()) {
    const std::string leaf = name.substr(name.rfind('.') + 1);
    if (leaf == "lambda_a") param.mutable_data().data()[0] = 0.6f;
    if (leaf == "lambda_b") param.mutable_data().data()[0] = 0.3f;
    if (leaf == "lambda_c") param.mutable_data().data()[0] = 0.4f;
  }
}

TEST(SparseTest, DamgnSparseFullKMatchesDenseSupports) {
  // With k = N the sparse hop-by-hop supports compute the same function as
  // the dense materialized powers; losses and parameter gradients agree to
  // float reassociation tolerance.
  Rng rng(97);
  const int64_t batch = 2, n = 6, c = 3;
  core::Damgn damgn(Tensor::RandUniform({n, n}, rng, 0.0f, 1.0f), n, c,
                    /*mem_dim=*/3, /*embed_dim=*/4, rng);
  SetMixingCoefficients(&damgn);
  const ag::Variable x =
      ag::Variable::Leaf(Tensor::Randn({batch, n, c}, rng), false);

  const auto run = [&](int topk) {
    runtime::RuntimeContext::Options options;
    options.private_exec = true;
    runtime::RuntimeContext context(options);
    context.exec().topk.store(topk, std::memory_order_relaxed);
    runtime::RuntimeContext::Bind bind(context);
    damgn.ZeroGrad();
    const std::vector<graph::Support> supports =
        damgn.CombinedSupports(x, /*max_hops=*/2, /*bidirectional=*/true);
    EXPECT_EQ(supports.size(), 4u);
    ag::Variable loss =
        ag::SumAll(ag::Square(graph::MixSupports(x, supports, true)));
    loss.Backward();
    std::vector<Tensor> grads;
    for (const auto& param : damgn.Parameters()) {
      grads.push_back(param.has_grad() ? param.grad().Clone() : Tensor());
    }
    return std::make_pair(loss.data().item(), std::move(grads));
  };

  const auto [dense_loss, dense_grads] = run(0);
  const auto [sparse_loss, sparse_grads] = run(n);
  EXPECT_NEAR(sparse_loss, dense_loss,
              1e-5f * (1.0f + std::fabs(dense_loss)));
  ASSERT_EQ(dense_grads.size(), sparse_grads.size());
  for (size_t i = 0; i < dense_grads.size(); ++i) {
    ASSERT_EQ(dense_grads[i].numel(), sparse_grads[i].numel()) << "param " << i;
    const float* pd = dense_grads[i].data();
    const float* ps = sparse_grads[i].data();
    for (int64_t j = 0; j < dense_grads[i].numel(); ++j) {
      EXPECT_NEAR(ps[j], pd[j], 1e-4f * (1.0f + std::fabs(pd[j])))
          << "param " << i << " element " << j;
    }
  }
}

/// Number of distinct graph nodes reachable from `root` made by `op`.
int CountOpNodes(const ag::Variable& root, const std::string& op) {
  std::set<const ag::Node*> seen;
  std::vector<const ag::Node*> stack{root.node().get()};
  int count = 0;
  while (!stack.empty()) {
    const ag::Node* node = stack.back();
    stack.pop_back();
    if (!seen.insert(node).second) continue;
    if (op == node->op_name) ++count;
    for (const auto& parent : node->parents) stack.push_back(parent.get());
  }
  return count;
}

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "element " << i;
  }
}

/// The supports of one CombinedSupports call at top-k `k` (0: dense) share
/// a hop chain in each direction: the forward is bitwise the concatenation
/// of independent ApplySupport calls, gradients agree to reassociation
/// tolerance, and the dense per-hop operator (A' on the dense path, its
/// static part S on the top-k path) is applied once per hop (3 + 3 with
/// max_hops = 3) instead of once per hop per support (6 + 6).
void ExpectEachHopChainWalkedOnce(int k) {
  Rng rng(103);
  const int64_t batch = 2, n = 9, c = 3;
  core::Damgn damgn(Tensor::RandUniform({n, n}, rng, 0.0f, 1.0f), n, c,
                    /*mem_dim=*/3, /*embed_dim=*/4, rng);
  SetMixingCoefficients(&damgn);
  const Tensor x0 = Tensor::Randn({batch, n, c}, rng);
  runtime::RuntimeContext::Options options;
  options.private_exec = true;
  runtime::RuntimeContext context(options);
  context.exec().topk.store(k, std::memory_order_relaxed);
  runtime::RuntimeContext::Bind bind(context);
  // [B,N,N] operators apply through BatchMatMul, [N,N] ones through
  // AdjacencyMatMul.
  const std::string apply_op = k > 0 ? "adj_matmul" : "bmm";

  struct Run {
    Tensor mixed;
    int dense_applies;
    std::vector<Tensor> grads;  // x, then every Damgn parameter
  };
  const auto run = [&](bool chained) {
    damgn.ZeroGrad();
    const ag::Variable x = ag::Variable::Leaf(x0.Clone(), true);
    const std::vector<graph::Support> supports =
        damgn.CombinedSupports(x, /*max_hops=*/3, /*bidirectional=*/true);
    EXPECT_EQ(supports.size(), 6u);
    ag::Variable mixed;
    if (chained) {
      mixed = graph::MixSupports(x, supports, /*include_self=*/true);
    } else {
      std::vector<ag::Variable> parts{x};
      for (const graph::Support& support : supports) {
        parts.push_back(graph::ApplySupport(support, x));
      }
      mixed = ag::Concat(parts, -1);
    }
    ag::Variable loss = ag::SumAll(ag::Square(mixed));
    loss.Backward();
    Run result{mixed.data().Clone(), CountOpNodes(loss, apply_op),
               {x.grad().Clone()}};
    for (const auto& param : damgn.Parameters()) {
      result.grads.push_back(param.grad().Clone());
    }
    return result;
  };

  const Run chained = run(true);
  const Run independent = run(false);
  ExpectBitwiseEqual(chained.mixed, independent.mixed);
  EXPECT_EQ(chained.dense_applies, 6);
  EXPECT_EQ(independent.dense_applies, 12);
  ASSERT_EQ(chained.grads.size(), independent.grads.size());
  for (size_t i = 0; i < chained.grads.size(); ++i) {
    const float* pc = chained.grads[i].data();
    const float* pi = independent.grads[i].data();
    for (int64_t j = 0; j < chained.grads[i].numel(); ++j) {
      EXPECT_NEAR(pc[j], pi[j], 1e-4f * (1.0f + std::fabs(pi[j])))
          << "grad " << i << " element " << j;
    }
  }
}

TEST(SparseTest, MixSupportsWalksEachHopChainOnce) {
  for (const int k : {0, 4}) {
    SCOPED_TRACE("topk=" + std::to_string(k));
    ExpectEachHopChainWalkedOnce(k);
  }
}

/// Hop counts 1 and 2 of one call at top-k `k` (0: dense), interleaved with
/// hop counts 2 and 3 of a second call on a different signal: each support
/// still computes its own call's power from x, never a hop past the other
/// call's output.
void ExpectNoChainAcrossCalls(int k) {
  Rng rng(107);
  const int64_t batch = 2, n = 9, c = 3;
  core::Damgn damgn(Tensor::RandUniform({n, n}, rng, 0.0f, 1.0f), n, c,
                    /*mem_dim=*/3, /*embed_dim=*/4, rng);
  SetMixingCoefficients(&damgn);
  const ag::Variable x =
      ag::Variable::Leaf(Tensor::Randn({batch, n, c}, rng), false);
  const ag::Variable other =
      ag::Variable::Leaf(Tensor::Randn({batch, n, c}, rng), false);
  runtime::RuntimeContext::Options options;
  options.private_exec = true;
  runtime::RuntimeContext context(options);
  context.exec().topk.store(k, std::memory_order_relaxed);
  runtime::RuntimeContext::Bind bind(context);
  ag::NoGradGuard no_grad;

  const std::vector<graph::Support> a =
      damgn.CombinedSupports(x, /*max_hops=*/3, /*bidirectional=*/false);
  const std::vector<graph::Support> b =
      damgn.CombinedSupports(other, /*max_hops=*/3, /*bidirectional=*/false);
  const std::vector<graph::Support> interleaved{a[0], b[1], a[1], b[2]};
  std::vector<ag::Variable> parts;
  for (const graph::Support& support : interleaved) {
    parts.push_back(graph::ApplySupport(support, x));
  }
  ExpectBitwiseEqual(
      graph::MixSupports(x, interleaved, /*include_self=*/false).data(),
      ag::Concat(parts, -1).data());
}

TEST(SparseTest, MixSupportsNeverChainsAcrossCombinedSupportsCalls) {
  for (const int k : {0, 4}) {
    SCOPED_TRACE("topk=" + std::to_string(k));
    ExpectNoChainAcrossCalls(k);
  }
}

/// One CombinedSupports + MixSupports pass of `damgn` on x0 [B,N,C] with a
/// non-uniform upstream gradient, under a context with topk = 0: the dense
/// hop chain, or with `oracle` the materialized-power support set. Returns
/// the mixed output, d x, then d of every Damgn parameter (B₁, B₂, θ, φ and
/// the three λs).
std::vector<Tensor> DenseSupportMixRun(core::Damgn& damgn, const Tensor& x0,
                                       const Tensor& up, int max_hops,
                                       bool bidirectional, bool oracle) {
  runtime::RuntimeContext::Options options;
  options.private_exec = true;
  runtime::RuntimeContext context(options);
  context.exec().topk.store(0, std::memory_order_relaxed);
  runtime::RuntimeContext::Bind bind(context);
  damgn.ZeroGrad();
  ag::Variable x = ag::Variable::Leaf(x0.Clone(), /*requires_grad=*/true);
  const std::vector<graph::Support> supports =
      oracle ? reference::DenseCombinedSupports(damgn, x, max_hops,
                                                bidirectional)
             : damgn.CombinedSupports(x, max_hops, bidirectional);
  ag::Variable mixed = graph::MixSupports(x, supports, /*include_self=*/true);
  ag::SumAll(ag::Mul(mixed, ag::Variable::Leaf(up.Clone(), false)))
      .Backward();
  std::vector<Tensor> result{mixed.data().Clone(), x.grad().Clone()};
  for (const auto& param : damgn.Parameters()) {
    result.push_back(param.grad().Clone());
  }
  return result;
}

TEST(SparseTest, DenseHopChainMatchesPowerOracle) {
  // The dense (k=0) DAMGN walks (A')ʰ·X hop by hop; the oracle materializes
  // the powers. Same function, sums in a different order: forward and every
  // gradient agree to reassociation tolerance. The chain itself is bitwise
  // invariant to the thread count and to batching. The N=207, B=8 case is
  // the production hop apply: its GEMMs cost more than two minimum chunks,
  // so the 4-thread run really partitions them.
  struct Case {
    int64_t n, c;
    std::vector<int64_t> batches;
  };
  const Case cases[] = {
      {5, 3, {1, 3}}, {37, 3, {1, 3}}, {130, 3, {1, 3}}, {207, 16, {1, 8}}};
  Rng rng(43);
  for (const Case& cs : cases) {
    const int64_t n = cs.n;
    const int64_t c = cs.c;
    core::Damgn damgn(Tensor::RandUniform({n, n}, rng, 0.0f, 1.0f), n, c,
                      /*mem_dim=*/4, /*embed_dim=*/5, rng);
    SetMixingCoefficients(&damgn);
    for (const int64_t batch : cs.batches) {
      for (const int max_hops : {1, 2, 3}) {
        for (const bool bidirectional : {false, true}) {
          SCOPED_TRACE("N=" + std::to_string(n) +
                       " B=" + std::to_string(batch) +
                       " hops=" + std::to_string(max_hops) +
                       (bidirectional ? " bidirectional" : ""));
          const int64_t width = (1 + max_hops * (bidirectional ? 2 : 1)) * c;
          const Tensor x = Tensor::Randn({batch, n, c}, rng);
          const Tensor up = Tensor::Randn({batch, n, width}, rng);
          const auto run = [&](const Tensor& xs, const Tensor& ups,
                               bool oracle) {
            return DenseSupportMixRun(damgn, xs, ups, max_hops, bidirectional,
                                      oracle);
          };

          const int restore = GetNumThreads();
          SetNumThreads(1);
          const std::vector<Tensor> serial = run(x, up, false);
          SetNumThreads(4);
          std::vector<Tensor> got;
          const int64_t pooled = ::enhancenet::testing::PooledRegions(
              [&] { got = run(x, up, false); });
          const std::vector<Tensor> want = run(x, up, true);
          SetNumThreads(restore);
          if (batch == 8) {
            EXPECT_GT(pooled, 0);
          }
          ASSERT_EQ(got.size(), want.size());
          for (size_t i = 0; i < got.size(); ++i) {
            SCOPED_TRACE("tensor " + std::to_string(i));
            ExpectBitwiseEqual(serial[i], got[i]);
            ASSERT_EQ(got[i].shape(), want[i].shape());
            const float* pg = got[i].data();
            const float* pw = want[i].data();
            for (int64_t j = 0; j < got[i].numel(); ++j) {
              EXPECT_NEAR(pg[j], pw[j], 1e-4f * (1.0f + std::fabs(pw[j])))
                  << "element " << j;
            }
          }
          // Output and d x are per sample; parameter gradients sum over the
          // batch.
          for (int64_t b = 0; batch > 1 && b < batch; ++b) {
            SCOPED_TRACE("sample " + std::to_string(b));
            const std::vector<Tensor> single =
                run(ops::Slice(x, 0, b, 1), ops::Slice(up, 0, b, 1), false);
            ExpectBitwiseEqual(ops::Slice(got[0], 0, b, 1), single[0]);
            ExpectBitwiseEqual(ops::Slice(got[1], 0, b, 1), single[1]);
          }
        }
      }
    }
  }
}

TEST(SparseTest, SparseTrainingStepsAreAllocationFree) {
  // The ISSUE acceptance gate: steady-state training with the sparse path
  // enabled draws every tensor from the caching allocator's pool — zero heap
  // allocations per step after warmup.
  runtime::RuntimeContext::Options options;
  options.private_allocator = true;
  options.private_exec = true;
  runtime::RuntimeContext context(options);
  context.exec().topk.store(4, std::memory_order_relaxed);
  runtime::RuntimeContext::Bind bind(context);

  const int64_t entities = 12, batch_size = 2;
  data::CtsData data = data::MakeEbLike(entities, 2, /*seed=*/7);
  const int64_t train_end = data.num_steps() * 7 / 10;
  data::StandardScaler scaler;
  scaler.Fit(data.series, 0, train_end);
  models::ModelSizing sizing;
  sizing.rnn_hidden = 12;
  sizing.rnn_hidden_dfgn = 8;
  data::WindowDataset train(scaler.Transform(data.series), data.series,
                            /*target_channel=*/0, 0, train_end, sizing.history,
                            sizing.horizon);
  Rng model_rng(11);
  // D-DA-GRNN is the variant that owns a DAMGN (use_damgn=true), so topk>0
  // actually routes every step through TopKAttention + SparseAdjacencyMatMul;
  // plain D-GRNN has only static diffusion supports and would pass vacuously.
  std::unique_ptr<models::ForecastingModel> model = models::MakeModel(
      "D-DA-GRNN", entities, 1, graph::GaussianKernelAdjacency(data.distances),
      sizing, model_rng);
  model->SetTraining(true);
  optim::Adam optimizer(model->Parameters(), 0.01f);
  std::vector<int64_t> indices;
  for (int64_t b = 0; b < batch_size; ++b) {
    indices.push_back((b * 17) % train.num_windows());
  }
  data::Batch batch = train.MakeBatch(indices);

  // Guard against a vacuous pass: with k=4 << N the forward must differ from
  // the dense forward, proving the model really routes through the sparse
  // DAMGN path (a model without a DAMGN ignores topk entirely). At the
  // initial λ_C = 0 both paths run the same A-only hop chain and agree
  // bitwise, so C is mixed in first.
  SetMixingCoefficients(model.get());
  {
    ag::NoGradGuard no_grad;
    Rng rng_sparse(9), rng_dense(9);
    const Tensor sparse_pred = model->Predict(batch.x, rng_sparse).data();
    context.exec().topk.store(0, std::memory_order_relaxed);
    const Tensor dense_pred = model->Predict(batch.x, rng_dense).data();
    context.exec().topk.store(4, std::memory_order_relaxed);
    bool differs = false;
    for (int64_t i = 0; i < sparse_pred.numel() && !differs; ++i) {
      differs = sparse_pred.data()[i] != dense_pred.data()[i];
    }
    EXPECT_TRUE(differs)
        << "topk=4 left the forward unchanged; the sparse path is not wired "
           "into this model";
  }

  Rng step_rng(3);

  const auto step = [&]() {
    ag::Variable pred = model->Forward(batch.x, &batch.y_scaled,
                                       /*teacher_prob=*/1.0f, step_rng);
    ag::Variable loss = ag::MeanAll(
        ag::Abs(ag::Sub(pred, ag::Variable::Leaf(batch.y_scaled, false))));
    model->ZeroGrad();
    loss.Backward();
    optim::ClipGradNorm(optimizer.params(), 5.0f);
    optimizer.Step();
  };

  for (int i = 0; i < 3; ++i) step();  // warm the pool
  context.allocator().ResetStats();
  for (int i = 0; i < 3; ++i) step();
  const AllocatorStats stats = context.allocator().GetStats();
  EXPECT_EQ(stats.pool_misses + stats.oversize, 0)
      << "steady-state sparse training still heap-allocates: misses="
      << stats.pool_misses << " oversize=" << stats.oversize;
  EXPECT_GT(stats.HitRate(), 0.999);
  EXPECT_GT(stats.requests, 0);
}

}  // namespace
}  // namespace enhancenet
