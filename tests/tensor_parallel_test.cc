// Thread-count invariance: every tensor op must produce bitwise-identical
// results for ENHANCENET_NUM_THREADS=1 and >1, across shapes that do not
// divide evenly into chunks, tiles, or SIMD widths. This is the contract
// that keeps autograd gradient checks and the seeded table reproductions
// stable no matter the host. Shapes are large enough that ParallelFor's
// cost policy really splits them at 4 threads.

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <utility>

#include "runtime/parallel.h"
#include "gtest/gtest.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace enhancenet {
namespace {

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

class TensorParallelTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = GetNumThreads(); }
  void TearDown() override { SetNumThreads(saved_threads_); }

  // Runs `fn` serially and with 4 threads; the results must match bit for
  // bit. Unless `must_split` is false (work below two minimum chunks, or a
  // serial kernel), the 4-thread run must split at least one region.
  void ExpectInvariant(const std::function<Tensor()>& fn, const char* what,
                       bool must_split = true) {
    SetNumThreads(1);
    const Tensor serial = fn();
    SetNumThreads(4);
    Tensor threaded;
    const int64_t pooled =
        ::enhancenet::testing::PooledRegions([&] { threaded = fn(); });
    SetNumThreads(1);
    EXPECT_TRUE(BitwiseEqual(serial, threaded)) << what;
    if (must_split) {
      EXPECT_GT(pooled, 0) << what << " ran inline at 4 threads";
    }
  }

  int saved_threads_ = 1;
};

TEST_F(TensorParallelTest, GemmAllTransposeVariants) {
  Rng rng(7);
  // 517 x 130 x 97: every dimension leaves ragged micro-tiles.
  Tensor a = Tensor::Randn({517, 130}, rng);
  Tensor b = Tensor::Randn({130, 97}, rng);
  Tensor at = Tensor::Randn({130, 517}, rng);
  Tensor bt = Tensor::Randn({97, 130}, rng);
  ExpectInvariant([&] { return ops::MatMul(a, b); }, "MatMul");
  ExpectInvariant([&] { return ops::Gemm(at, b, true, false); }, "Gemm tn");
  ExpectInvariant([&] { return ops::Gemm(a, bt, false, true); }, "Gemm nt");
  ExpectInvariant([&] { return ops::Gemm(at, bt, true, true); }, "Gemm tt");
}

TEST_F(TensorParallelTest, GemmMultipleKBlocks) {
  Rng rng(11);
  // k=300 spans two KC=256 blocks; exercises the block-accumulation order.
  Tensor a = Tensor::Randn({511, 300}, rng);
  Tensor b = Tensor::Randn({300, 33}, rng);
  ExpectInvariant([&] { return ops::MatMul(a, b); }, "MatMul k=300");
}

TEST_F(TensorParallelTest, GemmMultipleCacheBlocksEveryAxis) {
  Rng rng(13);
  // 300 x 300 x 600 spans every blocking level raggedly: M crosses two
  // MC=128 A sub-blocks plus a remainder, K two KC=256 blocks, N two NC=512
  // panels — so A is packed per (pc, jc, sub-block) rather than once.
  Tensor a = Tensor::Randn({300, 300}, rng);
  Tensor b = Tensor::Randn({300, 600}, rng);
  ExpectInvariant([&] { return ops::MatMul(a, b); }, "MatMul 300x300x600");
  Tensor at = Tensor::Randn({300, 300}, rng);
  ExpectInvariant([&] { return ops::Gemm(at, b, true, false); },
                  "Gemm tn 300x300x600");
  // Correctness against the K-slice identity the tiled path must satisfy:
  // C = A*B == A[:, :k0]*B[:k0, :] + A[:, k0:]*B[k0:, :] computed as two
  // small products. Accumulation order over K differs, so compare with a
  // tolerance instead of bitwise.
  const int64_t k0 = 150;
  Tensor full = ops::MatMul(a, b);
  Tensor part = ops::Add(
      ops::MatMul(ops::Slice(a, 1, 0, k0), ops::Slice(b, 0, 0, k0)),
      ops::MatMul(ops::Slice(a, 1, k0, 300 - k0),
                  ops::Slice(b, 0, k0, 300 - k0)));
  ASSERT_EQ(full.shape(), part.shape());
  for (int64_t i = 0; i < full.numel(); ++i) {
    EXPECT_NEAR(full.data()[i], part.data()[i], 1e-3f) << "at " << i;
  }
}

TEST_F(TensorParallelTest, GemmTransposeReadsMatchMaterializedTranspose) {
  // Packing a transposed operand in place must be bitwise identical to
  // materializing the transpose first (same K accumulation order).
  Rng rng(13);
  Tensor at = Tensor::Randn({65, 127}, rng);
  Tensor b = Tensor::Randn({65, 33}, rng);
  SetNumThreads(4);
  EXPECT_TRUE(BitwiseEqual(ops::Gemm(at, b, true, false),
                           ops::MatMul(ops::Transpose2D(at), b)));
  SetNumThreads(1);
}

TEST_F(TensorParallelTest, BatchGemmSmallSlices) {
  Rng rng(17);
  // The D-RNN per-entity filter shape: small slices, batch-parallel path.
  Tensor x = Tensor::Randn({1031, 8, 17}, rng);
  Tensor w = Tensor::Randn({1031, 17, 32}, rng);
  Tensor xt = Tensor::Randn({1031, 17, 8}, rng);
  Tensor wt = Tensor::Randn({1031, 32, 17}, rng);
  ExpectInvariant([&] { return ops::BatchMatMul(x, w); }, "bmm nn");
  ExpectInvariant([&] { return ops::BatchGemm(xt, w, true, false); }, "bmm tn");
  ExpectInvariant([&] { return ops::BatchGemm(x, wt, false, true); }, "bmm nt");
  ExpectInvariant([&] { return ops::BatchGemm(xt, wt, true, true); }, "bmm tt");
}

TEST_F(TensorParallelTest, BatchGemmBigSlicesUseTiledPath) {
  Rng rng(19);
  Tensor a = Tensor::Randn({5, 255, 130}, rng);
  Tensor b = Tensor::Randn({5, 130, 33}, rng);
  ExpectInvariant([&] { return ops::BatchMatMul(a, b); }, "bmm big");
}

// The tiled batched product is one parallel region over (slice, row tile)
// items, so chunks start and end inside slices. m = 69 gives 9 row tiles,
// each worth more than one minimum chunk; 4 threads cap the region at 16
// chunks, so a chunk holds 2 tiles (batch 2 and 3) or 5 (batch 8) and some
// chunk covers the last tile of one slice and the first of the next. Every
// epilogue kind, batch sizes around the chunk count, ragged rows
// (m % 8 != 0), two K blocks and two N blocks: 4 threads must equal
// 1 thread, and every slice must equal the single-slice Gemm, bit for bit,
// outputs and pre-activations alike.
TEST_F(TensorParallelTest, BatchGemmOneRegionMatchesSliceGemmForEveryEpilogue) {
  Rng rng(53);
  const int64_t m = 69, k = 300, n = 530;
  const ops::GemmEpilogue kinds[] = {
      ops::GemmEpilogue::kNone,         ops::GemmEpilogue::kBias,
      ops::GemmEpilogue::kBiasTanh,     ops::GemmEpilogue::kBiasSigmoid,
      ops::GemmEpilogue::kBiasGatedTanhSigmoid, ops::GemmEpilogue::kBiasGlu};
  for (const int64_t batch : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{8}}) {
    const Tensor a = Tensor::Randn({batch, m, k}, rng);
    const Tensor b = Tensor::Randn({batch, k, n}, rng);
    const Tensor bias = Tensor::Randn({n}, rng);
    for (const ops::GemmEpilogue kind : kinds) {
      const bool has_bias = kind != ops::GemmEpilogue::kNone;
      const bool keeps_preact = kind != ops::GemmEpilogue::kNone &&
                                kind != ops::GemmEpilogue::kBias;
      auto run = [&](Tensor* preact) {
        return ops::BatchGemm(a, b, false, false, kind,
                              has_bias ? &bias : nullptr, preact);
      };
      Tensor pre1 = keeps_preact ? Tensor({batch, m, n}) : Tensor();
      Tensor pre4 = keeps_preact ? Tensor({batch, m, n}) : Tensor();
      SetNumThreads(1);
      const Tensor out1 = run(keeps_preact ? &pre1 : nullptr);
      SetNumThreads(4);
      Tensor out4;
      EXPECT_EQ(::enhancenet::testing::PooledRegions(
                    [&] { out4 = run(keeps_preact ? &pre4 : nullptr); }),
                1);
      const std::string what = "batch=" + std::to_string(batch) + " kind=" +
                               std::to_string(static_cast<int>(kind));
      EXPECT_TRUE(BitwiseEqual(out1, out4)) << what;
      if (keeps_preact) {
        EXPECT_TRUE(BitwiseEqual(pre1, pre4)) << what;
      }
      const int64_t width = out4.size(2);
      for (int64_t i = 0; i < batch; ++i) {
        const Tensor ai = ops::Slice(a, 0, i, 1).Reshape({m, k});
        const Tensor bi = ops::Slice(b, 0, i, 1).Reshape({k, n});
        Tensor pre_i = keeps_preact ? Tensor({m, n}) : Tensor();
        const Tensor ci =
            ops::Gemm(ai, bi, false, false, kind, has_bias ? &bias : nullptr,
                      keeps_preact ? &pre_i : nullptr);
        EXPECT_TRUE(BitwiseEqual(
            ops::Slice(out4, 0, i, 1).Reshape({m, width}), ci))
            << what << " slice " << i;
        if (keeps_preact) {
          EXPECT_TRUE(BitwiseEqual(
              ops::Slice(pre4, 0, i, 1).Reshape({m, n}), pre_i))
              << what << " slice " << i << " preact";
        }
      }
      SetNumThreads(1);
    }
  }
}

TEST_F(TensorParallelTest, BatchGemmMatchesPerSliceGemm) {
  Rng rng(23);
  Tensor a = Tensor::Randn({5, 33, 17}, rng);
  Tensor b = Tensor::Randn({5, 17, 29}, rng);
  SetNumThreads(4);
  Tensor c = ops::BatchMatMul(a, b);
  for (int64_t i = 0; i < 5; ++i) {
    Tensor ai = ops::Slice(a, 0, i, 1).Reshape({33, 17});
    Tensor bi = ops::Slice(b, 0, i, 1).Reshape({17, 29});
    Tensor ci = ops::Slice(c, 0, i, 1).Reshape({33, 29});
    EXPECT_TRUE(BitwiseEqual(ci, ops::MatMul(ai, bi))) << "slice " << i;
  }
  SetNumThreads(1);
}

TEST_F(TensorParallelTest, BatchGemmSharedAMatchesPerSliceGemmAndRowBlocks) {
  Rng rng(29);
  // {n, c}: a small-regime product (37x37x17); a tiled one with two K
  // blocks whose 75-row blocks alone would run the small-product kernel,
  // which sums all of K in one pass (300x300x2); and a tiled one whose row
  // blocks stay tiled (300x300x33).
  const std::pair<int64_t, int64_t> shapes[] = {{37, 17}, {300, 2}, {300, 33}};
  for (const auto& [n, c] : shapes) {
    Tensor a = Tensor::Randn({n, n}, rng);
    Tensor x = Tensor::Randn({3, n, c}, rng);
    for (const bool trans_a : {false, true}) {
      SetNumThreads(4);
      const Tensor full = ops::BatchGemmSharedA(a, x, trans_a);
      for (int64_t i = 0; i < 3; ++i) {
        const Tensor xi = ops::Slice(x, 0, i, 1).Reshape({n, c});
        const Tensor ci = ops::Slice(full, 0, i, 1).Reshape({n, c});
        EXPECT_TRUE(BitwiseEqual(ci, ops::Gemm(a, xi, trans_a, false)))
            << "n=" << n << " slice " << i << " trans_a=" << trans_a;
      }
      // Ragged row blocks reproduce the same rows of the whole product.
      const int64_t block = (n + 3) / 4;
      for (int64_t r0 = 0; r0 < n; r0 += block) {
        const int64_t rows = std::min(block, n - r0);
        EXPECT_TRUE(BitwiseEqual(
            ops::BatchGemmSharedA(a, x, trans_a, r0, rows),
            ops::Slice(full, 1, r0, rows)))
            << "n=" << n << " rows [" << r0 << ", " << r0 + rows << ")";
      }
      SetNumThreads(1);
      // Only the 300x300x33 product costs two minimum chunks; the others
      // run inline at every thread count.
      ExpectInvariant([&] { return ops::BatchGemmSharedA(a, x, trans_a); },
                      "shared-A bmm", /*must_split=*/c == 33);
    }
  }
}

TEST_F(TensorParallelTest, BatchGemmSumMatchesSumOfSliceGemms) {
  Rng rng(31);
  for (const int64_t n : {int64_t{9}, int64_t{300}}) {
    Tensor g = Tensor::Randn({3, n, 17}, rng);
    Tensor x = Tensor::Randn({3, n, 17}, rng);
    const Tensor sum = ops::BatchGemmSum(g, x, false, true);
    Tensor expected = Tensor::Zeros({n, n});
    for (int64_t i = 0; i < 3; ++i) {
      const Tensor gi = ops::Slice(g, 0, i, 1).Reshape({n, 17});
      const Tensor xi = ops::Slice(x, 0, i, 1).Reshape({n, 17});
      expected = ops::Add(expected, ops::Gemm(gi, xi, false, true));
    }
    ASSERT_EQ(sum.shape(), expected.shape());
    for (int64_t e = 0; e < sum.numel(); ++e) {
      EXPECT_NEAR(sum.data()[e], expected.data()[e], 1e-4f) << "at " << e;
    }
    ExpectInvariant([&] { return ops::BatchGemmSum(g, x, false, true); },
                    "bmm sum", /*must_split=*/n == 300);
  }
}

TEST_F(TensorParallelTest, ElementwiseAndBroadcast) {
  Rng rng(29);
  Tensor a = Tensor::Randn({997, 557}, rng);
  Tensor b = Tensor::Randn({997, 557}, rng);
  Tensor bias = Tensor::Randn({557}, rng);
  ExpectInvariant([&] { return ops::Add(a, b); }, "Add");
  ExpectInvariant([&] { return ops::Mul(a, b); }, "Mul");
  ExpectInvariant([&] { return ops::Add(a, bias); }, "Add bias");
  ExpectInvariant([&] { return ops::MulScalar(a, 0.37f); }, "MulScalar");
  ExpectInvariant([&] { return ops::Maximum(a, b); }, "Maximum");
}

TEST_F(TensorParallelTest, UnaryOps) {
  Rng rng(31);
  Tensor a = Tensor::Randn({997, 557}, rng);
  ExpectInvariant([&] { return ops::Sigmoid(a); }, "Sigmoid");
  ExpectInvariant([&] { return ops::Tanh(a); }, "Tanh");
  ExpectInvariant([&] { return ops::Exp(a); }, "Exp");
  ExpectInvariant([&] { return ops::Relu(a); }, "Relu");
  ExpectInvariant([&] { return ops::Square(a); }, "Square");
}

TEST_F(TensorParallelTest, AxpyInPlace) {
  Rng rng(37);
  Tensor x = Tensor::Randn({997, 557}, rng);
  Tensor y0 = Tensor::Randn({997, 557}, rng);
  auto run = [&] {
    Tensor y = y0.Clone();
    ops::AxpyInPlace(0.25f, x, &y);
    return y;
  };
  ExpectInvariant(run, "AxpyInPlace");
}

TEST_F(TensorParallelTest, SoftmaxLastDim) {
  Rng rng(41);
  Tensor t = Tensor::Randn({511, 65}, rng);
  ExpectInvariant([&] { return ops::SoftmaxLastDim(t); }, "SoftmaxLastDim");
}

TEST_F(TensorParallelTest, Reductions) {
  Rng rng(43);
  Tensor t = Tensor::Randn({1031, 521}, rng);
  ExpectInvariant([&] { return ops::Sum(t, 0, false); }, "Sum axis0");
  ExpectInvariant([&] { return ops::Sum(t, 1, true); }, "Sum axis1 keepdim");
  ExpectInvariant([&] { return ops::Mean(t, 0, false); }, "Mean axis0");
  ExpectInvariant([&] { return ops::SumAll(t); }, "SumAll");
  ExpectInvariant([&] { return ops::MeanAll(t); }, "MeanAll");
  ExpectInvariant([&] { return ops::ReduceToShape(t, {521}); },
                  "ReduceToShape");
  // A kept leading axis takes the generic reduction, which is serial.
  ExpectInvariant([&] { return ops::ReduceToShape(t, {1, 521}); },
                  "ReduceToShape keepdim", /*must_split=*/false);
}

TEST_F(TensorParallelTest, TransposeBlockedFastPath) {
  Rng rng(47);
  Tensor t = Tensor::Randn({1031, 521}, rng);
  ExpectInvariant([&] { return ops::Transpose2D(t); }, "Transpose2D");
  ExpectInvariant([&] { return ops::Transpose(t, 0, 1); }, "Transpose rank2");
  // Blocked fast path must agree with the generic layout exactly.
  SetNumThreads(4);
  Tensor tt = ops::Transpose2D(t);
  for (int64_t i = 0; i < 1031; i += 13) {
    for (int64_t j = 0; j < 521; j += 31) {
      ASSERT_EQ(t.at({i, j}), tt.at({j, i}));
    }
  }
  SetNumThreads(1);
}

}  // namespace
}  // namespace enhancenet
