// Thread-count invariance: every tensor op must produce bitwise-identical
// results for ENHANCENET_NUM_THREADS=1 and >1, across shapes that do not
// divide evenly into chunks, tiles, or SIMD widths. This is the contract
// that keeps autograd gradient checks and the seeded table reproductions
// stable no matter the host.

#include <algorithm>
#include <cstring>
#include <functional>
#include <utility>

#include "runtime/parallel.h"
#include "gtest/gtest.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

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

  // Runs `fn` serially and with 4 threads; the results must match bit for bit.
  void ExpectInvariant(const std::function<Tensor()>& fn, const char* what) {
    SetNumThreads(1);
    const Tensor serial = fn();
    SetNumThreads(4);
    const Tensor threaded = fn();
    SetNumThreads(1);
    EXPECT_TRUE(BitwiseEqual(serial, threaded)) << what;
  }

  int saved_threads_ = 1;
};

TEST_F(TensorParallelTest, GemmAllTransposeVariants) {
  Rng rng(7);
  // 127 x 65 x 33: every dimension leaves ragged micro-tiles.
  Tensor a = Tensor::Randn({127, 65}, rng);
  Tensor b = Tensor::Randn({65, 33}, rng);
  Tensor at = Tensor::Randn({65, 127}, rng);
  Tensor bt = Tensor::Randn({33, 65}, rng);
  ExpectInvariant([&] { return ops::MatMul(a, b); }, "MatMul");
  ExpectInvariant([&] { return ops::Gemm(at, b, true, false); }, "Gemm tn");
  ExpectInvariant([&] { return ops::Gemm(a, bt, false, true); }, "Gemm nt");
  ExpectInvariant([&] { return ops::Gemm(at, bt, true, true); }, "Gemm tt");
}

TEST_F(TensorParallelTest, GemmMultipleKBlocks) {
  Rng rng(11);
  // k=300 spans two KC=256 blocks; exercises the block-accumulation order.
  Tensor a = Tensor::Randn({127, 300}, rng);
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
  Tensor x = Tensor::Randn({19, 8, 17}, rng);
  Tensor w = Tensor::Randn({19, 17, 32}, rng);
  Tensor xt = Tensor::Randn({19, 17, 8}, rng);
  Tensor wt = Tensor::Randn({19, 32, 17}, rng);
  ExpectInvariant([&] { return ops::BatchMatMul(x, w); }, "bmm nn");
  ExpectInvariant([&] { return ops::BatchGemm(xt, w, true, false); }, "bmm tn");
  ExpectInvariant([&] { return ops::BatchGemm(x, wt, false, true); }, "bmm nt");
  ExpectInvariant([&] { return ops::BatchGemm(xt, wt, true, true); }, "bmm tt");
}

TEST_F(TensorParallelTest, BatchGemmBigSlicesUseTiledPath) {
  Rng rng(19);
  Tensor a = Tensor::Randn({3, 127, 65}, rng);
  Tensor b = Tensor::Randn({3, 65, 33}, rng);
  ExpectInvariant([&] { return ops::BatchMatMul(a, b); }, "bmm big");
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
      ExpectInvariant([&] { return ops::BatchGemmSharedA(a, x, trans_a); },
                      "shared-A bmm");
    }
  }
}

TEST_F(TensorParallelTest, BatchGemmSumMatchesSumOfSliceGemms) {
  Rng rng(31);
  for (const int64_t n : {int64_t{9}, int64_t{130}}) {
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
                    "bmm sum");
  }
}

TEST_F(TensorParallelTest, ElementwiseAndBroadcast) {
  Rng rng(29);
  Tensor a = Tensor::Randn({997, 37}, rng);
  Tensor b = Tensor::Randn({997, 37}, rng);
  Tensor bias = Tensor::Randn({37}, rng);
  ExpectInvariant([&] { return ops::Add(a, b); }, "Add");
  ExpectInvariant([&] { return ops::Mul(a, b); }, "Mul");
  ExpectInvariant([&] { return ops::Add(a, bias); }, "Add bias");
  ExpectInvariant([&] { return ops::MulScalar(a, 0.37f); }, "MulScalar");
  ExpectInvariant([&] { return ops::Maximum(a, b); }, "Maximum");
}

TEST_F(TensorParallelTest, UnaryOps) {
  Rng rng(31);
  Tensor a = Tensor::Randn({997, 37}, rng);
  ExpectInvariant([&] { return ops::Sigmoid(a); }, "Sigmoid");
  ExpectInvariant([&] { return ops::Tanh(a); }, "Tanh");
  ExpectInvariant([&] { return ops::Exp(a); }, "Exp");
  ExpectInvariant([&] { return ops::Relu(a); }, "Relu");
  ExpectInvariant([&] { return ops::Square(a); }, "Square");
}

TEST_F(TensorParallelTest, AxpyInPlace) {
  Rng rng(37);
  Tensor x = Tensor::Randn({997, 37}, rng);
  Tensor y0 = Tensor::Randn({997, 37}, rng);
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
  Tensor t = Tensor::Randn({513, 127}, rng);
  ExpectInvariant([&] { return ops::Sum(t, 0, false); }, "Sum axis0");
  ExpectInvariant([&] { return ops::Sum(t, 1, true); }, "Sum axis1 keepdim");
  ExpectInvariant([&] { return ops::Mean(t, 0, false); }, "Mean axis0");
  ExpectInvariant([&] { return ops::SumAll(t); }, "SumAll");
  ExpectInvariant([&] { return ops::MeanAll(t); }, "MeanAll");
  ExpectInvariant([&] { return ops::ReduceToShape(t, {127}); }, "ReduceToShape");
  ExpectInvariant([&] { return ops::ReduceToShape(t, {1, 127}); },
                  "ReduceToShape keepdim");
}

TEST_F(TensorParallelTest, TransposeBlockedFastPath) {
  Rng rng(47);
  Tensor t = Tensor::Randn({127, 513}, rng);
  ExpectInvariant([&] { return ops::Transpose2D(t); }, "Transpose2D");
  ExpectInvariant([&] { return ops::Transpose(t, 0, 1); }, "Transpose rank2");
  // Blocked fast path must agree with the generic layout exactly.
  SetNumThreads(4);
  Tensor tt = ops::Transpose2D(t);
  for (int64_t i = 0; i < 127; i += 13) {
    for (int64_t j = 0; j < 513; j += 31) {
      ASSERT_EQ(t.at({i, j}), tt.at({j, i}));
    }
  }
  SetNumThreads(1);
}

}  // namespace
}  // namespace enhancenet
