#ifndef ENHANCENET_TENSOR_TENSOR_OPS_H_
#define ENHANCENET_TENSOR_TENSOR_OPS_H_

#include <vector>

#include "tensor/tensor.h"

namespace enhancenet {
namespace ops {

// ---------------------------------------------------------------------------
// Shape utilities
// ---------------------------------------------------------------------------

/// NumPy-style broadcast of two shapes; CHECK-fails if incompatible.
Shape BroadcastShapes(const Shape& a, const Shape& b);

/// Sums `t` down to `target` (the reverse of broadcasting `target` -> t.shape).
/// Used by autograd to reduce gradients of broadcast operands.
Tensor ReduceToShape(const Tensor& t, const Shape& target);

// ---------------------------------------------------------------------------
// Elementwise binary (with broadcasting)
// ---------------------------------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
Tensor Maximum(const Tensor& a, const Tensor& b);

// ---------------------------------------------------------------------------
// Elementwise unary
// ---------------------------------------------------------------------------

Tensor Neg(const Tensor& t);
Tensor Abs(const Tensor& t);
/// -1, 0, +1 elementwise.
Tensor Sign(const Tensor& t);
Tensor Sigmoid(const Tensor& t);
Tensor Tanh(const Tensor& t);
Tensor Relu(const Tensor& t);
/// 1.0 where t > 0 else 0.0 (derivative mask of Relu).
Tensor ReluMask(const Tensor& t);
Tensor Exp(const Tensor& t);
Tensor Log(const Tensor& t);
Tensor Sqrt(const Tensor& t);
Tensor Square(const Tensor& t);

// ---------------------------------------------------------------------------
// Scalar ops
// ---------------------------------------------------------------------------

Tensor AddScalar(const Tensor& t, float s);
Tensor MulScalar(const Tensor& t, float s);

/// y += alpha * x (shapes must match exactly). The only mutating op; used for
/// gradient accumulation and optimizer updates.
void AxpyInPlace(float alpha, const Tensor& x, Tensor* y);

// ---------------------------------------------------------------------------
// Linear algebra
// ---------------------------------------------------------------------------

/// Epilogue fused into a GEMM's write-back loop. The bias add and gate
/// nonlinearities are applied to each output tile as its K-dimension
/// accumulation completes — while the tile is still cache-hot — so none of
/// them ever costs a separate full-tensor pass. With P = op(A)·op(B):
///
///   kNone                 C = P                         (the historical GEMM)
///   kBias                 C = P + bias                  (affine layers)
///   kBiasTanh             C = tanh(P + bias)
///   kBiasSigmoid          C = σ(P + bias)
///   kBiasGatedTanhSigmoid C = tanh(Pf+bf) ⊙ σ(Pg+bg)    (WaveNet gating)
///   kBiasGlu              C = (Pf+bf) ⊙ σ(Pg+bg)        (GLU gating, STGCN)
///
/// The two gated epilogues split the product's N columns into halves
/// (Pf = P[:, :N/2], Pg = P[:, N/2:]) and emit a half-width output. Bias is
/// always [N] (the raw product width). Numerics match the composed unfused
/// ops exactly: the bias add reproduces the suffix-broadcast Add and the
/// sigmoid uses the same two-branch stable form as ops::Sigmoid, so every
/// epilogue output is bitwise identical to its unfused chain — and, since
/// each output element is written by the tile that owns it, bitwise
/// invariant across thread counts.
enum class GemmEpilogue {
  kNone,
  kBias,
  kBiasTanh,
  kBiasSigmoid,
  kBiasGatedTanhSigmoid,
  kBiasGlu,
};

/// True for the epilogues that gate the product's column halves into a
/// half-width output.
bool IsGatedEpilogue(GemmEpilogue epilogue);

/// General 2-D matrix product with optional operand transposes:
///   C = epilogue(op(A) * op(B) + bias), op(X) = X or Xᵀ.
///
/// With the default kNone epilogue `bias`/`preact` are ignored and this is
/// the historical C = op(A)·op(B). Otherwise `bias` must be a rank-1 tensor
/// of the product width N. For the activation epilogues, a non-null `preact`
/// (shape [M, N]) additionally receives the pre-activation P + bias — the
/// tensor a fused backward needs to recompute the gate values. Gated
/// epilogues with preact == nullptr stage the accumulator in the bound
/// RuntimeContext's Workspace instead, so the no-grad path allocates
/// nothing.
Tensor Gemm(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b,
            GemmEpilogue epilogue = GemmEpilogue::kNone,
            const Tensor* bias = nullptr, Tensor* preact = nullptr);

/// C[M,N] = A[M,K] * B[K,N].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Batched 3-D matrix product with optional transposes of the trailing two
/// dims: C[i] = op(A[i]) * op(B[i]) for each leading index i. Epilogue
/// semantics match Gemm, applied per slice inside the slice's own compute
/// chunk (`bias` is shared across slices; `preact` is [B, M, N]).
Tensor BatchGemm(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b,
                 GemmEpilogue epilogue = GemmEpilogue::kNone,
                 const Tensor* bias = nullptr, Tensor* preact = nullptr);

/// C[B,M,N] = A[B,M,K] * B[B,K,N].
Tensor BatchMatMul(const Tensor& a, const Tensor& b);

/// BatchMatMul into caller-provided storage (e.g. a runtime::Workspace
/// block). `out` must already have shape [B,M,N]; its contents are
/// discarded. Numerically identical to BatchMatMul.
void BatchMatMulInto(const Tensor& a, const Tensor& b, Tensor* out);

/// One 2-D operator applied to every slice of a batch (a static graph
/// support over a [B,N,C] signal):
///   C[i] = op(A)[row_begin : row_begin + rows] · B[i]
/// with A [M,K] ([K,M] if trans_a) and B [batch,K,N] -> C [batch, rows, N];
/// rows < 0 means every row of op(A) from row_begin on. Each slice runs the
/// kernel Gemm(A, B[i], trans_a, false) runs — the regime is chosen from the
/// whole product, never the row block — and every output row accumulates
/// over K in the same order whatever other rows are computed. So slice i is
/// bitwise equal to rows [row_begin, row_begin + rows) of that Gemm:
/// batched ≡ single, and a row block ≡ the same rows of the whole product.
Tensor BatchGemmSharedA(const Tensor& a, const Tensor& b, bool trans_a,
                        int64_t row_begin = 0, int64_t rows = -1);

/// Σ_i op(A[i]) · op(B[i]) over the leading dim of two 3-D operands ->
/// [M,N]. Slices accumulate into one output in ascending i, so the sum is
/// bitwise independent of the thread count.
Tensor BatchGemmSum(const Tensor& a, const Tensor& b, bool trans_a,
                    bool trans_b);

// ---------------------------------------------------------------------------
// Movement / restructuring (all produce fresh storage)
// ---------------------------------------------------------------------------

/// Swaps dimensions d0 and d1 (copy).
Tensor Transpose(const Tensor& t, int64_t d0, int64_t d1);

/// Transpose into caller-provided storage. `out` must already have the
/// swapped shape; every element is overwritten. Numerically identical to
/// Transpose.
void TransposeInto(const Tensor& t, int64_t d0, int64_t d1, Tensor* out);

/// 2-D transpose convenience.
Tensor Transpose2D(const Tensor& t);

/// Concatenates along `axis`; all other dims must match.
Tensor Concat(const std::vector<Tensor>& parts, int64_t axis);

/// Concat into caller-provided storage (e.g. a runtime::Workspace block
/// adopted via Tensor::WithStorage). `out` must already have the concat
/// result shape; every element is overwritten. Numerically identical to
/// Concat. The micro-batcher stages [B,N,H,C] forwards through this so
/// steady-state serving never touches the allocator.
void ConcatInto(const std::vector<Tensor>& parts, int64_t axis, Tensor* out);

/// Takes elements [start, start+length) along `axis`.
Tensor Slice(const Tensor& t, int64_t axis, int64_t start, int64_t length);

/// Slice into caller-provided storage. `out` must already have the slice
/// result shape; every element is overwritten. Numerically identical to
/// Slice.
void SliceInto(const Tensor& t, int64_t axis, int64_t start, int64_t length,
               Tensor* out);

/// Zero-pads `before`/`after` elements along `axis`.
Tensor PadAxis(const Tensor& t, int64_t axis, int64_t before, int64_t after);

// ---------------------------------------------------------------------------
// Reductions and normalization
// ---------------------------------------------------------------------------

/// Scalar (rank-0) sum of all elements.
Tensor SumAll(const Tensor& t);
/// Scalar (rank-0) mean of all elements.
Tensor MeanAll(const Tensor& t);
/// Sum over `axis`, keeping it as size 1 if keepdim.
Tensor Sum(const Tensor& t, int64_t axis, bool keepdim);
/// Mean over `axis`, keeping it as size 1 if keepdim.
Tensor Mean(const Tensor& t, int64_t axis, bool keepdim);
/// Numerically stable softmax over the last dimension.
Tensor SoftmaxLastDim(const Tensor& t);

/// SoftmaxLastDim into caller-provided storage. `out` must have t's shape;
/// every element is overwritten. Numerically identical to SoftmaxLastDim.
void SoftmaxLastDimInto(const Tensor& t, Tensor* out);

// ---------------------------------------------------------------------------
// Comparisons (for tests)
// ---------------------------------------------------------------------------

/// True if shapes match and |a-b| <= atol + rtol*|b| elementwise.
bool AllClose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
              float rtol = 1e-4f);

}  // namespace ops
}  // namespace enhancenet

#endif  // ENHANCENET_TENSOR_TENSOR_OPS_H_
