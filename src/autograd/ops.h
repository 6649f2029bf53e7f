#ifndef ENHANCENET_AUTOGRAD_OPS_H_
#define ENHANCENET_AUTOGRAD_OPS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "autograd/variable.h"
#include "common/rng.h"
#include "tensor/tensor_ops.h"

namespace enhancenet {
namespace autograd {

// Differentiable operations on Variables. Each returns a new Variable; if no
// input requires a gradient, the result is a detached leaf (no graph is
// recorded). Shapes follow the semantics of the corresponding kernels in
// tensor/tensor_ops.h.

// --- elementwise binary (broadcasting) -------------------------------------
Variable Add(const Variable& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);

// --- elementwise unary -------------------------------------------------------
Variable Neg(const Variable& v);
Variable Abs(const Variable& v);
Variable Sigmoid(const Variable& v);
Variable Tanh(const Variable& v);
Variable Relu(const Variable& v);
Variable Exp(const Variable& v);
Variable Log(const Variable& v);
Variable Sqrt(const Variable& v);
Variable Square(const Variable& v);

// --- scalar ------------------------------------------------------------------
Variable AddScalar(const Variable& v, float s);
Variable MulScalar(const Variable& v, float s);

// --- linear algebra ----------------------------------------------------------
/// C[M,N] = A[M,K] * B[K,N].
Variable MatMul(const Variable& a, const Variable& b);
/// C[B,M,N] = A[B,M,K] * B[B,K,N].
Variable BatchMatMul(const Variable& a, const Variable& b);
/// C[M,N] = A[M,K] * B[K,N] + bias[N], with the bias add folded into the
/// GEMM's write-back loop (ops::GemmEpilogue::kBias) instead of a separate
/// full-tensor Add pass. One graph node instead of two; forward values are
/// bitwise identical to Add(MatMul(a, b), bias) and gradients match exactly
/// (dA = g·Bᵀ, dB = Aᵀ·g, dbias = column-sum of g — the same kernels the
/// unfused pair runs). nn::Linear routes every biased forward through this.
Variable MatMulBias(const Variable& a, const Variable& b,
                    const Variable& bias);

// --- movement ----------------------------------------------------------------
Variable Transpose(const Variable& v, int64_t d0, int64_t d1);
Variable Reshape(const Variable& v, Shape new_shape);
Variable Concat(const std::vector<Variable>& parts, int64_t axis);
Variable Slice(const Variable& v, int64_t axis, int64_t start, int64_t length);
Variable PadAxis(const Variable& v, int64_t axis, int64_t before,
                 int64_t after);

// --- reductions / normalization ----------------------------------------------
Variable SumAll(const Variable& v);
Variable MeanAll(const Variable& v);
Variable Sum(const Variable& v, int64_t axis, bool keepdim);
Variable Mean(const Variable& v, int64_t axis, bool keepdim);
Variable SoftmaxLastDim(const Variable& v);

// --- fused recurrent-cell kernels --------------------------------------------
// Single-pass replacements for the Slice/Sigmoid/Tanh/Mul chains inside the
// recurrent cells. Each op computes its outputs in one ParallelFor sweep and
// records one graph node with a matching single-pass backward, instead of the
// ~10 tiny nodes (and their per-node output + backward-aux allocations) the
// unfused chain emits per cell step. Forward values match the unfused chain
// bitwise (same per-element arithmetic order); gradients agree to float
// rounding (the unfused graph accumulates partial grads in a different
// order). See DESIGN.md §8 for the equivalence argument.

/// Fused GRU cell tail. Inputs are the two gate GEMM outputs
///   gx = x·Wx + b  [rows, 3H] (gate order r, u, candidate)
///   gh = h·Wh      [rows, 3H]
/// and the previous hidden state h [rows, H]. Computes
///   r = σ(gx_r + gh_r),  u = σ(gx_u + gh_u),
///   c = tanh(gx_c + r ⊙ gh_c),  h' = u ⊙ h + (1-u) ⊙ c.
/// Leading dimensions may be any rank (flattened to rows); the last dim of
/// gx/gh must be exactly 3x that of h.
Variable FusedGruCell(const Variable& gx, const Variable& gh,
                      const Variable& h);

/// Fused LSTM cell tail. `gates` [rows, 4H] holds the summed pre-activations
/// in gate order i, f, g, o; `c_prev` is [rows, H]. Computes
///   i = σ(g_i), f = σ(g_f), g = tanh(g_g), o = σ(g_o),
///   c' = f ⊙ c_prev + i ⊙ g,  h' = o ⊙ tanh(c').
/// Emits two graph nodes (h', c') that share one saved-activation set; each
/// node owns the complete chain rule for its output, so gradients arriving
/// through h' and c' (both feed the next step) accumulate correctly.
void FusedLstmCell(const Variable& gates, const Variable& c_prev,
                   Variable* h_new, Variable* c_new);

/// Fused GRU state combine: u ⊙ h + (1-u) ⊙ c in one pass. Used by cells
/// whose gates come from separate graph transforms (core::EnhanceGruCell,
/// where the candidate depends on r through a second graph convolution).
/// All three inputs must share one shape.
Variable GruCombine(const Variable& u, const Variable& h, const Variable& c);

/// Fused r/u gate tail for cells whose candidate needs r before its own
/// transform (core::EnhanceGruCell): from `gates` [rows, 2H] (order r, u)
/// and h [rows, H] computes
///   r = σ(gates_r),  *rh = r ⊙ h,  *u = σ(gates_u)
/// as two graph nodes instead of the five-node Slice/Sigmoid/Mul chain.
/// r itself is not exposed — callers only consume r through rh.
void FusedGruGates(const Variable& gates, const Variable& h, Variable* rh,
                   Variable* u);

// --- fused gated convolution (TCN / STGCN family) ----------------------------
// Single-node replacements for the dilated-causal-conv + gate chains of
// DESIGN.md Eq. 8. Instead of K tap GEMMs + Adds + bias Add + the
// Slice/Tanh/Sigmoid/Mul gating tail (~4K graph nodes per layer call), the K
// dilated tap windows of the input are gathered into one stacked
// [rows, K·C] operand and multiplied against the pre-concatenated tap
// weights in a single GEMM whose gated epilogue emits
//   z = tanh(f) ⊙ σ(g)   (kBiasGatedTanhSigmoid)  or
//   z = f ⊙ σ(g)         (kBiasGlu)
// directly. The stacked operand, gradient scratch, and no-grad
// pre-activations are staged through the bound RuntimeContext's Workspace;
// only the biased pre-activations are saved for the single-pass backward,
// which recomputes the gate values from them. Forward and backward
// parallelise over (batch, entity) rows — each owned by one chunk — so
// results are bitwise invariant across thread counts. See DESIGN.md §8.

/// Shared-filter fused gated conv. x is [B,N,T,C]; `weight` [K·C, 2C'] holds
/// the K tap kernels concatenated along dim 0 in tap order (tap k occupies
/// rows [k·C, (k+1)·C)); `bias` is [2C']. Tap k of output step t reads input
/// step t + k·dilation − pad_left (zero outside [0,T)), so
/// pad_left = dilation·(K−1) reproduces the causal left-padded conv and
/// pad_left = 0 the valid conv. Returns [B,N,T_out,C'] with
/// T_out = T + pad_left − dilation·(K−1). `gate` must be one of the two
/// gated epilogues.
Variable FusedGatedConv(const Variable& x, const Variable& weight,
                        const Variable& bias, int64_t kernel, int64_t dilation,
                        int64_t pad_left, ops::GemmEpilogue gate);

/// Per-entity (DFGN) fused gated conv: entity i uses its own filter bank.
/// `filters` is [N, K·C·2C'] exactly as core::Dfgn::Generate emits it
/// (k-major, input-channel-minor rows) — viewed as [N, K·C, 2C'] without a
/// copy — and the stacked taps run through one BatchGemm over entities with
/// the same gated epilogue. Shapes and semantics otherwise match
/// FusedGatedConv.
Variable FusedGatedConvPerEntity(const Variable& x, const Variable& filters,
                                 const Variable& bias, int64_t kernel,
                                 int64_t dilation, int64_t pad_left,
                                 ops::GemmEpilogue gate);

/// Fused graph-convolution mix for a 2-D adjacency: out[b,i,:] = Σ_j
/// adj[i,j] · x[b,j,:] with adj [N,N] and x [B,N,C], computed directly in
/// [B,N,C] layout. Replaces the Transpose/Reshape/MatMul/Reshape/Transpose
/// five-node chain (and its two full-tensor copies in each direction) that
/// the unfused path pays per support application. Every direction runs on
/// the tiled GEMM (ops::BatchGemmSharedA / BatchGemmSum): each output slice
/// is bitwise equal to the same op on that slice alone, and to any row
/// block of it computed on its own (the entity-sharded apply, DESIGN.md
/// §12).
Variable AdjacencyMatMul(const Variable& adj, const Variable& x);

// --- sparse dynamic adjacency ------------------------------------------------
// Kernels for the top-k sparsified DAMGN attention (DESIGN.md §10). A sparse
// adjacency is a CSR-style triple (row offsets, column indices, values); the
// float values ride ordinary Tensors while the integer index arrays use
// dedicated int32 storage drawn from the bound RuntimeContext's Workspace,
// so both stay allocation-free in steady state.

/// A pooled int32 index buffer. Replaces the historical float-encoded index
/// Tensors (exact only below 2^24): int32 represents every entity id and
/// entry offset a 10^6-row plan produces. Storage comes from the bound
/// context's Workspace int arena (AcquireIndexArray), so steady-state reuse
/// is exact-numel pooled like float scratch.
struct IntArray {
  std::shared_ptr<int32_t[]> storage;
  int64_t numel = 0;

  int32_t* data() { return storage.get(); }
  const int32_t* data() const { return storage.get(); }
  bool defined() const { return storage != nullptr; }
};

/// int32 storage for `numel` entries from the bound context's Workspace.
/// Contents are NOT initialized.
IntArray AcquireIndexArray(int64_t numel);

/// Shared index pattern of a CSR-style sparse adjacency, stored as int32
/// end-to-end (see IntArray above). Rows have uniform degree
/// kk = nnz/(batch·n) — row_offsets is the authoritative CSR iteration
/// bound, the uniform degree is what lets kernels map a flat entry back to
/// its source row in O(1). The transpose half (t_row_offsets / t_perm)
/// groups the same entries by target column; it is built once per pattern
/// with a deterministic counting sort so transposed applies and backward
/// passes stay bitwise-reproducible under any thread count.
struct SparseIndex {
  IntArray cols;           ///< [batch·n·kk] neighbour column of each entry
  IntArray row_offsets;    ///< [batch·n + 1] CSR row offsets
  IntArray t_row_offsets;  ///< [batch·n + 1] CSC (transpose) offsets
  IntArray t_perm;         ///< [nnz] flat entry indices grouped by column
  int64_t batch = 0;
  int64_t n = 0;
  int64_t nnz = 0;
};

/// Builds the transpose (CSC) half of `index` from cols/row_offsets.
void BuildSparseTranspose(SparseIndex* index);

/// Fused dense attention probabilities softmax(e_src·e_dstᵀ) over the last
/// dim: e_src/e_dst [B,N,e] -> [B,N,N]. The φ-transpose and raw scores are
/// staged in the bound context's Workspace in training too, so the recorded
/// graph retains only the probability tensor (the unfused chain pins both
/// full-size intermediates). Forward values are bitwise identical to the
/// unfused BatchMatMul/Transpose/SoftmaxLastDim chain; gradients agree to
/// float rounding (single-pass accumulation order differs).
Variable AttentionProbs(const Variable& e_src, const Variable& e_dst);

/// Fused top-k attention: selects, per row of the raw score matrix
/// e_src·e_dstᵀ, the k strongest neighbours (row-local selection, no full
/// sort; softmax is monotonic so selecting on raw scores equals selecting on
/// probabilities), then softmax-normalizes the selected scores. Ties break
/// toward the lowest column index and selected columns are stored ascending,
/// so at k >= N the values reproduce the dense softmax row bitwise. Fully
/// masked rows (every selected score -inf) fall back to uniform 1/kk.
/// Returns values [B,N,kk] with kk = min(k,N) and fills `*index`.
Variable TopKAttention(const Variable& e_src, const Variable& e_dst, int64_t k,
                       SparseIndex* index);

/// Sparse adjacency application y[b,i,:] = Σ_s values[b,i,s]·x[b,cols,:]
/// (transpose_adj applies the transposed adjacency via the CSC half).
/// Forward and the single-pass backward parallelise over entity rows; every
/// output row is written entirely by its owning ParallelFor chunk, so results
/// are bitwise invariant across thread counts.
Variable SparseAdjacencyMatMul(const Variable& values, const SparseIndex& index,
                               const Variable& x, bool transpose_adj = false);

// --- regularization ----------------------------------------------------------
/// Inverted dropout: zeroes elements with probability p and scales the rest
/// by 1/(1-p). Identity when !training or p == 0.
Variable Dropout(const Variable& v, float p, bool training, Rng& rng);

}  // namespace autograd
}  // namespace enhancenet

#endif  // ENHANCENET_AUTOGRAD_OPS_H_
