#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"
#include "runtime/context.h"
#include "runtime/parallel.h"

namespace enhancenet {
namespace ops {
namespace {

// Opt-in (runtime::ProfilingEnabled) accounting for the kernels that dominate
// training and serving cost. Handles are resolved once; the off path is a
// single relaxed atomic load per op call, so the hooks are safe to leave
// compiled into release builds.
struct OpsProfile {
  obs::Counter* gemm_calls;
  obs::Counter* gemm_flops;
  obs::Counter* batch_gemm_calls;
  obs::Counter* batch_gemm_slices;
  obs::Counter* batch_gemm_flops;
  obs::Counter* concat_calls;
  obs::Counter* concat_elements;

  static OpsProfile& Get() {
    static OpsProfile profile = [] {
      obs::Registry& registry = obs::Registry::Global();
      OpsProfile p;
      p.gemm_calls = registry.GetCounter("tensor.gemm.calls");
      p.gemm_flops = registry.GetCounter("tensor.gemm.flops");
      p.batch_gemm_calls = registry.GetCounter("tensor.batch_gemm.calls");
      p.batch_gemm_slices = registry.GetCounter("tensor.batch_gemm.slices");
      p.batch_gemm_flops = registry.GetCounter("tensor.batch_gemm.flops");
      p.concat_calls = registry.GetCounter("tensor.concat.calls");
      p.concat_elements = registry.GetCounter("tensor.concat.elements");
      return p;
    }();
    return profile;
  }
};

#define ENHANCENET_RESTRICT __restrict__

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Numerically stable logistic sigmoid, shared by ops::Sigmoid and the GEMM
// gate epilogues so fused and unfused paths are bitwise identical.
inline float StableSigmoidScalar(float x) {
  if (x >= 0) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}

// Strides (in elements) of a row-major tensor with the given shape.
std::vector<int64_t> RowMajorStrides(const Shape& shape) {
  std::vector<int64_t> strides(shape.size(), 1);
  for (int64_t d = static_cast<int64_t>(shape.size()) - 2; d >= 0; --d) {
    strides[d] = strides[d + 1] * shape[d + 1];
  }
  return strides;
}

// True if `suffix` equals the trailing dims of `shape` (rank may be lower).
bool IsSuffixShape(const Shape& suffix, const Shape& shape) {
  if (suffix.size() > shape.size()) return false;
  for (size_t d = 0; d < suffix.size(); ++d) {
    if (suffix[suffix.size() - 1 - d] != shape[shape.size() - 1 - d]) {
      return false;
    }
  }
  return true;
}

// Applies `f` elementwise over the broadcast of a and b.
template <typename BinaryOp>
Tensor BroadcastBinary(const Tensor& a, const Tensor& b, BinaryOp f) {
  // Fast path: identical shapes.
  if (a.shape() == b.shape()) {
    Tensor out = Tensor::Uninitialized(a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    ParallelFor(0, a.numel(), kCostElement, [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = f(pa[i], pb[i]);
    });
    return out;
  }
  // Fast path: scalar operand (rank guard keeps the output shape equal to
  // the true broadcast shape).
  if (b.numel() == 1 && b.dim() <= a.dim()) {
    const float s = b.data()[0];
    Tensor out = Tensor::Uninitialized(a.shape());
    const float* pa = a.data();
    float* po = out.data();
    ParallelFor(0, a.numel(), kCostElement, [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = f(pa[i], s);
    });
    return out;
  }
  if (a.numel() == 1 && a.dim() <= b.dim()) {
    const float s = a.data()[0];
    Tensor out = Tensor::Uninitialized(b.shape());
    const float* pb = b.data();
    float* po = out.data();
    ParallelFor(0, b.numel(), kCostElement, [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = f(s, pb[i]);
    });
    return out;
  }
  // Fast path: bias-style broadcast (b is a trailing block of a, e.g.
  // [R, C] op [C]) — the hot pattern in every gate computation.
  if (b.dim() <= a.dim() && IsSuffixShape(b.shape(), a.shape())) {
    Tensor out = Tensor::Uninitialized(a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    const int64_t inner = b.numel();
    const int64_t rows = a.numel() / std::max<int64_t>(inner, 1);
    ParallelFor(0, rows, inner * kCostElement, [=](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const float* arow = pa + r * inner;
        float* orow = po + r * inner;
        for (int64_t i = 0; i < inner; ++i) orow[i] = f(arow[i], pb[i]);
      }
    });
    return out;
  }
  if (a.dim() <= b.dim() && IsSuffixShape(a.shape(), b.shape())) {
    Tensor out = Tensor::Uninitialized(b.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    const int64_t inner = a.numel();
    const int64_t rows = b.numel() / std::max<int64_t>(inner, 1);
    ParallelFor(0, rows, inner * kCostElement, [=](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const float* brow = pb + r * inner;
        float* orow = po + r * inner;
        for (int64_t i = 0; i < inner; ++i) orow[i] = f(pa[i], brow[i]);
      }
    });
    return out;
  }
  // General case: serial odometer walk (cold path — every hot broadcast
  // pattern in the models hits one of the fast paths above).
  const Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  Tensor out = Tensor::Uninitialized(out_shape);
  const int64_t rank = static_cast<int64_t>(out_shape.size());

  // Effective strides per input: 0 on broadcast dims, padded on the left.
  auto effective_strides = [&](const Shape& s) {
    std::vector<int64_t> strides(static_cast<size_t>(rank), 0);
    const auto native = RowMajorStrides(s);
    const int64_t offset = rank - static_cast<int64_t>(s.size());
    for (int64_t d = 0; d < static_cast<int64_t>(s.size()); ++d) {
      strides[static_cast<size_t>(offset + d)] =
          (s[static_cast<size_t>(d)] == 1) ? 0 : native[static_cast<size_t>(d)];
    }
    return strides;
  };
  const auto sa = effective_strides(a.shape());
  const auto sb = effective_strides(b.shape());

  std::vector<int64_t> index(static_cast<size_t>(rank), 0);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const int64_t n = out.numel();
  int64_t ia = 0;
  int64_t ib = 0;
  for (int64_t i = 0; i < n; ++i) {
    po[i] = f(pa[ia], pb[ib]);
    // Odometer increment.
    for (int64_t d = rank - 1; d >= 0; --d) {
      const size_t du = static_cast<size_t>(d);
      ++index[du];
      ia += sa[du];
      ib += sb[du];
      if (index[du] < out_shape[du]) break;
      ia -= sa[du] * out_shape[du];
      ib -= sb[du] * out_shape[du];
      index[du] = 0;
    }
  }
  return out;
}

// `cost` is f's price per element (runtime/parallel.h units).
template <typename UnaryOp>
Tensor Unary(const Tensor& t, int64_t cost, UnaryOp f) {
  Tensor out = Tensor::Uninitialized(t.shape());
  const float* p = t.data();
  float* po = out.data();
  ParallelFor(0, t.numel(), cost, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) po[i] = f(p[i]);
  });
  return out;
}

// ---------------------------------------------------------------------------
// GEMM
//
// Two regimes, chosen by problem size only (never by thread count, so the
// same input always takes the same code path and the result is bitwise
// independent of ENHANCENET_NUM_THREADS):
//
//  * SmallGemm — the historical serial kernel, extended to read transposed
//    operands in place. Used for tiny products and for per-slice work inside
//    a batch-parallel BatchGemm.
//  * GemmTiledRows — cache-blocked and register-blocked: B is packed into
//    KC x NR column panels, A into MR x KC row panels, and an MR x NR
//    micro-kernel accumulates in registers. A batched product is one
//    parallel region over (slice, row tile) items; each C element is owned
//    by exactly one row tile, and its K-dimension accumulation order
//    (ascending, KC blocks in ascending order) is fixed.
// ---------------------------------------------------------------------------

constexpr int64_t kMR = 8;    // micro-kernel rows
constexpr int64_t kNR = 16;   // micro-kernel cols (one AVX-512 / two AVX2 rows)
constexpr int64_t kKC = 256;  // K cache block (packed panels stay in L1/L2)
constexpr int64_t kNC = 512;  // N cache block
// M cache block, in kMR row tiles: at most kMCTiles tiles of A are packed at
// a time (BLIS-style MC blocking), so the packed-A working set is bounded by
// kMCTiles*kMR x kKC floats (128 x 256 = 128 KiB) per thread instead of
// growing as O(M*KC).
constexpr int64_t kMCTiles = 16;

// Products with at most this many flops (2*M*N*K) use SmallGemm.
constexpr int64_t kSmallGemmFlops = 2 * 48 * 48 * 48;

// Epilogue plumbing threaded through BatchGemmIntoRaw. All pointers are
// slice-local (BatchGemm rebinds them per slice). For the gated kinds the
// accumulation target is the [m, n] pre-activation buffer (`preact_store`
// true when the caller wants it kept) and `z` is the separate [m, n/2]
// output; for everything else the output tensor itself accumulates and `z`
// is unused.
struct EpilogueArgs {
  GemmEpilogue kind = GemmEpilogue::kNone;
  const float* bias = nullptr;  // [n] of the raw product
  float* preact = nullptr;      // [m, n] pre-activation store, may be null
  float* z = nullptr;           // [m, n/2] gated output
  int64_t half = 0;             // n/2 for the gated kinds
};

// Applies a gated epilogue to rows [r0, r1): reads the completed accumulator
// rows (leading dim n), writes z rows (leading dim n/2) and, when requested,
// stores the biased pre-activations back into `preact` (which may alias
// `acc` — reads of both halves happen before the writes for each column).
// Elementwise per output element, so any row partition is bitwise safe.
void ApplyGatedEpilogueRows(const EpilogueArgs& e, const float* acc, int64_t n,
                            int64_t r0, int64_t r1) {
  const int64_t half = e.half;
  const bool glu = e.kind == GemmEpilogue::kBiasGlu;
  for (int64_t r = r0; r < r1; ++r) {
    const float* arow = acc + r * n;
    float* zrow = e.z + r * half;
    float* prow = e.preact ? e.preact + r * n : nullptr;
    for (int64_t j = 0; j < half; ++j) {
      const float sf = arow[j] + e.bias[j];
      const float sg = arow[half + j] + e.bias[half + j];
      if (prow) {
        prow[j] = sf;
        prow[half + j] = sg;
      }
      const float gate = StableSigmoidScalar(sg);
      zrow[j] = (glu ? sf : std::tanh(sf)) * gate;
    }
  }
}

// Serial epilogue application over a whole [m, n] product — the SmallGemm
// companion, called inside whatever chunk owns the slice.
void ApplyEpilogueAllRows(const EpilogueArgs& e, float* c, int64_t m,
                          int64_t n) {
  if (e.half > 0) {
    ApplyGatedEpilogueRows(e, c, n, 0, m);
    return;
  }
  for (int64_t r = 0; r < m; ++r) {
    float* crow = c + r * n;
    float* prow = e.preact ? e.preact + r * n : nullptr;
    for (int64_t j = 0; j < n; ++j) {
      const float s = crow[j] + e.bias[j];
      if (prow) prow[j] = s;
      switch (e.kind) {
        case GemmEpilogue::kBias:
          crow[j] = s;
          break;
        case GemmEpilogue::kBiasTanh:
          crow[j] = std::tanh(s);
          break;
        default:
          crow[j] = StableSigmoidScalar(s);
          break;
      }
    }
  }
}

// Serial GEMM on raw pointers, accumulating C[M,N] += op(A) * op(B).
// Physical layouts: a is (trans_a ? K x M : M x K) with leading dim lda;
// b is (trans_b ? N x K : K x N) with leading dim ldb. Accumulation over K
// is in ascending order for every element in all four variants.
void SmallGemm(const float* ENHANCENET_RESTRICT a, int64_t lda, bool trans_a,
               const float* ENHANCENET_RESTRICT b, int64_t ldb, bool trans_b,
               float* ENHANCENET_RESTRICT c, int64_t m, int64_t k, int64_t n) {
  if (!trans_a && !trans_b) {
    // i-k-j: inner loop streams contiguous rows of B and C.
    for (int64_t i = 0; i < m; ++i) {
      const float* arow = a + i * lda;
      float* crow = c + i * n;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float aik = arow[kk];
        if (aik == 0.0f) continue;
        const float* brow = b + kk * ldb;
        for (int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
  } else if (trans_a && !trans_b) {
    for (int64_t i = 0; i < m; ++i) {
      float* crow = c + i * n;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float aik = a[kk * lda + i];
        if (aik == 0.0f) continue;
        const float* brow = b + kk * ldb;
        for (int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
  } else if (!trans_a && trans_b) {
    // i-j-k: both operand rows are contiguous; dot product per element.
    for (int64_t i = 0; i < m; ++i) {
      const float* arow = a + i * lda;
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * ldb;
        float acc = 0.0f;
        for (int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
        crow[j] += acc;
      }
    }
  } else {
    for (int64_t i = 0; i < m; ++i) {
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * ldb;
        float acc = 0.0f;
        for (int64_t kk = 0; kk < k; ++kk) acc += a[kk * lda + i] * brow[kk];
        crow[j] += acc;
      }
    }
  }
}

// Packs row tiles [t_begin, t_end) of A for K block [pc, pc+kc) into row
// tiles of kMR: dst[it - t_begin][kk][r] = A[it*kMR + r][pc + kk],
// zero-padded past row m. Serial by design: GemmTiledRows calls it inside
// parallel compute chunks, each chunk on its own destination buffer.
void PackATiles(const float* ENHANCENET_RESTRICT a, int64_t lda, bool trans_a,
                int64_t m, int64_t t_begin, int64_t t_end, int64_t pc,
                int64_t kc, float* ENHANCENET_RESTRICT ap) {
  for (int64_t it = t_begin; it < t_end; ++it) {
    float* dst = ap + (it - t_begin) * kc * kMR;
    const int64_t i0 = it * kMR;
    const int64_t mr = std::min(kMR, m - i0);
    if (!trans_a) {
      for (int64_t r = 0; r < kMR; ++r) {
        if (r < mr) {
          const float* src = a + (i0 + r) * lda + pc;
          for (int64_t kk = 0; kk < kc; ++kk) dst[kk * kMR + r] = src[kk];
        } else {
          for (int64_t kk = 0; kk < kc; ++kk) dst[kk * kMR + r] = 0.0f;
        }
      }
    } else {
      for (int64_t kk = 0; kk < kc; ++kk) {
        const float* src = a + (pc + kk) * lda + i0;
        for (int64_t r = 0; r < kMR; ++r) {
          dst[kk * kMR + r] = (r < mr) ? src[r] : 0.0f;
        }
      }
    }
  }
}

// Packs the B panel for cols [jc, jc+nc), K block [pc, pc+kc) into column
// tiles of kNR: bp[tile][kk][r] = B[pc + kk][jc + tile*kNR + r], zero-padded
// past column jc+nc. Serial, like PackATiles: every chunk packs the panels
// of the slices it computes.
void PackBPanel(const float* ENHANCENET_RESTRICT b, int64_t ldb, bool trans_b,
                int64_t jc, int64_t nc, int64_t pc, int64_t kc,
                float* ENHANCENET_RESTRICT bp) {
  const int64_t n_tiles = CeilDiv(nc, kNR);
  for (int64_t jt = 0; jt < n_tiles; ++jt) {
    float* dst = bp + jt * kc * kNR;
    const int64_t j0 = jc + jt * kNR;
    const int64_t nr = std::min(kNR, jc + nc - j0);
    if (!trans_b && nr == kNR) {
      for (int64_t kk = 0; kk < kc; ++kk) {
        std::copy(b + (pc + kk) * ldb + j0, b + (pc + kk) * ldb + j0 + kNR,
                  dst + kk * kNR);
      }
    } else if (!trans_b) {
      for (int64_t kk = 0; kk < kc; ++kk) {
        const float* src = b + (pc + kk) * ldb + j0;
        for (int64_t r = 0; r < kNR; ++r) {
          dst[kk * kNR + r] = (r < nr) ? src[r] : 0.0f;
        }
      }
    } else {
      for (int64_t r = 0; r < kNR; ++r) {
        if (r < nr) {
          const float* src = b + (j0 + r) * ldb + pc;
          for (int64_t kk = 0; kk < kc; ++kk) dst[kk * kNR + r] = src[kk];
        } else {
          for (int64_t kk = 0; kk < kc; ++kk) dst[kk * kNR + r] = 0.0f;
        }
      }
    }
  }
}

// Per-thread packing buffers of the tiled kernel, sized for its largest
// blocks (kMCTiles row tiles of A, a kKC x kNC panel of B) and reused by
// every tiled product the thread computes.
struct PackBuffers {
  std::vector<float> a = std::vector<float>(kMCTiles * kMR * kKC);
  std::vector<float> b = std::vector<float>(kKC * kNC);
};

PackBuffers& ThreadPackBuffers() {
  thread_local PackBuffers buffers;
  return buffers;
}

// One micro-kernel column block: kNR floats. GCC/Clang vector extension —
// compiles to one AVX-512 register, two AVX2 registers, or four SSE
// registers, with identical (IEEE, per-lane) arithmetic everywhere. The
// alignment override permits unaligned loads/stores; may_alias is required
// because the kernel loads/stores through float* via reinterpret_cast, and
// vector types do not alias their element type under TBAA by default.
typedef float VecNR __attribute__((vector_size(kNR * sizeof(float)),
                                   aligned(4), __may_alias__));

// kMR x kNR register-blocked micro-kernel: accumulates ap (kc x kMR packed)
// times bp (kc x kNR packed) into C with edge guards. The accumulator block
// (kMR vector registers) lives in registers across the whole K loop.
//
// When `bias` is non-null this is the final K block for the tile and the
// non-gated epilogue `epi` is folded into the write-back: each element's
// bias add + activation happen while the tile's row is a stack-held view of
// hot cache lines, never as a separate pass. `bias` and `preact` are
// tile-local (already offset to this tile's first column / element; preact
// shares C's leading dimension). Gated epilogues never reach here — they
// need both column halves and are applied per row tile by GemmTiledRows.
void MicroKernel(int64_t kc, const float* ENHANCENET_RESTRICT ap,
                 const float* ENHANCENET_RESTRICT bp,
                 float* ENHANCENET_RESTRICT c, int64_t ldc, int64_t mr,
                 int64_t nr, GemmEpilogue epi = GemmEpilogue::kNone,
                 const float* ENHANCENET_RESTRICT bias = nullptr,
                 float* ENHANCENET_RESTRICT preact = nullptr) {
  VecNR acc[kMR];
  for (int64_t r = 0; r < kMR; ++r) acc[r] = VecNR{};
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* ENHANCENET_RESTRICT av = ap + kk * kMR;
    const VecNR bv = *reinterpret_cast<const VecNR*>(bp + kk * kNR);
    for (int64_t r = 0; r < kMR; ++r) acc[r] += av[r] * bv;
  }
  if (bias != nullptr) {
    for (int64_t r = 0; r < mr; ++r) {
      float* crow = c + r * ldc;
      float* prow = preact ? preact + r * ldc : nullptr;
      for (int64_t j = 0; j < nr; ++j) {
        const float s = crow[j] + acc[r][j] + bias[j];
        if (prow) prow[j] = s;
        switch (epi) {
          case GemmEpilogue::kBias:
            crow[j] = s;
            break;
          case GemmEpilogue::kBiasTanh:
            crow[j] = std::tanh(s);
            break;
          default:
            crow[j] = StableSigmoidScalar(s);
            break;
        }
      }
    }
    return;
  }
  if (mr == kMR && nr == kNR) {
    for (int64_t r = 0; r < kMR; ++r) {
      VecNR* crow = reinterpret_cast<VecNR*>(c + r * ldc);
      *crow += acc[r];
    }
  } else {
    for (int64_t r = 0; r < mr; ++r) {
      float* crow = c + r * ldc;
      for (int64_t j = 0; j < nr; ++j) crow[j] += acc[r][j];
    }
  }
}

// Serial body of the tiled GEMM: accumulates row tiles [t0, t1) of
// C[M,N] += op(A) * op(B); C must be dense row-major with leading dimension
// n. A non-null `epi` is applied exactly once per output element:
// non-gated kinds inside the micro-kernel write-back of the final K block,
// gated kinds per row tile once the final (K block, N block) iteration
// completes the full product row. Each element's K accumulation order
// (ascending, KC blocks in ascending order) is fixed and which tiles share
// a call never changes a tile's packed contents or its single MicroKernel
// call per (pc, jc), so any partition of the tiles is bitwise safe.
void GemmTiledRows(const float* a, int64_t lda, bool trans_a, const float* b,
                   int64_t ldb, bool trans_b, float* c, int64_t m, int64_t k,
                   int64_t n, int64_t t0, int64_t t1,
                   const EpilogueArgs* epi) {
  PackBuffers& buffers = ThreadPackBuffers();
  float* ap_data = buffers.a.data();
  float* bp_data = buffers.b.data();
  for (int64_t pc = 0; pc < k; pc += kKC) {
    const int64_t kc = std::min(kKC, k - pc);
    const bool last_k = pc + kc == k;
    for (int64_t jc = 0; jc < n; jc += kNC) {
      const int64_t nc = std::min(kNC, n - jc);
      const int64_t n_tiles = CeilDiv(nc, kNR);
      const bool micro_epi = epi && epi->half == 0 && last_k;
      PackBPanel(b, ldb, trans_b, jc, nc, pc, kc, bp_data);
      // At most kMCTiles row tiles of A are packed at a time into the
      // cache-sized buffer, then the B panel sweeps over them.
      for (int64_t tb = t0; tb < t1; tb += kMCTiles) {
        const int64_t te = std::min(t1, tb + kMCTiles);
        PackATiles(a, lda, trans_a, m, tb, te, pc, kc, ap_data);
        // jt outer / it inner: the kc x kNR micro-panel of B stays in L1
        // while it sweeps this sub-block's row tiles.
        for (int64_t jt = 0; jt < n_tiles; ++jt) {
          const float* btile = bp_data + jt * kc * kNR;
          const int64_t j0 = jc + jt * kNR;
          const int64_t nr = std::min(kNR, jc + nc - j0);
          for (int64_t it = tb; it < te; ++it) {
            const int64_t i0 = it * kMR;
            const int64_t mr = std::min(kMR, m - i0);
            if (micro_epi) {
              MicroKernel(kc, ap_data + (it - tb) * kc * kMR, btile,
                          c + i0 * n + j0, n, mr, nr, epi->kind,
                          epi->bias + j0,
                          epi->preact ? epi->preact + i0 * n + j0 : nullptr);
            } else {
              MicroKernel(kc, ap_data + (it - tb) * kc * kMR, btile,
                          c + i0 * n + j0, n, mr, nr);
            }
          }
        }
      }
    }
  }
  if (epi && epi->half > 0) {
    ApplyGatedEpilogueRows(*epi, c, n, t0 * kMR, std::min(t1 * kMR, m));
  }
}

// Cost of one kMR-row tile of a tiled product with inner dim k, width n.
int64_t RowTileCost(int64_t k, int64_t n) {
  return 2 * kMR * k * n * kCostFlop;
}

constexpr int64_t kTransposeBlock = 32;

// Writes the [cols, rows] transpose of rank-2 `t` into `po`, which must hold
// t.numel() floats. Every element is overwritten; no zeroing required.
void MaterializeTranspose2DInto(const Tensor& t, float* po) {
  const int64_t rows = t.size(0);
  const int64_t cols = t.size(1);
  const float* p = t.data();
  // Blocked: a kTransposeBlock x kTransposeBlock tile of the input stays in
  // L1 while it is written out column-contiguously. Parallel over output
  // rows (= input columns); pure scatter-free writes, so any partition is
  // bitwise safe.
  ParallelFor(0, cols, rows * kCostElement, [=](int64_t j0, int64_t j1) {
    for (int64_t ib = 0; ib < rows; ib += kTransposeBlock) {
      const int64_t imax = std::min(ib + kTransposeBlock, rows);
      for (int64_t j = j0; j < j1; ++j) {
        float* orow = po + j * rows;
        for (int64_t i = ib; i < imax; ++i) orow[i] = p[i * cols + j];
      }
    }
  });
}

Tensor MaterializeTranspose2D(const Tensor& t) {
  Tensor out = Tensor::Uninitialized(Shape{t.size(1), t.size(0)});
  MaterializeTranspose2DInto(t, out.data());
  return out;
}

}  // namespace

Shape BroadcastShapes(const Shape& a, const Shape& b) {
  const int64_t rank =
      std::max<int64_t>(static_cast<int64_t>(a.size()),
                        static_cast<int64_t>(b.size()));
  Shape out(static_cast<size_t>(rank), 1);
  for (int64_t d = 0; d < rank; ++d) {
    const int64_t da =
        d < static_cast<int64_t>(a.size())
            ? a[a.size() - 1 - static_cast<size_t>(d)]
            : 1;
    const int64_t db =
        d < static_cast<int64_t>(b.size())
            ? b[b.size() - 1 - static_cast<size_t>(d)]
            : 1;
    ENHANCENET_CHECK(da == db || da == 1 || db == 1)
        << "cannot broadcast " << ShapeToString(a) << " with "
        << ShapeToString(b);
    out[out.size() - 1 - static_cast<size_t>(d)] = std::max(da, db);
  }
  return out;
}

Tensor ReduceToShape(const Tensor& t, const Shape& target) {
  if (t.shape() == target) return t.Clone();
  // Verify target broadcasts to t.shape().
  ENHANCENET_CHECK(BroadcastShapes(t.shape(), target) == t.shape())
      << "ReduceToShape: " << ShapeToString(target) << " does not broadcast to "
      << ShapeToString(t.shape());
  // Fast path: target is a trailing block (bias-gradient reduction).
  if (static_cast<int64_t>(target.size()) <= t.dim() &&
      IsSuffixShape(target, t.shape())) {
    Tensor out = Tensor::Zeros(target);
    const int64_t inner = out.numel();
    if (inner > 0) {
      const int64_t rows = t.numel() / inner;
      const float* p = t.data();
      float* po = out.data();
      // Partition over output columns: each column's row-sum is computed by
      // one thread in ascending row order, so the result is bitwise
      // identical for any thread count.
      ParallelFor(0, inner, rows * kCostElement, [=](int64_t i0, int64_t i1) {
        for (int64_t r = 0; r < rows; ++r) {
          const float* row = p + r * inner;
          for (int64_t i = i0; i < i1; ++i) po[i] += row[i];
        }
      });
    }
    return out;
  }
  Tensor out = Tensor::Zeros(target);
  const int64_t rank = t.dim();
  const int64_t offset = rank - out.dim();
  const auto out_strides = RowMajorStrides(target);

  std::vector<int64_t> eff(static_cast<size_t>(rank), 0);
  for (int64_t d = 0; d < out.dim(); ++d) {
    eff[static_cast<size_t>(offset + d)] =
        (target[static_cast<size_t>(d)] == 1)
            ? 0
            : out_strides[static_cast<size_t>(d)];
  }

  std::vector<int64_t> index(static_cast<size_t>(rank), 0);
  const float* p = t.data();
  float* po = out.data();
  const int64_t n = t.numel();
  int64_t io = 0;
  const Shape& ts = t.shape();
  for (int64_t i = 0; i < n; ++i) {
    po[io] += p[i];
    for (int64_t d = rank - 1; d >= 0; --d) {
      const size_t du = static_cast<size_t>(d);
      ++index[du];
      io += eff[du];
      if (index[du] < ts[du]) break;
      io -= eff[du] * ts[du];
      index[du] = 0;
    }
  }
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x + y; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x - y; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x * y; });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x / y; });
}

Tensor Maximum(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return std::max(x, y); });
}

Tensor Neg(const Tensor& t) {
  return Unary(t, kCostElement, [](float x) { return -x; });
}

Tensor Abs(const Tensor& t) {
  return Unary(t, kCostElement, [](float x) { return std::fabs(x); });
}

Tensor Sign(const Tensor& t) {
  return Unary(t, kCostElement,
               [](float x) { return x > 0 ? 1.0f : (x < 0 ? -1.0f : 0.0f); });
}

Tensor Sigmoid(const Tensor& t) {
  return Unary(t, kCostTranscendental,
               [](float x) { return StableSigmoidScalar(x); });
}

Tensor Tanh(const Tensor& t) {
  return Unary(t, kCostTranscendental, [](float x) { return std::tanh(x); });
}

Tensor Relu(const Tensor& t) {
  return Unary(t, kCostElement, [](float x) { return x > 0 ? x : 0.0f; });
}

Tensor ReluMask(const Tensor& t) {
  return Unary(t, kCostElement, [](float x) { return x > 0 ? 1.0f : 0.0f; });
}

Tensor Exp(const Tensor& t) {
  return Unary(t, kCostTranscendental, [](float x) { return std::exp(x); });
}

Tensor Log(const Tensor& t) {
  return Unary(t, kCostTranscendental, [](float x) { return std::log(x); });
}

Tensor Sqrt(const Tensor& t) {
  return Unary(t, kCostElement, [](float x) { return std::sqrt(x); });
}

Tensor Square(const Tensor& t) {
  return Unary(t, kCostElement, [](float x) { return x * x; });
}

Tensor AddScalar(const Tensor& t, float s) {
  return Unary(t, kCostElement, [s](float x) { return x + s; });
}

Tensor MulScalar(const Tensor& t, float s) {
  return Unary(t, kCostElement, [s](float x) { return x * s; });
}

void AxpyInPlace(float alpha, const Tensor& x, Tensor* y) {
  ENHANCENET_CHECK(x.shape() == y->shape())
      << "axpy shape mismatch: " << ShapeToString(x.shape()) << " vs "
      << ShapeToString(y->shape());
  const float* px = x.data();
  float* py = y->data();
  ParallelFor(0, x.numel(), kCostElement, [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) py[i] += alpha * px[i];
  });
}

namespace {

// Acquires a recycled workspace block from the bound RuntimeContext and
// wraps it as a dense tensor — scratch for gated epilogues when the caller
// does not want the pre-activations kept.
Tensor EpilogueScratch(const Shape& shape) {
  int64_t numel = 1;
  for (int64_t d : shape) numel *= d;
  return Tensor::WithStorage(
      runtime::RuntimeContext::Current().workspace().Acquire(numel), shape);
}

// Validates the epilogue operands against the product width n and fills the
// non-accumulator fields of `e`. Returns true if an epilogue is active.
bool CheckEpilogue(GemmEpilogue epilogue, const Tensor* bias, int64_t n,
                   EpilogueArgs* e) {
  if (epilogue == GemmEpilogue::kNone) return false;
  ENHANCENET_CHECK(bias != nullptr) << "gemm epilogue requires a bias tensor";
  ENHANCENET_CHECK(bias->dim() == 1 && bias->size(0) == n)
      << "gemm epilogue bias must be [" << n << "], got "
      << ShapeToString(bias->shape());
  if (IsGatedEpilogue(epilogue)) {
    ENHANCENET_CHECK_EQ(n % 2, 0)
        << "gated gemm epilogue needs an even product width";
    e->half = n / 2;
  }
  e->kind = epilogue;
  e->bias = bias->data();
  return true;
}


struct BatchGemmDims {
  int64_t batch, m, k, n;
};

// Shape checks shared by BatchGemm and BatchMatMulInto.
BatchGemmDims CheckBatchGemmDims(const Tensor& a, const Tensor& b, bool trans_a,
                                 bool trans_b) {
  ENHANCENET_CHECK_EQ(a.dim(), 3);
  ENHANCENET_CHECK_EQ(b.dim(), 3);
  ENHANCENET_CHECK_EQ(a.size(0), b.size(0)) << "batch dims differ";
  BatchGemmDims d;
  d.batch = a.size(0);
  d.m = trans_a ? a.size(2) : a.size(1);
  d.k = trans_a ? a.size(1) : a.size(2);
  const int64_t kb = trans_b ? b.size(2) : b.size(1);
  ENHANCENET_CHECK_EQ(d.k, kb) << "bmm inner dims: " << ShapeToString(a.shape())
                               << " x " << ShapeToString(b.shape());
  d.n = trans_b ? b.size(1) : b.size(2);
  return d;
}

// Slice-local epilogue view: advances the per-slice pointers of `base` to
// batch index i (accumulator stride m*n, gated output stride m*n/2).
EpilogueArgs SliceEpilogue(const EpilogueArgs& base, int64_t i, int64_t m,
                           int64_t n) {
  EpilogueArgs e = base;
  if (e.preact) e.preact += i * m * n;
  if (e.z) e.z += i * m * e.half;
  return e;
}

// Zero-copy operand of the batched kernels: slice i is the dense block at
// data + i*stride with leading dim ld (slice i of a dense [B, R, C] tensor
// sits at offset i*R*C). Stride 0 shares one operand across every slice.
struct SliceOperand {
  const float* data;
  int64_t stride;
  int64_t ld;
};

SliceOperand Slices(const Tensor& t) {
  return {t.data(), t.size(1) * t.size(2), t.size(2)};
}

int64_t SliceFlops(const BatchGemmDims& d) { return 2 * d.m * d.k * d.n; }

void CountBatchGemm(const BatchGemmDims& d) {
  if (!runtime::ProfilingEnabled()) return;
  OpsProfile& profile = OpsProfile::Get();
  profile.batch_gemm_calls->Add();
  profile.batch_gemm_slices->Add(d.batch);
  profile.batch_gemm_flops->Add(d.batch * SliceFlops(d));
}

// Runs the batched product into `pc`, which must point at batch*m*n ZEROED
// floats — the inner kernels accumulate C += op(A)*op(B). Gemm is the
// batch = 1 case. A non-null `epi` holds batch-base pointers; each slice's
// epilogue is applied inside the chunk that computes that slice's rows.
// `regime_flops` picks the kernel: one slice's 2*m*k*n, except for a row
// block of a shared operand, which takes the regime of the whole product so
// its rows keep their bits. Either regime is one parallel region.
void BatchGemmIntoRaw(SliceOperand a, bool trans_a, SliceOperand b,
                      bool trans_b, const BatchGemmDims& d,
                      int64_t regime_flops, float* pc,
                      const EpilogueArgs* epi = nullptr) {
  const int64_t m = d.m;
  const int64_t k = d.k;
  const int64_t n = d.n;
  const int64_t c_stride = m * n;
  if (regime_flops > kSmallGemmFlops) {
    // Work items are (slice, row tile) pairs in slice-major order, so a
    // chunk covers a run of row tiles of one or a few consecutive slices.
    const int64_t m_tiles = CeilDiv(m, kMR);
    ParallelFor(
        0, d.batch * m_tiles, RowTileCost(k, n), [=](int64_t w0, int64_t w1) {
          for (int64_t i = w0 / m_tiles; i * m_tiles < w1; ++i) {
            const int64_t t0 = std::max<int64_t>(w0 - i * m_tiles, 0);
            const int64_t t1 = std::min(w1 - i * m_tiles, m_tiles);
            const EpilogueArgs se =
                epi ? SliceEpilogue(*epi, i, m, n) : EpilogueArgs{};
            GemmTiledRows(a.data + i * a.stride, a.ld, trans_a,
                          b.data + i * b.stride, b.ld, trans_b,
                          pc + i * c_stride, m, k, n, t0, t1,
                          epi ? &se : nullptr);
          }
        });
  } else {
    // Small slices (the per-entity filter banks): several whole slices per
    // chunk.
    const int64_t slice_cost = SliceFlops(d) * kCostFlop;
    ParallelFor(0, d.batch, slice_cost, [=](int64_t b0, int64_t b1) {
      for (int64_t i = b0; i < b1; ++i) {
        SmallGemm(a.data + i * a.stride, a.ld, trans_a, b.data + i * b.stride,
                  b.ld, trans_b, pc + i * c_stride, m, k, n);
        if (epi) {
          const EpilogueArgs se = SliceEpilogue(*epi, i, m, n);
          ApplyEpilogueAllRows(se, pc + i * c_stride, m, n);
        }
      }
    });
  }
}

}  // namespace

bool IsGatedEpilogue(GemmEpilogue epilogue) {
  return epilogue == GemmEpilogue::kBiasGatedTanhSigmoid ||
         epilogue == GemmEpilogue::kBiasGlu;
}

Tensor Gemm(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b,
            GemmEpilogue epilogue, const Tensor* bias, Tensor* preact) {
  ENHANCENET_CHECK_EQ(a.dim(), 2);
  ENHANCENET_CHECK_EQ(b.dim(), 2);
  const int64_t m = trans_a ? a.size(1) : a.size(0);
  const int64_t k = trans_a ? a.size(0) : a.size(1);
  const int64_t kb = trans_b ? b.size(1) : b.size(0);
  ENHANCENET_CHECK_EQ(k, kb) << "gemm inner dims: " << ShapeToString(a.shape())
                             << " x " << ShapeToString(b.shape());
  const int64_t n = trans_b ? b.size(0) : b.size(1);
  if (runtime::ProfilingEnabled()) {
    OpsProfile& profile = OpsProfile::Get();
    profile.gemm_calls->Add();
    profile.gemm_flops->Add(2 * m * k * n);
  }
  const BatchGemmDims d{1, m, k, n};
  const SliceOperand sa{a.data(), 0, a.size(1)};
  const SliceOperand sb{b.data(), 0, b.size(1)};
  EpilogueArgs e;
  const bool has_epi = CheckEpilogue(epilogue, bias, n, &e);
  if (!has_epi || e.half == 0) {
    // The output tensor is the accumulator; any non-gated epilogue folds
    // into its write-back.
    if (preact != nullptr) {
      ENHANCENET_CHECK(epilogue == GemmEpilogue::kBiasTanh ||
                       epilogue == GemmEpilogue::kBiasSigmoid)
          << "gemm preact is only produced by activation epilogues";
      ENHANCENET_CHECK(preact->shape() == (Shape{m, n}))
          << "gemm preact must be [" << m << ", " << n << "]";
      e.preact = preact->data();
    }
    Tensor c(Shape{m, n});
    BatchGemmIntoRaw(sa, trans_a, sb, trans_b, d, SliceFlops(d), c.data(),
                     has_epi ? &e : nullptr);
    return c;
  }
  // Gated: accumulate the full-width product into the pre-activation buffer
  // (caller's, or workspace scratch), then gate into the half-width output.
  Tensor acc;
  if (preact != nullptr) {
    ENHANCENET_CHECK(preact->shape() == (Shape{m, n}))
        << "gemm preact must be [" << m << ", " << n << "]";
    acc = *preact;
    e.preact = acc.data();
  } else {
    acc = EpilogueScratch(Shape{m, n});
  }
  std::fill(acc.data(), acc.data() + acc.numel(), 0.0f);
  Tensor z = Tensor::Uninitialized(Shape{m, e.half});
  e.z = z.data();
  BatchGemmIntoRaw(sa, trans_a, sb, trans_b, d, SliceFlops(d), acc.data(),
                   &e);
  return z;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  return Gemm(a, b, /*trans_a=*/false, /*trans_b=*/false);
}


Tensor BatchGemm(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b,
                 GemmEpilogue epilogue, const Tensor* bias, Tensor* preact) {
  const BatchGemmDims d = CheckBatchGemmDims(a, b, trans_a, trans_b);
  CountBatchGemm(d);
  EpilogueArgs e;
  const bool has_epi = CheckEpilogue(epilogue, bias, d.n, &e);
  if (!has_epi || e.half == 0) {
    if (preact != nullptr) {
      ENHANCENET_CHECK(epilogue == GemmEpilogue::kBiasTanh ||
                       epilogue == GemmEpilogue::kBiasSigmoid)
          << "bmm preact is only produced by activation epilogues";
      ENHANCENET_CHECK(preact->shape() == (Shape{d.batch, d.m, d.n}))
          << "bmm preact shape mismatch";
      e.preact = preact->data();
    }
    Tensor c(Shape{d.batch, d.m, d.n});
    BatchGemmIntoRaw(Slices(a), trans_a, Slices(b), trans_b, d, SliceFlops(d),
                     c.data(), has_epi ? &e : nullptr);
    return c;
  }
  Tensor acc;
  if (preact != nullptr) {
    ENHANCENET_CHECK(preact->shape() == (Shape{d.batch, d.m, d.n}))
        << "bmm preact shape mismatch";
    acc = *preact;
    e.preact = acc.data();
  } else {
    acc = EpilogueScratch(Shape{d.batch, d.m, d.n});
  }
  std::fill(acc.data(), acc.data() + acc.numel(), 0.0f);
  Tensor z = Tensor::Uninitialized(Shape{d.batch, d.m, e.half});
  e.z = z.data();
  BatchGemmIntoRaw(Slices(a), trans_a, Slices(b), trans_b, d, SliceFlops(d),
                   acc.data(), &e);
  return z;
}

Tensor BatchMatMul(const Tensor& a, const Tensor& b) {
  return BatchGemm(a, b, /*trans_a=*/false, /*trans_b=*/false);
}

void BatchMatMulInto(const Tensor& a, const Tensor& b, Tensor* out) {
  ENHANCENET_CHECK(out != nullptr);
  const BatchGemmDims d =
      CheckBatchGemmDims(a, b, /*trans_a=*/false, /*trans_b=*/false);
  const Shape expected{d.batch, d.m, d.n};
  ENHANCENET_CHECK(out->shape() == expected)
      << "BatchMatMulInto: out shape " << ShapeToString(out->shape())
      << " != " << ShapeToString(expected);
  CountBatchGemm(d);
  // The GEMM kernels accumulate, and `out` may be recycled workspace memory
  // holding stale values — zero it first.
  std::fill(out->data(), out->data() + out->numel(), 0.0f);
  BatchGemmIntoRaw(Slices(a), /*trans_a=*/false, Slices(b), /*trans_b=*/false,
                   d, SliceFlops(d), out->data());
}

Tensor BatchGemmSharedA(const Tensor& a, const Tensor& b, bool trans_a,
                        int64_t row_begin, int64_t rows) {
  ENHANCENET_CHECK_EQ(a.dim(), 2);
  ENHANCENET_CHECK_EQ(b.dim(), 3);
  const int64_t m = trans_a ? a.size(1) : a.size(0);
  BatchGemmDims d;
  d.batch = b.size(0);
  d.k = trans_a ? a.size(0) : a.size(1);
  d.n = b.size(2);
  d.m = rows < 0 ? m - row_begin : rows;
  ENHANCENET_CHECK_EQ(d.k, b.size(1))
      << "shared-A bmm inner dims: " << ShapeToString(a.shape()) << " x "
      << ShapeToString(b.shape());
  ENHANCENET_CHECK(row_begin >= 0 && d.m >= 0 && row_begin + d.m <= m)
      << "rows [" << row_begin << ", " << row_begin + d.m << ") outside "
      << m;
  // Row r of op(A) starts at A + r*lda, or at column r of A when transposed.
  const int64_t lda = a.size(1);
  const SliceOperand shared{a.data() + (trans_a ? row_begin : row_begin * lda),
                            /*stride=*/0, lda};
  CountBatchGemm(d);
  Tensor c(Shape{d.batch, d.m, d.n});
  BatchGemmIntoRaw(shared, trans_a, Slices(b), /*trans_b=*/false, d,
                   /*regime_flops=*/2 * m * d.k * d.n, c.data());
  return c;
}

Tensor BatchGemmSum(const Tensor& a, const Tensor& b, bool trans_a,
                    bool trans_b) {
  const BatchGemmDims d = CheckBatchGemmDims(a, b, trans_a, trans_b);
  CountBatchGemm(d);
  const SliceOperand sa = Slices(a);
  const SliceOperand sb = Slices(b);
  // Every slice accumulates into the same output, one after another, each
  // in the regime its own size picks.
  Tensor c(Shape{d.m, d.n});
  float* pc = c.data();
  if (SliceFlops(d) <= kSmallGemmFlops) {
    for (int64_t i = 0; i < d.batch; ++i) {
      SmallGemm(sa.data + i * sa.stride, sa.ld, trans_a,
                sb.data + i * sb.stride, sb.ld, trans_b, pc, d.m, d.k, d.n);
    }
    return c;
  }
  // One region over C's row tiles; each chunk adds the slices in ascending
  // order, so every element sums them in the same order for any partition.
  ParallelFor(0, CeilDiv(d.m, kMR), d.batch * RowTileCost(d.k, d.n),
              [=](int64_t t0, int64_t t1) {
                for (int64_t i = 0; i < d.batch; ++i) {
                  GemmTiledRows(sa.data + i * sa.stride, sa.ld, trans_a,
                                sb.data + i * sb.stride, sb.ld, trans_b, pc,
                                d.m, d.k, d.n, t0, t1, nullptr);
                }
              });
  return c;
}

namespace {

// Generic-rank transpose (d0/d1 already resolved, d0 != d1, rank > 2) writing
// into `po`, which must hold t.numel() floats. Fully overwrites.
void TransposeOdometerInto(const Tensor& t, int64_t d0, int64_t d1,
                           const Shape& out_shape, float* po) {
  const int64_t rank = t.dim();
  const auto in_strides = RowMajorStrides(t.shape());
  auto moved_strides = in_strides;
  std::swap(moved_strides[static_cast<size_t>(d0)],
            moved_strides[static_cast<size_t>(d1)]);

  std::vector<int64_t> index(static_cast<size_t>(rank), 0);
  const float* p = t.data();
  const int64_t n = t.numel();
  int64_t ii = 0;
  for (int64_t i = 0; i < n; ++i) {
    po[i] = p[ii];
    for (int64_t d = rank - 1; d >= 0; --d) {
      const size_t du = static_cast<size_t>(d);
      ++index[du];
      ii += moved_strides[du];
      if (index[du] < out_shape[du]) break;
      ii -= moved_strides[du] * out_shape[du];
      index[du] = 0;
    }
  }
}

}  // namespace

Tensor Transpose(const Tensor& t, int64_t d0, int64_t d1) {
  const int64_t rank = t.dim();
  if (d0 < 0) d0 += rank;
  if (d1 < 0) d1 += rank;
  ENHANCENET_CHECK(d0 >= 0 && d0 < rank && d1 >= 0 && d1 < rank);
  if (d0 == d1) return t.Clone();
  // Rank-2 fast path: cache-blocked transpose instead of the odometer walk.
  if (rank == 2) return MaterializeTranspose2D(t);

  Shape out_shape = t.shape();
  std::swap(out_shape[static_cast<size_t>(d0)],
            out_shape[static_cast<size_t>(d1)]);
  Tensor out = Tensor::Uninitialized(out_shape);
  TransposeOdometerInto(t, d0, d1, out_shape, out.data());
  return out;
}

void TransposeInto(const Tensor& t, int64_t d0, int64_t d1, Tensor* out) {
  ENHANCENET_CHECK(out != nullptr);
  const int64_t rank = t.dim();
  if (d0 < 0) d0 += rank;
  if (d1 < 0) d1 += rank;
  ENHANCENET_CHECK(d0 >= 0 && d0 < rank && d1 >= 0 && d1 < rank);
  Shape out_shape = t.shape();
  std::swap(out_shape[static_cast<size_t>(d0)],
            out_shape[static_cast<size_t>(d1)]);
  ENHANCENET_CHECK(out->shape() == out_shape)
      << "TransposeInto: out shape " << ShapeToString(out->shape())
      << " != " << ShapeToString(out_shape);
  if (d0 == d1) {
    std::copy(t.data(), t.data() + t.numel(), out->data());
    return;
  }
  if (rank == 2) {
    MaterializeTranspose2DInto(t, out->data());
    return;
  }
  TransposeOdometerInto(t, d0, d1, out_shape, out->data());
}

Tensor Transpose2D(const Tensor& t) {
  ENHANCENET_CHECK_EQ(t.dim(), 2);
  return MaterializeTranspose2D(t);
}

namespace {

// Shared shape computation for Concat/ConcatInto: normalizes `axis` in
// place, checks that all parts agree on every other dimension, and returns
// the concatenated shape.
Shape ConcatOutShape(const std::vector<Tensor>& parts, int64_t* axis) {
  ENHANCENET_CHECK(!parts.empty());
  const int64_t rank = parts[0].dim();
  if (*axis < 0) *axis += rank;
  ENHANCENET_CHECK(*axis >= 0 && *axis < rank);

  Shape out_shape = parts[0].shape();
  int64_t axis_total = 0;
  for (const Tensor& p : parts) {
    ENHANCENET_CHECK_EQ(p.dim(), rank);
    for (int64_t d = 0; d < rank; ++d) {
      if (d != *axis) {
        ENHANCENET_CHECK_EQ(p.size(d), parts[0].size(d))
            << "concat dim " << d << " mismatch";
      }
    }
    axis_total += p.size(*axis);
  }
  out_shape[static_cast<size_t>(*axis)] = axis_total;
  return out_shape;
}

}  // namespace

void ConcatInto(const std::vector<Tensor>& parts, int64_t axis, Tensor* out) {
  ENHANCENET_CHECK(out != nullptr);
  const Shape out_shape = ConcatOutShape(parts, &axis);
  ENHANCENET_CHECK(out->shape() == out_shape)
      << "ConcatInto: out has shape " << ShapeToString(out->shape())
      << ", expected " << ShapeToString(out_shape);
  const int64_t rank = parts[0].dim();
  if (runtime::ProfilingEnabled()) {
    OpsProfile& profile = OpsProfile::Get();
    profile.concat_calls->Add();
    profile.concat_elements->Add(out->numel());
  }

  // outer = product of dims before axis; inner = product after.
  int64_t outer = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= out_shape[static_cast<size_t>(d)];
  int64_t inner = 1;
  for (int64_t d = axis + 1; d < rank; ++d) {
    inner *= out_shape[static_cast<size_t>(d)];
  }

  float* po = out->data();
  const int64_t out_row = out_shape[static_cast<size_t>(axis)] * inner;
  int64_t axis_offset = 0;
  for (const Tensor& p : parts) {
    const int64_t p_axis = p.size(axis);
    const float* pp = p.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::copy(pp + o * p_axis * inner, pp + (o + 1) * p_axis * inner,
                po + o * out_row + axis_offset * inner);
    }
    axis_offset += p_axis;
  }
}

Tensor Concat(const std::vector<Tensor>& parts, int64_t axis) {
  Tensor out = Tensor::Uninitialized(ConcatOutShape(parts, &axis));
  ConcatInto(parts, axis, &out);
  return out;
}

void SliceInto(const Tensor& t, int64_t axis, int64_t start, int64_t length,
               Tensor* out) {
  ENHANCENET_CHECK(out != nullptr);
  const int64_t rank = t.dim();
  if (axis < 0) axis += rank;
  ENHANCENET_CHECK(axis >= 0 && axis < rank);
  ENHANCENET_CHECK(start >= 0 && length >= 0 && start + length <= t.size(axis))
      << "slice [" << start << ", " << start + length << ") of dim "
      << t.size(axis);

  Shape out_shape = t.shape();
  out_shape[static_cast<size_t>(axis)] = length;
  ENHANCENET_CHECK(out->shape() == out_shape)
      << "SliceInto: out has shape " << ShapeToString(out->shape())
      << ", expected " << ShapeToString(out_shape);

  int64_t outer = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= t.size(d);
  int64_t inner = 1;
  for (int64_t d = axis + 1; d < rank; ++d) inner *= t.size(d);

  const float* p = t.data();
  float* po = out->data();
  const int64_t in_row = t.size(axis) * inner;
  const int64_t out_row = length * inner;
  for (int64_t o = 0; o < outer; ++o) {
    std::copy(p + o * in_row + start * inner,
              p + o * in_row + (start + length) * inner, po + o * out_row);
  }
}

Tensor Slice(const Tensor& t, int64_t axis, int64_t start, int64_t length) {
  const int64_t rank = t.dim();
  if (axis < 0) axis += rank;
  ENHANCENET_CHECK(axis >= 0 && axis < rank);
  ENHANCENET_CHECK(start >= 0 && length >= 0 && start + length <= t.size(axis))
      << "slice [" << start << ", " << start + length << ") of dim "
      << t.size(axis);
  Shape out_shape = t.shape();
  out_shape[static_cast<size_t>(axis)] = length;
  Tensor out = Tensor::Uninitialized(out_shape);
  SliceInto(t, axis, start, length, &out);
  return out;
}

Tensor PadAxis(const Tensor& t, int64_t axis, int64_t before, int64_t after) {
  const int64_t rank = t.dim();
  if (axis < 0) axis += rank;
  ENHANCENET_CHECK(axis >= 0 && axis < rank);
  ENHANCENET_CHECK(before >= 0 && after >= 0);
  if (before == 0 && after == 0) return t.Clone();

  Shape out_shape = t.shape();
  out_shape[static_cast<size_t>(axis)] += before + after;
  Tensor out(out_shape);  // zero-initialized

  int64_t outer = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= t.size(d);
  int64_t inner = 1;
  for (int64_t d = axis + 1; d < rank; ++d) inner *= t.size(d);

  const float* p = t.data();
  float* po = out.data();
  const int64_t in_row = t.size(axis) * inner;
  const int64_t out_row = out_shape[static_cast<size_t>(axis)] * inner;
  for (int64_t o = 0; o < outer; ++o) {
    std::copy(p + o * in_row, p + (o + 1) * in_row,
              po + o * out_row + before * inner);
  }
  return out;
}

Tensor SumAll(const Tensor& t) {
  const float* p = t.data();
  const double acc = ParallelSum(t.numel(), [=](int64_t lo, int64_t hi) {
    double s = 0.0;
    for (int64_t i = lo; i < hi; ++i) s += p[i];
    return s;
  });
  return Tensor::Scalar(static_cast<float>(acc));
}

Tensor MeanAll(const Tensor& t) {
  ENHANCENET_CHECK_GT(t.numel(), 0);
  return Tensor::Scalar(SumAll(t).item() / static_cast<float>(t.numel()));
}

Tensor Sum(const Tensor& t, int64_t axis, bool keepdim) {
  const int64_t rank = t.dim();
  if (axis < 0) axis += rank;
  ENHANCENET_CHECK(axis >= 0 && axis < rank);

  int64_t outer = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= t.size(d);
  const int64_t mid = t.size(axis);
  int64_t inner = 1;
  for (int64_t d = axis + 1; d < rank; ++d) inner *= t.size(d);

  Shape out_shape = t.shape();
  if (keepdim) {
    out_shape[static_cast<size_t>(axis)] = 1;
  } else {
    out_shape.erase(out_shape.begin() + static_cast<size_t>(axis));
  }
  Tensor out(out_shape);

  const float* p = t.data();
  float* po = out.data();
  if (outer > 1) {
    // Partition over the outer dimension; each output block po[o*inner ..]
    // is owned by one thread and accumulated in ascending `mid` order.
    const int64_t block_cost = mid * inner * kCostElement;
    ParallelFor(0, outer, block_cost, [=](int64_t o0, int64_t o1) {
      for (int64_t o = o0; o < o1; ++o) {
        float* orow = po + o * inner;
        for (int64_t m = 0; m < mid; ++m) {
          const float* row = p + (o * mid + m) * inner;
          for (int64_t i = 0; i < inner; ++i) orow[i] += row[i];
        }
      }
    });
  } else {
    // Axis 0 of a flat tensor: partition over output columns instead.
    ParallelFor(0, inner, mid * kCostElement, [=](int64_t i0, int64_t i1) {
      for (int64_t m = 0; m < mid; ++m) {
        const float* row = p + m * inner;
        for (int64_t i = i0; i < i1; ++i) po[i] += row[i];
      }
    });
  }
  return out;
}

Tensor Mean(const Tensor& t, int64_t axis, bool keepdim) {
  const int64_t rank = t.dim();
  const int64_t resolved = axis < 0 ? axis + rank : axis;
  Tensor s = Sum(t, axis, keepdim);
  return MulScalar(s, 1.0f / static_cast<float>(t.size(resolved)));
}

namespace {

// Row-wise softmax of `t` into `po` (t.numel() floats). Fully overwrites.
void SoftmaxRowsInto(const Tensor& t, float* po) {
  const int64_t cols = t.size(-1);
  const int64_t rows = t.numel() / cols;
  const float* p = t.data();
  // Per element: one exp plus the max, sum and scale passes.
  const int64_t row_cost = cols * (kCostTranscendental + 3 * kCostElement);
  ParallelFor(0, rows, row_cost, [=](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* row = p + r * cols;
      float* orow = po + r * cols;
      float mx = row[0];
      for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, row[c]);
      // Fully-masked row (every score -inf): exp(-inf - -inf) would turn the
      // whole row into NaNs. Fall back to a uniform distribution instead;
      // rows with any finite score are untouched (bitwise).
      if (mx == -std::numeric_limits<float>::infinity()) {
        const float uniform = 1.0f / static_cast<float>(cols);
        for (int64_t c = 0; c < cols; ++c) orow[c] = uniform;
        continue;
      }
      double denom = 0.0;
      for (int64_t c = 0; c < cols; ++c) {
        orow[c] = std::exp(row[c] - mx);
        denom += orow[c];
      }
      const float inv = static_cast<float>(1.0 / denom);
      for (int64_t c = 0; c < cols; ++c) orow[c] *= inv;
    }
  });
}

}  // namespace

Tensor SoftmaxLastDim(const Tensor& t) {
  ENHANCENET_CHECK_GE(t.dim(), 1);
  Tensor out = Tensor::Uninitialized(t.shape());
  SoftmaxRowsInto(t, out.data());
  return out;
}

void SoftmaxLastDimInto(const Tensor& t, Tensor* out) {
  ENHANCENET_CHECK(out != nullptr);
  ENHANCENET_CHECK_GE(t.dim(), 1);
  ENHANCENET_CHECK(out->shape() == t.shape())
      << "SoftmaxLastDimInto: out shape " << ShapeToString(out->shape())
      << " != " << ShapeToString(t.shape());
  SoftmaxRowsInto(t, out->data());
}

bool AllClose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (a.shape() != b.shape()) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) {
    const float diff = std::fabs(pa[i] - pb[i]);
    if (diff > atol + rtol * std::fabs(pb[i])) return false;
    if (std::isnan(pa[i]) != std::isnan(pb[i])) return false;
  }
  return true;
}

}  // namespace ops
}  // namespace enhancenet
