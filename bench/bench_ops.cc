// Micro-benchmarks of the substrate operations that dominate training cost,
// plus the two ablations called out in DESIGN.md:
//  * batched-GEMM entity filters vs. a naive per-entity loop (design
//    decision 2);
//  * DFGN filter generation vs. a full per-entity filter lookup of the same
//    logical size (design decision 3 — generation cost is what Table V's
//    "D-" training overhead comes from).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "autograd/grad_mode.h"
#include "autograd/ops.h"
#include "bench_common.h"
#include "core/damgn.h"
#include "core/dfgn.h"
#include "graph/adjacency.h"
#include "graph/graph_conv.h"
#include "graph/sparse_adjacency.h"
#include "obs/metrics.h"
#include "runtime/context.h"
#include "runtime/parallel.h"
#include "shard/executor.h"
#include "shard/halo.h"
#include "shard/shard_plan.h"
#include "tensor/tensor_ops.h"

namespace enhancenet {
namespace {

namespace ag = ::enhancenet::autograd;

void BM_Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
// The GEMM rows time wall clock and charge the CPU of every thread:
// Google Benchmark's default CPU column counts only the calling thread, which
// hides what a pool region costs.
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_GemmProfiled(benchmark::State& state) {
  // Same kernel as BM_Gemm with the opt-in profiling hooks live; the
  // BENCH_ops.json delta between the two is the observability overhead the
  // registry adds to a hot kernel (budget: < 2%).
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  runtime::SetProfilingEnabled(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatMul(a, b));
  }
  runtime::SetProfilingEnabled(false);
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmProfiled)->Arg(32)->Arg(64)->Arg(128)->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_BatchGemmEntityFilters(benchmark::State& state) {
  // The fundamental D-RNN operation: per-entity filters as one bmm.
  const int64_t entities = state.range(0);
  const int64_t rows = 8;   // batch
  const int64_t c_in = 17;  // C + C'
  const int64_t c_out = 32;
  Rng rng(1);
  Tensor x = Tensor::Randn({entities, rows, c_in}, rng);
  Tensor w = Tensor::Randn({entities, c_in, c_out}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::BatchMatMul(x, w));
  }
}
BENCHMARK(BM_BatchGemmEntityFilters)->Arg(32)->Arg(128)->Arg(207)
    ->UseRealTime()->MeasureProcessCPUTime();

void BM_BatchGemmBigSlices(benchmark::State& state) {
  // [B, N, N] x [B, N, C] products on the tiled path at production shapes:
  // the DAMGN hop apply of train-207 (B=8, 18 channels), a serving-width
  // apply (B=4, 64 channels) and the N=1024 static-part apply (B=1).
  const int64_t batch = state.range(0);
  const int64_t n = state.range(1);
  const int64_t c = state.range(2);
  Rng rng(1);
  Tensor a = Tensor::Randn({batch, n, n}, rng);
  Tensor x = Tensor::Randn({batch, n, c}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::BatchMatMul(a, x));
  }
  state.SetItemsProcessed(state.iterations() * batch * 2 * n * n * c);
}
BENCHMARK(BM_BatchGemmBigSlices)
    ->Args({8, 207, 18})
    ->Args({4, 207, 64})
    ->Args({1, 1024, 64})
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_PerEntityLoopFilters(benchmark::State& state) {
  // Ablation baseline: the same computation as a per-entity GEMM loop.
  const int64_t entities = state.range(0);
  const int64_t rows = 8;
  const int64_t c_in = 17;
  const int64_t c_out = 32;
  Rng rng(1);
  Tensor x = Tensor::Randn({entities, rows, c_in}, rng);
  Tensor w = Tensor::Randn({entities, c_in, c_out}, rng);
  for (auto _ : state) {
    for (int64_t e = 0; e < entities; ++e) {
      Tensor xe = ops::Slice(x, 0, e, 1).Reshape({rows, c_in});
      Tensor we = ops::Slice(w, 0, e, 1).Reshape({c_in, c_out});
      benchmark::DoNotOptimize(ops::MatMul(xe, we));
    }
  }
}
BENCHMARK(BM_PerEntityLoopFilters)->Arg(32)->Arg(128)->Arg(207);

void BM_GraphConvStatic(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor dist = Tensor::RandUniform({n, n}, rng, 0.1f, 10.0f);
  Tensor adjacency = graph::GaussianKernelAdjacency(dist);
  ag::Variable adj = ag::Variable::Leaf(graph::RowNormalize(adjacency), false);
  ag::Variable x = ag::Variable::Leaf(Tensor::Randn({8, n, 32}, rng), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::ApplyAdjacency(adj, x));
  }
}
BENCHMARK(BM_GraphConvStatic)->Arg(32)->Arg(128)->Arg(207);

void BM_DfgnGenerate(benchmark::State& state) {
  // Generating GRU filters for N entities: o = 3 * mixed_in * C'.
  const int64_t entities = state.range(0);
  Rng rng(1);
  core::Dfgn dfgn(/*memory_dim=*/16, /*hidden1=*/16, /*hidden2=*/4,
                  /*output_size=*/3 * 85 * 16, rng);
  ag::Variable memory =
      ag::Variable::Leaf(Tensor::Randn({entities, 16}, rng), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfgn.Generate(memory));
  }
}
BENCHMARK(BM_DfgnGenerate)->Arg(32)->Arg(128)->Arg(207);

void BM_FullFilterBankCopy(benchmark::State& state) {
  // Ablation baseline for DFGN: materializing a straightforward-method
  // filter bank of the same logical size (N x o floats).
  const int64_t entities = state.range(0);
  Rng rng(1);
  Tensor bank = Tensor::Randn({entities, 3 * 85 * 16}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bank.Clone());
  }
}
BENCHMARK(BM_FullFilterBankCopy)->Arg(32)->Arg(128)->Arg(207);

void BM_DamgnCombined(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor dist = Tensor::RandUniform({n, n}, rng, 0.1f, 10.0f);
  Tensor adjacency = graph::GaussianKernelAdjacency(dist);
  core::Damgn damgn(adjacency, n, /*in_channels=*/1, /*mem_dim=*/10,
                    /*embed_dim=*/8, rng);
  ag::Variable x = ag::Variable::Leaf(Tensor::Randn({8, n, 1}, rng), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(damgn.Combined(x));
  }
}
BENCHMARK(BM_DamgnCombined)->Arg(32)->Arg(128)->Arg(207);

// --- sparse top-k dynamic adjacency (DESIGN.md §10) -------------------------
//
// Dense-vs-sparse N-sweep for the adjacency-application stage. The dense row
// is the [B,N,N]·[B,N,C] batched GEMM the dense dynamic path pays per
// support; the sparse row applies a k-neighbour CSR pattern to the same
// signal. The pattern is built once outside the timing loop — what is
// measured is the per-step apply cost, the term that scales O(N²) vs O(N·k).
// The dense 10k GEMM only runs under ENHANCENET_FULL=1; it is registered in
// main() so default runs stay minutes, not hours.

constexpr int64_t kSparseChannels = 32;

/// A uniform-degree k-neighbour CSR pattern with a deterministic strided
/// column layout. Content does not matter for apply throughput; building it
/// synthetically keeps the N=10k sweep from materializing a 400 MB dense
/// matrix just to select neighbours from it.
graph::SparseAdjacency MakeStridedPattern(int64_t n, int64_t k, Rng& rng) {
  graph::SparseAdjacency sparse;
  sparse.index.batch = 1;
  sparse.index.n = n;
  sparse.index.nnz = n * k;
  sparse.index.cols = ag::AcquireIndexArray(n * k);
  sparse.index.row_offsets = ag::AcquireIndexArray(n + 1);
  const int64_t stride = std::max<int64_t>(1, n / k);
  int32_t* pc = sparse.index.cols.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t s = 0; s < k; ++s) {
      pc[i * k + s] = static_cast<int32_t>((i + s * stride) % n);
    }
  }
  int32_t* po = sparse.index.row_offsets.data();
  for (int64_t r = 0; r <= n; ++r) po[r] = static_cast<int32_t>(r * k);
  ag::BuildSparseTranspose(&sparse.index);
  sparse.values =
      ag::Variable::Leaf(Tensor::Randn({1, n, k}, rng), /*requires_grad=*/false);
  return sparse;
}

void BM_AdjacencyApplyDense(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  ag::Variable adj = ag::Variable::Leaf(Tensor::Randn({1, n, n}, rng), false);
  ag::Variable x =
      ag::Variable::Leaf(Tensor::Randn({1, n, kSparseChannels}, rng), false);
  ag::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::ApplyAdjacency(adj, x));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * kSparseChannels);
}
BENCHMARK(BM_AdjacencyApplyDense)->Arg(208)->Arg(1024);

void BM_AdjacencyApplySparse(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t k = state.range(1);
  Rng rng(1);
  const graph::SparseAdjacency sparse = MakeStridedPattern(n, k, rng);
  ag::Variable x =
      ag::Variable::Leaf(Tensor::Randn({1, n, kSparseChannels}, rng), false);
  ag::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::ApplySparseAdjacency(sparse, x));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * k * kSparseChannels);
}
BENCHMARK(BM_AdjacencyApplySparse)
    ->Args({208, 8})
    ->Args({208, 16})
    ->Args({208, 32})
    ->Args({1024, 8})
    ->Args({1024, 16})
    ->Args({1024, 32})
    ->Args({10240, 8})
    ->Args({10240, 16})
    ->Args({10240, 32});

void BM_TopKSparsify(benchmark::State& state) {
  // Selection cost: one replace-the-minimum scan over each dense row.
  const int64_t n = state.range(0);
  const int64_t k = state.range(1);
  Rng rng(1);
  Tensor dense = Tensor::Randn({1, n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::TopKSparsify(dense, k));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
// The 10240-row full scan runs by default (unlike the 10240 dense GEMM): it
// is the O(N²) baseline the windowed selection below is measured against.
BENCHMARK(BM_TopKSparsify)
    ->Args({208, 16})
    ->Args({1024, 16})
    ->Args({10240, 16});

void BM_TopKSparsifyWindowed(benchmark::State& state) {
  // Windowed candidate-set selection (DESIGN.md §12): each row scans only a
  // k_cand-wide window centred on its own entity, O(N·k_cand) instead of the
  // O(N²) full scan. k_cand = N reproduces the full scan bitwise.
  const int64_t n = state.range(0);
  const int64_t k = state.range(1);
  const int64_t k_cand = state.range(2);
  Rng rng(1);
  Tensor dense = Tensor::Randn({1, n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::TopKSparsify(dense, k, k_cand));
  }
  state.SetItemsProcessed(state.iterations() * n * k_cand);
}
BENCHMARK(BM_TopKSparsifyWindowed)
    ->Args({1024, 16, 128})
    ->Args({10240, 16, 256});

// --- entity-sharded execution (DESIGN.md §12) -------------------------------
//
// The sharded-vs-single N-sweep: the same k-neighbour CSR apply as
// BM_AdjacencyApplySparse, run through an EntityShardedExecutor with S
// per-shard RuntimeContexts and halo exchange for cross-shard operands.
// S = 1 is the single-context placement of the same executor machinery, so
// the S > 1 rows isolate the cost/benefit of the shard split itself. The
// strided pattern reaches N = 102400 (the 10⁵-entity target) without ever
// materializing a dense matrix; the per-shard halo size is reported as the
// halo_entities counter.

/// A uniform-degree pattern whose k columns sit in a window around the row's
/// own entity — the shape the windowed top-k selection produces at fleet
/// scale. Cross-shard references (and so the halo) come only from rows near
/// shard boundaries, which is what makes entity sharding scale.
graph::SparseAdjacency MakeWindowedPattern(int64_t n, int64_t k, Rng& rng) {
  graph::SparseAdjacency sparse;
  sparse.index.batch = 1;
  sparse.index.n = n;
  sparse.index.nnz = n * k;
  sparse.index.cols = ag::AcquireIndexArray(n * k);
  sparse.index.row_offsets = ag::AcquireIndexArray(n + 1);
  int32_t* pc = sparse.index.cols.data();
  for (int64_t i = 0; i < n; ++i) {
    const int64_t lo = std::clamp<int64_t>(i - k / 2, 0, n - k);
    for (int64_t s = 0; s < k; ++s) {
      pc[i * k + s] = static_cast<int32_t>(lo + s);
    }
  }
  int32_t* po = sparse.index.row_offsets.data();
  for (int64_t r = 0; r <= n; ++r) po[r] = static_cast<int32_t>(r * k);
  ag::BuildSparseTranspose(&sparse.index);
  sparse.values =
      ag::Variable::Leaf(Tensor::Randn({1, n, k}, rng), /*requires_grad=*/false);
  return sparse;
}

void BM_SparseApplySharded(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t k = state.range(1);
  const int shards = static_cast<int>(state.range(2));
  Rng rng(1);
  const graph::SparseAdjacency sparse = MakeWindowedPattern(n, k, rng);
  const Tensor x = Tensor::Randn({1, n, kSparseChannels}, rng);
  shard::EntityShardedExecutor executor(shard::MakeContiguousPlan(n, shards));
  ag::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        executor.ApplySparse(sparse.index, sparse.values.data(), x,
                             /*transpose=*/false));
  }
  const shard::HaloExchange exchange(sparse.index, executor.plan(),
                                     /*transpose=*/false);
  state.counters["halo_entities"] =
      static_cast<double>(exchange.TotalHaloEntities());
  state.SetItemsProcessed(state.iterations() * 2 * n * k * kSparseChannels);
}
BENCHMARK(BM_SparseApplySharded)
    ->Args({10240, 8, 1})
    ->Args({10240, 8, 2})
    ->Args({10240, 8, 4})
    ->Args({102400, 8, 1})
    ->Args({102400, 8, 4})
    ->Args({102400, 8, 8});

void BM_DamgnSparseDynamicC(benchmark::State& state) {
  // End-to-end sparse dynamic adjacency build: θ/φ embeddings, raw scores,
  // top-k selection, restricted softmax, CSC transpose. The dense
  // counterpart is BM_DamgnCombined.
  const int64_t n = state.range(0);
  const int64_t k = state.range(1);
  Rng rng(1);
  Tensor dist = Tensor::RandUniform({n, n}, rng, 0.1f, 10.0f);
  Tensor adjacency = graph::GaussianKernelAdjacency(dist);
  core::Damgn damgn(adjacency, n, /*in_channels=*/1, /*mem_dim=*/10,
                    /*embed_dim=*/8, rng);
  ag::Variable x = ag::Variable::Leaf(Tensor::Randn({8, n, 1}, rng), false);
  ag::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(damgn.SparseDynamicC(x, k));
  }
}
BENCHMARK(BM_DamgnSparseDynamicC)->Args({208, 16})->Args({1024, 16});

void BM_DamgnSupportMix(benchmark::State& state) {
  // One training step's DAMGN support work for one graph convolution at the
  // train-207 shape (N=207, B=8, an 18-channel signal, max_hops=2, both
  // directions): CombinedSupports, MixSupports and their backward. topk=0
  // is the dense path, A' walked hop by hop; topk>0 splits A' into the
  // static part and a top-k C.
  const int64_t n = 207, batch = 8, channels = 18;
  const int topk = static_cast<int>(state.range(0));
  Rng rng(1);
  Tensor dist = Tensor::RandUniform({n, n}, rng, 0.1f, 10.0f);
  Tensor adjacency = graph::GaussianKernelAdjacency(dist);
  core::Damgn damgn(adjacency, n, /*in_channels=*/1, /*mem_dim=*/10,
                    /*embed_dim=*/8, rng);
  ag::Variable signal =
      ag::Variable::Leaf(Tensor::Randn({batch, n, 1}, rng), false);
  ag::Variable x =
      ag::Variable::Leaf(Tensor::Randn({batch, n, channels}, rng), true);
  runtime::RuntimeContext::Options options;
  options.private_exec = true;
  runtime::RuntimeContext context(options);
  context.exec().topk.store(topk, std::memory_order_relaxed);
  runtime::RuntimeContext::Bind bind(context);
  for (auto _ : state) {
    damgn.ZeroGrad();
    x.ZeroGrad();
    const std::vector<graph::Support> supports =
        damgn.CombinedSupports(signal, /*max_hops=*/2, /*bidirectional=*/true);
    ag::Variable mixed =
        graph::MixSupports(x, supports, /*include_self=*/true);
    ag::SumAll(mixed).Backward();
    benchmark::DoNotOptimize(mixed.data().data());
    benchmark::DoNotOptimize(x.grad().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DamgnSupportMix)->Arg(0)->Arg(16)->UseRealTime()
    ->MeasureProcessCPUTime();

/// ENHANCENET_FULL=1 rows: the 10k dense GEMM (a ~2 TFLOP step that exists
/// to show the O(N²) wall). The 10k selection scan moved into the default
/// set — it is the baseline of the windowed-selection comparison.
void RegisterFullScaleSparseBenchmarks() {
  benchmark::RegisterBenchmark("BM_AdjacencyApplyDense", BM_AdjacencyApplyDense)
      ->Arg(10240);
}

}  // namespace
}  // namespace enhancenet

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("enhancenet_num_threads",
                              std::to_string(enhancenet::GetNumThreads()));
  if (enhancenet::bench::ModeFromEnv() == enhancenet::bench::Mode::kFull) {
    enhancenet::RegisterFullScaleSparseBenchmarks();
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  enhancenet::bench::MaybeExportMetrics();
  return 0;
}
