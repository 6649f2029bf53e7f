// Training-throughput benchmarks.
//
// Measures the full training step — batch forward, masked-loss backward,
// gradient clip, optimizer step — for RNN, D-GRNN, TCN, and STGCN configs
// on the library's one execution path: caching TensorAllocator, fused
// FusedGruCell/FusedLstmCell/GruCombine/FusedGatedConv kernels, GEMM bias
// epilogues, ParallelFor optimizer steps and eager backward release.
// Allocator counters report allocations/step after warmup: the bucket hit
// rate is ~100% and heap allocations per step are ~0.
//
// bench/run_bench_train.sh runs this and records BENCH_train.json at the
// repo root.

#include <benchmark/benchmark.h>

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <atomic>

#include "autograd/ops.h"
#include "bench_common.h"
#include "common/logging.h"
#include "data/synthetic.h"
#include "graph/adjacency.h"
#include "optim/optimizer.h"
#include "runtime/allocator.h"
#include "runtime/context.h"
#include "runtime/parallel.h"
#include "train/metrics.h"
#include "train/trainer.h"

namespace enhancenet {
namespace {

namespace ag = ::enhancenet::autograd;

constexpr int64_t kEntities = 24;
constexpr int64_t kBatchSize = 4;

/// CLI-scale sizing (same spirit as bench_infer): small enough for
/// per-iteration steps on one core, large enough that cell math dominates.
models::ModelSizing BenchSizing() {
  models::ModelSizing sizing;
  sizing.rnn_hidden = 24;
  sizing.rnn_hidden_dfgn = 10;
  sizing.tcn_channels = 16;
  sizing.tcn_channels_dfgn = 10;
  return sizing;
}

/// One model + one fixed training batch + an Adam optimizer: everything a
/// training step touches, held constant across iterations so the step's
/// tensor traffic is identical every time (the property the caching
/// allocator exploits).
struct TrainSetup {
  data::CtsData data;
  data::StandardScaler scaler;
  std::unique_ptr<data::WindowDataset> train;
  std::unique_ptr<models::ForecastingModel> model;
  std::unique_ptr<optim::Adam> optimizer;
  data::Batch batch;
  Rng rng{3};

  explicit TrainSetup(const std::string& model_name,
                      int64_t entities = kEntities, int64_t days = 4) {
    data = data::MakeEbLike(entities, days, /*seed=*/7);
    const int64_t train_end = data.num_steps() * 7 / 10;
    scaler.Fit(data.series, 0, train_end);
    const Tensor scaled = scaler.Transform(data.series);
    const models::ModelSizing sizing = BenchSizing();
    train = std::make_unique<data::WindowDataset>(
        scaled, data.series, /*target_channel=*/0, 0, train_end,
        sizing.history, sizing.horizon);
    Rng model_rng(11);
    model = models::MakeModel(model_name, entities, 1,
                              graph::GaussianKernelAdjacency(data.distances),
                              sizing, model_rng);
    model->SetTraining(true);
    optimizer = std::make_unique<optim::Adam>(model->Parameters(), 0.01f);

    std::vector<int64_t> indices;
    for (int64_t b = 0; b < kBatchSize; ++b) {
      indices.push_back((b * 17) % train->num_windows());
    }
    batch = train->MakeBatch(indices);
  }

  int64_t StepsPerEpoch() const {
    return (train->num_windows() + kBatchSize - 1) / kBatchSize;
  }

  /// The trainer's inner loop for one batch (teacher always fed, so the
  /// decoder path is deterministic across iterations).
  void Step() {
    ag::Variable pred =
        model->Forward(batch.x, &batch.y_scaled, /*teacher_prob=*/1.0f, rng);
    ag::Variable loss = ag::MeanAll(ag::Abs(
        ag::Sub(pred, ag::Variable::Leaf(batch.y_scaled, false))));
    model->ZeroGrad();
    loss.Backward();
    optim::ClipGradNorm(optimizer->params(), 5.0f);
    optimizer->Step();
    benchmark::DoNotOptimize(loss.data().item());
  }
};

void BM_TrainStep(benchmark::State& state, const char* model_name,
                  bool bind_context = false) {
  // The *_context rows run with an explicitly bound RuntimeContext (shared
  // default allocator/exec, own workspace), so BENCH_train.json records what
  // the per-step Current() lookup costs: run_bench_train.sh divides the
  // context row's median by the unbound row's and stores the ratio as
  // context_overhead.
  std::optional<runtime::RuntimeContext> context;
  std::optional<runtime::RuntimeContext::Bind> bind;
  if (bind_context) {
    context.emplace();
    bind.emplace(*context);
  }
  TrainSetup setup(model_name);
  TensorAllocator& allocator = TensorAllocator::Global();

  // Warmup fills the pool with every shape a step produces.
  for (int i = 0; i < 2; ++i) setup.Step();
  allocator.ResetStats();

  const auto wall_start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    setup.Step();
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  const AllocatorStats stats = allocator.GetStats();
  const double iterations = static_cast<double>(state.iterations());
  // Heap allocations per steady-state step: pool misses plus oversize
  // requests (pool hits cost no heap traffic). ~0 in steady state.
  state.counters["allocs_per_step"] =
      static_cast<double>(stats.pool_misses + stats.oversize) / iterations;
  state.counters["pool_hit_rate"] = stats.HitRate();
  state.counters["steps_per_epoch"] =
      static_cast<double>(setup.StepsPerEpoch());
  state.counters["epoch_seconds_est"] =
      wall_seconds / iterations * static_cast<double>(setup.StepsPerEpoch());
}

BENCHMARK_CAPTURE(BM_TrainStep, RNN, "RNN")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TrainStep, RNN_context, "RNN", true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TrainStep, DGRNN, "D-GRNN")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TrainStep, DGRNN_context, "D-GRNN", true)
    ->Unit(benchmark::kMillisecond);
// TCN-family rows (DESIGN.md §8): the gated causal conv runs through
// FusedGatedConv (one stacked gated-epilogue GEMM) and Linear through the
// kBias epilogue.
BENCHMARK_CAPTURE(BM_TrainStep, TCN, "TCN")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TrainStep, STGCN, "STGCN")
    ->Unit(benchmark::kMillisecond);

// --- sparse top-k dynamic adjacency (DESIGN.md §10) -------------------------

constexpr int64_t kSweepEntities = 208;

/// Sets ExecConfig::topk on the default context (shared by the unbound
/// benchmark loop and the Trainer's context) and returns the previous value.
int SetGlobalTopK(int topk) {
  return runtime::RuntimeContext::Default().exec().topk.exchange(
      topk, std::memory_order_relaxed);
}

/// Full D-DA-GRNN training step at paper scale (N=208) with the dynamic
/// adjacency dense (k=0) or top-k sparsified. D-DA-GRNN is the variant that
/// owns a DAMGN — plain D-GRNN has only static supports and ignores topk.
/// Same counters as BM_TrainStep, so BENCH_train.json carries the
/// dense-vs-sparse step time and the allocs/step evidence side by side.
void BM_TrainStepSweep(benchmark::State& state, int topk) {
  const int prev_topk = SetGlobalTopK(topk);
  TrainSetup setup("D-DA-GRNN", kSweepEntities, /*days=*/2);
  TensorAllocator& allocator = TensorAllocator::Global();
  for (int i = 0; i < 2; ++i) setup.Step();
  allocator.ResetStats();

  for (auto _ : state) {
    setup.Step();
  }

  const AllocatorStats stats = allocator.GetStats();
  const double iterations = static_cast<double>(state.iterations());
  state.counters["allocs_per_step"] =
      static_cast<double>(stats.pool_misses + stats.oversize) / iterations;
  state.counters["pool_hit_rate"] = stats.HitRate();
  state.counters["topk"] = topk;

  SetGlobalTopK(prev_topk);
}

BENCHMARK_CAPTURE(BM_TrainStepSweep, N208_dense, 0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TrainStepSweep, N208_k8, 8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TrainStepSweep, N208_k16, 16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TrainStepSweep, N208_k32, 32)
    ->Unit(benchmark::kMillisecond);

/// Accuracy-vs-k shared fixture: D-DA-GRNN (the DAMGN-owning variant) at
/// N=208, trained with the trainer's recipe. The dense baseline (topk=0) is
/// trained eagerly; sparse-*trained* models (topk=k for both training and
/// eval, same init seed as dense) are trained lazily per k. Meyers singleton
/// so each minutes-scale training is paid at most once per binary run, not
/// once per repetition.
struct AccuracyVsKSetup {
  struct Trained {
    std::unique_ptr<models::ForecastingModel> model;
    std::unique_ptr<train::Trainer> trainer;
    double mae = 0.0;  // test MAE evaluated at the topk it was trained with
  };

  data::CtsData data;
  data::StandardScaler scaler;
  std::unique_ptr<data::WindowDataset> train_set;
  std::unique_ptr<data::WindowDataset> val_set;
  std::unique_ptr<data::WindowDataset> test_set;
  Trained dense;

  static AccuracyVsKSetup& Get() {
    static AccuracyVsKSetup setup;
    return setup;
  }

  /// Model trained *and* evaluated at topk=k (lazily trained, cached).
  Trained& SparseTrained(int topk) {
    auto it = sparse_.find(topk);
    if (it == sparse_.end()) {
      it = sparse_.emplace(topk, TrainWithTopK(topk)).first;
    }
    return it->second;
  }

 private:
  AccuracyVsKSetup() {
    data = data::MakeEbLike(kSweepEntities, 2, /*seed=*/7);
    const data::Splits splits = data::ChronologicalSplits(data.num_steps());
    scaler.Fit(data.series, 0, splits.train_end);
    const Tensor scaled = scaler.Transform(data.series);
    const models::ModelSizing sizing = BenchSizing();
    train_set = std::make_unique<data::WindowDataset>(
        scaled, data.series, /*target_channel=*/0, 0, splits.train_end,
        sizing.history, sizing.horizon);
    val_set = std::make_unique<data::WindowDataset>(
        scaled, data.series, 0, splits.train_end, splits.val_end,
        sizing.history, sizing.horizon);
    test_set = std::make_unique<data::WindowDataset>(
        scaled, data.series, 0, splits.val_end, splits.total, sizing.history,
        sizing.horizon);
    dense = TrainWithTopK(0);
  }

  /// Trains a fresh D-DA-GRNN (identical init: seed 11) with the given topk
  /// active for every forward/backward, then evaluates the test MAE at that
  /// same topk. Identical seeds mean dense-vs-sparse differences are the
  /// effect of sparsification, not run-to-run noise.
  Trained TrainWithTopK(int topk) {
    const int prev_topk = SetGlobalTopK(topk);
    const models::ModelSizing sizing = BenchSizing();
    Trained out;
    Rng model_rng(11);
    out.model = models::MakeModel(
        "D-DA-GRNN", kSweepEntities, 1,
        graph::GaussianKernelAdjacency(data.distances), sizing, model_rng);
    train::TrainerConfig config;
    config.epochs = 1;  // one epoch separates the curves; keeps the fixture
                        // minutes-scale on a single-core runner
    out.trainer = std::make_unique<train::Trainer>(out.model.get(), &scaler,
                                                   /*target_channel=*/0,
                                                   config);
    Rng train_rng(3);
    out.trainer->Train(*train_set, *val_set, train_rng);
    train::MetricAccumulator acc(sizing.horizon);
    Rng eval_rng(5);
    out.mae = out.trainer->Evaluate(*test_set, &acc, eval_rng).mae;
    SetGlobalTopK(prev_topk);
    return out;
  }

  std::map<int, Trained> sparse_;
};

/// Test MAE of the *dense-trained* model evaluated with the given top-k
/// (k=0 is the dense reference row): what sparsifying an existing model
/// costs, with no retraining.
void BM_AccuracyVsK(benchmark::State& state, int topk) {
  AccuracyVsKSetup& shared = AccuracyVsKSetup::Get();
  const int prev_topk = SetGlobalTopK(topk);
  double mae = 0.0;
  for (auto _ : state) {
    train::MetricAccumulator acc(shared.dense.model->horizon());
    Rng eval_rng(5);
    const train::ErrorStats stats =
        shared.dense.trainer->Evaluate(*shared.test_set, &acc, eval_rng);
    // No DoNotOptimize here: the non-const scalar-lvalue overload expands to
    // an asm with a "+m,r" constraint that GCC at -O3 miscompiles (the empty
    // asm claims to rewrite `mae`, and the real store is dropped — observed
    // as stale-stack counter values). Evaluate has side effects and `mae`
    // feeds the counters below, so nothing here is elidable anyway.
    mae = stats.mae;
  }
  SetGlobalTopK(prev_topk);
  state.counters["topk"] = topk;
  state.counters["mae"] = mae;
  state.counters["mae_vs_dense_pct"] =
      (mae - shared.dense.mae) / shared.dense.mae * 100.0;
}

/// Test MAE of a model trained *with* the sparse path at topk=k (same init
/// seed as the dense baseline) — the deployment protocol for a sparse
/// fleet, and the curve the acceptance gate reads: within 2% of dense for
/// some k <= 32. The timed section is the evaluation; the one-off training
/// happens in the shared fixture before the loop.
void BM_AccuracyVsKTrained(benchmark::State& state, int topk) {
  AccuracyVsKSetup& shared = AccuracyVsKSetup::Get();
  AccuracyVsKSetup::Trained& trained = shared.SparseTrained(topk);
  const int prev_topk = SetGlobalTopK(topk);
  double mae = 0.0;
  for (auto _ : state) {
    train::MetricAccumulator acc(trained.model->horizon());
    Rng eval_rng(5);
    const train::ErrorStats stats =
        trained.trainer->Evaluate(*shared.test_set, &acc, eval_rng);
    mae = stats.mae;
  }
  SetGlobalTopK(prev_topk);
  state.counters["topk"] = topk;
  state.counters["mae"] = mae;
  state.counters["mae_vs_dense_pct"] =
      (mae - shared.dense.mae) / shared.dense.mae * 100.0;
}

BENCHMARK_CAPTURE(BM_AccuracyVsK, N208_dense, 0)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK_CAPTURE(BM_AccuracyVsK, N208_k8, 8)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK_CAPTURE(BM_AccuracyVsK, N208_k16, 16)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK_CAPTURE(BM_AccuracyVsK, N208_k32, 32)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK_CAPTURE(BM_AccuracyVsKTrained, N208_k32, 32)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace enhancenet

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("enhancenet_num_threads",
                              std::to_string(enhancenet::GetNumThreads()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  enhancenet::bench::MaybeExportMetrics();
  return 0;
}
