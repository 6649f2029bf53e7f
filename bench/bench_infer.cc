// Inference-serving benchmarks (PR: src/serve/).
//
// Measures the two things the serving subsystem claims:
//  * NoGradGuard forwards beat the graph-building eval path on single-request
//    latency, because no Node/std::function/aux-tensor bookkeeping is
//    allocated or retained (counters report the retained graph size the
//    guard avoids);
//  * batching concurrent requests through one [B,N,H,C] forward raises
//    throughput, because filter generation is amortized and the tiled GEMM
//    kernels get larger operands.
//
// bench/run_bench_infer.sh runs this and records BENCH_infer.json at the
// repo root.

#include <benchmark/benchmark.h>

#include <memory>
#include <unordered_set>

#include "autograd/grad_mode.h"
#include "bench_common.h"
#include "common/logging.h"
#include "data/synthetic.h"
#include "graph/adjacency.h"
#include "serve/inference_session.h"
#include "tensor/tensor_ops.h"

namespace enhancenet {
namespace {

namespace ag = ::enhancenet::autograd;

constexpr int64_t kEntities = 48;
constexpr int64_t kHistory = 12;

/// CLI-scale sizing: small enough for per-iteration forwards, large enough
/// that graph bookkeeping is a visible fraction of the forward.
models::ModelSizing BenchSizing() {
  models::ModelSizing sizing;
  sizing.rnn_hidden = 24;
  sizing.rnn_hidden_dfgn = 10;
  sizing.tcn_channels = 16;
  sizing.tcn_channels_dfgn = 10;
  return sizing;
}

/// Shared per-model fixture: a session over EB-like data (no checkpoint —
/// weights are deterministic from the seed, which is all a latency bench
/// needs) plus one raw window to serve.
struct BenchSetup {
  data::CtsData data;
  data::StandardScaler scaler;
  std::unique_ptr<serve::InferenceSession> session;
  Tensor raw_window;     // [N, H, C], real units
  Tensor scaled_window;  // [1, N, H, C], z-scored

  explicit BenchSetup(const std::string& model_name) {
    data = data::MakeEbLike(kEntities, 4, /*seed=*/7);
    scaler.Fit(data.series, 0, data.num_steps() * 7 / 10);

    serve::ModelSpec spec;
    spec.model_name = model_name;
    spec.num_entities = kEntities;
    spec.in_channels = 1;
    spec.adjacency = graph::GaussianKernelAdjacency(data.distances);
    spec.sizing = BenchSizing();
    std::unique_ptr<serve::InferenceSession> built;
    const Status status = serve::InferenceSession::Create(
        spec, serve::SessionOptions(), scaler, &built);
    ENHANCENET_CHECK(status.ok()) << status.ToString();
    session = std::move(built);

    raw_window = Tensor(Shape{kEntities, kHistory, 1});
    const int64_t t_end = data.num_steps() - 1;
    for (int64_t i = 0; i < kEntities; ++i) {
      for (int64_t h = 0; h < kHistory; ++h) {
        raw_window.at({i, h, 0}) =
            data.series.at({i, t_end - kHistory + 1 + h, 0});
      }
    }
    scaled_window = scaler.Transform(raw_window)
                        .Reshape({1, kEntities, kHistory, 1});
  }
};

/// Counts the autograd graph a variable retains: distinct nodes and the
/// bytes of tensor data those nodes keep alive. This is exactly what a
/// grad-mode forward pins in memory until the result is dropped (and what
/// NoGradGuard never allocates).
void MeasureRetainedGraph(const ag::Variable& result, int64_t* nodes,
                          int64_t* bytes) {
  *nodes = 0;
  *bytes = 0;
  std::unordered_set<const ag::Node*> seen;
  std::vector<std::shared_ptr<ag::Node>> stack = {result.node()};
  while (!stack.empty()) {
    std::shared_ptr<ag::Node> node = stack.back();
    stack.pop_back();
    if (!seen.insert(node.get()).second) continue;
    ++*nodes;
    *bytes += node->data.numel() * static_cast<int64_t>(sizeof(float));
    for (const auto& parent : node->parents) stack.push_back(parent);
  }
}

// ---------------------------------------------------------------------------
// Single-request latency: graph-building eval path vs NoGradGuard forward.
// ---------------------------------------------------------------------------

void BM_EvalForwardGradMode(benchmark::State& state, const char* model_name) {
  BenchSetup setup(model_name);
  const models::ForecastingModel& model = setup.session->model();
  Rng rng(3);
  for (auto _ : state) {
    ag::Variable pred = model.Predict(setup.scaled_window, rng);
    benchmark::DoNotOptimize(pred.data().data());
  }
  // Report what every grad-mode forward allocates and pins until the caller
  // drops the result: the whole intermediate graph.
  ag::Variable pred = model.Predict(setup.scaled_window, rng);
  int64_t nodes = 0, bytes = 0;
  MeasureRetainedGraph(pred, &nodes, &bytes);
  state.counters["retained_graph_nodes"] = static_cast<double>(nodes);
  state.counters["retained_graph_bytes"] = static_cast<double>(bytes);
}

void BM_EvalForwardNoGrad(benchmark::State& state, const char* model_name) {
  BenchSetup setup(model_name);
  const models::ForecastingModel& model = setup.session->model();
  Rng rng(3);
  ag::NoGradGuard no_grad;
  for (auto _ : state) {
    ag::Variable pred = model.Predict(setup.scaled_window, rng);
    benchmark::DoNotOptimize(pred.data().data());
  }
  ag::Variable pred = model.Predict(setup.scaled_window, rng);
  int64_t nodes = 0, bytes = 0;
  MeasureRetainedGraph(pred, &nodes, &bytes);
  state.counters["retained_graph_nodes"] = static_cast<double>(nodes);
  state.counters["retained_graph_bytes"] = static_cast<double>(bytes);
}

// Full serving path (validation + scaling + no-grad forward + inverse
// transform + counters): what one client request actually costs.
void BM_SessionPredict(benchmark::State& state, const char* model_name) {
  BenchSetup setup(model_name);
  serve::PredictRequest request;
  request.history = setup.raw_window;
  for (auto _ : state) {
    serve::PredictResponse response;
    const Status status = setup.session->Predict(request, &response);
    ENHANCENET_CHECK(status.ok()) << status.ToString();
    benchmark::DoNotOptimize(response.forecast.data());
  }
  state.SetItemsProcessed(state.iterations());
}

// ---------------------------------------------------------------------------
// Batched throughput: B concurrent windows in one forward.
// ---------------------------------------------------------------------------

void BM_SessionPredictBatched(benchmark::State& state,
                              const char* model_name) {
  const int64_t batch = state.range(0);
  BenchSetup setup(model_name);
  std::vector<Tensor> lifted(static_cast<size_t>(batch),
                             setup.raw_window.Reshape(
                                 {1, kEntities, kHistory, 1}));
  serve::PredictRequest request;
  request.history = ops::Concat(lifted, 0);  // [B, N, H, C]
  for (auto _ : state) {
    serve::PredictResponse response;
    const Status status = setup.session->Predict(request, &response);
    ENHANCENET_CHECK(status.ok()) << status.ToString();
    benchmark::DoNotOptimize(response.forecast.data());
  }
  // windows/second: the number micro-batching trades latency for.
  state.SetItemsProcessed(state.iterations() * batch);
}

BENCHMARK_CAPTURE(BM_EvalForwardGradMode, DGRNN, "D-GRNN")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EvalForwardNoGrad, DGRNN, "D-GRNN")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EvalForwardGradMode, DGTCN, "D-GTCN")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EvalForwardNoGrad, DGTCN, "D-GTCN")
    ->Unit(benchmark::kMillisecond);

BENCHMARK_CAPTURE(BM_SessionPredict, DGRNN, "D-GRNN")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SessionPredict, DGTCN, "D-GTCN")
    ->Unit(benchmark::kMillisecond);

BENCHMARK_CAPTURE(BM_SessionPredictBatched, DGRNN, "D-GRNN")
    ->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SessionPredictBatched, DGTCN, "D-GTCN")
    ->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace enhancenet

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  enhancenet::bench::MaybeExportMetrics();
  return 0;
}
