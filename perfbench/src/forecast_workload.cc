// forecast-1024-topk: no-grad offline D-DA-GRNN forecasting at N=1024 with
// the top-k DAMGN path (k=16), one window per forward (B=1), paper sizing.
// DAMGN scoring and selection plus the hop-by-hop sparse ApplySupport carry
// this workload; there is no backward and no batcher.
//
// End to end (untraced): setup_s and windows_per_cpu_s, both from process
// CPU time (set-up, and the median CPU time of a forecast), and peak_bytes
// (allocator high water).
// Traced: the wall-clock speed of the untraced forecasts,
// data.make_batch_ms, models.forward_ms, the layer replay, checkpoint I/O,
// the profiling counters and the tracing overhead (traced and untraced
// forecasts alternate).

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/grad_mode.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "graph/adjacency.h"
#include "harness.h"
#include "models/model_factory.h"
#include "replay.h"
#include "runtime/context.h"

namespace perfbench {
namespace {

namespace data = ::enhancenet::data;
namespace models = ::enhancenet::models;
using enhancenet::Rng;
using enhancenet::Tensor;

constexpr int64_t kEntities = 1024;
constexpr int kTopK = 16;
constexpr int64_t kDays = 1;
constexpr const char* kModel = "D-DA-GRNN";
constexpr int kSetups = 9;

struct ForecastState {
  data::CtsData cts;
  data::StandardScaler scaler;
  std::unique_ptr<data::WindowDataset> windows;
  Tensor adjacency;
  std::unique_ptr<models::ForecastingModel> model;
};

std::unique_ptr<ForecastState> Build(uint64_t seed) {
  auto s = std::make_unique<ForecastState>();
  s->cts = data::MakeEbLike(kEntities, kDays, StreamSeed(seed, 1));
  const int64_t train_end = s->cts.num_steps() * 7 / 10;
  s->scaler.Fit(s->cts.series, 0, train_end);
  const models::ModelSizing sizing;
  s->windows = std::make_unique<data::WindowDataset>(
      s->scaler.Transform(s->cts.series), s->cts.series,
      s->cts.target_channel, train_end, s->cts.num_steps(), sizing.history,
      sizing.horizon);
  s->adjacency = enhancenet::graph::GaussianKernelAdjacency(s->cts.distances);
  Rng rng(StreamSeed(seed, 2));
  s->model = models::MakeModel(kModel, kEntities, s->cts.num_channels(),
                               s->adjacency, sizing, rng);
  s->model->SetTraining(false);
  return s;
}

}  // namespace

void RunForecast(const RunConfig& config, SpanRecorder* spans,
                 Result* result) {
  const bool traced = spans != nullptr;
  // A context of the workload's own: the default allocator, a private exec
  // config carrying topk=16 (and the thread count set in main).
  enhancenet::runtime::RuntimeContext::Options options;
  options.private_exec = true;
  enhancenet::runtime::RuntimeContext context(options);
  context.exec().topk.store(kTopK);
  enhancenet::runtime::RuntimeContext::Bind bind(context);
  enhancenet::autograd::NoGradGuard no_grad;
  enhancenet::TensorAllocator& allocator = context.allocator();

  std::vector<double> setup_s;
  std::unique_ptr<ForecastState> state;
  for (int i = 0; i < kSetups; ++i) {
    state.reset();
    setup_s.push_back(CpuSeconds([&] { state = Build(config.seed); }));
  }
  const int64_t horizon = state->model->horizon();
  Rng pick(StreamSeed(config.seed, 3));
  Rng eval_rng(1);  // eval-mode forwards never draw from it

  int64_t op = 0;
  int64_t shape_or_value_errors = 0;
  std::vector<double> op_ms, ok_cpu_ms, traced_ms, untraced_ms;
  std::vector<int64_t> traced_ids;
  Counters counters;
  // One forecast: pick a window, assemble it, forward, check the output.
  // Returns its wall-clock and CPU milliseconds, the CPU time negative when
  // the forecast failed.
  const auto forecast = [&](SpanRecorder* op_spans) {
    const auto start = SpanRecorder::Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    data::Batch batch;
    {
      ScopedSpan span(op_spans, "data.make_batch", -1, op);
      const int64_t index = static_cast<int64_t>(
          pick.Uniform() * static_cast<double>(state->windows->num_windows()));
      batch = state->windows->MakeBatch({index});
    }
    Tensor y;
    {
      ScopedSpan span(op_spans, "models.forward", -1, op);
      y = state->model->Predict(batch.x, eval_rng).data();
    }
    const bool ok = y.shape() == enhancenet::Shape{1, kEntities, horizon} &&
                    AllFinite(y);
    ++result->attempted;
    if (!ok) {
      ++result->failed;
      ++shape_or_value_errors;
    }
    ++op;
    const double cpu_ms = 1e3 * (ProcessCpuSeconds() - cpu_start);
    return std::make_pair(std::chrono::duration<double, std::milli>(
                              SpanRecorder::Clock::now() - start)
                              .count(),
                          ok ? cpu_ms : -1.0);
  };

  forecast(nullptr);  // warm-up: allocator pool, lazy set-up
  allocator.ResetStats();
  const auto start = SpanRecorder::Clock::now();
  double elapsed = 0.0;
  int64_t measured = 0;
  while (elapsed < config.seconds) {
    const bool trace_this = traced && op % 2 == 0;
    context.exec().profiling.store(trace_this);
    const Counters before = Counters::Take(allocator);
    const int64_t id = op;
    const auto [ms, cpu_ms] = forecast(trace_this ? spans : nullptr);
    context.exec().profiling.store(false);
    if (trace_this) {
      counters += Counters::Take(allocator) - before;
      traced_ids.push_back(id);
      traced_ms.push_back(ms);
    } else if (traced) {
      untraced_ms.push_back(ms);
    }
    op_ms.push_back(ms);
    if (cpu_ms >= 0.0) ok_cpu_ms.push_back(cpu_ms);
    ++measured;
    elapsed = std::chrono::duration<double>(SpanRecorder::Clock::now() - start)
                  .count();
  }

  result->Note(Format("forecast-1024-topk: %lld measured forecasts, %lld failed",
                      static_cast<long long>(measured),
                      static_cast<long long>(shape_or_value_errors)));
  result->Note(Format("forecast-1024-topk: forecast p50 %.1f ms wall clock, "
                      "%.1f ms CPU",
                      Median(op_ms), Median(ok_cpu_ms)));
  result->Check(shape_or_value_errors == 0,
                "forecasts finite with shape [1, 1024, F]");

  if (!traced) {
    result->Set("setup_s", Median(setup_s), "s");
    result->Set("windows_per_cpu_s",
                ok_cpu_ms.empty() ? 0.0 : 1e3 / Median(ok_cpu_ms), "1/s");
    result->Set("peak_bytes",
                static_cast<double>(allocator.GetStats().bytes_high_water),
                "bytes");
    return;
  }

  for (const auto& [name, unit] : PerLayerMetrics()) result->Set(name, 0.0, unit);
  const std::vector<Span> all = spans->Snapshot();
  std::vector<double> make_batch, forward;
  for (const int64_t i : traced_ids) {
    make_batch.push_back(TotalMs(all, "data.make_batch", i));
    forward.push_back(TotalMs(all, "models.forward", i));
  }
  result->Set("data.make_batch_ms", Median(make_batch), "ms");
  result->Set("models.forward_ms", Median(forward), "ms");
  SetCounterMetrics(counters, static_cast<int64_t>(traced_ids.size()), result);
  result->Set("trace.overhead_ms", Median(traced_ms) - Median(untraced_ms),
              "ms");
  result->Set("wall.windows_per_s",
              untraced_ms.empty() ? 0.0 : 1e3 / Median(untraced_ms), "1/s");
  result->Set("wall.latency_p50_ms", Median(untraced_ms), "ms");

  {
    Rng model_rng(StreamSeed(config.seed, 5));
    std::unique_ptr<models::ForecastingModel> fresh = models::MakeModel(
        kModel, kEntities, state->cts.num_channels(), state->adjacency,
        models::ModelSizing(), model_rng);
    MeasureCheckpointIo(*state->model, fresh.get(),
                        config.scratch_dir + "/forecast.ckpt", result);
  }

  const data::Batch batch = state->windows->MakeBatch({0});
  MeasureReplay(*state->model, batch.x, nullptr, 0.0f,
                StreamSeed(config.seed, 4), /*reps=*/3, spans, result);
}

}  // namespace perfbench
