// train-207: D-DA-GRNN training steps at N=207 (METR-LA's sensor count),
// B=8, paper sizing (ModelSizing defaults), dense DAMGN. Each step runs the
// forward, the masked MAE, Backward, ClipGradNorm and Adam::Step.
//
// End to end (untraced): setup_s and windows_per_cpu_s, both from process
// CPU time (set-up, and the median CPU time of a step), and peak_bytes
// (allocator high water).
// Traced: the wall-clock speed of the untraced steps, the step split
// (data.make_batch_ms, models.forward_ms, autograd.backward_ms,
// optim.step_ms, autograd.graph_live_bytes), the layer replay, checkpoint
// I/O, the profiling counters and the tracing overhead (traced and untraced
// steps alternate).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/grad_mode.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "graph/adjacency.h"
#include "harness.h"
#include "models/model_factory.h"
#include "optim/optimizer.h"
#include "replay.h"
#include "runtime/context.h"

namespace perfbench {
namespace {

namespace ag = ::enhancenet::autograd;
namespace data = ::enhancenet::data;
namespace models = ::enhancenet::models;
using enhancenet::Rng;
using enhancenet::Tensor;

constexpr int64_t kEntities = 207;
constexpr int64_t kBatch = 8;
constexpr int64_t kDays = 3;
constexpr const char* kModel = "D-DA-GRNN";
constexpr float kLearningRate = 0.01f;
constexpr float kClipNorm = 5.0f;
constexpr float kSamplingTau = 20.0f;
constexpr int kSetups = 15;

struct TrainState {
  data::CtsData cts;
  data::StandardScaler scaler;
  std::unique_ptr<data::WindowDataset> windows;
  Tensor adjacency;
  std::unique_ptr<models::ForecastingModel> model;
  std::unique_ptr<enhancenet::optim::Adam> optimizer;
};

std::unique_ptr<TrainState> Build(uint64_t seed) {
  auto s = std::make_unique<TrainState>();
  s->cts = data::MakeLaLike(kEntities, kDays, StreamSeed(seed, 1));
  const int64_t train_end = s->cts.num_steps() * 7 / 10;
  s->scaler.Fit(s->cts.series, 0, train_end);
  const models::ModelSizing sizing;
  s->windows = std::make_unique<data::WindowDataset>(
      s->scaler.Transform(s->cts.series), s->cts.series,
      s->cts.target_channel, 0, train_end, sizing.history, sizing.horizon);
  s->adjacency = enhancenet::graph::GaussianKernelAdjacency(s->cts.distances);
  Rng rng(StreamSeed(seed, 2));
  s->model = models::MakeModel(kModel, kEntities, s->cts.num_channels(),
                               s->adjacency, sizing, rng);
  s->model->SetTraining(true);
  s->optimizer = std::make_unique<enhancenet::optim::Adam>(
      s->model->Parameters(), kLearningRate);
  return s;
}

/// Masked MAE in real units: predictions are un-scaled inside the graph and
/// null (zero) targets are left out, as in the paper's training protocol.
ag::Variable MaskedMae(const ag::Variable& pred_scaled, const Tensor& y_raw,
                       const data::StandardScaler& scaler, int64_t channel) {
  ag::Variable pred = ag::AddScalar(
      ag::MulScalar(pred_scaled, scaler.stddev(channel)), scaler.mean(channel));
  Tensor mask(y_raw.shape());
  int64_t observed = 0;
  for (int64_t i = 0; i < y_raw.numel(); ++i) {
    const bool present = std::fabs(y_raw.data()[i]) >= 1e-6f;
    mask.data()[i] = present ? 1.0f : 0.0f;
    observed += present ? 1 : 0;
  }
  ag::Variable err = ag::Mul(
      ag::Abs(ag::Sub(pred, ag::Variable::Leaf(y_raw, false))),
      ag::Variable::Leaf(mask, false));
  return ag::MulScalar(ag::SumAll(err),
                       1.0f / static_cast<float>(std::max<int64_t>(observed, 1)));
}

constexpr double kDescentStep = 1e-2;  // parameter-space length of the probe

/// Eval-mode masked MAE of `batch` (no teacher forcing) before and after one
/// step of length kDescentStep against its own gradient; the model is
/// restored afterwards. A correct gradient lowers the loss for a small
/// enough step, so this checks Backward however few steps a run fits. (Over
/// a run's 5 to 20 Adam steps the loss need not fall: minibatch losses vary
/// from batch to batch, and on some seeds a fixed batch's loss rises over
/// the first steps.)
std::pair<double, double> DescentProbe(TrainState& s, const data::Batch& batch,
                                       uint64_t seed) {
  s.model->SetTraining(false);
  const auto loss = [&] {
    Rng rng(seed);
    return MaskedMae(s.model->Forward(batch.x, nullptr, 0.0f, rng),
                     batch.y_raw, s.scaler, s.cts.target_channel);
  };
  s.model->ZeroGrad();
  ag::Variable before = loss();
  before.Backward();
  const std::vector<ag::Variable> params = s.model->Parameters();
  double norm2 = 0.0;
  for (const ag::Variable& p : params) {
    if (!p.has_grad()) continue;
    const float* g = p.grad().data();
    for (int64_t i = 0; i < p.numel(); ++i) {
      norm2 += static_cast<double>(g[i]) * g[i];
    }
  }
  const float scale = static_cast<float>(kDescentStep / std::sqrt(norm2));
  std::vector<Tensor> saved;
  for (ag::Variable p : params) {
    saved.push_back(p.data().Clone());
    if (!p.has_grad()) continue;
    const float* g = p.grad().data();
    float* w = p.mutable_data().data();
    for (int64_t i = 0; i < p.numel(); ++i) w[i] -= scale * g[i];
  }
  double after = 0.0;
  {
    ag::NoGradGuard no_grad;
    after = loss().data().item();
  }
  for (size_t k = 0; k < params.size(); ++k) {
    ag::Variable p = params[k];
    std::copy(saved[k].data(), saved[k].data() + saved[k].numel(),
              p.mutable_data().data());
  }
  s.model->ZeroGrad();
  s.model->SetTraining(true);
  return {before.data().item(), after};
}

struct StepTimes {
  double total_ms = 0.0;  // wall clock
  double cpu_ms = 0.0;    // process CPU, every thread
  double loss = 0.0;
  int64_t live_bytes = 0;  // held by the graph between forward and backward
  bool ok = false;
};

/// One training step on a batch drawn from `rng`. Spans (when `spans`) are
/// tagged with the step index.
StepTimes Step(TrainState& s, Rng& rng, int64_t step, SpanRecorder* spans) {
  enhancenet::TensorAllocator& allocator =
      enhancenet::runtime::RuntimeContext::Current().allocator();
  StepTimes out;
  const auto start = SpanRecorder::Clock::now();
  const double cpu_start = ProcessCpuSeconds();
  ScopedSpan step_span(spans, "train.step", -1, step);
  data::Batch batch;
  {
    ScopedSpan span(spans, "data.make_batch", step_span.id(), step);
    std::vector<int64_t> indices(kBatch);
    for (int64_t& i : indices) {
      i = static_cast<int64_t>(rng.Uniform() *
                               static_cast<double>(s.windows->num_windows()));
    }
    batch = s.windows->MakeBatch(indices);
  }
  const float teacher_prob =
      kSamplingTau /
      (kSamplingTau + std::exp(static_cast<float>(step) / kSamplingTau));
  const int64_t before = allocator.GetStats().bytes_outstanding;
  ag::Variable pred;
  {
    ScopedSpan span(spans, "models.forward", step_span.id(), step);
    pred = s.model->Forward(batch.x, &batch.y_scaled, teacher_prob, rng);
  }
  ag::Variable loss =
      MaskedMae(pred, batch.y_raw, s.scaler, s.cts.target_channel);
  out.live_bytes = allocator.GetStats().bytes_outstanding - before;
  out.loss = loss.data().item();
  out.ok = std::isfinite(out.loss);
  if (out.ok) {
    {
      ScopedSpan span(spans, "autograd.backward", step_span.id(), step);
      s.model->ZeroGrad();
      loss.Backward();
    }
    ScopedSpan span(spans, "optim.step", step_span.id(), step);
    enhancenet::optim::ClipGradNorm(s.optimizer->params(), kClipNorm);
    s.optimizer->Step();
  }
  out.total_ms = std::chrono::duration<double, std::milli>(
                     SpanRecorder::Clock::now() - start)
                     .count();
  out.cpu_ms = 1e3 * (ProcessCpuSeconds() - cpu_start);
  return out;
}

}  // namespace

void RunTrain(const RunConfig& config, SpanRecorder* spans, Result* result) {
  const bool traced = spans != nullptr;
  enhancenet::runtime::RuntimeContext& context =
      enhancenet::runtime::RuntimeContext::Default();
  enhancenet::TensorAllocator& allocator = context.allocator();

  // Set-up: data, adjacency, model and optimizer, built kSetups times.
  std::vector<double> setup_s;
  std::unique_ptr<TrainState> state;
  for (int i = 0; i < kSetups; ++i) {
    state.reset();
    setup_s.push_back(CpuSeconds([&] { state = Build(config.seed); }));
  }
  Rng rng(StreamSeed(config.seed, 3));
  std::vector<int64_t> probe_indices(kBatch);
  for (int64_t i = 0; i < kBatch; ++i) {
    probe_indices[static_cast<size_t>(i)] =
        i * state->windows->num_windows() / kBatch;
  }
  const auto [probe_before, probe_after] =
      DescentProbe(*state, state->windows->MakeBatch(probe_indices),
                   StreamSeed(config.seed, 6));

  // Warm-up step: fills the allocator pool with every shape a step makes.
  int64_t step = 0;
  {
    const StepTimes warm = Step(*state, rng, step++, nullptr);
    ++result->attempted;
    if (!warm.ok) ++result->failed;
  }
  allocator.ResetStats();

  std::vector<double> step_ms;          // every measured step
  std::vector<double> ok_cpu_ms;        // CPU time of each good step
  std::vector<double> traced_ms;        // traced steps (traced runs)
  std::vector<double> untraced_ms;      // untraced steps (traced runs)
  std::vector<double> live_bytes;
  std::vector<int64_t> traced_ids;
  int64_t measured_failures = 0;
  Counters counters;
  const auto start = SpanRecorder::Clock::now();
  double elapsed = 0.0;
  while (elapsed < config.seconds) {
    // Traced runs alternate: even steps traced (spans and the library's
    // profiling counters on), odd steps untraced.
    const bool trace_this = traced && step % 2 == 0;
    context.exec().profiling.store(trace_this);
    const Counters before = Counters::Take(allocator);
    const StepTimes t = Step(*state, rng, step, trace_this ? spans : nullptr);
    if (trace_this) {
      counters += Counters::Take(allocator) - before;
      traced_ids.push_back(step);
      traced_ms.push_back(t.total_ms);
      live_bytes.push_back(static_cast<double>(t.live_bytes));
    } else if (traced) {
      untraced_ms.push_back(t.total_ms);
    }
    context.exec().profiling.store(false);
    ++step;
    ++result->attempted;
    if (!t.ok) {
      ++result->failed;
      ++measured_failures;
    }
    step_ms.push_back(t.total_ms);
    if (t.ok) ok_cpu_ms.push_back(t.cpu_ms);
    elapsed = std::chrono::duration<double>(SpanRecorder::Clock::now() - start)
                  .count();
  }
  const int64_t steps = static_cast<int64_t>(step_ms.size());

  result->Note(Format("train-207: %lld measured steps of B=%lld, %lld failed",
                      static_cast<long long>(steps),
                      static_cast<long long>(kBatch),
                      static_cast<long long>(measured_failures)));
  result->Note(Format("train-207: step p50 %.1f ms wall clock, %.1f ms CPU",
                      Median(step_ms), Median(ok_cpu_ms)));
  result->Note(Format("train-207: N=%lld, C=%lld, %lld parameters",
                      static_cast<long long>(kEntities),
                      static_cast<long long>(state->cts.num_channels()),
                      static_cast<long long>(state->model->NumParameters())));

  // Output checks: the loss is finite on every step, and a small step
  // against the gradient lowers it.
  result->Check(result->failed == 0, "training loss finite on every step");
  result->Check(std::isfinite(probe_after) && probe_after < probe_before,
                Format("a small step against the gradient lowers the loss "
                       "(%.6f before, %.6f after)",
                       probe_before, probe_after));

  if (!traced) {
    result->Set("setup_s", Median(setup_s), "s");
    result->Set("windows_per_cpu_s",
                ok_cpu_ms.empty() ? 0.0 : 1e3 * kBatch / Median(ok_cpu_ms),
                "1/s");
    result->Set("peak_bytes",
                static_cast<double>(allocator.GetStats().bytes_high_water),
                "bytes");
    return;
  }

  for (const auto& [name, unit] : PerLayerMetrics()) result->Set(name, 0.0, unit);
  const std::vector<Span> all = spans->Snapshot();
  std::vector<double> make_batch, forward, backward, optim_step;
  for (const int64_t i : traced_ids) {
    make_batch.push_back(TotalMs(all, "data.make_batch", i));
    forward.push_back(TotalMs(all, "models.forward", i));
    backward.push_back(TotalMs(all, "autograd.backward", i));
    optim_step.push_back(TotalMs(all, "optim.step", i));
  }
  result->Set("data.make_batch_ms", Median(make_batch), "ms");
  result->Set("models.forward_ms", Median(forward), "ms");
  result->Set("autograd.backward_ms", Median(backward), "ms");
  result->Set("optim.step_ms", Median(optim_step), "ms");
  result->Set("autograd.graph_live_bytes", Median(live_bytes), "bytes");
  SetCounterMetrics(counters, static_cast<int64_t>(traced_ids.size()),
                    result);
  result->Set("trace.overhead_ms", Median(traced_ms) - Median(untraced_ms),
              "ms");
  result->Set("wall.windows_per_s",
              untraced_ms.empty() ? 0.0 : 1e3 * kBatch / Median(untraced_ms),
              "1/s");
  result->Set("wall.latency_p50_ms", Median(untraced_ms), "ms");

  // Checkpoint I/O of the trained model.
  {
    Rng model_rng(StreamSeed(config.seed, 5));
    std::unique_ptr<models::ForecastingModel> fresh = models::MakeModel(
        kModel, kEntities, state->cts.num_channels(), state->adjacency,
        models::ModelSizing(), model_rng);
    MeasureCheckpointIo(*state->model, fresh.get(),
                        config.scratch_dir + "/train.ckpt", result);
  }

  // Layer replay of one training forward (grad mode, teacher forcing).
  std::vector<int64_t> indices(kBatch);
  for (int64_t i = 0; i < kBatch; ++i) indices[static_cast<size_t>(i)] = i;
  const data::Batch batch = state->windows->MakeBatch(indices);
  MeasureReplay(*state->model, batch.x, &batch.y_scaled, 0.5f,
                StreamSeed(config.seed, 4), /*reps=*/5, spans, result);
}

}  // namespace perfbench
