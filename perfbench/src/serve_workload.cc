// serve-207: single windows through serve::ModelRegistry with
// deadline-aware micro-batching, serving D-DA-GTCN at N=207 with a 150 ms
// SLO.
//
// Traced runs replay an open-loop Poisson trace of T = --seconds (at least
// 30 s). Two fixed-rate phases: `low` at 10 windows/s for the first two
// thirds, `high` at 20/s for the last third. Rates are absolute, never calibrated from this
// machine's forward time, so a faster forward does not raise the load.
// Midway through `high`, version 2 (loaded from a checkpoint) is published
// beside the traffic. At most 4 client threads (never more than the machine
// has) send the requests; each latency runs from the scheduled send time,
// so a late generator is charged to the request it delays.
//
// A closed-loop capacity phase follows (T/6 seconds after the trace; the
// whole run, with version 2 published up front, in untraced runs): every
// client sends its next window as soon as the last one returns, with a
// budget long enough that each batch flushes on fill. Under the trace's
// light `low` load the deadline batcher holds a lone request until
// deadline - 1.25 x (batched forward time), so open-loop latency there rises
// when the forward gets faster, and the trace's throughput is capped at its
// offered rate; the capacity phase moves the right way with a faster
// serving path.
//
// End to end (untraced): setup_s (process CPU time of a set-up), and from
// the capacity phase windows_per_cpu_s (served windows per second of process
// CPU time) and peak_bytes (high water of the serving version's allocator;
// one batch is in flight at a time, where the trace's concurrency follows
// machine speed).
// Traced: the capacity phase's wall-clock throughput and median latency,
// per-phase latency and goodput, the serving-stack split, direct
// InferenceSession forwards at B=1 and B=4, the publish and checkpoint I/O
// times, the layer replay, the profiling counters and the tracing overhead.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autograd/grad_mode.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "graph/adjacency.h"
#include "harness.h"
#include "io/checkpoint.h"
#include "models/model_factory.h"
#include "obs/metrics.h"
#include "replay.h"
#include "runtime/context.h"
#include "serve/inference_session.h"
#include "serve/model_registry.h"

namespace perfbench {
namespace {

namespace data = ::enhancenet::data;
namespace models = ::enhancenet::models;
namespace serve = ::enhancenet::serve;
using Clock = SpanRecorder::Clock;
using enhancenet::Rng;
using enhancenet::Status;
using enhancenet::Tensor;

constexpr int64_t kEntities = 207;
constexpr int64_t kDays = 2;
constexpr const char* kModel = "D-DA-GTCN";
constexpr const char* kName = "traffic";
constexpr double kSloMs = 150.0;
constexpr double kLowRate = 10.0;   // windows/s
constexpr double kHighRate = 20.0;  // windows/s
constexpr int kMaxClients = 4;
// The shortest trace whose phases each hold 200 requests (10/s for 20 s,
// 20/s for 10 s), so that p95 has 10 samples beyond it in both.
constexpr double kMinTraceSeconds = 30.0;
// Per-request budget of the capacity phase: far above the batched forward
// time, so the leader always waits for the batch to fill.
constexpr double kCapacityBudgetMs = 2000.0;
constexpr int kCapacityWarmupBatches = 3;
constexpr int64_t kWindowPool = 64;
constexpr int kWarmupRequests = 10;
constexpr int kSetups = 15;

struct ServeState {
  data::CtsData cts;
  data::StandardScaler scaler;
  std::unique_ptr<data::WindowDataset> raw_windows;  // unscaled inputs
  serve::ModelSpec spec_v1;
  serve::ModelSpec spec_v2;
  serve::PublishOptions publish;
  std::unique_ptr<serve::ModelRegistry> registry;

  ServeState() = default;
  ServeState(const ServeState&) = delete;
  ServeState& operator=(const ServeState&) = delete;
  ~ServeState() {
    // The registry may still map the checkpoints; release it first.
    registry.reset();
    if (!spec_v1.checkpoint_path.empty()) std::remove(spec_v1.checkpoint_path.c_str());
    if (!spec_v2.checkpoint_path.empty()) std::remove(spec_v2.checkpoint_path.c_str());
  }
};

Status SaveVersion(const std::string& path, const serve::ModelSpec& spec,
                   uint64_t seed) {
  Rng rng(seed);
  std::unique_ptr<models::ForecastingModel> model =
      models::MakeModel(spec.model_name, spec.num_entities, spec.in_channels,
                        spec.adjacency, spec.sizing, rng);
  enhancenet::io::CheckpointMeta meta;
  meta.present = true;
  meta.model_name = spec.model_name;
  meta.num_entities = spec.num_entities;
  meta.in_channels = spec.in_channels;
  meta.history = spec.sizing.history;
  meta.horizon = spec.sizing.horizon;
  return enhancenet::io::SaveCheckpoint(path, *model, meta);
}

/// Data, both versions' checkpoints, and a registry serving version 1.
std::unique_ptr<ServeState> Build(const RunConfig& config, int clients,
                                  Status* status) {
  auto s = std::make_unique<ServeState>();
  s->cts = data::MakeLaLike(kEntities, kDays, StreamSeed(config.seed, 1));
  const int64_t train_end = s->cts.num_steps() * 7 / 10;
  s->scaler.Fit(s->cts.series, 0, train_end);
  const models::ModelSizing sizing;
  s->raw_windows = std::make_unique<data::WindowDataset>(
      s->cts.series, s->cts.series, s->cts.target_channel, train_end,
      s->cts.num_steps(), sizing.history, sizing.horizon);

  serve::ModelSpec spec;
  spec.model_name = kModel;
  spec.num_entities = kEntities;
  spec.in_channels = s->cts.num_channels();
  spec.target_channel = s->cts.target_channel;
  spec.adjacency = enhancenet::graph::GaussianKernelAdjacency(s->cts.distances);
  spec.sizing = sizing;
  s->spec_v1 = spec;
  s->spec_v1.checkpoint_path = config.scratch_dir + "/serve-v1.ckpt";
  s->spec_v2 = spec;
  s->spec_v2.checkpoint_path = config.scratch_dir + "/serve-v2.ckpt";
  *status = SaveVersion(s->spec_v1.checkpoint_path, s->spec_v1,
                        StreamSeed(config.seed, 2));
  if (!status->ok()) return s;
  *status = SaveVersion(s->spec_v2.checkpoint_path, s->spec_v2,
                        StreamSeed(config.seed, 5));
  if (!status->ok()) return s;

  s->publish.pool_size = 1;  // the batcher drives the pool's first session
  s->publish.session.micro_batching = true;
  // As many windows as there are clients, so the closed-loop capacity phase
  // fills every batch.
  s->publish.session.max_batch_size = clients;
  s->publish.session.deadline_batching = true;
  s->publish.session.slo_ms = kSloMs;
  s->registry = std::make_unique<serve::ModelRegistry>();
  *status = s->registry->Publish(kName, 1, s->spec_v1, s->scaler, s->publish);
  return s;
}

/// One request of the trace, as the client saw it.
struct Sent {
  double lag_ms = 0.0;     // actual send minus scheduled send
  double inside_ms = 0.0;  // time inside ModelRegistry::Predict
  double latency_ms = 0.0;
  int64_t version = -1;
  bool ok = false;
};

bool GoodForecast(const Tensor& forecast, int64_t horizon) {
  return forecast.shape() == enhancenet::Shape{kEntities, horizon} &&
         AllFinite(forecast);
}

int64_t CounterValue(const char* name) {
  return enhancenet::obs::Registry::Global().GetCounter(name)->Get();
}

/// What the capacity phase measured.
struct Capacity {
  int64_t attempted = 0;
  int64_t failed = 0;
  double windows_per_s = 0.0;      // wall clock
  double windows_per_cpu_s = 0.0;  // process CPU time
  double latency_p50_ms = 0.0;
  int64_t peak_bytes = 0;
};

/// Closed loop: `clients` threads each send a window as soon as their last
/// one returns, for `seconds`, after a few unmeasured warm-up batches.
/// windows_per_s counts good forecasts over the time until the last client
/// stops, windows_per_cpu_s over the process CPU time spent meanwhile;
/// peak_bytes is `allocator`'s high water over the measured part.
template <typename Send>
Capacity MeasureCapacity(const Send& send, const std::vector<Tensor>& windows,
                         int clients, double seconds, int64_t horizon,
                         enhancenet::TensorAllocator* allocator) {
  std::vector<std::vector<double>> latency_ms(static_cast<size_t>(clients));
  std::vector<int64_t> attempted(static_cast<size_t>(clients), 0);
  std::vector<int64_t> failed(static_cast<size_t>(clients), 0);
  Clock::time_point start;
  Clock::time_point stop;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const auto one = [&](size_t i, bool measured) {
        serve::PredictResponse response;
        const Clock::time_point sent_at = Clock::now();
        const Status served = send(windows[i % windows.size()],
                                   kCapacityBudgetMs, &response);
        const Clock::time_point done = Clock::now();
        const bool ok = served.ok() && GoodForecast(response.forecast, horizon);
        const size_t k = static_cast<size_t>(c);
        ++attempted[k];
        if (!ok) ++failed[k];
        if (measured && ok) {
          latency_ms[k].push_back(
              std::chrono::duration<double, std::milli>(done - sent_at).count());
        }
        return done;
      };
      size_t i = static_cast<size_t>(c);
      for (int w = 0; w < kCapacityWarmupBatches;
           ++w, i += static_cast<size_t>(clients)) {
        one(i, false);
      }
      // Start together, so the first measured batches are full too.
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      while (one(i, true) < stop) i += static_cast<size_t>(clients);
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  allocator->ResetStats();
  const double cpu_start = ProcessCpuSeconds();
  start = Clock::now();
  stop = start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
  go.store(true);
  for (std::thread& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  const double cpu_s = ProcessCpuSeconds() - cpu_start;

  Capacity capacity;
  std::vector<double> all_ms;
  for (int c = 0; c < clients; ++c) {
    const size_t k = static_cast<size_t>(c);
    capacity.attempted += attempted[k];
    capacity.failed += failed[k];
    all_ms.insert(all_ms.end(), latency_ms[k].begin(), latency_ms[k].end());
  }
  capacity.windows_per_s = static_cast<double>(all_ms.size()) / elapsed_s;
  capacity.windows_per_cpu_s = static_cast<double>(all_ms.size()) / cpu_s;
  capacity.latency_p50_ms = all_ms.empty() ? 0.0 : Median(all_ms);
  capacity.peak_bytes = allocator->GetStats().bytes_high_water;
  return capacity;
}

/// What the open-loop trace measured (traced runs).
struct TraceStats {
  Counters counters;  // version 1 up to the publish, version 2 after it
  int64_t batcher_windows = 0;
  int64_t batcher_forwards = 0;
  int64_t flush_full = 0;
  int64_t flush_budget = 0;
  int64_t misses = 0;
  double publish_ms = 0.0;
  std::vector<double> low_ms, high_ms, lag_ms, inside_ms;
  double goodput_high_per_s = 0.0;
  int64_t requests = 0;
};

/// The trace: `low` on [0, 2T/3), `high` on [2T/3, T), and version 2
/// published at 5T/6 beside the traffic, with T the run's --seconds but at
/// least kMinTraceSeconds. Spans, profiling counters and the
/// batcher's counts cover the trace alone. Counts its requests as ops and
/// checks them.
template <typename Send>
TraceStats RunTrace(const RunConfig& config, ServeState& state,
                    const std::vector<Tensor>& windows, const Send& send,
                    int clients, SpanRecorder* spans, Result* result) {
  enhancenet::runtime::ExecConfig& exec =
      enhancenet::runtime::RuntimeContext::Default().exec();
  serve::ModelRegistry& registry = *state.registry;
  const int64_t horizon = state.spec_v1.sizing.horizon;
  const double total_s = std::max(config.seconds, kMinTraceSeconds);
  const double high_start_s = total_s * 2.0 / 3.0;
  std::vector<double> times =
      PoissonSchedule(StreamSeed(config.seed, 6), kLowRate, 0.0, high_start_s);
  const size_t low_count = times.size();
  for (const double t : PoissonSchedule(StreamSeed(config.seed, 7), kHighRate,
                                        high_start_s, total_s - high_start_s)) {
    times.push_back(t);
  }
  std::vector<Sent> sent(times.size());

  std::shared_ptr<enhancenet::TensorAllocator> v1_alloc =
      registry.ActiveAllocatorForTest(kName);
  v1_alloc->ResetStats();
  exec.profiling.store(true);
  const Counters v1_before = Counters::Take(*v1_alloc);
  const int64_t batcher_windows0 = CounterValue("serve.batcher.windows");
  const int64_t batcher_forwards0 = CounterValue("serve.batcher.forwards");
  const int64_t flush_full0 = CounterValue("serve.batcher.deadline.flush_full");
  const int64_t flush_budget0 =
      CounterValue("serve.batcher.deadline.flush_budget");
  const int64_t miss0 = CounterValue("serve.batcher.deadline.miss");

  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  const auto at = [&](double seconds) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < times.size();
           i = next.fetch_add(1)) {
        const Clock::time_point scheduled = at(times[i]);
        std::this_thread::sleep_until(scheduled);
        const Clock::time_point sent_at = Clock::now();
        serve::PredictResponse response;
        const Status served = send(windows[i % windows.size()], &response);
        const Clock::time_point done = Clock::now();
        Sent& s = sent[i];
        s.lag_ms =
            std::chrono::duration<double, std::milli>(sent_at - scheduled).count();
        s.inside_ms =
            std::chrono::duration<double, std::milli>(done - sent_at).count();
        s.latency_ms =
            std::chrono::duration<double, std::milli>(done - scheduled).count();
        s.version = response.model_version;
        s.ok = served.ok() && GoodForecast(response.forecast, horizon);
        if (spans != nullptr) {
          const int parent =
              spans->Add("serve.request", spans->ToNs(scheduled),
                         spans->ToNs(done), -1, static_cast<int64_t>(i));
          spans->Add("serve.registry.predict", spans->ToNs(sent_at),
                     spans->ToNs(done), parent, static_cast<int64_t>(i));
        }
      }
    });
  }

  // The write beside the reads: publish version 2 midway through `high`.
  std::this_thread::sleep_until(at(total_s * 5.0 / 6.0));
  // Counter deltas over the trace: version 1 up to the publish, version 2
  // after it (the allocator counts are per version).
  TraceStats out;
  out.counters = Counters::Take(*v1_alloc) - v1_before;
  Status published;
  out.publish_ms = 1e3 * TimeSeconds([&] {
    published = registry.Publish(kName, 2, state.spec_v2, state.scaler,
                                 state.publish);
  });
  std::shared_ptr<enhancenet::TensorAllocator> v2_alloc =
      registry.ActiveAllocatorForTest(kName);
  const Counters v2_before = Counters::Take(*v2_alloc);
  for (std::thread& t : threads) t.join();
  const double trace_s = std::max(
      total_s, std::chrono::duration<double>(Clock::now() - start).count());
  out.counters += Counters::Take(*v2_alloc) - v2_before;
  exec.profiling.store(false);
  out.batcher_windows = CounterValue("serve.batcher.windows") - batcher_windows0;
  out.batcher_forwards =
      CounterValue("serve.batcher.forwards") - batcher_forwards0;
  out.flush_full =
      CounterValue("serve.batcher.deadline.flush_full") - flush_full0;
  out.flush_budget =
      CounterValue("serve.batcher.deadline.flush_budget") - flush_budget0;
  out.misses = CounterValue("serve.batcher.deadline.miss") - miss0;

  int64_t failed = 0;
  int64_t served_v2 = 0;
  std::vector<RequestOutcome> high_outcomes;
  for (size_t i = 0; i < sent.size(); ++i) {
    const Sent& s = sent[i];
    ++result->attempted;
    if (!s.ok) ++failed;
    if (s.version == 2) ++served_v2;
    (i < low_count ? out.low_ms : out.high_ms).push_back(s.latency_ms);
    if (i >= low_count) high_outcomes.push_back({s.latency_ms, s.ok});
    out.lag_ms.push_back(s.lag_ms);
    out.inside_ms.push_back(s.inside_ms);
  }
  result->failed += failed;
  out.requests = static_cast<int64_t>(sent.size());
  out.goodput_high_per_s =
      GoodputPerSecond(high_outcomes, kSloMs, total_s - high_start_s);

  result->Note(Format("serve-207: %zu low-phase and %zu high-phase requests, "
                      "%d client threads, %.1f windows/s over %.1f s",
                      low_count, sent.size() - low_count, clients,
                      static_cast<double>(out.requests - failed) / trace_s,
                      trace_s));
  result->Note(Format(
      "serve-207: %lld failed; highest percentile with >= 10 samples beyond: "
      "low p%.1f, high p%.1f",
      static_cast<long long>(failed),
      100.0 * HighestSupportedPercentile(
                  static_cast<int64_t>(out.low_ms.size())),
      100.0 * HighestSupportedPercentile(
                  static_cast<int64_t>(out.high_ms.size()))));
  result->Check(failed == 0, "every served forecast OK, finite, shape [207, F]");
  result->Check(published.ok(), "version 2 published mid-trace" +
                                    (published.ok() ? "" : " (" + published.ToString() + ")"));
  result->Check(served_v2 > 0, "requests after the publish served by v2");
  result->Check(
      SamplesBeyond(static_cast<int64_t>(out.low_ms.size()), 0.95) >= 10 &&
          SamplesBeyond(static_cast<int64_t>(out.high_ms.size()), 0.95) >= 10,
      "each phase has at least 10 samples beyond p95");
  return out;
}

}  // namespace

void RunServe(const RunConfig& config, SpanRecorder* spans, Result* result) {
  const bool traced = spans != nullptr;
  enhancenet::runtime::ExecConfig& exec =
      enhancenet::runtime::RuntimeContext::Default().exec();

  const int clients =
      std::max(1, std::min(kMaxClients, config.nproc > 0 ? config.nproc : 1));
  std::vector<double> setup_s;
  std::unique_ptr<ServeState> state;
  Status built;
  for (int i = 0; i < kSetups; ++i) {
    state.reset();
    setup_s.push_back(
        CpuSeconds([&] { state = Build(config, clients, &built); }));
    if (!built.ok()) break;
  }
  result->Check(built.ok(), "set-up: checkpoints saved, version 1 published" +
                                (built.ok() ? "" : " (" + built.ToString() + ")"));
  if (!built.ok()) {
    ++result->attempted;
    ++result->failed;
    return;
  }
  serve::ModelRegistry& registry = *state->registry;
  const int64_t horizon = state->spec_v1.sizing.horizon;

  std::vector<Tensor> windows;  // raw [N, H, C] request histories
  std::vector<double> make_ms;
  for (int64_t i = 0; i < kWindowPool; ++i) {
    const int64_t index = i * state->raw_windows->num_windows() / kWindowPool;
    make_ms.push_back(1e3 * TimeSeconds([&] {
      const Tensor x = state->raw_windows->MakeBatch({index}).x;
      windows.push_back(x.Reshape({x.size(1), x.size(2), x.size(3)}));
    }));
  }

  const auto send_within = [&](const Tensor& history, double budget_ms,
                               serve::PredictResponse* out) {
    serve::PredictRequest request;
    request.history = history;
    request.deadline_ms = budget_ms;
    return registry.Predict(kName, request, out);
  };
  const auto send = [&](const Tensor& history, serve::PredictResponse* out) {
    return send_within(history, kSloMs, out);
  };
  for (int i = 0; i < kWarmupRequests; ++i) {
    serve::PredictResponse response;
    const Status served = send(windows[static_cast<size_t>(i)], &response);
    ++result->attempted;
    if (!served.ok() || !GoodForecast(response.forecast, horizon)) {
      ++result->failed;
    }
  }

  // Traced runs replay the open-loop trace, publishing version 2 beside
  // its traffic; its figures are per-layer ones. Untraced runs publish
  // version 2 up front and spend the run in the capacity phase, whose CPU
  // time per window is the end-to-end figure.
  TraceStats trace;
  if (traced) {
    trace = RunTrace(config, *state, windows, send, clients, spans, result);
  } else {
    const Status published = registry.Publish(kName, 2, state->spec_v2,
                                              state->scaler, state->publish);
    result->Check(published.ok(),
                  "version 2 published" +
                      (published.ok() ? "" : " (" + published.ToString() + ")"));
  }
  std::shared_ptr<enhancenet::TensorAllocator> v2_alloc =
      registry.ActiveAllocatorForTest(kName);

  // A registry-served B=1 forecast equals a direct InferenceSession::Predict
  // of the same window on the same version.
  std::unique_ptr<serve::InferenceSession> session;
  serve::SessionOptions direct;
  const Status created =
      serve::InferenceSession::Create(state->spec_v2, direct, state->scaler,
                                      &session);
  result->Check(created.ok(), "direct InferenceSession for version 2");
  if (created.ok()) {
    serve::PredictResponse via_registry;
    serve::PredictResponse via_session;
    serve::PredictRequest request;
    request.history = windows[0];
    const Status a = send(windows[0], &via_registry);
    const Status b = session->Predict(request, &via_session);
    result->attempted += 2;
    result->failed += (a.ok() ? 0 : 1) + (b.ok() ? 0 : 1);
    result->Check(a.ok() && b.ok() && via_registry.model_version == 2 &&
                      MaxAbsDiff(via_registry.forecast, via_session.forecast) <=
                          1e-4,
                  "registry B=1 forecast equals InferenceSession::Predict");
  }

  // Traced runs keep the capacity phase short: its wall-clock figures are
  // per-layer ones there, beside the trace.
  const int64_t windows0 = CounterValue("serve.batcher.windows");
  const int64_t forwards0 = CounterValue("serve.batcher.forwards");
  const Capacity capacity =
      MeasureCapacity(send_within, windows, clients,
                      traced ? config.seconds / 6.0 : config.seconds, horizon,
                      v2_alloc.get());
  const int64_t forwards = CounterValue("serve.batcher.forwards") - forwards0;
  result->attempted += capacity.attempted;
  result->failed += capacity.failed;
  result->Note(Format(
      "serve-207: capacity phase %.1f windows/s wall clock, %.1f per CPU "
      "second, p50 %.1f ms, %d clients, %.2f windows per batch (warm-up "
      "included)",
      capacity.windows_per_s, capacity.windows_per_cpu_s,
      capacity.latency_p50_ms, clients,
      forwards > 0 ? static_cast<double>(CounterValue("serve.batcher.windows") -
                                         windows0) /
                         static_cast<double>(forwards)
                   : 0.0));
  result->Check(capacity.failed == 0 && capacity.windows_per_s > 0.0,
                "every capacity-phase forecast OK, finite, shape [207, F]");
  if (!traced) {
    result->Set("setup_s", Median(setup_s), "s");
    result->Set("windows_per_cpu_s", capacity.windows_per_cpu_s, "1/s");
    result->Set("peak_bytes", static_cast<double>(capacity.peak_bytes),
                "bytes");
    return;
  }

  for (const auto& [name, unit] : PerLayerMetrics()) result->Set(name, 0.0, unit);
  result->Set("wall.windows_per_s", capacity.windows_per_s, "1/s");
  result->Set("wall.latency_p50_ms", capacity.latency_p50_ms, "ms");
  result->Set("latency_p50_ms.low", Percentile(trace.low_ms, 0.5), "ms");
  result->Set("latency_p95_ms.low", Percentile(trace.low_ms, 0.95), "ms");
  result->Set("latency_p50_ms.high", Percentile(trace.high_ms, 0.5), "ms");
  result->Set("latency_p95_ms.high", Percentile(trace.high_ms, 0.95), "ms");
  result->Set("goodput_per_s.high", trace.goodput_high_per_s, "1/s");
  result->Set("serve.inside_ms", Median(trace.inside_ms), "ms");
  result->Set("serve.generator_lag_ms", Percentile(trace.lag_ms, 0.95), "ms");
  result->Set("serve.batch_occupancy",
              trace.batcher_forwards > 0
                  ? static_cast<double>(trace.batcher_windows) /
                        static_cast<double>(trace.batcher_forwards)
                  : 0.0,
              "windows");
  result->Set("serve.flush_full_share",
              trace.flush_full + trace.flush_budget > 0
                  ? static_cast<double>(trace.flush_full) /
                        static_cast<double>(trace.flush_full +
                                            trace.flush_budget)
                  : 0.0,
              "ratio");
  result->Set("serve.deadline_miss_share",
              trace.batcher_windows > 0
                  ? static_cast<double>(trace.misses) /
                        static_cast<double>(trace.batcher_windows)
                  : 0.0,
              "ratio");
  result->Set("serve.registry.publish_ms", trace.publish_ms, "ms");
  result->Set("data.make_batch_ms", Median(make_ms), "ms");
  SetCounterMetrics(trace.counters, trace.requests, result);
  if (!created.ok()) return;

  {
    Rng rng(StreamSeed(config.seed, 8));
    std::unique_ptr<models::ForecastingModel> fresh = models::MakeModel(
        kModel, kEntities, state->spec_v2.in_channels, state->spec_v2.adjacency,
        state->spec_v2.sizing, rng);
    MeasureCheckpointIo(session->model(), fresh.get(),
                        config.scratch_dir + "/serve-io.ckpt", result);
  }

  // Direct session forwards: B=1 and B=4, and the tracing overhead on B=1
  // (traced and untraced calls alternate).
  {
    serve::PredictRequest one;
    one.history = windows[0];
    serve::PredictRequest four;
    Tensor stacked({4, kEntities, windows[0].size(1), windows[0].size(2)});
    for (int64_t b = 0; b < 4; ++b) {
      const Tensor& w = windows[static_cast<size_t>(b)];
      std::copy(w.data(), w.data() + w.numel(), stacked.data() + b * w.numel());
    }
    four.history = stacked;
    std::vector<double> b1_ms, b4_ms, traced_ms, untraced_ms;
    int64_t predict_failures = 0;
    // One timed direct Predict, counted as an op.
    const auto predict = [&](const serve::PredictRequest& request) {
      serve::PredictResponse response;
      const double ms = 1e3 * TimeSeconds([&] {
        if (!session->Predict(request, &response).ok()) ++predict_failures;
      });
      ++result->attempted;
      return ms;
    };
    for (int rep = 0; rep < 10; ++rep) {
      b1_ms.push_back(predict(one));
      b4_ms.push_back(predict(four));
      exec.profiling.store(true);
      {
        ScopedSpan span(spans, "serve.session.predict", -1, rep);
        traced_ms.push_back(predict(one));
      }
      exec.profiling.store(false);
      untraced_ms.push_back(predict(one));
    }
    result->failed += predict_failures;
    result->Check(predict_failures == 0,
                  "direct InferenceSession::Predict at B=1 and B=4");
    result->Set("serve.session.forward_ms.b1", Median(b1_ms), "ms");
    result->Set("serve.session.forward_ms.b4", Median(b4_ms), "ms");
    result->Set("trace.overhead_ms", Median(traced_ms) - Median(untraced_ms),
                "ms");
  }

  // Layer replay of the served model's forward on one scaled window.
  {
    enhancenet::runtime::RuntimeContext::Bind bind(session->context());
    enhancenet::autograd::NoGradGuard no_grad;
    const Tensor x = session->ScaleWindow(windows[0]).Reshape(
        {1, kEntities, windows[0].size(1), windows[0].size(2)});
    result->Set("models.forward_ms",
                MeasureReplay(session->model(), x, nullptr, 0.0f,
                              StreamSeed(config.seed, 4), /*reps=*/9, spans,
                              result),
                "ms");
  }
}

}  // namespace perfbench
