#include "harness.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <ctime>
#include <limits>
#include <utility>

#include "io/checkpoint.h"
#include "obs/metrics.h"

namespace perfbench {

void Result::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

void Result::Check(bool ok, const std::string& what) {
  checks.push_back((ok ? "ok: " : "FAILED: ") + what);
  if (!ok) correct = false;
}

void Result::Note(const std::string& line) { notes.push_back(line); }

double ProcessCpuSeconds() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      // Training step split (train-207).
      {"data.make_batch_ms", "ms"},
      {"models.forward_ms", "ms"},
      {"autograd.backward_ms", "ms"},
      {"optim.step_ms", "ms"},
      {"autograd.graph_live_bytes", "bytes"},
      // Layer replay of one forward (every workload).
      {"core.dfgn.generate_ms", "ms"},
      {"core.damgn.supports_ms", "ms"},
      {"core.damgn.static_mix_ms", "ms"},
      {"core.damgn.dynamic_c_ms", "ms"},
      {"graph.apply_support_ms", "ms"},
      {"core.gru_cell_ms", "ms"},
      {"core.tcn_layer_ms", "ms"},
      {"nn.head_ms", "ms"},
      {"models.replay_ms", "ms"},
      {"models.replay_coverage", "ratio"},
      // Serving stack (serve-207).
      {"latency_p50_ms.low", "ms"},
      {"latency_p95_ms.low", "ms"},
      {"latency_p50_ms.high", "ms"},
      {"latency_p95_ms.high", "ms"},
      {"goodput_per_s.high", "1/s"},
      {"serve.inside_ms", "ms"},
      {"serve.generator_lag_ms", "ms"},
      {"serve.batch_occupancy", "windows"},
      {"serve.flush_full_share", "ratio"},
      {"serve.deadline_miss_share", "ratio"},
      {"serve.session.forward_ms.b1", "ms"},
      {"serve.session.forward_ms.b4", "ms"},
      {"serve.registry.publish_ms", "ms"},
      // Checkpoint I/O of the workload's model.
      {"io.checkpoint_save_ms", "ms"},
      {"io.checkpoint_load_ms", "ms"},
      // Library profiling counters (ENHANCENET_PROFILE), every workload.
      {"runtime.alloc.hit_rate", "ratio"},
      {"runtime.alloc.misses_per_op", "count"},
      {"runtime.parallel.inline_share", "ratio"},
      {"tensor.gemm_flops_per_op", "flop"},
      // Wall-clock speed of the untraced ops of a traced run (train-207,
      // forecast-1024-topk) or of serve-207's capacity phase. On a shared
      // host it follows the neighbours' load, so it is reported here, not
      // bounded end to end.
      {"wall.windows_per_s", "1/s"},
      {"wall.latency_p50_ms", "ms"},
      // Traced minus untraced time of one op.
      {"trace.overhead_ms", "ms"},
  };
  return kMetrics;
}

namespace {

void WriteMetric(std::FILE* f, const Result::Metric& m, bool last) {
  std::fprintf(f, "    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}%s\n",
               m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
               m.unit.c_str(), last ? "" : ",");
}

void WriteStringList(std::FILE* f, const char* key,
                     const std::vector<std::string>& lines, bool last) {
  std::fprintf(f, "  \"%s\": [", key);
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string escaped;
    for (const char c : lines[i]) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", escaped.c_str());
  }
  std::fprintf(f, "]%s\n", last ? "" : ",");
}

}  // namespace

bool WriteResultJson(const std::string& path, const RunConfig& config,
                     const Result& result) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"workload\": \"%s\",\n", config.workload.c_str());
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(config.seed));
  std::fprintf(f, "  \"seconds\": %.17g,\n", config.seconds);
  std::fprintf(f, "  \"trace\": %s,\n", config.trace ? "true" : "false");
  std::fprintf(f, "  \"build_type\": \"%s\",\n", PERFBENCH_BUILD_TYPE);
  std::fprintf(f, "  \"nproc\": %d,\n", config.nproc);
  std::fprintf(f, "  \"threads\": %d,\n", config.threads);
  std::fprintf(f, "  \"correct\": %s,\n", result.correct ? "true" : "false");
  std::fprintf(f, "  \"attempted\": %lld,\n",
               static_cast<long long>(result.attempted));
  std::fprintf(f, "  \"failed\": %lld,\n",
               static_cast<long long>(result.failed));
  WriteStringList(f, "checks", result.checks, /*last=*/false);
  WriteStringList(f, "notes", result.notes, /*last=*/false);
  std::fprintf(f, "  \"metrics\": {\n");
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    WriteMetric(f, result.metrics[i], i + 1 == result.metrics.size());
  }
  std::fprintf(f, "  }\n}\n");
  const bool written = std::fflush(f) == 0 && std::ferror(f) == 0;
  const bool closed = std::fclose(f) == 0;
  return written && closed;
}

Counters Counters::Take(const enhancenet::TensorAllocator& allocator) {
  enhancenet::obs::Registry& registry = enhancenet::obs::Registry::Global();
  const enhancenet::AllocatorStats alloc = allocator.GetStats();
  Counters c;
  c.gemm_flops = registry.GetCounter("tensor.gemm.flops")->Get() +
                 registry.GetCounter("tensor.batch_gemm.flops")->Get();
  c.parallel_regions = registry.GetCounter("parallel.regions")->Get();
  c.parallel_inline = registry.GetCounter("parallel.inline_regions")->Get();
  c.pool_hits = alloc.pool_hits;
  c.pool_misses = alloc.pool_misses;
  c.oversize = alloc.oversize;
  return c;
}

Counters Counters::operator-(const Counters& other) const {
  Counters d;
  d.gemm_flops = gemm_flops - other.gemm_flops;
  d.parallel_regions = parallel_regions - other.parallel_regions;
  d.parallel_inline = parallel_inline - other.parallel_inline;
  d.pool_hits = pool_hits - other.pool_hits;
  d.pool_misses = pool_misses - other.pool_misses;
  d.oversize = oversize - other.oversize;
  return d;
}

Counters& Counters::operator+=(const Counters& other) {
  gemm_flops += other.gemm_flops;
  parallel_regions += other.parallel_regions;
  parallel_inline += other.parallel_inline;
  pool_hits += other.pool_hits;
  pool_misses += other.pool_misses;
  oversize += other.oversize;
  return *this;
}

void SetCounterMetrics(const Counters& delta, int64_t ops, Result* result) {
  const double n = ops > 0 ? static_cast<double>(ops) : 1.0;
  const int64_t bucketable = delta.pool_hits + delta.pool_misses;
  result->Set("runtime.alloc.hit_rate",
              bucketable > 0 ? static_cast<double>(delta.pool_hits) /
                                   static_cast<double>(bucketable)
                             : 0.0,
              "ratio");
  result->Set("runtime.alloc.misses_per_op",
              static_cast<double>(delta.pool_misses + delta.oversize) / n,
              "count");
  result->Set("runtime.parallel.inline_share",
              delta.parallel_regions > 0
                  ? static_cast<double>(delta.parallel_inline) /
                        static_cast<double>(delta.parallel_regions)
                  : 0.0,
              "ratio");
  result->Set("tensor.gemm_flops_per_op",
              static_cast<double>(delta.gemm_flops) / n, "flop");
}

void MeasureCheckpointIo(const enhancenet::nn::Module& model,
                         enhancenet::nn::Module* fresh, const std::string& path,
                         Result* result) {
  std::vector<double> save_ms, load_ms;
  bool ok = true;
  for (int i = 0; i < 3; ++i) {
    save_ms.push_back(1e3 * TimeSeconds([&] {
      ok = ok && enhancenet::io::SaveCheckpoint(path, model).ok();
    }));
    load_ms.push_back(1e3 * TimeSeconds([&] {
      ok = ok && enhancenet::io::LoadCheckpoint(path, fresh).ok();
    }));
  }
  std::remove(path.c_str());
  result->Check(ok, "checkpoint save/load round trip");
  result->Set("io.checkpoint_save_ms", Median(save_ms), "ms");
  result->Set("io.checkpoint_load_ms", Median(load_ms), "ms");
}

std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

bool AllFinite(const enhancenet::Tensor& t) {
  const float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

double MaxAbsDiff(const enhancenet::Tensor& a, const enhancenet::Tensor& b) {
  if (a.shape() != b.shape()) return std::numeric_limits<double>::infinity();
  const float* pa = a.data();
  const float* pb = b.data();
  double worst = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const double d = std::fabs(static_cast<double>(pa[i]) - pb[i]);
    if (!(d <= worst)) worst = d;  // also propagates NaN
  }
  return worst;
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 of (seed, stream): decorrelated streams from one --seed.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull +
               0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
