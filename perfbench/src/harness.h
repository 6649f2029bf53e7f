#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// What every workload shares: the run configuration, the result it fills
// (metrics, op counts, output checks), and the profiling counters read from
// the library's metrics registry.

#include <cstdint>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "nn/module.h"
#include "runtime/allocator.h"
#include "tensor/tensor.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 4;  // kernel (ParallelFor) threads
  int nproc = 0;    // hardware threads of the machine
  std::string scratch_dir = ".";  // where checkpoints may be written
};

/// A workload's result. Metrics keep insertion order; the driver prints the
/// end-to-end set in untraced runs and the per-layer set in traced runs.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> checks;  // "ok: ..." / "FAILED: ..." lines
  std::vector<std::string> notes;   // sample counts and other context

  void Set(const std::string& name, double value, const std::string& unit);
  void Check(bool ok, const std::string& what);
  void Note(const std::string& line);
};

/// Names of every per-layer metric, in report order. A traced run reports
/// each one; a layer the workload never calls reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Writes the result (plus build type, nproc and thread count) as JSON to
/// `path`. Returns false on an I/O failure.
bool WriteResultJson(const std::string& path, const RunConfig& config,
                     const Result& result);

/// The library's profiling counters (counted only while profiling is on)
/// and an allocator's request counts. Taken before and after each traced op
/// and summed, so the per-layer counter metrics cover exactly that work.
struct Counters {
  int64_t gemm_flops = 0;
  int64_t parallel_regions = 0;
  int64_t parallel_inline = 0;
  int64_t pool_hits = 0;
  int64_t pool_misses = 0;
  int64_t oversize = 0;

  static Counters Take(const enhancenet::TensorAllocator& allocator);
  Counters operator-(const Counters& other) const;
  Counters& operator+=(const Counters& other);
};

/// Sets runtime.alloc.hit_rate, runtime.alloc.misses_per_op,
/// runtime.parallel.inline_share and tensor.gemm_flops_per_op from counter
/// deltas summed over `ops` operations.
void SetCounterMetrics(const Counters& delta, int64_t ops, Result* result);

/// Times io::SaveCheckpoint of `model` and io::LoadCheckpoint into `fresh`
/// (same architecture) three times each through the file `path`, which is
/// removed afterwards; sets io.checkpoint_save_ms / io.checkpoint_load_ms
/// (medians) and checks the round trip.
void MeasureCheckpointIo(const enhancenet::nn::Module& model,
                         enhancenet::nn::Module* fresh, const std::string& path,
                         Result* result);

/// printf into a std::string (for check and note lines).
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// True when every element is finite.
bool AllFinite(const enhancenet::Tensor& t);

/// Largest |a - b| over two same-shaped tensors (infinity on shape mismatch).
double MaxAbsDiff(const enhancenet::Tensor& a, const enhancenet::Tensor& b);

/// Seed for one named stream of a run, so data, weights and schedules draw
/// from independent generators that all follow --seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// Wall-clock seconds of `fn`.
template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const auto start = SpanRecorder::Clock::now();
  fn();
  return std::chrono::duration<double>(SpanRecorder::Clock::now() - start)
      .count();
}

/// CPU seconds used so far by every thread of this process (user and
/// system). Time the hypervisor steals from the machine's virtual CPUs is
/// not counted, so on a shared host this measures the program's own work,
/// where wall-clock time also measures its neighbours.
double ProcessCpuSeconds();

/// Process CPU seconds spent while `fn` runs (on any of its threads).
template <typename Fn>
double CpuSeconds(Fn&& fn) {
  const double start = ProcessCpuSeconds();
  fn();
  return ProcessCpuSeconds() - start;
}

/// The workloads. Each fills `result`; `spans` is null in untraced runs.
void RunTrain(const RunConfig& config, SpanRecorder* spans, Result* result);
void RunForecast(const RunConfig& config, SpanRecorder* spans,
                 Result* result);
void RunServe(const RunConfig& config, SpanRecorder* spans, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
