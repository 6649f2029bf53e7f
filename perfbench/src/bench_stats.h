#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

// Statistics the benchmark reports, kept free of any library dependency so
// tests/bench_stats_test.cc can pin them down in isolation.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolation percentile (q in [0, 1]) of `values`; 0 when empty.
/// Matches numpy's default ("linear") method.
double Percentile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

/// Samples ranked strictly above the interpolation point of percentile q in
/// a sample of size n: n - 1 - floor(q * (n - 1)).
int64_t SamplesBeyond(int64_t n, double q);

/// The highest of `candidates` (ascending quantiles) that still has at least
/// `min_beyond` samples beyond it in a sample of size n, or -1 when none
/// does. With n = 200 and the default candidates this is 0.95.
double HighestSupportedPercentile(
    int64_t n, int64_t min_beyond = 10,
    const std::vector<double>& candidates = {0.5, 0.9, 0.95, 0.99, 0.999});

/// Outcome of one open-loop request.
struct RequestOutcome {
  double latency_ms = 0.0;  // completion minus scheduled send time
  bool ok = false;          // OK status and a finite, well-shaped forecast
};

/// Windows completed within `slo_ms` per second of `seconds`. A failed
/// request counts as a miss whatever its latency.
double GoodputPerSecond(const std::vector<RequestOutcome>& outcomes,
                        double slo_ms, double seconds);

/// Open-loop arrival times (seconds from the trace start) of a Poisson
/// process of `rate_per_s` on [start_s, start_s + duration_s), conditioned
/// on its expected count round(rate * duration): that many uniform draws,
/// sorted. The count is fixed so every seed yields the same sample size;
/// the times are a pure function of `seed`.
std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double start_s, double duration_s);

/// One timed interval. `parent` indexes the enclosing span (-1 for a root);
/// `request` groups the spans of one request or op (-1 when unused).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t request = -1;
  double duration_ms() const { return 1e-6 * static_cast<double>(end_ns - start_ns); }
};

/// Self time of every span (ms): its duration minus the part of its
/// interval covered by its children (overlapping children counted once,
/// child intervals clipped to the parent's).
std::vector<double> SelfTimesMs(const std::vector<Span>& spans);

/// Thread-safe in-memory span log. Timestamps are nanoseconds since the
/// recorder was built; spans are kept until WriteJson at exit.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  SpanRecorder();

  int64_t NowNs() const;
  int64_t ToNs(Clock::time_point t) const;

  /// Opens a span now and returns its id; close it with End(id).
  int Begin(const std::string& name, int parent = -1, int64_t request = -1);
  void End(int id);
  /// Records an already-finished interval.
  int Add(const std::string& name, int64_t start_ns, int64_t end_ns,
          int parent = -1, int64_t request = -1);

  std::vector<Span> Snapshot() const;

  /// Writes {"spans": [...]} with each span's self time to `path`. Returns
  /// false on any I/O failure. (run.py validates the file before renaming it
  /// into place.)
  bool WriteJson(const std::string& path) const;

 private:
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span; a null recorder makes it a no-op, so untraced runs pay one
/// branch per boundary.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, int parent = -1,
             int64_t request = -1)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name, parent, request)
                                : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

/// Sum of the durations (ms) of spans named `name` with the given request
/// tag (any tag when request < 0).
double TotalMs(const std::vector<Span>& spans, const std::string& name,
               int64_t request = -1);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
