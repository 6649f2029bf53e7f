#include "bench_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <utility>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

int64_t SamplesBeyond(int64_t n, double q) {
  if (n <= 0) return 0;
  const double pos = q * static_cast<double>(n - 1);
  return n - 1 - static_cast<int64_t>(std::floor(pos));
}

double HighestSupportedPercentile(int64_t n, int64_t min_beyond,
                                  const std::vector<double>& candidates) {
  double best = -1.0;
  for (const double q : candidates) {
    if (SamplesBeyond(n, q) >= min_beyond) best = std::max(best, q);
  }
  return best;
}

double GoodputPerSecond(const std::vector<RequestOutcome>& outcomes,
                        double slo_ms, double seconds) {
  if (seconds <= 0.0) return 0.0;
  int64_t good = 0;
  for (const RequestOutcome& o : outcomes) {
    if (o.ok && o.latency_ms <= slo_ms) ++good;
  }
  return static_cast<double>(good) / seconds;
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double start_s, double duration_s) {
  const int64_t count =
      std::max<int64_t>(0, std::llround(rate_per_s * duration_s));
  // std::mt19937_64 and an explicit 53-bit mapping are fully specified by
  // the standard, so the schedule is identical across library versions.
  std::mt19937_64 engine(seed);
  std::vector<double> times(static_cast<size_t>(count));
  for (double& t : times) {
    const double u =
        static_cast<double>(engine() >> 11) * (1.0 / 9007199254740992.0);
    t = start_s + u * duration_s;
  }
  std::sort(times.begin(), times.end());
  return times;
}

std::vector<double> SelfTimesMs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = s.start_ns;  // end of the covered prefix
    for (const auto& [b, e] : kids) {
      const int64_t lo = std::max(b, cursor);
      const int64_t hi = std::min(e, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = 1e-6 * static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return self;
}

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

int64_t SpanRecorder::ToNs(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

int64_t SpanRecorder::NowNs() const { return ToNs(Clock::now()); }

int SpanRecorder::Begin(const std::string& name, int parent,
                        int64_t request) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, now, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::End(int id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int SpanRecorder::Add(const std::string& name, int64_t start_ns,
                      int64_t end_ns, int parent, int64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  const std::vector<Span> spans = Snapshot();
  const std::vector<double> self = SelfTimesMs(spans);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"request\": %lld, "
                 "\"self_ms\": %.6f}%s\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.request), self[i],
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  const bool written = std::fflush(f) == 0 && std::ferror(f) == 0;
  const bool closed = std::fclose(f) == 0;
  return written && closed;
}

double TotalMs(const std::vector<Span>& spans, const std::string& name,
               int64_t request) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (s.name == name && (request < 0 || s.request == request)) {
      total += s.duration_ms();
    }
  }
  return total;
}

}  // namespace perfbench
