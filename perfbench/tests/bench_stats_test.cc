// Tests of the benchmark's own statistics: percentile choice, goodput with
// failures, seed-determined schedules, and span self time.

#include "bench_stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

TEST(PercentileTest, InterpolatesLikeNumpyLinear) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

TEST(PercentileTest, CountsSamplesBeyondTheInterpolationPoint) {
  // 200 samples: p95 sits at rank 189.05, so ranks 190..199 lie beyond it.
  EXPECT_EQ(SamplesBeyond(200, 0.95), 10);
  EXPECT_EQ(SamplesBeyond(200, 0.99), 2);
  EXPECT_EQ(SamplesBeyond(199, 0.95), 10);
  EXPECT_EQ(SamplesBeyond(100, 0.95), 5);
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0);
}

TEST(PercentileTest, ChoosesHighestPercentileWithTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(200), 0.95);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(1000), 0.99);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(10001), 0.999);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(100), 0.9);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(21), 0.5);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(20), 0.5);  // ranks 10..19
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(19), -1.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(199), 0.95);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(150), 0.9);
}

TEST(GoodputTest, CountsFailuresAsMisses) {
  const std::vector<RequestOutcome> outcomes = {
      {10.0, true},    // in SLO
      {149.0, true},   // in SLO
      {151.0, true},   // late
      {5.0, false},    // fast but failed: a miss
      {150.0, true},   // exactly at the limit counts
  };
  EXPECT_DOUBLE_EQ(GoodputPerSecond(outcomes, 150.0, 2.0), 1.5);
  EXPECT_DOUBLE_EQ(GoodputPerSecond(outcomes, 150.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(GoodputPerSecond({}, 150.0, 1.0), 0.0);
}

TEST(ScheduleTest, SameSeedSameSchedule) {
  const std::vector<double> a = PoissonSchedule(42, 20.0, 5.0, 10.0);
  const std::vector<double> b = PoissonSchedule(42, 20.0, 5.0, 10.0);
  EXPECT_EQ(a, b);
  const std::vector<double> c = PoissonSchedule(43, 20.0, 5.0, 10.0);
  EXPECT_NE(a, c);
}

TEST(ScheduleTest, FixedCountSortedAndInsideTheWindow) {
  const std::vector<double> times = PoissonSchedule(7, 10.0, 2.0, 20.0);
  ASSERT_EQ(times.size(), 200u);
  for (size_t i = 0; i < times.size(); ++i) {
    EXPECT_GE(times[i], 2.0);
    EXPECT_LT(times[i], 22.0);
    if (i > 0) {
      EXPECT_LE(times[i - 1], times[i]);
    }
  }
  EXPECT_TRUE(PoissonSchedule(7, 10.0, 0.0, 0.0).empty());
}

TEST(ScheduleTest, GapsAverageTheInverseRate) {
  const std::vector<double> times = PoissonSchedule(11, 50.0, 0.0, 200.0);
  ASSERT_EQ(times.size(), 10000u);
  const double mean_gap = (times.back() - times.front()) /
                          static_cast<double>(times.size() - 1);
  EXPECT_NEAR(mean_gap, 0.02, 0.001);
}

Span MakeSpan(int64_t start_ms, int64_t end_ms, int parent) {
  Span s;
  s.name = "s";
  s.start_ns = start_ms * 1000000;
  s.end_ns = end_ms * 1000000;
  s.parent = parent;
  return s;
}

TEST(SpanTest, SelfTimeSubtractsChildren) {
  const std::vector<Span> spans = {
      MakeSpan(0, 100, -1),  // root
      MakeSpan(10, 30, 0),   // child
      MakeSpan(50, 60, 0),   // child
      MakeSpan(12, 20, 1),   // grandchild: counts against its parent only
  };
  const std::vector<double> self = SelfTimesMs(spans);
  EXPECT_DOUBLE_EQ(self[0], 70.0);
  EXPECT_DOUBLE_EQ(self[1], 12.0);
  EXPECT_DOUBLE_EQ(self[2], 10.0);
  EXPECT_DOUBLE_EQ(self[3], 8.0);
}

TEST(SpanTest, OverlappingChildrenCountOnceAndAreClipped) {
  const std::vector<Span> spans = {
      MakeSpan(0, 100, -1),
      MakeSpan(10, 40, 0),
      MakeSpan(30, 50, 0),    // overlaps the previous child by 10
      MakeSpan(90, 120, 0),   // runs past the parent's end
  };
  const std::vector<double> self = SelfTimesMs(spans);
  EXPECT_DOUBLE_EQ(self[0], 100.0 - 40.0 - 10.0);
}

TEST(SpanTest, RecorderKeepsParentsAndTotals) {
  SpanRecorder recorder;
  {
    ScopedSpan outer(&recorder, "outer", -1, 3);
    ScopedSpan inner(&recorder, "inner", outer.id(), 3);
  }
  recorder.Add("inner", 0, 2000000, -1, 4);
  const std::vector<Span> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
  EXPECT_DOUBLE_EQ(TotalMs(spans, "inner", 4), 2.0);
  EXPECT_GE(TotalMs(spans, "inner"), 2.0);
  ScopedSpan off(nullptr, "ignored");  // a null recorder records nothing
  EXPECT_EQ(off.id(), -1);
}

}  // namespace
}  // namespace perfbench
