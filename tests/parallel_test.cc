#include "runtime/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "runtime/context.h"

namespace enhancenet {
namespace {

// Every test restores the global thread count so ordering never leaks.
class ParallelTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = GetNumThreads(); }
  void TearDown() override { SetNumThreads(saved_threads_); }
  int saved_threads_ = 1;
};

TEST_F(ParallelTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(GetNumThreads(), 1);
}

TEST_F(ParallelTest, SetNumThreadsClampsToOne) {
  SetNumThreads(0);
  EXPECT_EQ(GetNumThreads(), 1);
  SetNumThreads(-7);
  EXPECT_EQ(GetNumThreads(), 1);
  SetNumThreads(4);
  EXPECT_EQ(GetNumThreads(), 4);
}

TEST_F(ParallelTest, EmptyRangeNeverInvokes) {
  SetNumThreads(4);
  int calls = 0;
  ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  ParallelFor(7, 3, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST_F(ParallelTest, CostBelowMinimumRunsInlineAsOneCall) {
  SetNumThreads(4);
  const std::thread::id caller = std::this_thread::get_id();
  // 17 indices whose total cost falls just short of one minimum chunk, and
  // a single index costing almost two: neither is worth a thread.
  const std::pair<int64_t, int64_t> cases[] = {
      {17, kMinChunkCost / 17 - 1}, {1, 2 * kMinChunkCost - 1}};
  for (const auto& [n, cost] : cases) {
    std::vector<std::pair<int64_t, int64_t>> chunks;
    bool on_caller = true;
    ParallelFor(3, 3 + n, cost, [&](int64_t b, int64_t e) {
      chunks.emplace_back(b, e);  // single inline call: no race possible
      on_caller = on_caller && std::this_thread::get_id() == caller;
    });
    ASSERT_EQ(chunks.size(), 1u) << "n=" << n;
    EXPECT_EQ(chunks[0].first, 3);
    EXPECT_EQ(chunks[0].second, 3 + n);
    EXPECT_TRUE(on_caller);
  }
}

TEST_F(ParallelTest, CoversEveryIndexExactlyOnce) {
  SetNumThreads(4);
  const int64_t n = 10007;  // prime: no chunking lines up evenly
  std::vector<int> hits(n, 0);
  ParallelFor(0, n, kMinChunkCost / 8, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) ++hits[i];  // index owned by one chunk
  });
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST_F(ParallelTest, ChunksCarryMinimumCostAndNumberAtMostFourPerThread) {
  // {threads, n, cost per index}: total cost of 2.5, 9.7 and thousands of
  // minimum chunks, and a range whose every index is worth a chunk.
  const int64_t cases[][3] = {{4, 977, kMinChunkCost / 390},
                              {4, 977, kMinChunkCost / 100},
                              {3, 100003, kMinChunkCost / 16},
                              {2, 5, 4 * kMinChunkCost}};
  for (const auto& [threads, n, cost] : cases) {
    SetNumThreads(static_cast<int>(threads));
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> chunks;
    ParallelFor(0, n, cost, [&](int64_t b, int64_t e) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace_back(b, e);
    });
    std::sort(chunks.begin(), chunks.end());
    ASSERT_GE(chunks.size(), 2u) << "n=" << n;
    EXPECT_LE(static_cast<int64_t>(chunks.size()), 4 * threads) << "n=" << n;
    int64_t next = 0;
    for (size_t c = 0; c < chunks.size(); ++c) {
      const auto [b, e] = chunks[c];
      ASSERT_EQ(b, next) << "n=" << n;
      ASSERT_LT(b, e);
      if (c + 1 < chunks.size()) {
        EXPECT_GE((e - b) * cost, kMinChunkCost) << "n=" << n << " chunk " << c;
      }
      next = e;
    }
    EXPECT_EQ(next, n);
  }
}

TEST_F(ParallelTest, EveryRegionIsCountedOnce) {
  SetNumThreads(4);
  obs::Registry& registry = obs::Registry::Global();
  obs::Counter* regions = registry.GetCounter("parallel.regions");
  obs::Counter* inline_regions = registry.GetCounter("parallel.inline_regions");
  runtime::SetProfilingEnabled(true);
  const int64_t regions_before = regions->Get();
  const int64_t inline_before = inline_regions->Get();
  ParallelFor(0, 10, 1, [](int64_t, int64_t) {});              // inline
  ParallelFor(0, 64, kMinChunkCost, [](int64_t, int64_t) {});  // pooled
  SetNumThreads(1);
  ParallelFor(0, 64, kMinChunkCost, [](int64_t, int64_t) {});  // inline
  runtime::SetProfilingEnabled(false);
  EXPECT_EQ(regions->Get() - regions_before, 3);
  EXPECT_EQ(inline_regions->Get() - inline_before, 2);
}

TEST_F(ParallelTest, PropagatesFirstExceptionAndPoolSurvives) {
  SetNumThreads(4);
  EXPECT_THROW(
      ParallelFor(0, 100000, kMinChunkCost,
                  [&](int64_t b, int64_t) {
                    if (b >= 25000) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The pool must be reusable after an exception.
  std::atomic<int64_t> total{0};
  ParallelFor(0, 1000, kMinChunkCost,
              [&](int64_t b, int64_t e) { total += e - b; });
  EXPECT_EQ(total.load(), 1000);
}

TEST_F(ParallelTest, NestedCallsRunInlineWithoutDeadlock) {
  SetNumThreads(4);
  const int64_t outer = 64;
  const int64_t inner = 50;
  std::atomic<int64_t> count{0};
  ParallelFor(0, outer, kMinChunkCost, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      EXPECT_TRUE(InParallelRegion());
      int64_t local = 0;  // inner region is inline: no race on `local`
      ParallelFor(0, inner, kMinChunkCost,
                  [&](int64_t ib, int64_t ie) { local += ie - ib; });
      count += local;
    }
  });
  EXPECT_EQ(count.load(), outer * inner);
}

TEST_F(ParallelTest, SingleThreadRunsOnCallingThread) {
  SetNumThreads(1);
  const std::thread::id caller = std::this_thread::get_id();
  bool all_on_caller = true;
  ParallelFor(0, 100000, kMinChunkCost, [&](int64_t, int64_t) {
    if (std::this_thread::get_id() != caller) all_on_caller = false;
  });
  EXPECT_TRUE(all_on_caller);
}

// Regression test for the late-waking-worker race: a worker woken for job N
// but scheduled only after job N completed must not enter the (already
// reused) job state of job N+1 — pre-fix this invoked a dangling
// std::function from the previous ParallelFor frame. Tiny back-to-back
// regions maximize that window; run under TSAN this reported the race.
TEST_F(ParallelTest, BackToBackTinyRegionsSurviveLateWakingWorkers) {
  SetNumThreads(4);
  for (int iter = 0; iter < 5000; ++iter) {
    std::vector<int> out(64, 0);
    ParallelFor(0, 64, kMinChunkCost, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) out[static_cast<size_t>(i)] = 1;
    });
    int64_t covered = 0;
    for (int v : out) covered += v;
    ASSERT_EQ(covered, 64);
  }
}

TEST_F(ParallelTest, ParallelSumBitwiseInvariantAcrossThreadCounts) {
  const int64_t n = 300000;
  std::vector<float> values(n);
  for (int64_t i = 0; i < n; ++i) {
    values[i] = 1.0f / static_cast<float>(i + 1) - 0.001f * static_cast<float>(i % 97);
  }
  auto run = [&] {
    return ParallelSum(n, [&](int64_t lo, int64_t hi) {
      double s = 0.0;
      for (int64_t i = lo; i < hi; ++i) s += values[i];
      return s;
    });
  };
  SetNumThreads(1);
  const double serial = run();
  SetNumThreads(4);
  const double threaded = run();
  EXPECT_EQ(serial, threaded);  // bitwise: fixed block combine order
}

}  // namespace
}  // namespace enhancenet
