// Tests for the runtime layer: env-var validation, RuntimeContext binding
// and isolation, the Workspace arena, thread-state propagation through
// ParallelFor, and two InferenceSessions predicting concurrently from
// independent contexts (run under ENHANCENET_SANITIZE=thread to prove the
// sessions share no allocator state).
//
// The env death tests are declared first on purpose: the library env
// accessors cache on first parse, so the fatal paths must be exercised
// before any test touches RuntimeContext::Default().

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "autograd/grad_mode.h"
#include "autograd/ops.h"
#include "core/damgn.h"
#include "data/synthetic.h"
#include "graph/adjacency.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/allocator.h"
#include "runtime/context.h"
#include "runtime/env.h"
#include "runtime/parallel.h"
#include "runtime/workspace.h"
#include "serve/inference_session.h"
#include "tensor/tensor_ops.h"

namespace enhancenet {
namespace {

namespace ag = ::enhancenet::autograd;

// ---------------------------------------------------------------------------
// Env validation (death tests first; see file comment)
// ---------------------------------------------------------------------------

TEST(RuntimeEnvDeathTest, MalformedNumThreadsDies) {
  EXPECT_DEATH(
      {
        setenv("ENHANCENET_NUM_THREADS", "lots", /*overwrite=*/1);
        runtime::EnvNumThreads();
      },
      "ENHANCENET_NUM_THREADS must be an integer");
}

TEST(RuntimeEnvDeathTest, OutOfRangeNumThreadsDies) {
  EXPECT_DEATH(
      {
        setenv("ENHANCENET_NUM_THREADS", "0", /*overwrite=*/1);
        runtime::EnvNumThreads();
      },
      "ENHANCENET_NUM_THREADS must be an integer in \\[1, 4096\\]");
}

TEST(RuntimeEnvDeathTest, MalformedBoolDies) {
  EXPECT_DEATH(
      {
        setenv("ENHANCENET_PROFILE", "maybe", /*overwrite=*/1);
        runtime::EnvProfiling();
      },
      "ENHANCENET_PROFILE must be one of");
}

TEST(RuntimeEnvDeathTest, MalformedShardsDies) {
  EXPECT_DEATH(
      {
        setenv("ENHANCENET_SHARDS", "many", /*overwrite=*/1);
        runtime::EnvShards();
      },
      "ENHANCENET_SHARDS must be an integer in \\[1, 1024\\]");
}

TEST(RuntimeEnvDeathTest, OutOfRangeShardsDies) {
  EXPECT_DEATH(
      {
        setenv("ENHANCENET_SHARDS", "0", /*overwrite=*/1);
        runtime::EnvShards();
      },
      "ENHANCENET_SHARDS must be an integer in \\[1, 1024\\]");
}

TEST(RuntimeEnvDeathTest, MalformedSloMsDies) {
  EXPECT_DEATH(
      {
        setenv("ENHANCENET_SLO_MS", "fast", /*overwrite=*/1);
        runtime::EnvSloMs();
      },
      "ENHANCENET_SLO_MS must be a number");
}

TEST(RuntimeEnvDeathTest, NonPositiveSloMsDies) {
  EXPECT_DEATH(
      {
        setenv("ENHANCENET_SLO_MS", "-5", /*overwrite=*/1);
        runtime::EnvSloMs();
      },
      "ENHANCENET_SLO_MS must be a number in \\(0, 1e7\\]");
}

TEST(RuntimeEnvTest, DefaultsWhenUnset) {
  // The harness does not set ENHANCENET_* for tests, so the accessors see
  // unset variables and produce the documented defaults.
  EXPECT_GE(runtime::EnvNumThreads(), 1);
  EXPECT_FALSE(runtime::EnvProfiling());
  EXPECT_EQ(runtime::EnvShards(), 1);  // single-context execution by default
  EXPECT_EQ(runtime::EnvSloMs(), 0.0);  // no process-wide SLO by default
  EXPECT_EQ(runtime::EnvMetricsOut(), nullptr);
}

TEST(RuntimeEnvTest, BenchModeVarsReparseEveryCall) {
  ASSERT_FALSE(runtime::EnvQuickMode());
  setenv("ENHANCENET_QUICK", "on", /*overwrite=*/1);
  EXPECT_TRUE(runtime::EnvQuickMode());
  setenv("ENHANCENET_QUICK", "0", /*overwrite=*/1);
  EXPECT_FALSE(runtime::EnvQuickMode());
  unsetenv("ENHANCENET_QUICK");
  EXPECT_FALSE(runtime::EnvQuickMode());
}

// ---------------------------------------------------------------------------
// Context binding
// ---------------------------------------------------------------------------

TEST(RuntimeContextTest, CurrentFallsBackToDefault) {
  EXPECT_EQ(&runtime::RuntimeContext::Current(),
            &runtime::RuntimeContext::Default());
  EXPECT_EQ(runtime::detail::BoundContextOrNull(), nullptr);
}

TEST(RuntimeContextTest, BindNestsAndRestores) {
  runtime::RuntimeContext outer;
  runtime::RuntimeContext inner;
  {
    runtime::RuntimeContext::Bind bind_outer(outer);
    EXPECT_EQ(&runtime::RuntimeContext::Current(), &outer);
    {
      runtime::RuntimeContext::Bind bind_inner(inner);
      EXPECT_EQ(&runtime::RuntimeContext::Current(), &inner);
    }
    EXPECT_EQ(&runtime::RuntimeContext::Current(), &outer);
  }
  EXPECT_EQ(&runtime::RuntimeContext::Current(),
            &runtime::RuntimeContext::Default());
}

TEST(RuntimeContextTest, DefaultConstructionSharesDefaultAllocatorAndExec) {
  runtime::RuntimeContext context;
  EXPECT_EQ(&context.allocator(), &TensorAllocator::Global());
  EXPECT_EQ(context.exec_ptr(),
            runtime::RuntimeContext::Default().exec_ptr());
  // ... but the workspace is always private.
  EXPECT_NE(&context.workspace(),
            &runtime::RuntimeContext::Default().workspace());
}

TEST(RuntimeContextTest, PrivateAllocatorIsolatesAllocations) {
  runtime::RuntimeContext::Options options;
  options.private_allocator = true;
  runtime::RuntimeContext context(options);
  ASSERT_NE(&context.allocator(), &TensorAllocator::Global());

  const int64_t default_before = TensorAllocator::Global().GetStats().requests;
  const int64_t private_before = context.allocator().GetStats().requests;
  {
    runtime::RuntimeContext::Bind bound(context);
    Tensor t(Shape{64, 64});
    EXPECT_GT(t.numel(), 0);
  }
  EXPECT_EQ(TensorAllocator::Global().GetStats().requests, default_before);
  EXPECT_GT(context.allocator().GetStats().requests, private_before);
}

TEST(RuntimeContextTest, PrivateExecIsIndependent) {
  runtime::RuntimeContext::Options options;
  options.private_exec = true;
  runtime::RuntimeContext context(options);
  const int default_threads = GetNumThreads();
  {
    runtime::RuntimeContext::Bind bound(context);
    SetNumThreads(default_threads + 3);
    EXPECT_EQ(GetNumThreads(), default_threads + 3);
  }
  // The override stayed inside the private exec config.
  EXPECT_EQ(GetNumThreads(), default_threads);
}

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

TEST(WorkspaceTest, ReusesExactSizeBlocks) {
  runtime::Workspace workspace;
  float* first = nullptr;
  {
    std::shared_ptr<float[]> block = workspace.Acquire(100);
    first = block.get();
  }
  {
    std::shared_ptr<float[]> block = workspace.Acquire(100);
    EXPECT_EQ(block.get(), first);  // exact-size free list hit
  }
  {
    std::shared_ptr<float[]> block = workspace.Acquire(101);
    EXPECT_NE(block.get(), first);  // different numel: no cross-size reuse
  }
  const runtime::WorkspaceStats stats = workspace.GetStats();
  EXPECT_EQ(stats.acquires, 3);
  EXPECT_EQ(stats.hits, 1);
}

TEST(WorkspaceTest, TrimFreesCachedBlocks) {
  runtime::Workspace workspace;
  workspace.Acquire(256);  // released immediately -> cached
  EXPECT_GT(workspace.GetStats().bytes_cached, 0);
  workspace.Trim();
  EXPECT_EQ(workspace.GetStats().bytes_cached, 0);
}

TEST(WorkspaceTest, TensorCanAdoptWorkspaceStorage) {
  runtime::Workspace workspace;
  float* block_ptr = nullptr;
  {
    std::shared_ptr<float[]> block = workspace.Acquire(12);
    block_ptr = block.get();
    Tensor t = Tensor::WithStorage(std::move(block), Shape{3, 4});
    EXPECT_EQ(t.data(), block_ptr);
    t.Fill(2.5f);
    EXPECT_EQ(t.at({2, 3}), 2.5f);
  }
  // The tensor's storage went back to the arena, not the heap.
  std::shared_ptr<float[]> again = workspace.Acquire(12);
  EXPECT_EQ(again.get(), block_ptr);
}

// ---------------------------------------------------------------------------
// ParallelFor thread-state propagation (regression: a no-grad scope must
// hold inside parallel regions)
// ---------------------------------------------------------------------------

TEST(ParallelPropagationTest, NoGradHoldsInsideParallelRegion) {
  const int saved_threads = GetNumThreads();
  SetNumThreads(4);
  constexpr int64_t kRange = 4096;
  // Retry until a pool worker (not just the caller) has executed a chunk:
  // chunks are cheap enough that the caller can occasionally drain the
  // whole range before a worker wakes. The no-grad invariant is asserted on
  // every attempt regardless of which threads ran.
  std::set<std::thread::id> thread_ids;
  for (int attempt = 0; attempt < 50 && thread_ids.size() < 2; ++attempt) {
    std::vector<char> grad_seen(kRange, 2);
    std::mutex mu;
    thread_ids.clear();
    {
      ag::NoGradGuard no_grad;
      ParallelFor(0, kRange, kMinChunkCost, [&](int64_t begin, int64_t end) {
        const char enabled = ag::GradMode::IsEnabled() ? 1 : 0;
        for (int64_t i = begin; i < end; ++i) grad_seen[i] = enabled;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        std::lock_guard<std::mutex> lock(mu);
        thread_ids.insert(std::this_thread::get_id());
      });
    }
    for (int64_t i = 0; i < kRange; ++i) {
      ASSERT_EQ(grad_seen[i], 0) << "grad mode leaked into chunk at " << i;
    }
    EXPECT_TRUE(ag::GradMode::IsEnabled());  // restored on the caller
  }
  SetNumThreads(saved_threads);
  // The range really was executed by the pool, not inline on the caller.
  EXPECT_GE(thread_ids.size(), 2u);
}

TEST(ParallelPropagationTest, BoundContextReachesWorkers) {
  runtime::RuntimeContext::Options options;
  options.private_allocator = true;
  runtime::RuntimeContext context(options);
  const int saved_threads = GetNumThreads();
  SetNumThreads(4);
  std::atomic<int64_t> wrong_context{0};
  {
    runtime::RuntimeContext::Bind bound(context);
    ParallelFor(0, 4096, kMinChunkCost, [&](int64_t begin, int64_t end) {
      if (&runtime::RuntimeContext::Current() != &context) {
        wrong_context.fetch_add(end - begin);
      }
    });
  }
  SetNumThreads(saved_threads);
  EXPECT_EQ(wrong_context.load(), 0);
  EXPECT_EQ(&runtime::RuntimeContext::Current(),
            &runtime::RuntimeContext::Default());
}

TEST(ParallelPropagationTest, TraceStackReachesWorkers) {
  const int saved_threads = GetNumThreads();
  SetNumThreads(4);
  std::atomic<int64_t> wrong_stack{0};
  {
    obs::TraceSpan span("runtime_test_region");
    ParallelFor(0, 4096, kMinChunkCost, [&](int64_t begin, int64_t end) {
      const std::vector<const char*> stack = obs::TraceSpan::SnapshotStack();
      if (stack.size() != 1 ||
          std::string(stack[0]) != "runtime_test_region") {
        wrong_stack.fetch_add(end - begin);
      }
    });
    // The caller's own stack survived the region.
    const std::vector<const char*> after = obs::TraceSpan::SnapshotStack();
    ASSERT_EQ(after.size(), 1u);
    EXPECT_EQ(std::string(after[0]), "runtime_test_region");
  }
  SetNumThreads(saved_threads);
  EXPECT_EQ(wrong_stack.load(), 0);
  EXPECT_TRUE(obs::TraceSpan::SnapshotStack().empty());
}

// ---------------------------------------------------------------------------
// Sharded allocator
// ---------------------------------------------------------------------------

TEST(ShardedAllocatorTest, SingleThreadUsesShardZero) {
  TensorAllocator allocator(/*export_metrics=*/false, /*num_shards=*/4);
  for (int i = 0; i < 3; ++i) allocator.Allocate(256);
  const std::vector<AllocatorShardStats> shards = allocator.GetShardStats();
  ASSERT_EQ(static_cast<int>(shards.size()), allocator.num_shards());
  int64_t total_hits = 0;
  int64_t total_misses = 0;
  for (const AllocatorShardStats& shard : shards) {
    total_hits += shard.pool_hits;
    total_misses += shard.pool_misses;
  }
  const AllocatorStats stats = allocator.GetStats();
  EXPECT_EQ(total_hits, stats.pool_hits);
  EXPECT_EQ(total_misses, stats.pool_misses);
  // All this thread's traffic landed on one shard (whatever its ordinal
  // maps to), so exactly one shard saw the 1 miss + 2 hits.
  EXPECT_EQ(stats.pool_hits, 2);
  EXPECT_EQ(stats.pool_misses, 1);
}

TEST(ShardedAllocatorTest, DefaultAllocatorExportsShardGauges) {
  // Touch the default allocator so the gauges carry fresh values.
  { Tensor t(Shape{128}); }
  { Tensor t(Shape{128}); }
  obs::Registry& registry = obs::Registry::Global();
  for (int i = 0; i < TensorAllocator::Global().num_shards(); ++i) {
    obs::Gauge* gauge = registry.GetGauge("tensor.alloc.shard." +
                                          std::to_string(i) + ".hit_rate");
    ASSERT_NE(gauge, nullptr);
    EXPECT_GE(gauge->Get(), 0.0);
    EXPECT_LE(gauge->Get(), 1.0);
  }
}

// ---------------------------------------------------------------------------
// DAMGN workspace fast path: bitwise parity with the recording path
// ---------------------------------------------------------------------------

TEST(RuntimeWorkspaceIntegrationTest, DamgnDynamicCMatchesRecordingPath) {
  constexpr int64_t kN = 6;
  Rng rng(33);
  Tensor dist = Tensor::RandUniform({kN, kN}, rng, 0.1f, 10.0f);
  Tensor adjacency = graph::GaussianKernelAdjacency(dist);
  core::Damgn damgn(adjacency, kN, /*in_channels=*/2, /*mem_dim=*/5,
                    /*embed_dim=*/4, rng);
  ag::Variable x =
      ag::Variable::Leaf(Tensor::Randn({3, kN, 2}, rng), /*requires_grad=*/false);

  const Tensor recorded = damgn.DynamicC(x).data();
  Tensor fast;
  {
    ag::NoGradGuard no_grad;
    fast = damgn.DynamicC(x).data();
  }
  ASSERT_EQ(ShapeToString(fast.shape()), ShapeToString(recorded.shape()));
  const float* a = recorded.data();
  const float* b = fast.data();
  for (int64_t i = 0; i < recorded.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "element " << i << " diverged";
  }

  // A second no-grad call reuses the arena blocks instead of allocating.
  const runtime::WorkspaceStats before =
      runtime::RuntimeContext::Current().workspace().GetStats();
  {
    ag::NoGradGuard no_grad;
    damgn.DynamicC(x);
  }
  const runtime::WorkspaceStats after =
      runtime::RuntimeContext::Current().workspace().GetStats();
  EXPECT_EQ(after.acquires - before.acquires, 3);
  // Two of the three blocks (the transpose and scores scratch) came back to
  // the arena after the first call; the third (the probs block) is still
  // pinned by `fast`, so the second call's probs acquire misses.
  EXPECT_EQ(after.hits - before.hits, 2);
}

// ---------------------------------------------------------------------------
// Concurrent serving: two sessions, independent contexts, no shared
// allocator. Run under ENHANCENET_SANITIZE=thread for the full guarantee.
// ---------------------------------------------------------------------------

class ConcurrentServeTest : public ::testing::Test {
 protected:
  static constexpr int64_t kEntities = 8;
  static constexpr int64_t kHistory = 12;

  void SetUp() override {
    data_ = data::MakeEbLike(kEntities, 2, /*seed=*/7);
    adjacency_ = graph::GaussianKernelAdjacency(data_.distances);
    scaler_.Fit(data_.series, 0, data_.num_steps() * 7 / 10);
  }

  serve::ModelSpec Spec() const {
    serve::ModelSpec spec;
    spec.model_name = "D-GRNN";
    spec.num_entities = kEntities;
    spec.in_channels = 1;
    spec.target_channel = 0;
    spec.adjacency = adjacency_;
    spec.sizing = TinySizing();
    spec.checkpoint_path.clear();  // fresh weights: fine for this test
    return spec;
  }

  static models::ModelSizing TinySizing() {
    models::ModelSizing sizing;
    sizing.rnn_hidden = 8;
    sizing.rnn_hidden_dfgn = 6;
    sizing.memory_dim = 6;
    sizing.dfgn_hidden1 = 6;
    sizing.dfgn_hidden2 = 3;
    return sizing;
  }

  std::unique_ptr<serve::InferenceSession> MakeSession() {
    std::unique_ptr<serve::InferenceSession> session;
    serve::SessionOptions options;
    options.seed = 77;
    const Status status =
        serve::InferenceSession::Create(Spec(), options, scaler_, &session);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return session;
  }

  Tensor RawWindow(int64_t t) const {
    Tensor window(Shape{kEntities, kHistory, 1});
    for (int64_t i = 0; i < kEntities; ++i) {
      for (int64_t h = 0; h < kHistory; ++h) {
        window.at({i, h, 0}) = data_.series.at({i, t - kHistory + 1 + h, 0});
      }
    }
    return window;
  }

  data::CtsData data_;
  Tensor adjacency_;
  data::StandardScaler scaler_;
};

TEST_F(ConcurrentServeTest, TwoSessionsPredictConcurrentlyWithoutSharing) {
  std::unique_ptr<serve::InferenceSession> session_a = MakeSession();
  std::unique_ptr<serve::InferenceSession> session_b = MakeSession();
  ASSERT_NE(session_a, nullptr);
  ASSERT_NE(session_b, nullptr);

  TensorAllocator& alloc_a = session_a->context().allocator();
  TensorAllocator& alloc_b = session_b->context().allocator();
  // Independent contexts: no common allocator, and neither is the default.
  EXPECT_NE(&alloc_a, &alloc_b);
  EXPECT_NE(&alloc_a, &TensorAllocator::Global());
  EXPECT_NE(&alloc_b, &TensorAllocator::Global());

  // Baseline: one session, one thread, steady-state hit rate.
  double baseline = 0.0;
  {
    std::unique_ptr<serve::InferenceSession> solo = MakeSession();
    const Tensor window = RawWindow(kHistory + 5);
    serve::PredictRequest request;
    request.history = window;
    serve::PredictResponse response;
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(solo->Predict(request, &response).ok());
    }
    solo->context().allocator().ResetStats();
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(solo->Predict(request, &response).ok());
    }
    baseline = solo->context().allocator().GetStats().HitRate();
  }

  constexpr int kThreadsPerSession = 4;
  constexpr int kWarmupReps = 2;
  constexpr int kMeasureReps = 3;
  // 8 worker threads + this coordinator. Workers stay alive across the
  // warmup -> reset -> measure phases because allocator shard identity is
  // per OS thread.
  std::barrier sync(2 * kThreadsPerSession + 1);
  std::atomic<int> failures{0};

  auto worker = [&](serve::InferenceSession* session, int64_t t) {
    const Tensor window = RawWindow(t);
    serve::PredictRequest request;
    request.history = window;
    serve::PredictResponse response;
    for (int i = 0; i < kWarmupReps; ++i) {
      if (!session->Predict(request, &response).ok()) failures.fetch_add(1);
    }
    sync.arrive_and_wait();  // warmup done
    sync.arrive_and_wait();  // stats reset by the coordinator
    for (int i = 0; i < kMeasureReps; ++i) {
      if (!session->Predict(request, &response).ok()) failures.fetch_add(1);
    }
    sync.arrive_and_wait();  // measurement done
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < kThreadsPerSession; ++i) {
    threads.emplace_back(worker, session_a.get(), kHistory + 3 + i);
    threads.emplace_back(worker, session_b.get(), kHistory + 3 + i);
  }

  sync.arrive_and_wait();  // warmup done
  alloc_a.ResetStats();
  alloc_b.ResetStats();
  const int64_t default_requests_before =
      TensorAllocator::Global().GetStats().requests;
  sync.arrive_and_wait();  // release workers into the measured phase
  sync.arrive_and_wait();  // measurement done
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  // Predict allocates only from the session's own context: the default
  // allocator saw no traffic during the measured phase.
  EXPECT_EQ(TensorAllocator::Global().GetStats().requests,
            default_requests_before);

  // Sharding keeps the sessions' hit rates at the single-session level:
  // each thread's traffic cycles through its own shard, so concurrency
  // costs no pool misses.
  const AllocatorStats stats_a = alloc_a.GetStats();
  const AllocatorStats stats_b = alloc_b.GetStats();
  EXPECT_GT(stats_a.requests, 0);
  EXPECT_GT(stats_b.requests, 0);
  EXPECT_GE(stats_a.HitRate(), baseline - 1e-9);
  EXPECT_GE(stats_b.HitRate(), baseline - 1e-9);
}

}  // namespace
}  // namespace enhancenet
