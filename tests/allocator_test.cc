#include "runtime/allocator.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/gru.h"
#include "tensor/tensor.h"

namespace enhancenet {
namespace {

namespace ag = ::enhancenet::autograd;

TEST(AllocatorTest, BucketRounding) {
  EXPECT_EQ(TensorAllocator::BucketNumel(0), TensorAllocator::kMinBucketNumel);
  EXPECT_EQ(TensorAllocator::BucketNumel(1), TensorAllocator::kMinBucketNumel);
  EXPECT_EQ(TensorAllocator::BucketNumel(32), 32);
  EXPECT_EQ(TensorAllocator::BucketNumel(33), 64);
  EXPECT_EQ(TensorAllocator::BucketNumel(1000), 1024);
  EXPECT_EQ(TensorAllocator::BucketNumel(TensorAllocator::kMaxBucketNumel),
            TensorAllocator::kMaxBucketNumel);
  // Above the largest bucket the pool is bypassed.
  EXPECT_EQ(TensorAllocator::BucketNumel(TensorAllocator::kMaxBucketNumel + 1),
            -1);
}

TEST(AllocatorTest, NegativeRequestDies) {
  EXPECT_DEATH(TensorAllocator::BucketNumel(-1), "negative allocation");
}

TEST(AllocatorTest, ReuseAfterReturn) {
  TensorAllocator allocator;
  float* first = nullptr;
  {
    std::shared_ptr<float[]> block = allocator.Allocate(100);
    first = block.get();
    block[0] = 42.0f;  // touch the memory
  }
  // The block went back to the 128-float bucket; same-size request gets the
  // same pointer back without a heap allocation.
  std::shared_ptr<float[]> again = allocator.Allocate(100);
  EXPECT_EQ(again.get(), first);

  AllocatorStats stats = allocator.GetStats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.pool_misses, 1);
  EXPECT_EQ(stats.pool_hits, 1);
  EXPECT_EQ(stats.oversize, 0);
}

TEST(AllocatorTest, AccountingAcrossLifecycle) {
  TensorAllocator allocator;
  constexpr int64_t kBytes = 128 * static_cast<int64_t>(sizeof(float));

  std::shared_ptr<float[]> a = allocator.Allocate(100);  // rounds to 128
  std::shared_ptr<float[]> b = allocator.Allocate(100);
  AllocatorStats stats = allocator.GetStats();
  EXPECT_EQ(stats.bytes_outstanding, 2 * kBytes);
  EXPECT_EQ(stats.bytes_high_water, 2 * kBytes);
  EXPECT_EQ(stats.bytes_cached, 0);

  a.reset();
  stats = allocator.GetStats();
  EXPECT_EQ(stats.bytes_outstanding, kBytes);
  EXPECT_EQ(stats.bytes_cached, kBytes);
  EXPECT_EQ(stats.bytes_high_water, 2 * kBytes);  // peak sticks

  // ResetStats restarts the high-water mark from current outstanding.
  allocator.ResetStats();
  stats = allocator.GetStats();
  EXPECT_EQ(stats.requests, 0);
  EXPECT_EQ(stats.bytes_outstanding, kBytes);
  EXPECT_EQ(stats.bytes_high_water, kBytes);

  // Trim frees the cached block but not the live one.
  allocator.Trim();
  stats = allocator.GetStats();
  EXPECT_EQ(stats.bytes_cached, 0);
  EXPECT_EQ(stats.bytes_outstanding, kBytes);
  b[0] = 1.0f;  // still usable
}

TEST(AllocatorTest, OversizeBypassesPool) {
  TensorAllocator allocator;
  const int64_t numel = TensorAllocator::kMaxBucketNumel + 1;
  {
    std::shared_ptr<float[]> big = allocator.Allocate(numel);
    big[0] = 1.0f;
    big[numel - 1] = 2.0f;
    AllocatorStats stats = allocator.GetStats();
    EXPECT_EQ(stats.oversize, 1);
    EXPECT_EQ(stats.bytes_outstanding,
              numel * static_cast<int64_t>(sizeof(float)));
  }
  // Released straight to the system allocator, never cached.
  AllocatorStats stats = allocator.GetStats();
  EXPECT_EQ(stats.bytes_outstanding, 0);
  EXPECT_EQ(stats.bytes_cached, 0);
}

TEST(AllocatorTest, ConcurrentAllocFreeStress) {
  TensorAllocator allocator;
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&allocator, &failures, t] {
      // Deterministic per-thread size sequence covering several buckets plus
      // brief cross-thread holds via a small local working set.
      std::vector<std::shared_ptr<float[]>> held;
      for (int i = 0; i < kIters; ++i) {
        const int64_t numel = (int64_t{1} << (3 + (i + t) % 10)) + t;
        std::shared_ptr<float[]> block = allocator.Allocate(numel);
        block[0] = static_cast<float>(t);
        block[numel - 1] = static_cast<float>(i);
        if (block[0] != static_cast<float>(t)) failures.fetch_add(1);
        held.push_back(std::move(block));
        if (held.size() > 4) held.erase(held.begin());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  AllocatorStats stats = allocator.GetStats();
  EXPECT_EQ(stats.requests, kThreads * kIters);
  EXPECT_EQ(stats.bytes_outstanding, 0);  // everything returned
  EXPECT_GT(stats.pool_hits, 0);          // recycling did happen
}

// The tentpole property: after one warmup step, a training step's tensor
// traffic is served entirely from the pool — zero heap allocations in steady
// state. Exercised through the real op stack (GRU forward + backward + a
// parameter update), against the process-global allocator Tensor uses.
TEST(AllocatorTest, TrainingStepsHitPoolAfterWarmup) {
  TensorAllocator& allocator = TensorAllocator::Global();

  Rng rng(1234);
  nn::GruCell cell(8, 16, rng);
  const Tensor x = Tensor::Randn({32, 8}, rng);
  const Tensor h0 = Tensor::Zeros({32, 16});

  auto step = [&] {
    ag::Variable h = ag::Variable::Leaf(h0, /*requires_grad=*/false);
    for (int t = 0; t < 4; ++t) {
      h = cell.Forward(ag::Variable::Leaf(x, /*requires_grad=*/false), h);
    }
    ag::Variable loss = ag::MeanAll(ag::Square(h));
    for (auto& p : cell.Parameters()) p.ZeroGrad();
    loss.Backward();
  };

  step();  // warmup: populates the buckets for every shape the step makes
  step();  // second pass returns/retakes the same blocks
  allocator.ResetStats();
  for (int i = 0; i < 5; ++i) step();

  AllocatorStats stats = allocator.GetStats();
  ASSERT_GT(stats.requests, 0);
  EXPECT_EQ(stats.oversize, 0);
  EXPECT_GT(stats.HitRate(), 0.95)
      << "steady-state steps should allocate from the pool: hits="
      << stats.pool_hits << " misses=" << stats.pool_misses;
}

}  // namespace
}  // namespace enhancenet
