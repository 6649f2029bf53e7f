#include "runtime/allocator.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>

#include "common/logging.h"
#include "obs/metrics.h"
#include "runtime/context.h"

namespace enhancenet {
namespace {

constexpr int64_t kMinBucketLog2 = 5;   // 32 floats
constexpr int64_t kMaxBucketLog2 = 26;  // 64 Mi floats

int64_t Log2Ceil(int64_t n) {
  int64_t log2 = 0;
  while ((int64_t{1} << log2) < n) ++log2;
  return log2;
}

// Shard selection: each OS thread gets a stable ordinal in first-allocation
// order and is pinned to `ordinal % num_shards`. The first allocating thread
// (the main thread, in practice) is ordinal 0, so single-threaded code
// always sees shard 0 — which keeps the pre-shard stats tests exact.
std::atomic<int> g_thread_ordinal{0};
thread_local int tls_thread_ordinal = -1;

int ThreadOrdinal() {
  if (tls_thread_ordinal < 0) {
    tls_thread_ordinal = g_thread_ordinal.fetch_add(1, std::memory_order_relaxed);
  }
  return tls_thread_ordinal;
}

}  // namespace

/// Cached obs handles so every alloc/free is a registry-free relaxed store.
struct TensorAllocator::Metrics {
  obs::Counter* pool_hits;
  obs::Counter* pool_misses;
  obs::Counter* oversize;
  obs::Gauge* bytes_outstanding;
  obs::Gauge* bytes_cached;
  obs::Gauge* bytes_high_water;
  std::vector<obs::Gauge*> shard_hit_rate;

  explicit Metrics(int num_shards) {
    obs::Registry& registry = obs::Registry::Global();
    pool_hits = registry.GetCounter("tensor.alloc.pool_hits");
    pool_misses = registry.GetCounter("tensor.alloc.pool_misses");
    oversize = registry.GetCounter("tensor.alloc.oversize");
    bytes_outstanding = registry.GetGauge("tensor.alloc.bytes_outstanding");
    bytes_cached = registry.GetGauge("tensor.alloc.bytes_cached");
    bytes_high_water = registry.GetGauge("tensor.alloc.bytes_high_water");
    shard_hit_rate.reserve(static_cast<size_t>(num_shards));
    for (int i = 0; i < num_shards; ++i) {
      shard_hit_rate.push_back(registry.GetGauge(
          "tensor.alloc.shard." + std::to_string(i) + ".hit_rate"));
    }
  }
};

/// One independently locked slice of the pool. Hit/miss counters are atomics
/// so GetStats can sum them without taking every shard lock.
struct TensorAllocator::Shard {
  mutable std::mutex mu;
  std::vector<std::vector<float*>> buckets;  // free lists, by log2 capacity
  std::atomic<int64_t> pool_hits{0};
  std::atomic<int64_t> pool_misses{0};
};

/// Everything the deleters need, shared between the allocator and every
/// outstanding block so frees stay safe after the allocator is destroyed.
struct TensorAllocator::State {
  explicit State(int shard_count)
      : num_shards(shard_count), shards(new Shard[shard_count]) {
    for (int i = 0; i < shard_count; ++i) {
      shards[i].buckets.resize(static_cast<size_t>(kMaxBucketLog2 + 1));
    }
  }

  ~State() {
    delete metrics;
    for (int i = 0; i < num_shards; ++i) {
      for (std::vector<float*>& free_list : shards[i].buckets) {
        for (float* block : free_list) delete[] block;
      }
    }
  }

  const int num_shards;
  std::unique_ptr<Shard[]> shards;

  std::atomic<int64_t> requests{0};
  std::atomic<int64_t> oversize{0};
  std::atomic<int64_t> bytes_outstanding{0};
  std::atomic<int64_t> bytes_cached{0};
  std::atomic<int64_t> bytes_high_water{0};
  // Set by ~TensorAllocator: late frees release directly instead of caching
  // into a pool nobody will ever pop from.
  std::atomic<bool> retired{false};
  Metrics* metrics = nullptr;  // null unless export_metrics

  Shard& ShardForThisThread() {
    return shards[ThreadOrdinal() % num_shards];
  }

  void RaiseHighWater(int64_t outstanding) {
    int64_t current = bytes_high_water.load(std::memory_order_relaxed);
    while (outstanding > current &&
           !bytes_high_water.compare_exchange_weak(
               current, outstanding, std::memory_order_relaxed)) {
    }
  }

  void PushGauges() {
    if (metrics == nullptr) return;
    metrics->bytes_outstanding->Set(static_cast<double>(
        bytes_outstanding.load(std::memory_order_relaxed)));
    metrics->bytes_cached->Set(
        static_cast<double>(bytes_cached.load(std::memory_order_relaxed)));
    metrics->bytes_high_water->Set(static_cast<double>(
        bytes_high_water.load(std::memory_order_relaxed)));
  }
};

TensorAllocator& TensorAllocator::Global() {
  return runtime::RuntimeContext::Default().allocator();
}

TensorAllocator::TensorAllocator(bool export_metrics, int num_shards)
    : state_(std::make_shared<State>(std::max(num_shards, 1))) {
  if (export_metrics) state_->metrics = new Metrics(state_->num_shards);
}

TensorAllocator::~TensorAllocator() {
  state_->retired.store(true, std::memory_order_relaxed);
  Trim();
}

int64_t TensorAllocator::BucketNumel(int64_t numel) {
  ENHANCENET_CHECK_GE(numel, 0) << "negative allocation";
  if (numel > kMaxBucketNumel) return -1;
  const int64_t log2 = std::max(Log2Ceil(numel), kMinBucketLog2);
  return int64_t{1} << log2;
}

std::shared_ptr<float[]> TensorAllocator::Allocate(int64_t numel) {
  State& st = *state_;
  const int64_t capacity = BucketNumel(numel);

  if (capacity < 0) {
    // Oversize: straight to the system allocator, never cached.
    const int64_t count = std::max<int64_t>(numel, 1);
    const int64_t bytes = count * static_cast<int64_t>(sizeof(float));
    float* block = new float[static_cast<size_t>(count)];
    st.requests.fetch_add(1, std::memory_order_relaxed);
    st.oversize.fetch_add(1, std::memory_order_relaxed);
    if (st.metrics != nullptr) st.metrics->oversize->Add();
    st.RaiseHighWater(
        st.bytes_outstanding.fetch_add(bytes, std::memory_order_relaxed) +
        bytes);
    st.PushGauges();
    std::shared_ptr<State> state = state_;
    return std::shared_ptr<float[]>(block, [state, count](float* p) {
      OnFree(*state, p, count, /*pooled=*/false);
    });
  }

  const size_t bucket = static_cast<size_t>(Log2Ceil(capacity));
  const int64_t bytes = capacity * static_cast<int64_t>(sizeof(float));
  Shard& shard = st.ShardForThisThread();
  float* block = nullptr;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    std::vector<float*>& free_list = shard.buckets[bucket];
    if (!free_list.empty()) {
      block = free_list.back();
      free_list.pop_back();
    }
  }
  st.requests.fetch_add(1, std::memory_order_relaxed);
  if (block != nullptr) {
    shard.pool_hits.fetch_add(1, std::memory_order_relaxed);
    st.bytes_cached.fetch_sub(bytes, std::memory_order_relaxed);
    if (st.metrics != nullptr) st.metrics->pool_hits->Add();
  } else {
    shard.pool_misses.fetch_add(1, std::memory_order_relaxed);
    if (st.metrics != nullptr) st.metrics->pool_misses->Add();
  }
  st.RaiseHighWater(
      st.bytes_outstanding.fetch_add(bytes, std::memory_order_relaxed) +
      bytes);
  if (st.metrics != nullptr) {
    st.metrics->shard_hit_rate[static_cast<size_t>(&shard - st.shards.get())]
        ->Set(AllocatorShardStats{
                  shard.pool_hits.load(std::memory_order_relaxed),
                  shard.pool_misses.load(std::memory_order_relaxed)}
                  .HitRate());
  }
  st.PushGauges();
  if (block == nullptr) {
    block = new float[static_cast<size_t>(capacity)];
  }
  std::shared_ptr<State> state = state_;
  return std::shared_ptr<float[]>(block, [state, capacity](float* p) {
    OnFree(*state, p, capacity, /*pooled=*/true);
  });
}

void TensorAllocator::OnFree(State& st, float* block, int64_t capacity,
                             bool pooled) {
  const int64_t bytes = capacity * static_cast<int64_t>(sizeof(float));
  st.bytes_outstanding.fetch_sub(bytes, std::memory_order_relaxed);
  const bool cache = pooled && !st.retired.load(std::memory_order_relaxed);
  if (cache) {
    // Return to the FREEING thread's shard: same-thread alloc/free cycles
    // (the overwhelmingly common case) stay on one lock, and cross-thread
    // frees just migrate the block.
    Shard& shard = st.ShardForThisThread();
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.buckets[static_cast<size_t>(Log2Ceil(capacity))].push_back(block);
    st.bytes_cached.fetch_add(bytes, std::memory_order_relaxed);
  } else {
    delete[] block;
  }
  st.PushGauges();
}

AllocatorStats TensorAllocator::GetStats() const {
  const State& st = *state_;
  AllocatorStats stats;
  stats.requests = st.requests.load(std::memory_order_relaxed);
  stats.oversize = st.oversize.load(std::memory_order_relaxed);
  stats.bytes_outstanding =
      st.bytes_outstanding.load(std::memory_order_relaxed);
  stats.bytes_cached = st.bytes_cached.load(std::memory_order_relaxed);
  stats.bytes_high_water =
      st.bytes_high_water.load(std::memory_order_relaxed);
  for (int i = 0; i < st.num_shards; ++i) {
    stats.pool_hits += st.shards[i].pool_hits.load(std::memory_order_relaxed);
    stats.pool_misses +=
        st.shards[i].pool_misses.load(std::memory_order_relaxed);
  }
  return stats;
}

std::vector<AllocatorShardStats> TensorAllocator::GetShardStats() const {
  const State& st = *state_;
  std::vector<AllocatorShardStats> out(static_cast<size_t>(st.num_shards));
  for (int i = 0; i < st.num_shards; ++i) {
    out[static_cast<size_t>(i)].pool_hits =
        st.shards[i].pool_hits.load(std::memory_order_relaxed);
    out[static_cast<size_t>(i)].pool_misses =
        st.shards[i].pool_misses.load(std::memory_order_relaxed);
  }
  return out;
}

int TensorAllocator::num_shards() const { return state_->num_shards; }

void TensorAllocator::ResetStats() {
  State& st = *state_;
  st.requests.store(0, std::memory_order_relaxed);
  st.oversize.store(0, std::memory_order_relaxed);
  for (int i = 0; i < st.num_shards; ++i) {
    st.shards[i].pool_hits.store(0, std::memory_order_relaxed);
    st.shards[i].pool_misses.store(0, std::memory_order_relaxed);
  }
  st.bytes_high_water.store(
      st.bytes_outstanding.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  st.PushGauges();
}

void TensorAllocator::Trim() {
  State& st = *state_;
  std::vector<float*> to_free;
  for (int i = 0; i < st.num_shards; ++i) {
    std::lock_guard<std::mutex> lock(st.shards[i].mu);
    for (std::vector<float*>& free_list : st.shards[i].buckets) {
      to_free.insert(to_free.end(), free_list.begin(), free_list.end());
      free_list.clear();
    }
  }
  st.bytes_cached.store(0, std::memory_order_relaxed);
  st.PushGauges();
  for (float* block : to_free) delete[] block;
}

}  // namespace enhancenet
