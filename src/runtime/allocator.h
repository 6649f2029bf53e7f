#ifndef ENHANCENET_RUNTIME_ALLOCATOR_H_
#define ENHANCENET_RUNTIME_ALLOCATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace enhancenet {

/// Point-in-time view of the allocator's accounting. All byte figures refer
/// to float storage handed out by Allocate (bucket-rounded capacity, not the
/// requested numel).
struct AllocatorStats {
  int64_t requests = 0;      ///< Allocate() calls.
  int64_t pool_hits = 0;     ///< served from a bucket free list
  int64_t pool_misses = 0;   ///< bucketable size, but the free list was empty
  int64_t oversize = 0;      ///< above kMaxBucketNumel; bypassed the pool
  int64_t bytes_outstanding = 0;  ///< held by live tensors right now
  int64_t bytes_cached = 0;       ///< parked on free lists, ready for reuse
  int64_t bytes_high_water = 0;   ///< peak of bytes_outstanding since reset

  /// Fraction of bucketable requests served from the pool (0 when none).
  double HitRate() const {
    const int64_t bucketable = pool_hits + pool_misses;
    return bucketable == 0
               ? 0.0
               : static_cast<double>(pool_hits) / static_cast<double>(bucketable);
  }
};

/// Per-shard hit/miss accounting (see GetShardStats).
struct AllocatorShardStats {
  int64_t pool_hits = 0;
  int64_t pool_misses = 0;

  double HitRate() const {
    const int64_t bucketable = pool_hits + pool_misses;
    return bucketable == 0
               ? 0.0
               : static_cast<double>(pool_hits) / static_cast<double>(bucketable);
  }
};

/// Thread-safe, size-bucketed, shard-able caching allocator for Tensor
/// storage.
///
/// Allocate() rounds the requested element count up to a power-of-two bucket
/// and pops a recycled block from that bucket's free list when one is
/// available; the returned shared_ptr's deleter pushes the block back instead
/// of freeing it. In steady state a training step therefore performs zero
/// heap allocations for tensor storage: every shape the step produces was
/// produced by the previous step too, so every request is a pool hit.
///
/// Sharding: the free lists are split into `num_shards` independently locked
/// shards, and each OS thread is pinned to the shard `ordinal % num_shards`
/// (ordinals assigned in first-allocation order, so a single-threaded
/// process always uses shard 0 and sees exactly the pre-shard accounting).
/// Allocations and frees from the same thread touch the same shard lock, so
/// concurrent sessions on different threads never contend; a block freed on
/// a different thread than it was allocated on simply migrates shards.
///
/// Requests above kMaxBucketNumel bypass the pool entirely (allocated and
/// freed through the system allocator, still counted in the outstanding
/// stats) so a single giant tensor can never pin its high-water mark as
/// cached-but-idle memory.
///
/// Lifetime: the allocator's free lists and counters live in a state block
/// shared with every outstanding deleter, so an instance may be destroyed
/// while its tensors are still alive — late frees release their block
/// directly instead of touching the retired pool.
///
/// Outstanding/high-water/cached bytes, hit/miss counts, and per-shard hit
/// rates (`tensor.alloc.shard.<i>.hit_rate`) are mirrored into the obs
/// registry by metric-exporting instances (the default context's).
class TensorAllocator {
 public:
  /// Smallest bucket: requests below this round up to it.
  static constexpr int64_t kMinBucketNumel = 1 << 5;  // 32 floats
  /// Largest cached bucket (64 Mi floats = 256 MiB); larger requests bypass
  /// the pool.
  static constexpr int64_t kMaxBucketNumel = 1 << 26;
  /// Default shard count: enough that a handful of sessions rarely collide.
  static constexpr int kDefaultShards = 8;

  /// The default context's instance (runtime::RuntimeContext::Default()).
  /// Never destroyed, so pooled deleters outlive every static-storage
  /// tensor. Contexts with a private allocator route around this entirely.
  static TensorAllocator& Global();

  /// `export_metrics` mirrors stats into the obs registry; only the default
  /// context's instance should pass true.
  explicit TensorAllocator(bool export_metrics = false,
                           int num_shards = kDefaultShards);
  ~TensorAllocator();

  TensorAllocator(const TensorAllocator&) = delete;
  TensorAllocator& operator=(const TensorAllocator&) = delete;

  /// Storage for `numel` floats (>= 0; zero-element requests get a 1-float
  /// block). Contents are NOT initialized — recycled blocks hold stale data.
  std::shared_ptr<float[]> Allocate(int64_t numel);

  AllocatorStats GetStats() const;

  /// Per-shard hit/miss counts, indexed by shard. Summing them reproduces
  /// GetStats().pool_hits / pool_misses.
  std::vector<AllocatorShardStats> GetShardStats() const;

  int num_shards() const;

  /// Zeroes the counters and restarts the high-water mark from the current
  /// outstanding bytes. Live blocks and free lists are untouched.
  void ResetStats();

  /// Frees every cached block. Storage owned by live tensors is unaffected.
  void Trim();

  /// Bucket capacity (in floats) for a request, or -1 when the request is
  /// oversize and must bypass the pool. Exposed for tests.
  static int64_t BucketNumel(int64_t numel);

 private:
  struct Metrics;  // cached obs registry handles
  struct Shard;
  struct State;

  static void OnFree(State& state, float* block, int64_t capacity,
                     bool pooled);

  std::shared_ptr<State> state_;
};

}  // namespace enhancenet

#endif  // ENHANCENET_RUNTIME_ALLOCATOR_H_
