#include "runtime/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/context.h"

namespace enhancenet {
namespace {

// Opt-in (runtime::ProfilingEnabled) accounting of how ParallelFor carves
// work: every region, the regions run inline, chunk counts, and what
// fraction of the available threads a pooled region can actually occupy.
// The off path costs one relaxed atomic load per region.
struct ParallelProfile {
  obs::Counter* regions;
  obs::Counter* inline_regions;
  obs::Counter* chunks;
  obs::Histogram* chunks_per_region;
  obs::Histogram* thread_utilization;

  static ParallelProfile& Get() {
    static ParallelProfile profile = [] {
      obs::Registry& registry = obs::Registry::Global();
      ParallelProfile p;
      p.regions = registry.GetCounter("parallel.regions");
      p.inline_regions = registry.GetCounter("parallel.inline_regions");
      p.chunks = registry.GetCounter("parallel.chunks");
      p.chunks_per_region = registry.GetHistogram(
          "parallel.chunks_per_region", {1, 2, 4, 8, 16, 32, 64, 128});
      p.thread_utilization = registry.GetHistogram(
          "parallel.thread_utilization",
          {0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0});
      return p;
    }();
    return profile;
  }
};

thread_local bool tls_in_parallel_region = false;

// Persistent worker pool. One parallel region runs at a time (outer regions
// from distinct user threads serialize on run_mutex_); nested regions run
// inline on the calling thread, so the pool never deadlocks on itself.
//
// Work distribution is dynamic (threads claim chunk indices from an atomic
// counter) but the chunk *boundaries* are fixed by the caller, so which
// thread runs a chunk never affects what the chunk computes.
class ThreadPool {
 public:
  static ThreadPool& Instance() {
    // Leaked intentionally: detached workers may outlive static destruction.
    static ThreadPool* pool = new ThreadPool();
    return *pool;
  }

  // Runs fn(chunk) for every chunk in [0, num_chunks), using the calling
  // thread plus up to (participants - 1) workers; only that many workers
  // are woken. Rethrows the first exception any chunk raised. On return no
  // pool thread is still touching this job's state.
  void Run(int64_t num_chunks, int participants,
           const std::function<void(int64_t)>& fn) {
    std::lock_guard<std::mutex> run_lock(run_mutex_);
    EnsureWorkers(participants - 1);

    // Publish the job in the same critical section that bumps the
    // generation. Workers read job state only after observing the new
    // generation (and job_active_) under this mutex, so there is no window
    // where a late-waking worker from a previous job can see half-written
    // state: if the job it was woken for has already completed, it finds
    // job_active_ == false and goes back to waiting.
    int wake = 0;
    {
      std::lock_guard<std::mutex> lk(mutex_);
      job_fn_ = &fn;
      job_chunks_ = num_chunks;
      next_chunk_.store(0, std::memory_order_relaxed);
      pending_.store(num_chunks, std::memory_order_relaxed);
      first_error_ = nullptr;
      active_workers_ = std::min<int>(participants - 1,
                                      static_cast<int>(workers_.size()));
      joined_workers_ = 0;
      job_active_ = true;
      ++generation_;
      wake = active_workers_;
    }
    for (int w = 0; w < wake; ++w) wake_cv_.notify_one();

    RunChunks();

    std::unique_lock<std::mutex> lk(mutex_);
    done_cv_.wait(lk, [&] {
      return pending_.load(std::memory_order_acquire) == 0 && inflight_ == 0;
    });
    // Retire the job while still holding the lock: any worker that wakes
    // after this point sees job_active_ == false and never touches the
    // (about to be reused) job state.
    job_active_ = false;
    job_fn_ = nullptr;
    if (first_error_) std::rethrow_exception(first_error_);
  }

 private:
  ThreadPool() = default;

  void EnsureWorkers(int wanted) {
    std::lock_guard<std::mutex> lk(mutex_);
    wanted = std::min(wanted, 4096);
    while (static_cast<int>(workers_.size()) < wanted) {
      const uint64_t spawn_generation = generation_;
      workers_.emplace_back(
          [this, spawn_generation] { WorkerMain(spawn_generation); });
    }
  }

  void WorkerMain(uint64_t seen_generation) {
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mutex_);
        wake_cv_.wait(lk, [&] { return generation_ != seen_generation; });
        seen_generation = generation_;
        // job_active_ distinguishes a live job from a late wake-up: if this
        // worker was scheduled only after the job it was woken for already
        // finished, the job's state is gone and must not be entered. The
        // first active_workers_ workers to arrive join; the rest go back to
        // waiting.
        if (!job_active_ || joined_workers_ >= active_workers_) continue;
        ++joined_workers_;
        // Registered under the same lock as the generation gate: Run() for
        // this job cannot return, and the next job cannot reset state, while
        // this worker is inside RunChunks.
        ++inflight_;
      }
      RunChunks();
      {
        std::lock_guard<std::mutex> lk(mutex_);
        --inflight_;
      }
      done_cv_.notify_all();
    }
  }

  // Claims and executes chunks until none remain. Shared by the caller
  // thread and the workers.
  void RunChunks() {
    const bool saved_region = tls_in_parallel_region;
    tls_in_parallel_region = true;
    for (;;) {
      const int64_t chunk = next_chunk_.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= job_chunks_) break;
      try {
        (*job_fn_)(chunk);
      } catch (...) {
        std::lock_guard<std::mutex> lk(error_mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lk(mutex_);
        done_cv_.notify_all();
      }
    }
    tls_in_parallel_region = saved_region;
  }

  std::mutex run_mutex_;  // serializes outer parallel regions

  std::mutex mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;
  int active_workers_ = 0;   // workers the current job wants
  int joined_workers_ = 0;   // workers that have joined the current job
  int inflight_ = 0;  // workers currently inside RunChunks
  bool job_active_ = false;  // true between a job's publication and retirement
  std::vector<std::thread> workers_;

  // Job state below is written only inside mutex_ critical sections of
  // Run(); workers gate on (generation_, job_active_) under the same mutex
  // before reading any of it.
  const std::function<void(int64_t)>* job_fn_ = nullptr;
  int64_t job_chunks_ = 0;
  std::atomic<int64_t> next_chunk_{0};
  std::atomic<int64_t> pending_{0};

  std::mutex error_mutex_;
  std::exception_ptr first_error_;
};

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

}  // namespace

int GetNumThreads() {
  return runtime::RuntimeContext::Current().exec().num_threads.load(
      std::memory_order_relaxed);
}

void SetNumThreads(int n) {
  runtime::RuntimeContext::Current().exec().num_threads.store(
      std::max(n, 1), std::memory_order_relaxed);
}

bool InParallelRegion() { return tls_in_parallel_region; }

namespace detail {

int64_t PlanChunks(int64_t n, int64_t cost_per_index) {
  // Below two minimum chunks the region runs inline whatever the thread
  // count, so the common small call never reads the context.
  const double total = static_cast<double>(n) *
                       static_cast<double>(std::max<int64_t>(cost_per_index, 1));
  int64_t num_chunks = 1;
  if (total >= 2.0 * static_cast<double>(kMinChunkCost) &&
      !tls_in_parallel_region) {
    const int threads = GetNumThreads();
    const double by_cost = std::min(total / static_cast<double>(kMinChunkCost),
                                    4.0 * static_cast<double>(threads));
    // Chunk boundaries depend only on (n, cost_per_index, threads): every
    // index belongs to exactly one chunk whichever thread runs it.
    const int64_t wanted = std::min(n, static_cast<int64_t>(by_cost));
    if (threads > 1 && wanted > 1) {
      num_chunks = CeilDiv(n, CeilDiv(n, wanted));
    }
  }
  if (runtime::ProfilingEnabled()) {
    ParallelProfile& profile = ParallelProfile::Get();
    profile.regions->Add();
    if (num_chunks <= 1) {
      profile.inline_regions->Add();
    } else {
      const int threads = GetNumThreads();
      profile.chunks->Add(num_chunks);
      profile.chunks_per_region->Observe(static_cast<double>(num_chunks));
      profile.thread_utilization->Observe(
          static_cast<double>(std::min<int64_t>(num_chunks, threads)) /
          static_cast<double>(threads));
    }
  }
  return num_chunks;
}

void RunChunks(int64_t begin, int64_t end, int64_t num_chunks,
               const std::function<void(int64_t, int64_t)>& fn) {
  const int64_t chunk_size = CeilDiv(end - begin, num_chunks);
  // Snapshot the caller's thread state once per region; every chunk —
  // whether it lands on a pool worker or back on the caller — re-installs
  // it, so kernels observe the same context, gradient mode, and trace stack
  // on every participating thread. Re-installation on the caller itself is
  // an idempotent TLS write, and RAII unwinds the state even when fn throws.
  runtime::RuntimeContext* bound_context =
      runtime::detail::BoundContextOrNull();
  const bool grad_enabled = runtime::ThreadGradEnabled();
  const std::vector<const char*> trace_stack = obs::TraceSpan::SnapshotStack();
  const std::function<void(int64_t)> chunk_fn = [&](int64_t chunk) {
    runtime::detail::ScopedContext context_scope(bound_context);
    runtime::detail::ScopedThreadGrad grad_scope(grad_enabled);
    obs::ScopedTraceStack trace_scope(trace_stack);
    const int64_t b = begin + chunk * chunk_size;
    const int64_t e = std::min(end, b + chunk_size);
    fn(b, e);
  };
  const int participants = static_cast<int>(
      std::min<int64_t>(num_chunks, GetNumThreads()));
  ThreadPool::Instance().Run(num_chunks, participants, chunk_fn);
}

}  // namespace detail

double ParallelSum(int64_t n,
                   const std::function<double(int64_t, int64_t)>& block_sum) {
  if (n <= 0) return 0.0;
  // Fixed block size: the grouping of terms into partial sums must not
  // depend on the thread count, or the combine order would change rounding.
  constexpr int64_t kBlock = 65536;
  const int64_t num_blocks = CeilDiv(n, kBlock);
  if (num_blocks == 1) return block_sum(0, n);
  std::vector<double> partials(static_cast<size_t>(num_blocks), 0.0);
  const int64_t block_cost = kBlock * kCostElement;
  ParallelFor(0, num_blocks, block_cost, [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      const int64_t lo = b * kBlock;
      const int64_t hi = std::min(n, lo + kBlock);
      partials[static_cast<size_t>(b)] = block_sum(lo, hi);
    }
  });
  double total = 0.0;
  for (const double p : partials) total += p;
  return total;
}

}  // namespace enhancenet
