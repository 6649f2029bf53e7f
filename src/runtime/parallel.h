#ifndef ENHANCENET_RUNTIME_PARALLEL_H_
#define ENHANCENET_RUNTIME_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <utility>

namespace enhancenet {

/// Parallel-execution substrate: a persistent worker-thread pool plus a
/// ParallelFor primitive that the tensor kernels are written against.
///
/// Determinism contract: ParallelFor partitions [begin, end) into chunks and
/// every index is handed to `fn` exactly once, so any kernel that computes
/// each *output* element entirely inside the chunk that owns it produces
/// bitwise-identical results for every thread count (including 1). Chunk
/// boundaries may vary with the thread count; ownership of an index never
/// does. Kernels must therefore never accumulate across chunk boundaries
/// into shared state.
///
/// Thread-state propagation: each chunk runs under the caller's bound
/// RuntimeContext, gradient mode (runtime::ThreadGradEnabled), and obs
/// trace-span stack — thread_local state that a raw pool worker would
/// otherwise silently reset to its defaults. A kernel that allocates inside
/// a parallel region therefore uses the same allocator on every thread, and
/// a no-grad scope stays no-grad inside the region.
///
/// Thread count resolution:
///   * default: ENHANCENET_NUM_THREADS (validated by runtime/env.h) if set,
///     otherwise std::thread::hardware_concurrency();
///   * SetNumThreads() overrides at runtime (tests, benchmarks) by writing
///     the current context's exec config;
///   * a value of 1 is exactly the historical serial behavior — ParallelFor
///     invokes `body(begin, end)` inline and never touches the pool.

/// Threads used by subsequent ParallelFor calls (>= 1). Reads the calling
/// thread's current RuntimeContext.
int GetNumThreads();

/// Overrides the thread count of the current context at runtime; values < 1
/// are clamped to 1. Workers are spawned lazily, so raising the count is
/// cheap until the next parallel region actually runs.
void SetNumThreads(int n);

/// True while the calling thread is executing inside a ParallelFor chunk.
/// Nested ParallelFor calls detect this and run serially (no deadlock, no
/// oversubscription).
bool InParallelRegion();

/// Cost model of ParallelFor. Every call site states what one index of its
/// range costs, in flop-equivalents, and ParallelFor alone decides how many
/// chunks that work is worth. The units are rough relative prices, close
/// enough to keep a thread hand-off small next to the chunk it starts:
///   * kCostFlop — one multiply or add of a vectorized, cache-resident
///     inner loop (the GEMM micro-kernel);
///   * kCostElement — one float read, combined and written by an
///     element-wise loop, or copied;
///   * kCostTranscendental — one exp, log, tanh or sigmoid.
inline constexpr int64_t kCostFlop = 1;
inline constexpr int64_t kCostElement = 16;
inline constexpr int64_t kCostTranscendental = 512;

/// The one threshold of the policy: a region is split only into chunks that
/// each carry at least this much work (DESIGN.md, design decision 8, says
/// how it was sized).
inline constexpr int64_t kMinChunkCost = int64_t{1} << 20;

namespace detail {

/// Number of chunks ParallelFor splits `n` indices of `cost_per_index` into
/// on the calling thread: total cost / kMinChunkCost, capped at 4 chunks
/// per thread and at `n`; 1 means run inline (also inside a parallel region
/// or at one thread). Counts the region in the opt-in profile.
int64_t PlanChunks(int64_t n, int64_t cost_per_index);

/// Runs `fn` over [begin, end) split into `num_chunks` (>= 2) chunks of
/// equal size, the last possibly smaller, on the pool.
void RunChunks(int64_t begin, int64_t end, int64_t num_chunks,
               const std::function<void(int64_t, int64_t)>& fn);

}  // namespace detail

/// Invokes `body(chunk_begin, chunk_end)` over a partition of [begin, end),
/// where one index costs `cost_per_index` flop-equivalents (see above).
/// Work below two minimum chunks runs inline on the calling thread as one
/// call, without building a std::function; otherwise every chunk but the
/// last carries at least kMinChunkCost. Exceptions thrown by `body` are
/// captured and the first one is rethrown on the calling thread after all
/// chunks finish.
template <typename Body>
void ParallelFor(int64_t begin, int64_t end, int64_t cost_per_index,
                 Body&& body) {
  if (end <= begin) return;
  const int64_t num_chunks = detail::PlanChunks(end - begin, cost_per_index);
  if (num_chunks <= 1) {
    body(begin, end);
    return;
  }
  detail::RunChunks(begin, end, num_chunks, std::forward<Body>(body));
}

/// Deterministic parallel sum reduction: computes
///   sum_{i in [0, n)} term(i)
/// in double precision. Terms are grouped into fixed-size blocks whose
/// partial sums are combined in ascending block order, so the result is
/// bitwise identical for every thread count.
double ParallelSum(int64_t n, const std::function<double(int64_t, int64_t)>& block_sum);

}  // namespace enhancenet

#endif  // ENHANCENET_RUNTIME_PARALLEL_H_
