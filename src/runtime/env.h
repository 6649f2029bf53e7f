#ifndef ENHANCENET_RUNTIME_ENV_H_
#define ENHANCENET_RUNTIME_ENV_H_

namespace enhancenet {
namespace runtime {

/// Validated accessors for every ENHANCENET_* environment variable the
/// library honors. This is the only translation unit in the tree allowed to
/// call getenv (enforced by cmake/lint_no_getenv.cmake); every other layer
/// reads configuration through the RuntimeContext, which is seeded from
/// these accessors exactly once.
///
/// Validation contract: an unset variable yields the documented default; a
/// malformed value is a fatal error that names the variable and the value it
/// rejected. Each accessor parses lazily on first call and caches the result
/// for the process lifetime, so death tests can exercise the fatal paths
/// before anything else has consulted the variable.
///
/// Boolean variables accept 0/false/off and 1/true/on (case-sensitive).

/// ENHANCENET_NUM_THREADS: worker count for ParallelFor. Unset defaults to
/// std::thread::hardware_concurrency(); set values must parse as an integer
/// in [1, 4096].
int EnvNumThreads();

/// ENHANCENET_PROFILE: tensor-backend profiling counters. Default off.
bool EnvProfiling();

/// ENHANCENET_TOPK: top-k sparsification of the DAMGN dynamic adjacency.
/// 0 (default) keeps the dense path; k >= 1 keeps the k strongest attention
/// neighbours per entity row. Set values must parse as an integer in
/// [0, 2^24) (column indices are float-encoded, see DESIGN.md §10).
int EnvTopK();

/// ENHANCENET_SHARDS: entity-sharded execution (DESIGN.md §12). 1 (default)
/// keeps the single-context path bitwise unchanged; S >= 2 partitions the
/// entity graph into S contiguous shards, each bound to its own
/// RuntimeContext (allocator, workspace, thread-pool slice) with halo
/// exchange for cross-shard neighbours. Set values must parse as an integer
/// in [1, 1024].
int EnvShards();

/// ENHANCENET_SLO_MS: process-wide default latency budget (milliseconds)
/// for deadline-aware micro-batching. Requests that carry no explicit
/// `PredictRequest::deadline_ms` — and batchers whose `slo_ms` option is
/// unset — inherit it. 0.0 (default, unset) means "no process-wide SLO":
/// the batcher falls back to its `max_wait_ms` as the budget. Set values
/// must parse as a number in (0, 1e7].
double EnvSloMs();

/// ENHANCENET_QUICK: benchmark quick mode (fewer shapes). Default off.
/// Unlike the library variables above, re-parsed on every call (tests and
/// harness scripts toggle it at runtime).
bool EnvQuickMode();

/// ENHANCENET_FULL: benchmark full mode (every shape). Default off.
/// Re-parsed on every call, like ENHANCENET_QUICK.
bool EnvFullMode();

/// ENHANCENET_METRICS_OUT: path benchmarks dump a metrics JSON to on exit.
/// Returns nullptr when unset or empty (no validation beyond non-emptiness;
/// the path is handed to the exporter as-is). Re-parsed on every call.
const char* EnvMetricsOut();

}  // namespace runtime
}  // namespace enhancenet

#endif  // ENHANCENET_RUNTIME_ENV_H_
