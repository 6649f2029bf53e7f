#ifndef ENHANCENET_RUNTIME_CONTEXT_H_
#define ENHANCENET_RUNTIME_CONTEXT_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>

#include "runtime/allocator.h"
#include "runtime/workspace.h"

namespace enhancenet {
namespace runtime {

/// Mutable execution configuration shared by every thread of a context:
/// ParallelFor's thread budget, the tensor-backend profiling switch, the
/// DAMGN top-k and the entity shard count. All fields are relaxed atomics —
/// readers sit on hot paths (one load per kernel call) and the fields are
/// control-plane knobs, not synchronization.
struct ExecConfig {
  ExecConfig(int threads, bool profile, int top_k = 0, int num_shards = 1)
      : num_threads(threads),
        profiling(profile),
        topk(top_k),
        shards(num_shards) {}

  std::atomic<int> num_threads;
  std::atomic<bool> profiling;
  /// Top-k sparsification of the DAMGN dynamic adjacency: 0 = dense
  /// (bitwise-identical to the pre-sparse code path), k >= 1 keeps the k
  /// strongest attention neighbours per entity row (DESIGN.md §10).
  std::atomic<int> topk;
  /// Entity-sharded execution (DESIGN.md §12): 1 = single-context path
  /// (bitwise-identical to the pre-shard code), S >= 2 partitions the entity
  /// dimension into S contiguous shards, each executing on its own
  /// RuntimeContext with halo exchange for cross-shard neighbours.
  std::atomic<int> shards;
};

/// An explicit bundle of the runtime state that used to live in process-wide
/// singletons: the tensor allocator, the execution config, and a per-context
/// scratch Workspace.
///
/// Ownership model:
///   * Default() is the process-wide context, configured once from the
///     ENHANCENET_* environment (runtime/env.h) and leaked like the obs
///     registry. Code that never binds a context gets exactly the historical
///     global behavior through it.
///   * Additional contexts (one per Trainer / InferenceSession) share
///     Default()'s allocator and exec config unless Options asks for private
///     copies; each context always owns its own Workspace. A private
///     allocator gives a session its own free lists and shard locks, so two
///     sessions serving concurrently never touch a common allocator mutex.
///
/// Binding: Current() resolves to the context bound to the calling thread by
/// a live RuntimeContext::Bind guard, falling back to Default(). Bind is a
/// nestable RAII scope in the spirit of autograd::NoGradGuard:
///
///   RuntimeContext::Bind bound(context_);
///   ... every Tensor allocation on this thread now uses context_ ...
///
/// ParallelFor propagates the caller's binding (plus its gradient mode and
/// trace-span stack) into worker threads, so a parallel kernel launched
/// under a bound context allocates from that context on every thread.
class RuntimeContext {
 public:
  struct Options {
    /// Explicit allocator / exec config to adopt. Null means "share
    /// Default()'s" unless the matching private_* flag asks for a fresh one.
    std::shared_ptr<TensorAllocator> allocator;
    std::shared_ptr<ExecConfig> exec;
    /// Fresh non-metric-exporting allocator instead of sharing Default()'s.
    bool private_allocator = false;
    /// Fresh exec config (seeded from Default()'s current values) instead of
    /// sharing Default()'s.
    bool private_exec = false;
    int allocator_shards = TensorAllocator::kDefaultShards;
  };

  /// Shares Default()'s allocator and exec config; owns a fresh Workspace.
  RuntimeContext();
  explicit RuntimeContext(const Options& options);
  ~RuntimeContext();

  RuntimeContext(const RuntimeContext&) = delete;
  RuntimeContext& operator=(const RuntimeContext&) = delete;

  /// The process-wide, env-configured context. Constructed on first use and
  /// intentionally leaked (its allocator's deleters may outlive static
  /// teardown).
  static RuntimeContext& Default();

  /// The context bound to the calling thread, or Default() when none is.
  static RuntimeContext& Current();

  /// Opaque per-context extension slot: lazily-built subsystem state whose
  /// lifetime must match the context's (the entity-sharded executor parks
  /// its per-shard contexts here, so a session's shard allocators retire as
  /// a unit with the session's context). Keyed by an arbitrary stable
  /// address (typically a function-local static tag in the owning library).
  /// Get returns the stored value or null; Set overwrites. Thread-safe.
  std::shared_ptr<void> GetExtension(const void* key) const;
  void SetExtension(const void* key, std::shared_ptr<void> value);

  TensorAllocator& allocator() { return *allocator_; }
  const std::shared_ptr<TensorAllocator>& allocator_ptr() const {
    return allocator_;
  }
  ExecConfig& exec() { return *exec_; }
  const std::shared_ptr<ExecConfig>& exec_ptr() const { return exec_; }
  Workspace& workspace() { return *workspace_; }

  /// RAII guard binding a context to the calling thread. Nestable; restores
  /// the previous binding (possibly none) on destruction. The context must
  /// outlive the guard.
  class Bind {
   public:
    explicit Bind(RuntimeContext& context);
    ~Bind();

    Bind(const Bind&) = delete;
    Bind& operator=(const Bind&) = delete;

   private:
    RuntimeContext* previous_;
  };

 private:
  struct DefaultTag {};
  explicit RuntimeContext(DefaultTag);

  std::shared_ptr<TensorAllocator> allocator_;
  std::shared_ptr<ExecConfig> exec_;
  std::unique_ptr<Workspace> workspace_;
  mutable std::mutex extensions_mu_;
  std::map<const void*, std::shared_ptr<void>> extensions_;
};

/// Per-thread gradient-recording flag (default true). autograd::GradMode and
/// NoGradGuard are thin facades over these; the flag lives here so the
/// parallel substrate can propagate it into workers without depending on
/// autograd.
bool ThreadGradEnabled();
void SetThreadGradEnabled(bool enabled);

/// Tensor-backend profiling switch of the calling thread's current context
/// (one relaxed load on the off path).
bool ProfilingEnabled();
void SetProfilingEnabled(bool enabled);

namespace detail {

/// The raw thread binding: null when the thread runs on Default(). Used by
/// ParallelFor to snapshot the caller's binding for its workers.
RuntimeContext* BoundContextOrNull();

/// Installs a (possibly null) binding for the current scope. Unlike Bind
/// this accepts null, so a worker can mirror an unbound caller exactly.
class ScopedContext {
 public:
  explicit ScopedContext(RuntimeContext* context);
  ~ScopedContext();

  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  RuntimeContext* previous_;
};

/// Installs a gradient-mode value for the current scope.
class ScopedThreadGrad {
 public:
  explicit ScopedThreadGrad(bool enabled);
  ~ScopedThreadGrad();

  ScopedThreadGrad(const ScopedThreadGrad&) = delete;
  ScopedThreadGrad& operator=(const ScopedThreadGrad&) = delete;

 private:
  bool previous_;
};

}  // namespace detail
}  // namespace runtime
}  // namespace enhancenet

#endif  // ENHANCENET_RUNTIME_CONTEXT_H_
