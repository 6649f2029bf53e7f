#include "runtime/context.h"

#include "runtime/env.h"

namespace enhancenet {
namespace runtime {
namespace {

thread_local RuntimeContext* tls_bound = nullptr;
thread_local bool tls_grad_enabled = true;

}  // namespace

RuntimeContext::RuntimeContext(DefaultTag)
    : allocator_(std::make_shared<TensorAllocator>(
          /*export_metrics=*/true, TensorAllocator::kDefaultShards)),
      exec_(std::make_shared<ExecConfig>(EnvNumThreads(), EnvProfiling(),
                                         EnvTopK(), EnvShards())),
      workspace_(std::make_unique<Workspace>()) {}

RuntimeContext::RuntimeContext() : RuntimeContext(Options{}) {}

RuntimeContext::RuntimeContext(const Options& options)
    : workspace_(std::make_unique<Workspace>()) {
  RuntimeContext& def = Default();
  if (options.allocator != nullptr) {
    allocator_ = options.allocator;
  } else if (options.private_allocator) {
    allocator_ = std::make_shared<TensorAllocator>(
        /*export_metrics=*/false, options.allocator_shards);
  } else {
    allocator_ = def.allocator_;
  }
  if (options.exec != nullptr) {
    exec_ = options.exec;
  } else if (options.private_exec) {
    ExecConfig& d = *def.exec_;
    exec_ = std::make_shared<ExecConfig>(
        d.num_threads.load(std::memory_order_relaxed),
        d.profiling.load(std::memory_order_relaxed),
        d.topk.load(std::memory_order_relaxed),
        d.shards.load(std::memory_order_relaxed));
  } else {
    exec_ = def.exec_;
  }
}

RuntimeContext::~RuntimeContext() = default;

RuntimeContext& RuntimeContext::Default() {
  // Leaked intentionally: tensors allocated from it may live in static
  // storage, and their deleters must stay valid through process teardown.
  static RuntimeContext* context = new RuntimeContext(DefaultTag{});
  return *context;
}

std::shared_ptr<void> RuntimeContext::GetExtension(const void* key) const {
  std::lock_guard<std::mutex> lock(extensions_mu_);
  const auto it = extensions_.find(key);
  return it == extensions_.end() ? nullptr : it->second;
}

void RuntimeContext::SetExtension(const void* key,
                                  std::shared_ptr<void> value) {
  std::lock_guard<std::mutex> lock(extensions_mu_);
  extensions_[key] = std::move(value);
}

RuntimeContext& RuntimeContext::Current() {
  return tls_bound != nullptr ? *tls_bound : Default();
}

RuntimeContext::Bind::Bind(RuntimeContext& context) : previous_(tls_bound) {
  tls_bound = &context;
}

RuntimeContext::Bind::~Bind() { tls_bound = previous_; }

bool ThreadGradEnabled() { return tls_grad_enabled; }

void SetThreadGradEnabled(bool enabled) { tls_grad_enabled = enabled; }

bool ProfilingEnabled() {
  return RuntimeContext::Current().exec().profiling.load(
      std::memory_order_relaxed);
}

void SetProfilingEnabled(bool enabled) {
  RuntimeContext::Current().exec().profiling.store(enabled,
                                                   std::memory_order_relaxed);
}

namespace detail {

RuntimeContext* BoundContextOrNull() { return tls_bound; }

ScopedContext::ScopedContext(RuntimeContext* context) : previous_(tls_bound) {
  tls_bound = context;
}

ScopedContext::~ScopedContext() { tls_bound = previous_; }

ScopedThreadGrad::ScopedThreadGrad(bool enabled)
    : previous_(tls_grad_enabled) {
  tls_grad_enabled = enabled;
}

ScopedThreadGrad::~ScopedThreadGrad() { tls_grad_enabled = previous_; }

}  // namespace detail
}  // namespace runtime
}  // namespace enhancenet
