#include "autograd/grad_mode.h"

#include "runtime/context.h"

namespace enhancenet {
namespace autograd {

// The per-thread recording flag lives on the runtime layer in
// runtime::ThreadGradEnabled, so ParallelFor can propagate it into workers
// without depending on autograd. These classes are the autograd-facing
// facade over it.

bool GradMode::IsEnabled() { return runtime::ThreadGradEnabled(); }

void GradMode::SetEnabled(bool enabled) {
  runtime::SetThreadGradEnabled(enabled);
}

NoGradGuard::NoGradGuard() : previous_(runtime::ThreadGradEnabled()) {
  runtime::SetThreadGradEnabled(false);
}

NoGradGuard::~NoGradGuard() { runtime::SetThreadGradEnabled(previous_); }

}  // namespace autograd
}  // namespace enhancenet
