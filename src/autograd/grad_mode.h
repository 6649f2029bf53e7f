#ifndef ENHANCENET_AUTOGRAD_GRAD_MODE_H_
#define ENHANCENET_AUTOGRAD_GRAD_MODE_H_

namespace enhancenet {
namespace autograd {

/// Thread-local gradient-recording switch.
///
/// While recording is disabled every op in ops.h returns a detached leaf:
/// no Node is allocated, no parents are linked, no backward closure is
/// materialized, and backward-only auxiliary tensors (ReLU masks, Abs signs)
/// are never computed. Numerical outputs are bitwise identical to the
/// recording path — only the graph bookkeeping is skipped — which is what
/// lets the serving path (src/serve) promise parity with the training-time
/// eval path.
///
/// The flag is per-thread, so an inference thread running under NoGradGuard
/// never affects a trainer thread building graphs concurrently. ParallelFor
/// propagates the calling thread's flag into its pool workers, so a no-grad
/// scope stays no-grad inside parallel regions.
///
/// Facade over runtime::ThreadGradEnabled (runtime/context.h), where the
/// thread_local itself lives.
class GradMode {
 public:
  /// True (the default) when ops record the computation graph.
  static bool IsEnabled();
  /// Sets the calling thread's recording flag; prefer NoGradGuard.
  static void SetEnabled(bool enabled);
};

/// RAII scope that disables gradient recording on the calling thread, in the
/// spirit of torch.no_grad(). Nestable; restores the previous mode on exit.
///
///   {
///     NoGradGuard no_grad;
///     autograd::Variable y = model->Predict(x, rng);  // y is a leaf
///   }
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();

  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

}  // namespace autograd
}  // namespace enhancenet

#endif  // ENHANCENET_AUTOGRAD_GRAD_MODE_H_
