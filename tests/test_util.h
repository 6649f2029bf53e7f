#ifndef ENHANCENET_TESTS_TEST_UTIL_H_
#define ENHANCENET_TESTS_TEST_UTIL_H_

#include <cmath>
#include <cstdint>
#include <functional>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "runtime/context.h"
#include "tensor/tensor.h"

namespace enhancenet {
namespace testing {

/// Checks every analytic gradient of `inputs` against central finite
/// differences of `fn` (a scalar-valued function of the inputs). `fn` must
/// be a pure function of the inputs' data.
inline void ExpectGradientsMatch(
    const std::function<autograd::Variable()>& fn,
    std::vector<autograd::Variable> inputs, float eps = 1e-2f,
    float tolerance = 2e-2f) {
  autograd::Variable out = fn();
  ASSERT_EQ(out.numel(), 1) << "gradient check needs a scalar output";
  for (auto& input : inputs) input.ZeroGrad();
  out.Backward();

  for (size_t vi = 0; vi < inputs.size(); ++vi) {
    autograd::Variable& input = inputs[vi];
    ASSERT_TRUE(input.has_grad()) << "input " << vi << " got no gradient";
    const Tensor analytic = input.grad().Clone();
    float* data = input.mutable_data().data();
    for (int64_t i = 0; i < input.numel(); ++i) {
      const float saved = data[i];
      data[i] = saved + eps;
      const float plus = fn().data().item();
      data[i] = saved - eps;
      const float minus = fn().data().item();
      data[i] = saved;
      const float numeric = (plus - minus) / (2.0f * eps);
      const float a = analytic.data()[i];
      EXPECT_NEAR(a, numeric, tolerance + tolerance * std::fabs(numeric))
          << "input " << vi << " element " << i;
    }
  }
}

/// EXPECT that two tensors match elementwise within tolerance.
inline void ExpectTensorNear(const Tensor& actual, const Tensor& expected,
                             float tolerance = 1e-5f) {
  ASSERT_EQ(ShapeToString(actual.shape()), ShapeToString(expected.shape()));
  const float* pa = actual.data();
  const float* pe = expected.data();
  for (int64_t i = 0; i < actual.numel(); ++i) {
    EXPECT_NEAR(pa[i], pe[i], tolerance) << "element " << i;
  }
}

/// Runs `fn` with the opt-in profile on and returns how many of the
/// ParallelFor regions it entered were split across the pool rather than
/// run inline. A thread-invariance test uses it to show that its 4-thread
/// run really partitions the work it compares.
inline int64_t PooledRegions(const std::function<void()>& fn) {
  obs::Registry& registry = obs::Registry::Global();
  obs::Counter* regions = registry.GetCounter("parallel.regions");
  obs::Counter* inline_regions = registry.GetCounter("parallel.inline_regions");
  const bool was_enabled = runtime::ProfilingEnabled();
  runtime::SetProfilingEnabled(true);
  const int64_t regions_before = regions->Get();
  const int64_t inline_before = inline_regions->Get();
  fn();
  const int64_t pooled = (regions->Get() - regions_before) -
                         (inline_regions->Get() - inline_before);
  runtime::SetProfilingEnabled(was_enabled);
  return pooled;
}

}  // namespace testing
}  // namespace enhancenet

#endif  // ENHANCENET_TESTS_TEST_UTIL_H_
