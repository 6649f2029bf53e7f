#include "optim/optimizer.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "gtest/gtest.h"
#include "reference/reference.h"
#include "runtime/parallel.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace enhancenet {
namespace {

namespace ag = ::enhancenet::autograd;

// Minimizes f(w) = ||w - target||² and returns the final w.
template <typename MakeOptimizer>
Tensor MinimizeQuadratic(MakeOptimizer make_optimizer, int steps) {
  Rng rng(1);
  ag::Variable w = ag::Variable::Leaf(Tensor::Randn({4}, rng), true);
  const Tensor target = Tensor::FromVector({4}, {1.0f, -2.0f, 0.5f, 3.0f});
  auto optimizer = make_optimizer(std::vector<ag::Variable>{w});
  for (int i = 0; i < steps; ++i) {
    ag::Variable diff =
        ag::Sub(w, ag::Variable::Leaf(target, false));
    ag::Variable loss = ag::SumAll(ag::Square(diff));
    optimizer->ZeroGrad();
    loss.Backward();
    optimizer->Step();
  }
  return w.data().Clone();
}

TEST(SgdTest, ConvergesOnQuadratic) {
  Tensor w = MinimizeQuadratic(
      [](std::vector<ag::Variable> params) {
        return std::make_unique<optim::Sgd>(std::move(params), 0.05f);
      },
      200);
  EXPECT_NEAR(w.data()[0], 1.0f, 1e-3f);
  EXPECT_NEAR(w.data()[1], -2.0f, 1e-3f);
}

TEST(SgdTest, MomentumConvergesFaster) {
  Tensor plain = MinimizeQuadratic(
      [](std::vector<ag::Variable> params) {
        return std::make_unique<optim::Sgd>(std::move(params), 0.01f);
      },
      50);
  Tensor momentum = MinimizeQuadratic(
      [](std::vector<ag::Variable> params) {
        return std::make_unique<optim::Sgd>(std::move(params), 0.01f, 0.9f);
      },
      50);
  auto error = [](const Tensor& w) {
    const Tensor target = Tensor::FromVector({4}, {1.0f, -2.0f, 0.5f, 3.0f});
    return ops::SumAll(ops::Square(ops::Sub(w, target))).item();
  };
  EXPECT_LT(error(momentum), error(plain));
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Tensor w = MinimizeQuadratic(
      [](std::vector<ag::Variable> params) {
        return std::make_unique<optim::Adam>(std::move(params), 0.1f);
      },
      300);
  EXPECT_NEAR(w.data()[0], 1.0f, 1e-2f);
  EXPECT_NEAR(w.data()[3], 3.0f, 1e-2f);
}

TEST(AdamTest, FirstStepIsLearningRateSized) {
  // With bias correction, the very first Adam step has magnitude ≈ lr.
  ag::Variable w = ag::Variable::Leaf(Tensor::Zeros({1}), true);
  optim::Adam adam({w}, 0.1f);
  w.AccumulateGrad(Tensor::FromVector({1}, {123.0f}));
  adam.Step();
  EXPECT_NEAR(w.data().data()[0], -0.1f, 1e-4f);
}

TEST(AdamTest, SkipsParametersWithoutGradient) {
  ag::Variable a = ag::Variable::Leaf(Tensor::Ones({2}), true);
  ag::Variable b = ag::Variable::Leaf(Tensor::Ones({2}), true);
  optim::Adam adam({a, b}, 0.1f);
  a.AccumulateGrad(Tensor::Ones({2}));
  adam.Step();
  EXPECT_NE(a.data().data()[0], 1.0f);
  EXPECT_EQ(b.data().data()[0], 1.0f);
}

TEST(AdamTest, WeightDecayShrinksWeights) {
  ag::Variable w = ag::Variable::Leaf(Tensor::Full({1}, 10.0f), true);
  optim::Adam adam({w}, 0.1f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/1.0f);
  for (int i = 0; i < 100; ++i) {
    adam.ZeroGrad();
    w.AccumulateGrad(Tensor::Zeros({1}));  // pure decay
    adam.Step();
  }
  EXPECT_LT(std::fabs(w.data().data()[0]), 5.0f);
}

TEST(OptimizerTest, SetLrTakesEffect) {
  ag::Variable w = ag::Variable::Leaf(Tensor::Zeros({1}), true);
  optim::Sgd sgd({w}, 1.0f);
  sgd.set_lr(0.5f);
  w.AccumulateGrad(Tensor::Ones({1}));
  sgd.Step();
  EXPECT_NEAR(w.data().data()[0], -0.5f, 1e-6f);
}

// ---------------------------------------------------------------------------
// ParallelFor steps vs the scalar-loop oracle: bitwise identity
// ---------------------------------------------------------------------------

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Runs `steps` optimizer steps over three parameters (the second left
/// gradient-free on odd steps to exercise the skip path; the third large
/// enough that every optimizer's sweep over it costs more than two minimum
/// chunks, so ParallelFor splits it at 4 threads) and returns the final
/// data. `*pooled` receives the number of split regions the steps ran.
template <typename MakeOptimizer>
std::vector<Tensor> RunSteps(MakeOptimizer make_optimizer, int steps,
                             int64_t* pooled) {
  constexpr int64_t kLarge = 600000;
  static_assert(kLarge * kCostElement >= 2 * kMinChunkCost,
                "the plain SGD sweep must split");
  Rng rng(77);
  ag::Variable a = ag::Variable::Leaf(Tensor::Randn({1000}, rng), true);
  ag::Variable b = ag::Variable::Leaf(Tensor::Randn({37}, rng), true);
  ag::Variable c = ag::Variable::Leaf(Tensor::Randn({kLarge}, rng), true);
  std::unique_ptr<optim::Optimizer> optimizer =
      make_optimizer(std::vector<ag::Variable>{a, b, c});
  Rng grad_rng(99);
  *pooled = 0;
  for (int i = 0; i < steps; ++i) {
    optimizer->ZeroGrad();
    a.AccumulateGrad(Tensor::Randn({1000}, grad_rng));
    if (i % 2 == 0) b.AccumulateGrad(Tensor::Randn({37}, grad_rng));
    c.AccumulateGrad(Tensor::Randn({kLarge}, grad_rng));
    *pooled += ::enhancenet::testing::PooledRegions([&] { optimizer->Step(); });
  }
  return {a.data().Clone(), b.data().Clone(), c.data().Clone()};
}

/// Production optimizer at 4 threads vs the scalar-loop oracle, bitwise on
/// every parameter. Each production step splits exactly one sweep, the
/// large parameter's.
template <typename Production, typename Reference, typename... Args>
void ExpectBitwiseMatchesScalarLoop(Args... args) {
  constexpr int kSteps = 7;
  const int restore = GetNumThreads();
  SetNumThreads(4);
  int64_t fused_pooled = 0;
  int64_t scalar_pooled = 0;
  const std::vector<Tensor> fused =
      RunSteps([&](std::vector<ag::Variable> params) {
        return std::make_unique<Production>(std::move(params), args...);
      }, kSteps, &fused_pooled);
  const std::vector<Tensor> scalar =
      RunSteps([&](std::vector<ag::Variable> params) {
        return std::make_unique<Reference>(std::move(params), args...);
      }, kSteps, &scalar_pooled);
  SetNumThreads(restore);
  EXPECT_EQ(fused_pooled, kSteps);
  for (size_t i = 0; i < fused.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(fused[i], scalar[i])) << "param " << i;
  }
}

TEST(FusedOptimizerTest, SgdPlainBitwiseMatchesScalarLoop) {
  ExpectBitwiseMatchesScalarLoop<optim::Sgd, reference::ScalarSgd>(0.05f);
}

TEST(FusedOptimizerTest, SgdMomentumBitwiseMatchesScalarLoop) {
  ExpectBitwiseMatchesScalarLoop<optim::Sgd, reference::ScalarSgd>(
      0.05f, /*momentum=*/0.9f);
}

TEST(FusedOptimizerTest, AdamBitwiseMatchesScalarLoop) {
  ExpectBitwiseMatchesScalarLoop<optim::Adam, reference::ScalarAdam>(0.01f);
}

TEST(FusedOptimizerTest, AdamWeightDecayBitwiseMatchesScalarLoop) {
  ExpectBitwiseMatchesScalarLoop<optim::Adam, reference::ScalarAdam>(
      0.01f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.01f);
}

TEST(FusedOptimizerTest, SgdMomentumSkipsParametersWithoutGradient) {
  ag::Variable a = ag::Variable::Leaf(Tensor::Ones({2}), true);
  ag::Variable b = ag::Variable::Leaf(Tensor::Ones({2}), true);
  optim::Sgd sgd({a, b}, 0.1f, /*momentum=*/0.9f);
  a.AccumulateGrad(Tensor::Ones({2}));
  sgd.Step();
  EXPECT_NE(a.data().data()[0], 1.0f);
  // No gradient: no velocity decay, no parameter touch.
  EXPECT_EQ(b.data().data()[0], 1.0f);
}

// ---------------------------------------------------------------------------
// Gradient clipping
// ---------------------------------------------------------------------------

TEST(ClipGradNormTest, LeavesSmallGradientsUntouched) {
  ag::Variable w = ag::Variable::Leaf(Tensor::Zeros({3}), true);
  w.AccumulateGrad(Tensor::FromVector({3}, {0.1f, 0.2f, 0.2f}));
  const float norm = optim::ClipGradNorm({w}, 5.0f);
  EXPECT_NEAR(norm, 0.3f, 1e-5f);
  EXPECT_NEAR(w.grad().data()[0], 0.1f, 1e-6f);
}

TEST(ClipGradNormTest, ScalesLargeGradientsToMaxNorm) {
  ag::Variable a = ag::Variable::Leaf(Tensor::Zeros({2}), true);
  ag::Variable b = ag::Variable::Leaf(Tensor::Zeros({2}), true);
  a.AccumulateGrad(Tensor::FromVector({2}, {30.0f, 0.0f}));
  b.AccumulateGrad(Tensor::FromVector({2}, {0.0f, 40.0f}));
  const float norm = optim::ClipGradNorm({a, b}, 5.0f);
  EXPECT_NEAR(norm, 50.0f, 1e-3f);
  // Post-clip global norm is max_norm; direction preserved.
  const float ga = a.grad().data()[0];
  const float gb = b.grad().data()[1];
  EXPECT_NEAR(std::sqrt(ga * ga + gb * gb), 5.0f, 1e-3f);
  EXPECT_NEAR(ga / gb, 30.0f / 40.0f, 1e-4f);
}

TEST(ClipGradNormTest, IgnoresMissingGradients) {
  ag::Variable a = ag::Variable::Leaf(Tensor::Zeros({2}), true);
  EXPECT_EQ(optim::ClipGradNorm({a}, 1.0f), 0.0f);
}

// ---------------------------------------------------------------------------
// LR schedule (the paper's: /10 every 10 epochs starting at epoch 20)
// ---------------------------------------------------------------------------

TEST(StepDecayScheduleTest, MatchesPaperRecipe) {
  optim::StepDecaySchedule schedule(0.01f);
  EXPECT_FLOAT_EQ(schedule.LrForEpoch(0), 0.01f);
  EXPECT_FLOAT_EQ(schedule.LrForEpoch(19), 0.01f);
  EXPECT_FLOAT_EQ(schedule.LrForEpoch(20), 0.001f);
  EXPECT_FLOAT_EQ(schedule.LrForEpoch(29), 0.001f);
  EXPECT_FLOAT_EQ(schedule.LrForEpoch(30), 0.0001f);
  EXPECT_NEAR(schedule.LrForEpoch(45), 1e-5f, 1e-9f);
}

TEST(StepDecayScheduleTest, CustomFactorAndPeriod) {
  optim::StepDecaySchedule schedule(1.0f, /*first_decay_epoch=*/2,
                                    /*period=*/3, /*factor=*/0.5f);
  EXPECT_FLOAT_EQ(schedule.LrForEpoch(1), 1.0f);
  EXPECT_FLOAT_EQ(schedule.LrForEpoch(2), 0.5f);
  EXPECT_FLOAT_EQ(schedule.LrForEpoch(4), 0.5f);
  EXPECT_FLOAT_EQ(schedule.LrForEpoch(5), 0.25f);
}

}  // namespace
}  // namespace enhancenet
