#include "optim/optimizer.h"

#include <cmath>

#include "common/logging.h"
#include "runtime/parallel.h"
#include "tensor/tensor_ops.h"

namespace enhancenet {
namespace optim {

namespace {

/// Range-update helpers run by one ParallelFor sweep per parameter. Each
/// element's update depends only on index j, so the result is invariant to
/// how [0, n) is partitioned: the step is bitwise identical to a serial
/// scalar loop at any thread count.

void SgdPlainRange(float* p, const float* g, float lr, int64_t lo,
                   int64_t hi) {
  for (int64_t j = lo; j < hi; ++j) p[j] -= lr * g[j];
}

void SgdMomentumRange(float* p, float* vel, const float* g, float lr,
                      float momentum, int64_t lo, int64_t hi) {
  // v = momentum * v + g;  p -= lr * v
  for (int64_t j = lo; j < hi; ++j) {
    vel[j] = momentum * vel[j] + g[j];
    p[j] -= lr * vel[j];
  }
}

void AdamRange(float* p, float* m, float* v, const float* g, float lr,
               float beta1, float beta2, float eps, float weight_decay,
               float bc1, float bc2, int64_t lo, int64_t hi) {
  for (int64_t j = lo; j < hi; ++j) {
    float gj = g[j];
    if (weight_decay > 0.0f) gj += weight_decay * p[j];
    m[j] = beta1 * m[j] + (1.0f - beta1) * gj;
    v[j] = beta2 * v[j] + (1.0f - beta2) * gj * gj;
    const float m_hat = m[j] / bc1;
    const float v_hat = v[j] / bc2;
    p[j] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

}  // namespace

Optimizer::Optimizer(std::vector<autograd::Variable> params, float lr)
    : params_(std::move(params)), lr_(lr) {
  ENHANCENET_CHECK_GT(lr, 0.0f);
  for (const auto& p : params_) {
    ENHANCENET_CHECK(p.defined() && p.requires_grad())
        << "optimizer given a non-trainable variable";
  }
}

void Optimizer::ZeroGrad() {
  for (auto& p : params_) p.ZeroGrad();
}

Sgd::Sgd(std::vector<autograd::Variable> params, float lr, float momentum)
    : Optimizer(std::move(params), lr), momentum_(momentum) {
  ENHANCENET_CHECK_GE(momentum, 0.0f);
  velocity_.reserve(params_.size());
  for (const auto& p : params_) velocity_.emplace_back(p.shape());
}

void Sgd::Step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    // Parameters that never saw a gradient this step (unused branches) are
    // skipped entirely: no velocity decay, no parameter touch, no pass over
    // the elements.
    if (!p.has_grad()) continue;
    const float* pg = p.grad().data();
    float* pp = p.mutable_data().data();
    const int64_t n = p.numel();
    if (momentum_ > 0.0f) {
      float* pv = velocity_[i].data();
      const float lr = lr_;
      const float momentum = momentum_;
      ParallelFor(0, n, 2 * kCostElement, [=](int64_t lo, int64_t hi) {
        SgdMomentumRange(pp, pv, pg, lr, momentum, lo, hi);
      });
    } else {
      const float lr = lr_;
      ParallelFor(0, n, kCostElement, [=](int64_t lo, int64_t hi) {
        SgdPlainRange(pp, pg, lr, lo, hi);
      });
    }
  }
}

Adam::Adam(std::vector<autograd::Variable> params, float lr, float beta1,
           float beta2, float eps, float weight_decay)
    : Optimizer(std::move(params), lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p.shape());
    v_.emplace_back(p.shape());
  }
}

void Adam::Step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    // Gradient-free parameters skip the whole element pass: t_ still
    // advances (global step count), but m/v stay untouched, matching the
    // semantics of per-parameter "skip if unused".
    if (!p.has_grad()) continue;
    const float* pg = p.grad().data();
    float* pm = m_[i].data();
    float* pv = v_[i].data();
    float* pp = p.mutable_data().data();
    const int64_t n = p.numel();
    const float lr = lr_;
    const float beta1 = beta1_;
    const float beta2 = beta2_;
    const float eps = eps_;
    const float weight_decay = weight_decay_;
    // Three streams, two divides and a square root per element.
    ParallelFor(0, n, 6 * kCostElement, [=](int64_t lo, int64_t hi) {
      AdamRange(pp, pm, pv, pg, lr, beta1, beta2, eps, weight_decay, bc1, bc2,
                lo, hi);
    });
  }
}

float ClipGradNorm(const std::vector<autograd::Variable>& params,
                   float max_norm) {
  ENHANCENET_CHECK_GT(max_norm, 0.0f);
  double sq = 0.0;
  for (const auto& p : params) {
    if (!p.has_grad()) continue;
    const float* pg = p.grad().data();
    const int64_t n = p.numel();
    for (int64_t j = 0; j < n; ++j) sq += static_cast<double>(pg[j]) * pg[j];
  }
  const float norm = static_cast<float>(std::sqrt(sq));
  if (norm > max_norm) {
    const float scale = max_norm / (norm + 1e-12f);
    for (auto p : params) {  // copy of the handle; shares the node
      if (!p.has_grad()) continue;
      float* pg = p.mutable_grad().data();
      const int64_t n = p.numel();
      for (int64_t j = 0; j < n; ++j) pg[j] *= scale;
    }
  }
  return norm;
}

StepDecaySchedule::StepDecaySchedule(float initial_lr, int first_decay_epoch,
                                     int period, float factor)
    : initial_lr_(initial_lr),
      first_decay_epoch_(first_decay_epoch),
      period_(period),
      factor_(factor) {
  ENHANCENET_CHECK_GT(period, 0);
  ENHANCENET_CHECK_GT(factor, 0.0f);
}

float StepDecaySchedule::LrForEpoch(int epoch) const {
  if (epoch < first_decay_epoch_) return initial_lr_;
  const int decays = 1 + (epoch - first_decay_epoch_) / period_;
  return initial_lr_ * std::pow(factor_, static_cast<float>(decays));
}

}  // namespace optim
}  // namespace enhancenet
