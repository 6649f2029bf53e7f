#include "nn/gru.h"

#include "autograd/ops.h"
#include "common/logging.h"
#include "nn/init.h"

namespace enhancenet {
namespace nn {

namespace ag = ::enhancenet::autograd;

GruCell::GruCell(int64_t input_size, int64_t hidden_size, Rng& rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  wx_ = RegisterParameter("wx",
                          GlorotUniform({input_size, 3 * hidden_size}, rng));
  wh_ = RegisterParameter("wh",
                          GlorotUniform({hidden_size, 3 * hidden_size}, rng));
  bias_ = RegisterParameter("bias", Tensor::Zeros({3 * hidden_size}));
}

ag::Variable GruCell::Forward(const ag::Variable& x,
                              const ag::Variable& h) const {
  ENHANCENET_CHECK_EQ(x.size(-1), input_size_);
  ENHANCENET_CHECK_EQ(h.size(-1), hidden_size_);

  ag::Variable gx = ag::Add(ag::MatMul(x, wx_), bias_);  // [rows, 3C']
  ag::Variable gh = ag::MatMul(h, wh_);                  // [rows, 3C']
  // r/u gates, candidate and h' = u ⊙ h + (1 - u) ⊙ ĥ (Equation 6) in one
  // fused pass.
  return ag::FusedGruCell(gx, gh, h);
}

LstmCell::LstmCell(int64_t input_size, int64_t hidden_size, Rng& rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  wx_ = RegisterParameter("wx",
                          GlorotUniform({input_size, 4 * hidden_size}, rng));
  wh_ = RegisterParameter("wh",
                          GlorotUniform({hidden_size, 4 * hidden_size}, rng));
  Tensor b = Tensor::Zeros({4 * hidden_size});
  // Forget-gate bias = 1 encourages gradient flow early in training.
  for (int64_t i = hidden_size; i < 2 * hidden_size; ++i) b.data()[i] = 1.0f;
  bias_ = RegisterParameter("bias", std::move(b));
}

LstmCell::State LstmCell::Forward(const ag::Variable& x,
                                  const State& state) const {
  ENHANCENET_CHECK_EQ(x.size(-1), input_size_);

  ag::Variable gates =
      ag::Add(ag::Add(ag::MatMul(x, wx_), ag::MatMul(state.h, wh_)), bias_);
  State next;
  ag::FusedLstmCell(gates, state.c, &next.h, &next.c);
  return next;
}

}  // namespace nn
}  // namespace enhancenet
