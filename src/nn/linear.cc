#include "nn/linear.h"

#include "common/logging.h"
#include "nn/init.h"

namespace enhancenet {
namespace nn {

namespace ag = ::enhancenet::autograd;

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng, bool bias)
    : in_features_(in_features), out_features_(out_features) {
  ENHANCENET_CHECK_GT(in_features, 0);
  ENHANCENET_CHECK_GT(out_features, 0);
  weight_ = RegisterParameter(
      "weight", GlorotUniform({in_features, out_features}, rng));
  if (bias) {
    bias_ = RegisterParameter("bias", Tensor::Zeros({out_features}));
  }
}

ag::Variable Linear::Forward(const ag::Variable& x) const {
  ENHANCENET_CHECK_EQ(x.size(-1), in_features_)
      << "Linear expects last dim " << in_features_;
  Shape out_shape = x.shape();
  out_shape.back() = out_features_;
  ag::Variable flat = ag::Reshape(x, {-1, in_features_});
  // Bias folded into the GEMM write-back (ops::GemmEpilogue::kBias):
  // bitwise-identical to MatMul + Add, one graph node and one full-tensor
  // pass fewer.
  ag::Variable y = bias_.defined() ? ag::MatMulBias(flat, weight_, bias_)
                                   : ag::MatMul(flat, weight_);
  return ag::Reshape(y, std::move(out_shape));
}

}  // namespace nn
}  // namespace enhancenet
