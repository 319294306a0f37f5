#include "tensor/nn.h"

namespace zoomer {
namespace tensor {

Tensor Activate(const Tensor& x, Activation act) {
  switch (act) {
    case Activation::kNone: return x;
    case Activation::kRelu: return Relu(x);
    case Activation::kLeakyRelu: return LeakyRelu(x);
    case Activation::kTanh: return Tanh(x);
    case Activation::kSigmoid: return Sigmoid(x);
  }
  return x;
}

Linear::Linear(int64_t in_dim, int64_t out_dim, Rng* rng)
    : weight_(Tensor::Xavier(in_dim, out_dim, rng, /*requires_grad=*/true)),
      bias_(Tensor::Zeros(1, out_dim, /*requires_grad=*/true)) {}

Tensor Linear::Forward(const Tensor& x) const {
  return Affine(x, weight_, bias_);
}

Mlp::Mlp(const std::vector<int64_t>& dims, Rng* rng, Activation hidden_act,
         Activation out_act)
    : hidden_act_(hidden_act), out_act_(out_act) {
  ZCHECK_GE(dims.size(), 2u);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng);
  }
}

Tensor Mlp::Forward(const Tensor& x) const {
  Tensor h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Forward(h);
    h = Activate(h, i + 1 < layers_.size() ? hidden_act_ : out_act_);
  }
  return h;
}

std::vector<Tensor> Mlp::Parameters() const {
  std::vector<Tensor> out;
  for (const auto& l : layers_) {
    auto p = l.Parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

Embedding::Embedding(int64_t vocab, int64_t dim, Rng* rng, float stddev)
    : table_(Tensor::Randn(vocab, dim, rng, stddev, /*requires_grad=*/true)) {}

Tensor Embedding::Lookup(const std::vector<int64_t>& ids) const {
  return Rows(table_, ids);
}

}  // namespace tensor
}  // namespace zoomer
