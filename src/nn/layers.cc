#include "layers.h"

#include <cmath>

namespace sleuth::nn {

Linear::Linear(size_t in, size_t out, util::Rng &rng)
{
    SLEUTH_ASSERT(in > 0 && out > 0, "linear layer shape");
    double stddev = std::sqrt(2.0 / static_cast<double>(in + out));
    weight_ = param(Tensor::randn(in, out, stddev, rng));
    bias_ = param(Tensor(1, out));
}

Var
Linear::forward(const Var &x) const
{
    return addRow(matmul(x, weight_), bias_);
}

Tensor
Linear::infer(const Tensor &x) const
{
    Tensor y = x.matmul(weight_->value());
    y.addRowInPlace(bias_->value());
    return y;
}

Mlp::Mlp(const std::vector<size_t> &widths, Activation hidden,
         util::Rng &rng)
    : hidden_(hidden)
{
    SLEUTH_ASSERT(widths.size() >= 2, "mlp needs at least in/out widths");
    for (size_t i = 0; i + 1 < widths.size(); ++i)
        layers_.emplace_back(widths[i], widths[i + 1], rng);
}

Var
Mlp::forward(Var x) const
{
    for (size_t i = 0; i < layers_.size(); ++i) {
        x = layers_[i].forward(x);
        if (i + 1 < layers_.size())
            x = activate(x, hidden_);
    }
    return x;
}

Tensor
Mlp::infer(const Tensor &x) const
{
    Tensor y = layers_.front().infer(x);
    for (size_t i = 1; i < layers_.size(); ++i) {
        switch (hidden_) {
          case Activation::None: break;
          case Activation::Relu: y.reluInPlace(); break;
          case Activation::Sigmoid: y.sigmoidInPlace(); break;
          case Activation::Tanh: y.tanhInPlace(); break;
        }
        y = layers_[i].infer(y);
    }
    return y;
}

std::vector<Var>
Mlp::parameters() const
{
    std::vector<Var> out;
    for (const Linear &l : layers_)
        for (const Var &p : l.parameters())
            out.push_back(p);
    return out;
}

size_t
Mlp::parameterCount() const
{
    size_t n = 0;
    for (const Var &p : parameters())
        n += p->value().size();
    return n;
}

Var
activate(const Var &x, Activation act)
{
    switch (act) {
      case Activation::None: return x;
      case Activation::Relu: return relu(x);
      case Activation::Sigmoid: return sigmoid(x);
      case Activation::Tanh: return tanhOp(x);
    }
    util::panic("invalid activation");
}

util::Json
parametersToJson(const std::vector<Var> &params)
{
    util::Json arr = util::Json::array();
    for (const Var &p : params) {
        util::Json entry = util::Json::object();
        entry.set("rows", p->value().rows());
        entry.set("cols", p->value().cols());
        util::Json data = util::Json::array();
        for (double v : p->value().data())
            data.push(v);
        entry.set("data", std::move(data));
        arr.push(std::move(entry));
    }
    return arr;
}

void
parametersFromJson(const util::Json &doc, const std::vector<Var> &params)
{
    const auto &arr = doc.asArray();
    if (arr.size() != params.size())
        util::fatal("model load: expected ", params.size(),
                    " parameter tensors, found ", arr.size());
    for (size_t i = 0; i < params.size(); ++i) {
        const util::Json &entry = arr[i];
        size_t rows = static_cast<size_t>(entry.at("rows").asInt());
        size_t cols = static_cast<size_t>(entry.at("cols").asInt());
        Tensor &value = params[i]->mutableValue();
        if (rows != value.rows() || cols != value.cols())
            util::fatal("model load: parameter ", i, " shape mismatch");
        const auto &data = entry.at("data").asArray();
        if (data.size() != value.size())
            util::fatal("model load: parameter ", i, " size mismatch");
        for (size_t k = 0; k < data.size(); ++k)
            value.data()[k] = data[k].asNumber();
    }
}

} // namespace sleuth::nn
