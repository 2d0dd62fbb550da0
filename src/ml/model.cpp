#include "ml/model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace flips::ml {

namespace {

// ------------------------------------------------------------------
// Dense (fully connected) layer: out = W x + b.
//
// Weights are stored input-major ([in][out]) so both the forward
// accumulation and the weight-gradient update walk contiguous memory
// with an independent accumulator per output unit — loops gcc can
// vectorize without reassociating a single dot product.

class DenseLayer final : public Layer {
 public:
  DenseLayer(std::size_t in, std::size_t out, common::Rng& rng)
      : in_(in), out_(out), init_(in * out + out, 0.0) {
    // He-style init keeps both tanh and relu stacks trainable. Bias
    // (the tail of init_) starts at zero.
    const double scale = std::sqrt(2.0 / static_cast<double>(in));
    for (std::size_t i = 0; i < in * out; ++i) init_[i] = scale * rng.normal();
  }

  // Both passes are register-blocked over the batch (4 samples per
  // block): each loaded weight row is applied to 4 samples, cutting
  // weight-load and gradient-store traffic 4x, and the 4 independent
  // accumulator sets hide FP add latency. The o-loops run over a
  // contiguous weight row, which gcc vectorizes.

  const Tensor& forward(const Tensor& input) override {
    input_ = &input;
    const std::size_t batch = input.rows();
    output_.resize(batch, out_);
    const double* __restrict__ w_base = weights_;
    const double* __restrict__ bias = bias_;
    std::size_t b = 0;
    for (; b + 4 <= batch; b += 4) {
      const double* __restrict__ x0 = input.row(b);
      const double* __restrict__ x1 = input.row(b + 1);
      const double* __restrict__ x2 = input.row(b + 2);
      const double* __restrict__ x3 = input.row(b + 3);
      double* __restrict__ y0 = output_.row(b);
      double* __restrict__ y1 = output_.row(b + 1);
      double* __restrict__ y2 = output_.row(b + 2);
      double* __restrict__ y3 = output_.row(b + 3);
      std::copy(bias, bias + out_, y0);
      std::copy(bias, bias + out_, y1);
      std::copy(bias, bias + out_, y2);
      std::copy(bias, bias + out_, y3);
      for (std::size_t i = 0; i < in_; ++i) {
        const double xi0 = x0[i];
        const double xi1 = x1[i];
        const double xi2 = x2[i];
        const double xi3 = x3[i];
        const double* __restrict__ w = w_base + i * out_;
        for (std::size_t o = 0; o < out_; ++o) {
          const double wo = w[o];
          y0[o] += xi0 * wo;
          y1[o] += xi1 * wo;
          y2[o] += xi2 * wo;
          y3[o] += xi3 * wo;
        }
      }
    }
    for (; b < batch; ++b) {
      const double* __restrict__ x = input.row(b);
      double* __restrict__ y = output_.row(b);
      std::copy(bias, bias + out_, y);
      for (std::size_t i = 0; i < in_; ++i) {
        const double xi = x[i];
        const double* __restrict__ w = w_base + i * out_;
        for (std::size_t o = 0; o < out_; ++o) y[o] += xi * w[o];
      }
    }
    return output_;
  }

  const Tensor& backward(const Tensor& grad_output,
                         bool need_input_grad) override {
    const std::size_t batch = grad_output.rows();
    grad_input_.resize(need_input_grad ? batch : 0, in_);
    double* __restrict__ gb = grad_bias_;
    double* __restrict__ gw_base = grad_weights_;
    const double* __restrict__ w_base = weights_;
    std::size_t b = 0;
    for (; b + 4 <= batch; b += 4) {
      const double* __restrict__ g0 = grad_output.row(b);
      const double* __restrict__ g1 = grad_output.row(b + 1);
      const double* __restrict__ g2 = grad_output.row(b + 2);
      const double* __restrict__ g3 = grad_output.row(b + 3);
      const double* __restrict__ x0 = input_->row(b);
      const double* __restrict__ x1 = input_->row(b + 1);
      const double* __restrict__ x2 = input_->row(b + 2);
      const double* __restrict__ x3 = input_->row(b + 3);
      // Only touch grad_input_ rows when they exist: with
      // need_input_grad false the tensor has zero rows, and forming
      // data() + offset over an empty buffer would be UB.
      double* __restrict__ gi0 =
          need_input_grad ? grad_input_.row(b) : nullptr;
      double* __restrict__ gi1 =
          need_input_grad ? grad_input_.row(b + 1) : nullptr;
      double* __restrict__ gi2 =
          need_input_grad ? grad_input_.row(b + 2) : nullptr;
      double* __restrict__ gi3 =
          need_input_grad ? grad_input_.row(b + 3) : nullptr;
      for (std::size_t o = 0; o < out_; ++o) {
        gb[o] += (g0[o] + g1[o]) + (g2[o] + g3[o]);
      }
      for (std::size_t i = 0; i < in_; ++i) {
        const double xi0 = x0[i];
        const double xi1 = x1[i];
        const double xi2 = x2[i];
        const double xi3 = x3[i];
        double* __restrict__ gw = gw_base + i * out_;
        if (need_input_grad) {
          const double* __restrict__ w = w_base + i * out_;
          double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
          for (std::size_t o = 0; o < out_; ++o) {
            const double wo = w[o];
            gw[o] +=
                (xi0 * g0[o] + xi1 * g1[o]) + (xi2 * g2[o] + xi3 * g3[o]);
            a0 += wo * g0[o];
            a1 += wo * g1[o];
            a2 += wo * g2[o];
            a3 += wo * g3[o];
          }
          gi0[i] = a0;
          gi1[i] = a1;
          gi2[i] = a2;
          gi3[i] = a3;
        } else {
          for (std::size_t o = 0; o < out_; ++o) {
            gw[o] +=
                (xi0 * g0[o] + xi1 * g1[o]) + (xi2 * g2[o] + xi3 * g3[o]);
          }
        }
      }
    }
    for (; b < batch; ++b) {
      const double* __restrict__ g = grad_output.row(b);
      const double* __restrict__ x = input_->row(b);
      double* __restrict__ gi =
          need_input_grad ? grad_input_.row(b) : nullptr;
      for (std::size_t o = 0; o < out_; ++o) gb[o] += g[o];
      for (std::size_t i = 0; i < in_; ++i) {
        const double xi = x[i];
        double* __restrict__ gw = gw_base + i * out_;
        if (need_input_grad) {
          const double* __restrict__ w = w_base + i * out_;
          double acc = 0.0;
          for (std::size_t o = 0; o < out_; ++o) {
            gw[o] += xi * g[o];
            acc += w[o] * g[o];
          }
          gi[i] = acc;
        } else {
          for (std::size_t o = 0; o < out_; ++o) gw[o] += xi * g[o];
        }
      }
    }
    return grad_input_;
  }

  std::size_t num_parameters() const override { return in_ * out_ + out_; }
  void export_initial_parameters(double* dst) override {
    std::copy(init_.begin(), init_.end(), dst);
    init_.clear();
    init_.shrink_to_fit();
  }
  void bind(double*& params, double*& grads) override {
    weights_ = params;
    bias_ = params + in_ * out_;
    params += num_parameters();
    grad_weights_ = grads;
    grad_bias_ = grads + in_ * out_;
    grads += num_parameters();
  }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<DenseLayer>(*this);
  }

 private:
  std::size_t in_;
  std::size_t out_;
  std::vector<double> init_;   ///< initial weights until bound
  double* weights_ = nullptr;  ///< [in][out] segment of the flat params
  double* bias_ = nullptr;
  double* grad_weights_ = nullptr;
  double* grad_bias_ = nullptr;
  /// Borrowed: forward's input outlives the forward/backward pair in
  /// the Sequential chain (caller's features or the previous layer's
  /// owned output buffer), so no copy is taken.
  const Tensor* input_ = nullptr;
  Tensor output_;
  Tensor grad_input_;
};

// ------------------------------------------------------------------
// Element-wise tanh activation.

class TanhLayer final : public Layer {
 public:
  const Tensor& forward(const Tensor& input) override {
    output_.resize(input.rows(), input.cols());
    const double* __restrict__ x = input.data();
    double* __restrict__ v = output_.data();
    const std::size_t n = output_.size();
    for (std::size_t i = 0; i < n; ++i) v[i] = std::tanh(x[i]);
    return output_;
  }

  const Tensor& backward(const Tensor& grad_output,
                         bool /*need_input_grad*/) override {
    // Element-wise derivative is as cheap as the skip test; activations
    // are never a model's first layer anyway.
    grad_input_.resize(grad_output.rows(), grad_output.cols());
    const double* __restrict__ go = grad_output.data();
    double* __restrict__ g = grad_input_.data();
    const double* __restrict__ y = output_.data();
    const std::size_t n = grad_input_.size();
    for (std::size_t i = 0; i < n; ++i) g[i] = go[i] * (1.0 - y[i] * y[i]);
    return grad_input_;
  }

  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<TanhLayer>(*this);
  }

 private:
  Tensor output_;
  Tensor grad_input_;
};

}  // namespace

// ------------------------------------------------------------------
// Sequential

Sequential::Sequential(const Sequential& other)
    : params_(other.params_), grads_(other.grads_) {
  layers_.reserve(other.layers_.size());
  for (const auto& layer : other.layers_) layers_.push_back(layer->clone());
  rebind();
}

Sequential& Sequential::operator=(const Sequential& other) {
  if (this == &other) return *this;
  params_ = other.params_;
  grads_ = other.grads_;
  layers_.clear();
  layers_.reserve(other.layers_.size());
  for (const auto& layer : other.layers_) layers_.push_back(layer->clone());
  rebind();
  return *this;
}

void Sequential::rebind() {
  double* p = params_.data();
  double* g = grads_.data();
  for (auto& layer : layers_) layer->bind(p, g);
}

void Sequential::add(std::unique_ptr<Layer> layer) {
  const std::size_t offset = params_.size();
  const std::size_t n = layer->num_parameters();
  params_.resize(offset + n);
  grads_.resize(offset + n, 0.0);
  layer->export_initial_parameters(params_.data() + offset);
  layers_.push_back(std::move(layer));
  rebind();  // resize may have moved both buffers
}

void Sequential::set_parameters(const std::vector<double>& params) {
  assert(params.size() == params_.size());
  std::copy(params.begin(), params.end(), params_.begin());
}

void Sequential::apply_gradients(double learning_rate) {
  const std::size_t n = params_.size();
  for (std::size_t i = 0; i < n; ++i) {
    params_[i] -= learning_rate * grads_[i];
  }
}

void Sequential::zero_gradients() {
  std::fill(grads_.begin(), grads_.end(), 0.0);
}

const Tensor& Sequential::forward(const Tensor& features) {
  const Tensor* x = &features;
  for (auto& layer : layers_) x = &layer->forward(*x);
  return *x;
}

namespace {

/// Softmax in place, row by row. Numerically stabilized.
void softmax_rows(Tensor& logits) {
  const std::size_t cols = logits.cols();
  for (std::size_t b = 0; b < logits.rows(); ++b) {
    double* row = logits.row(b);
    double max = cols == 0 ? 0.0 : row[0];
    for (std::size_t c = 1; c < cols; ++c) max = std::max(max, row[c]);
    double sum = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      row[c] = std::exp(row[c] - max);
      sum += row[c];
    }
    const double inv = 1.0 / sum;
    for (std::size_t c = 0; c < cols; ++c) row[c] *= inv;
  }
}

}  // namespace

double Sequential::train_step_gradient(
    const Tensor& features, const std::vector<std::uint32_t>& labels) {
  zero_gradients();
  if (features.rows() == 0) return 0.0;
  probs_ = forward(features);
  softmax_rows(probs_);

  const std::size_t batch = features.rows();
  double loss = 0.0;
  const double inv_batch = 1.0 / static_cast<double>(batch);
  // Turn probs_ into dL/dlogits in place: (p - onehot(y)) / batch.
  for (std::size_t b = 0; b < batch; ++b) {
    double* row = probs_.row(b);
    const std::uint32_t y = labels[b];
    loss -= std::log(std::max(row[y], 1e-12));
    row[y] -= 1.0;
    for (std::size_t c = 0; c < probs_.cols(); ++c) row[c] *= inv_batch;
  }
  const Tensor* grad = &probs_;
  for (std::size_t l = layers_.size(); l-- > 0;) {
    grad = &layers_[l]->backward(*grad, /*need_input_grad=*/l > 0);
  }
  return loss * inv_batch;
}

double Sequential::evaluate_loss(const Tensor& features,
                                 const std::vector<std::uint32_t>& labels) {
  if (features.rows() == 0) return 0.0;
  probs_ = forward(features);
  softmax_rows(probs_);
  double loss = 0.0;
  for (std::size_t b = 0; b < features.rows(); ++b) {
    loss -= std::log(std::max(probs_(b, labels[b]), 1e-12));
  }
  return loss / static_cast<double>(features.rows());
}

std::uint32_t Sequential::predict(const std::vector<double>& x) {
  single_.resize(1, x.size());
  std::copy(x.begin(), x.end(), single_.row(0));
  const Tensor& logits = forward(single_);
  const double* row = logits.row(0);
  std::size_t best = 0;
  for (std::size_t i = 1; i < logits.cols(); ++i) {
    if (row[i] > row[best]) best = i;
  }
  return static_cast<std::uint32_t>(best);
}

// ------------------------------------------------------------------
// ModelFactory

Sequential ModelFactory::logistic_regression(std::size_t input_dim,
                                             std::size_t num_classes,
                                             common::Rng& rng) {
  Sequential model;
  model.add(std::make_unique<DenseLayer>(input_dim, num_classes, rng));
  return model;
}

Sequential ModelFactory::mlp(std::size_t input_dim, std::size_t hidden,
                             std::size_t num_classes, common::Rng& rng) {
  Sequential model;
  model.add(std::make_unique<DenseLayer>(input_dim, hidden, rng));
  model.add(std::make_unique<TanhLayer>());
  model.add(std::make_unique<DenseLayer>(hidden, num_classes, rng));
  return model;
}

}  // namespace flips::ml
