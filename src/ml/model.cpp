#include "ml/model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "common/simd.h"
#include "ml/kernels.h"

namespace flips::ml {

// ------------------------------------------------------------------
// Kernels (ml/kernels.h). This file builds with -ffp-contract=off and
// without -ffast-math, so each clone below computes exactly the
// documented scalar chains; only the lane width differs.

namespace {

/// Eight doubles as one value (GNU vector extension): element-wise IEEE
/// ops, which the compiler maps to one zmm, two ymm or four xmm
/// registers per clone. Moved to and from memory with memcpy, so no
/// alignment is assumed.
using Vec8 = double __attribute__((vector_size(8 * sizeof(double))));
constexpr std::size_t kVec = 8;

/// Per-thread scratch for the layers narrower than kVec. It grows to
/// the largest request a thread has made and is then reused, so a
/// thread allocates only when a call needs more than any before it.
double* narrow_scratch(std::size_t n) {
  thread_local std::vector<double> buffer;
  if (buffer.size() < n) buffer.resize(n);
  return buffer.data();
}

/// Copies `rows` rows of `cols` < kVec values into kVec-wide rows of
/// `dst`, zero-filling the lanes past `cols`. The padded lanes are never
/// stored back, so their values cannot reach a result.
void pad_rows(const double* src, std::size_t rows, std::size_t cols,
              double* dst) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = 0; k < kVec; ++k) {
      dst[r * kVec + k] = k < cols ? src[r * cols + k] : 0.0;
    }
  }
}

// The two tile bodies are always inlined, so each kernel clone gets its
// own copy at its own lane width.

/// One 4-row x 8-lane tile of dense_forward: rows x0..x0 + 3 (`in`
/// apart) against 8 columns of W, whose rows start `ws` apart at `w`.
/// Stores the first `lanes` lanes to y rows y0..y0 + 3 (`ys` apart).
/// The accumulators stay in registers across the whole input loop, so
/// each weight vector loaded feeds 4 rows and no partial sum goes
/// through memory. Each lane is its output's documented chain: the
/// bias (`lanes` values; 0.0 when `b` is null), then + x[r][i] W[i][o]
/// for i in order.
[[gnu::always_inline]] inline void forward_tile(
    const double* x0, std::size_t in, const double* w, std::size_t ws,
    const double* b, double* y0, std::size_t ys, std::size_t lanes) {
  const double* x1 = x0 + in;
  const double* x2 = x1 + in;
  const double* x3 = x2 + in;
  Vec8 a0 = {};
  if (b != nullptr) std::memcpy(&a0, b, lanes * sizeof(double));
  Vec8 a1 = a0;
  Vec8 a2 = a0;
  Vec8 a3 = a0;
  for (std::size_t i = 0; i < in; ++i) {
    Vec8 wv;
    std::memcpy(&wv, w + i * ws, sizeof(Vec8));
    a0 += x0[i] * wv;
    a1 += x1[i] * wv;
    a2 += x2[i] * wv;
    a3 += x3[i] * wv;
  }
  std::memcpy(y0, &a0, lanes * sizeof(double));
  std::memcpy(y0 + ys, &a1, lanes * sizeof(double));
  std::memcpy(y0 + 2 * ys, &a2, lanes * sizeof(double));
  std::memcpy(y0 + 3 * ys, &a3, lanes * sizeof(double));
}

/// The weight-gradient chains of one input i for 8 consecutive outputs:
/// adds x[r][i] g[r][o] over the whole batch to `acc`, 4-row tiles as
/// (x0 g0 + x1 g1) + (x2 g2 + x3 g3), then the batch % 4 rest one row
/// at a time. `xi` is x + i (rows `in` apart) and the g rows start `gs`
/// apart at `g`.
[[gnu::always_inline]] inline void weight_grad_chain(
    Vec8& acc, const double* xi, std::size_t in, const double* g,
    std::size_t gs, std::size_t batch) {
  std::size_t r = 0;
  for (; r + 4 <= batch; r += 4) {
    const double* xr = xi + r * in;
    const double* gr = g + r * gs;
    Vec8 g0, g1, g2, g3;
    std::memcpy(&g0, gr, sizeof(Vec8));
    std::memcpy(&g1, gr + gs, sizeof(Vec8));
    std::memcpy(&g2, gr + 2 * gs, sizeof(Vec8));
    std::memcpy(&g3, gr + 3 * gs, sizeof(Vec8));
    acc += (xr[0] * g0 + xr[in] * g1) + (xr[2 * in] * g2 + xr[3 * in] * g3);
  }
  for (; r < batch; ++r) {
    Vec8 gr;
    std::memcpy(&gr, g + r * gs, sizeof(Vec8));
    acc += xi[r * in] * gr;
  }
}

}  // namespace

FLIPS_TARGET_CLONES void dense_forward(const double* x, const double* w,
                                       const double* b, double* y,
                                       std::size_t batch, std::size_t in,
                                       std::size_t out) {
  const std::size_t tiled = batch - batch % 4;
  if (out >= kVec) {
    // The last block is shifted back to end at `out` and may recompute
    // a few outputs of the previous block, with identical bits: every
    // lane runs the same chain.
    for (std::size_t r = 0; r < tiled; r += 4) {
      for (std::size_t block = 0; block < out; block += kVec) {
        const std::size_t o = std::min(block, out - kVec);
        forward_tile(x + r * in, in, w + o, out,
                     b != nullptr ? b + o : nullptr, y + r * out + o, out,
                     kVec);
      }
    }
  } else if (tiled > 0) {
    // Narrower than a vector: the tile runs over W copied into
    // zero-padded kVec-wide rows and stores only the `out` real lanes.
    double* wp = narrow_scratch(in * kVec);
    pad_rows(w, in, out, wp);
    for (std::size_t r = 0; r < tiled; r += 4) {
      forward_tile(x + r * in, in, wp, kVec, b, y + r * out, out, out);
    }
  }
  // The batch % 4 rest: one row at a time, the accumulators in the
  // output row.
  for (std::size_t r = tiled; r < batch; ++r) {
    const double* __restrict__ xr = x + r * in;
    double* __restrict__ yr = y + r * out;
    if (b != nullptr) {
      std::copy(b, b + out, yr);
    } else {
      std::fill(yr, yr + out, 0.0);
    }
    for (std::size_t i = 0; i < in; ++i) {
      const double xi = xr[i];
      const double* __restrict__ wi = w + i * out;
      for (std::size_t o = 0; o < out; ++o) yr[o] += xi * wi[o];
    }
  }
}

FLIPS_TARGET_CLONES void dense_backward_params(const double* x,
                                               const double* g, double* gw,
                                               double* gb, std::size_t batch,
                                               std::size_t in,
                                               std::size_t out) {
  const std::size_t tiled = batch - batch % 4;
  std::size_t r = 0;
  for (; r < tiled; r += 4) {
    const double* g0 = g + r * out;
    for (std::size_t o = 0; o < out; ++o) {
      gb[o] += (g0[o] + g0[out + o]) + (g0[2 * out + o] + g0[3 * out + o]);
    }
  }
  for (; r < batch; ++r) {
    for (std::size_t o = 0; o < out; ++o) gb[o] += g[r * out + o];
  }

  // Weight gradient: each gw[i][o] chain runs over the whole batch in a
  // register, so gw is read and written once per call.
  if (out < kVec) {
    // Narrower than a vector: the chains run over g copied into
    // zero-padded kVec-wide rows, and only the `out` real lanes of gw
    // are loaded and stored.
    double* gp = narrow_scratch(batch * kVec);
    pad_rows(g, batch, out, gp);
    for (std::size_t i = 0; i < in; ++i) {
      Vec8 acc = {};
      std::memcpy(&acc, gw + i * out, out * sizeof(double));
      weight_grad_chain(acc, x + i, in, gp, kVec, batch);
      std::memcpy(gw + i * out, &acc, out * sizeof(double));
    }
    return;
  }
  // Wide layers run 8 outputs per chain set. The last block is shifted
  // back to end at `out` and starts from the values gw held before this
  // row was touched, so the outputs it shares with the previous block
  // get identical bits, not a second accumulation.
  for (std::size_t i = 0; i < in; ++i) {
    double* gwi = gw + i * out;
    Vec8 last;
    std::memcpy(&last, gwi + out - kVec, sizeof(Vec8));
    for (std::size_t block = 0; block < out; block += kVec) {
      const std::size_t o = std::min(block, out - kVec);
      Vec8 acc = last;
      if (o == block) std::memcpy(&acc, gwi + o, sizeof(Vec8));
      weight_grad_chain(acc, x + i, in, g + o, out, batch);
      std::memcpy(gwi + o, &acc, sizeof(Vec8));
    }
  }
}

FLIPS_TARGET_CLONES void tanh_elements(const double* x, double* y,
                                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = ml::tanh(x[i]);
}

FLIPS_TARGET_CLONES void exp_elements(const double* x, double* y,
                                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = ml::exp(x[i]);
}

namespace {

// ------------------------------------------------------------------
// Dense (fully connected) layer: out = W x + b.
//
// Weights are stored input-major ([in][out]) so the forward pass and
// the weight-gradient update walk contiguous memory with an independent
// accumulator per output unit. The input gradient runs the forward
// kernel over a transposed copy of W (weights_t_, refreshed per
// backward), so its lanes also run across independent outputs.

class DenseLayer final : public Layer {
 public:
  DenseLayer(std::size_t in, std::size_t out, common::Rng& rng)
      : in_(in), out_(out), init_(in * out + out, 0.0) {
    // He-style init keeps both tanh and relu stacks trainable. Bias
    // (the tail of init_) starts at zero.
    const double scale = std::sqrt(2.0 / static_cast<double>(in));
    for (std::size_t i = 0; i < in * out; ++i) init_[i] = scale * rng.normal();
  }

  const Tensor& forward(const Tensor& input) override {
    input_ = &input;
    output_.resize(input.rows(), out_);
    dense_forward(input.data(), weights_, bias_, output_.data(),
                  input.rows(), in_, out_);
    return output_;
  }

  const Tensor& backward(const Tensor& grad_output,
                         bool need_input_grad) override {
    const std::size_t batch = grad_output.rows();
    dense_backward_params(input_->data(), grad_output.data(), grad_weights_,
                          grad_bias_, batch, in_, out_);
    if (!need_input_grad) {
      grad_input_.resize(0, in_);
      return grad_input_;
    }
    weights_t_.resize(out_, in_);
    for (std::size_t i = 0; i < in_; ++i) {
      const double* w = weights_ + i * out_;
      for (std::size_t o = 0; o < out_; ++o) weights_t_(o, i) = w[o];
    }
    grad_input_.resize(batch, in_);
    // dL/dx = g W^T is dense_forward over W^T with no bias.
    dense_forward(grad_output.data(), weights_t_.data(), nullptr,
                  grad_input_.data(), batch, out_, in_);
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
  Tensor weights_t_;  ///< [out][in] scratch: W^T for the input gradient
};

// ------------------------------------------------------------------
// Element-wise tanh activation.

class TanhLayer final : public Layer {
 public:
  const Tensor& forward(const Tensor& input) override {
    output_.resize(input.rows(), input.cols());
    tanh_elements(input.data(), output_.data(), output_.size());
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

/// Softmax in place, row by row. Numerically stabilized: each row is
/// shifted by its max, then one exp pass covers the whole tensor. The
/// row sum is one scalar chain in column order.
void softmax_rows(Tensor& logits) {
  const std::size_t cols = logits.cols();
  if (cols == 0) return;
  for (std::size_t b = 0; b < logits.rows(); ++b) {
    double* row = logits.row(b);
    double max = row[0];
    for (std::size_t c = 1; c < cols; ++c) max = std::max(max, row[c]);
    for (std::size_t c = 0; c < cols; ++c) row[c] -= max;
  }
  exp_elements(logits.data(), logits.data(), logits.size());
  for (std::size_t b = 0; b < logits.rows(); ++b) {
    double* row = logits.row(b);
    double sum = 0.0;
    for (std::size_t c = 0; c < cols; ++c) sum += row[c];
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
