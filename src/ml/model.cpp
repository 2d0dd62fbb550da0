#include "ml/model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

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

// ------------------------------------------------------------------
// Sequential

Sequential::Sequential(std::size_t input_dim, std::size_t hidden,
                       std::size_t num_classes, common::Rng& rng)
    : hidden_(hidden) {
  first_ = {input_dim, hidden > 0 ? hidden : num_classes, 0};
  second_ = {hidden, hidden > 0 ? num_classes : 0, first_.end()};
  params_.assign(second_.end(), 0.0);
  grads_.assign(second_.end(), 0.0);
  // He-style init, first layer's weights first; biases start at zero.
  for (const Dense* layer : {&first_, &second_}) {
    if (layer->out == 0) continue;
    const double scale = std::sqrt(2.0 / static_cast<double>(layer->in));
    double* w = params_.data() + layer->offset;
    for (std::size_t i = 0; i < layer->in * layer->out; ++i) {
      w[i] = scale * rng.normal();
    }
  }
}

void Sequential::set_parameters(const std::vector<double>& params) {
  if (params.size() != params_.size()) {
    throw std::invalid_argument(
        "Sequential::set_parameters: got " + std::to_string(params.size()) +
        " values for a model of " + std::to_string(params_.size()));
  }
  std::copy(params.begin(), params.end(), params_.begin());
}

void Sequential::apply_gradients(double learning_rate) {
  const std::size_t n = params_.size();
  for (std::size_t i = 0; i < n; ++i) {
    params_[i] -= learning_rate * grads_[i];
  }
}

void Sequential::dense_forward_into(const Dense& layer, const double* x,
                                    std::size_t batch, Tensor& y) const {
  y.resize(batch, layer.out);
  dense_forward(x, params_.data() + layer.offset,
                params_.data() + layer.bias(), y.data(), batch, layer.in,
                layer.out);
}

void Sequential::dense_backward_into(const Dense& layer, const double* x,
                                     const Tensor& g) {
  dense_backward_params(x, g.data(), grads_.data() + layer.offset,
                        grads_.data() + layer.bias(), g.rows(), layer.in,
                        layer.out);
}

const Tensor& Sequential::forward(const double* rows, std::size_t batch) {
  if (hidden_ == 0) {
    dense_forward_into(first_, rows, batch, logits_);
    return logits_;
  }
  dense_forward_into(first_, rows, batch, hidden_out_);
  tanh_elements(hidden_out_.data(), hidden_out_.data(), hidden_out_.size());
  dense_forward_into(second_, hidden_out_.data(), batch, logits_);
  return logits_;
}

double Sequential::train_step_gradient(
    const Tensor& features, const std::vector<std::uint32_t>& labels) {
  std::fill(grads_.begin(), grads_.end(), 0.0);
  if (features.rows() == 0) return 0.0;
  forward(features.data(), features.rows());
  softmax_rows(logits_);

  const std::size_t batch = features.rows();
  double loss = 0.0;
  const double inv_batch = 1.0 / static_cast<double>(batch);
  // Turn logits_ into dL/dlogits in place: (p - onehot(y)) / batch.
  for (std::size_t b = 0; b < batch; ++b) {
    double* row = logits_.row(b);
    const std::uint32_t y = labels[b];
    loss -= std::log(std::max(row[y], 1e-12));
    row[y] -= 1.0;
    for (std::size_t c = 0; c < logits_.cols(); ++c) row[c] *= inv_batch;
  }
  if (hidden_ == 0) {
    dense_backward_into(first_, features.data(), logits_);
    return loss * inv_batch;
  }
  dense_backward_into(second_, hidden_out_.data(), logits_);
  // dL/dh = g W2^T is dense_forward over W2^T with no bias; then the
  // tanh derivative, 1 - h^2, in place.
  const double* w2 = params_.data() + second_.offset;
  weights_t_.resize(second_.out, second_.in);
  for (std::size_t i = 0; i < second_.in; ++i) {
    for (std::size_t o = 0; o < second_.out; ++o) {
      weights_t_(o, i) = w2[i * second_.out + o];
    }
  }
  grad_hidden_.resize(batch, hidden_);
  dense_forward(logits_.data(), weights_t_.data(), nullptr,
                grad_hidden_.data(), batch, second_.out, second_.in);
  double* __restrict__ g = grad_hidden_.data();
  const double* __restrict__ h = hidden_out_.data();
  for (std::size_t i = 0; i < grad_hidden_.size(); ++i) {
    g[i] = g[i] * (1.0 - h[i] * h[i]);
  }
  dense_backward_into(first_, features.data(), grad_hidden_);
  return loss * inv_batch;
}

double Sequential::evaluate_loss(const Tensor& features,
                                 const std::vector<std::uint32_t>& labels) {
  if (features.rows() == 0) return 0.0;
  forward(features.data(), features.rows());
  softmax_rows(logits_);
  double loss = 0.0;
  for (std::size_t b = 0; b < features.rows(); ++b) {
    loss -= std::log(std::max(logits_(b, labels[b]), 1e-12));
  }
  return loss / static_cast<double>(features.rows());
}

// ------------------------------------------------------------------
// ModelFactory

Sequential ModelFactory::logistic_regression(std::size_t input_dim,
                                             std::size_t num_classes,
                                             common::Rng& rng) {
  return Sequential(input_dim, 0, num_classes, rng);
}

Sequential ModelFactory::mlp(std::size_t input_dim, std::size_t hidden,
                             std::size_t num_classes, common::Rng& rng) {
  return Sequential(input_dim, hidden, num_classes, rng);
}

}  // namespace flips::ml
