// The model of every FL session: softmax regression (one dense layer,
// `hidden` = 0) or Dense -> tanh -> Dense, trained with softmax
// cross-entropy. Selection, not the model, is what FLIPS studies, so
// these two fixed shapes are the whole model space.
//
// Storage layout: a Sequential owns ONE contiguous parameter buffer and
// ONE contiguous gradient buffer. Each dense layer is an offset into
// both: its weights ([in][out], input-major), then its bias ([out]),
// the first layer before the second. Activations are contiguous
// row-major `Tensor`s. This keeps the whole FL data path (local SGD
// steps, FedProx/SCAFFOLD/FedDyn corrections, aggregation, server
// optimizers, DP clipping and noise) operating on flat double arrays
// with no per-step allocation.
//
// A Sequential is value-semantic: the implicit copy is deep, since it
// holds only vectors and offsets. The FL job copies the global model
// into every dispatch. Forward and backward keep activations in the
// model's own scratch, so a single instance must NOT be shared across
// threads; copy one per worker instead.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "ml/tensor.h"

namespace flips::ml {

class Sequential {
 public:
  /// One dense layer input_dim -> num_classes when `hidden` is 0, else
  /// input_dim -> hidden -> tanh -> num_classes. Weights are He-style
  /// normal draws from `rng`, the first layer's first, in parameter
  /// order; biases start at zero.
  Sequential(std::size_t input_dim, std::size_t hidden,
             std::size_t num_classes, common::Rng& rng);

  std::size_t num_parameters() const { return params_.size(); }
  /// The model's parameters as one contiguous vector (the wire format
  /// of the FL job: aggregation, server optimizers and DP all operate
  /// on it directly).
  const std::vector<double>& parameters() const { return params_; }
  /// Mutable view of the same storage; writing it IS updating the
  /// model (no copy-back needed).
  std::vector<double>& mutable_parameters() { return params_; }
  /// Copies `params` in. Throws std::invalid_argument unless it holds
  /// exactly num_parameters() values.
  void set_parameters(const std::vector<double>& params);
  /// Accumulated gradients, contiguous, same ordering as parameters().
  const std::vector<double>& gradients() const { return grads_; }
  /// params -= learning_rate * gradients.
  void apply_gradients(double learning_rate);

  /// Forward `n` row-major input rows (n x input_dim doubles at
  /// `rows`) to logits (no softmax). The returned reference is valid
  /// until the next forward/training call on this model.
  const Tensor& forward(const double* rows, std::size_t n);

  /// One forward+backward over the batch with softmax cross-entropy.
  /// Writes the batch's gradients into the flat gradient buffer
  /// (replacing previous ones) and returns the mean loss.
  double train_step_gradient(const Tensor& features,
                             const std::vector<std::uint32_t>& labels);

  /// Mean cross-entropy without touching gradients.
  double evaluate_loss(const Tensor& features,
                       const std::vector<std::uint32_t>& labels);

 private:
  /// A dense layer y = x W + b, as offsets into the flat buffers.
  struct Dense {
    std::size_t in = 0;
    std::size_t out = 0;
    std::size_t offset = 0;  ///< start of W; b follows it
    std::size_t bias() const { return offset + in * out; }
    std::size_t end() const { return bias() + out; }
  };

  void dense_forward_into(const Dense& layer, const double* x,
                          std::size_t batch, Tensor& y) const;
  /// Accumulates `layer`'s gradients for input x and upstream g.
  void dense_backward_into(const Dense& layer, const double* x,
                           const Tensor& g);

  std::size_t hidden_ = 0;
  Dense first_;   ///< input -> hidden (-> classes when hidden_ is 0)
  Dense second_;  ///< hidden -> classes; no parameters when hidden_ is 0
  std::vector<double> params_;  ///< all parameters, contiguous
  std::vector<double> grads_;   ///< matching gradient buffer
  Tensor hidden_out_;   ///< tanh activations [batch][hidden]
  Tensor logits_;       ///< logits, then softmax and dL/dlogits in place
  Tensor grad_hidden_;  ///< dL/d(hidden) [batch][hidden]
  Tensor weights_t_;    ///< [classes][hidden] scratch: W2^T
};

struct ModelFactory {
  static Sequential logistic_regression(std::size_t input_dim,
                                        std::size_t num_classes,
                                        common::Rng& rng);
  static Sequential mlp(std::size_t input_dim, std::size_t hidden,
                        std::size_t num_classes, common::Rng& rng);
};

}  // namespace flips::ml
