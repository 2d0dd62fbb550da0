// Minimal dense neural-net substrate for the FL simulation. Models
// are `Sequential` stacks of layers trained with softmax cross-entropy.
//
// Storage layout: a Sequential owns ONE contiguous parameter buffer and
// ONE contiguous gradient buffer; every layer is bound to a segment of
// each. Activations are contiguous row-major `Tensor`s. This keeps the
// whole FL data path (local SGD steps, FedProx/SCAFFOLD/FedDyn
// corrections, aggregation, server optimizers, DP clipping and noise)
// operating on flat double arrays with no per-step allocation.
//
// A Sequential is value-semantic (deep copy) because the FL job clones
// the global model into every selected party each round; layers cache
// forward activations for backward, so a single instance must NOT be
// shared across threads — clone one per worker instead.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "ml/tensor.h"

namespace flips::ml {

class Layer {
 public:
  virtual ~Layer() = default;
  /// Forward pass. Returns a reference to a layer-owned output buffer
  /// (valid until the next forward on this layer); implementations
  /// cache what backward needs.
  virtual const Tensor& forward(const Tensor& input) = 0;
  /// Backprop: consumes dL/d(output), accumulates parameter gradients
  /// into the bound gradient segment, returns dL/d(input) (layer-owned
  /// buffer, same lifetime rule as forward). When `need_input_grad` is
  /// false (the model's first layer — nothing consumes dL/d(features))
  /// implementations may skip the input-gradient math and return an
  /// unspecified tensor.
  virtual const Tensor& backward(const Tensor& grad_output,
                                 bool need_input_grad) = 0;
  virtual std::size_t num_parameters() const { return 0; }
  /// Writes the layer's freshly-initialized parameters to `dst`
  /// (exactly num_parameters() values). Called once when the layer
  /// joins a Sequential; the layer may release its initializer storage.
  virtual void export_initial_parameters(double* /*dst*/) {}
  /// Points the layer at its segment of the owning Sequential's
  /// contiguous parameter/gradient storage and advances both cursors by
  /// num_parameters(). Re-invoked whenever that storage moves.
  virtual void bind(double*& /*params*/, double*& /*grads*/) {}
  virtual std::unique_ptr<Layer> clone() const = 0;
};

class Sequential {
 public:
  Sequential() = default;
  Sequential(const Sequential& other);
  Sequential& operator=(const Sequential& other);
  Sequential(Sequential&&) noexcept = default;
  Sequential& operator=(Sequential&&) noexcept = default;

  void add(std::unique_ptr<Layer> layer);

  std::size_t num_parameters() const { return params_.size(); }
  /// The model's parameters as one contiguous vector (the wire format
  /// of the FL job: aggregation, server optimizers and DP all operate
  /// on it directly).
  const std::vector<double>& parameters() const { return params_; }
  /// Mutable view of the same storage; writing it IS updating the
  /// model (no copy-back needed).
  std::vector<double>& mutable_parameters() { return params_; }
  void set_parameters(const std::vector<double>& params);
  /// Accumulated gradients, contiguous, same ordering as parameters().
  const std::vector<double>& gradients() const { return grads_; }
  void apply_gradients(double learning_rate);
  void zero_gradients();

  /// Forward to logits (no softmax). The returned reference is valid
  /// until the next forward/training call on this model.
  const Tensor& forward(const Tensor& features);

  /// One forward+backward over the batch with softmax cross-entropy.
  /// Accumulates gradients into the flat gradient buffer (zeroing
  /// previous ones) and returns the mean loss.
  double train_step_gradient(const Tensor& features,
                             const std::vector<std::uint32_t>& labels);

  /// Mean cross-entropy without touching gradients.
  double evaluate_loss(const Tensor& features,
                       const std::vector<std::uint32_t>& labels);

 private:
  void rebind();

  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<double> params_;  ///< all layer parameters, contiguous
  std::vector<double> grads_;   ///< matching gradient accumulator
  Tensor probs_;                ///< softmax / loss-gradient scratch
};

struct ModelFactory {
  static Sequential logistic_regression(std::size_t input_dim,
                                        std::size_t num_classes,
                                        common::Rng& rng);
  static Sequential mlp(std::size_t input_dim, std::size_t hidden,
                        std::size_t num_classes, common::Rng& rng);
};

}  // namespace flips::ml
