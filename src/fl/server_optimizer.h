// Server-side aggregation and adaptive optimizers (Reddi et al.,
// "Adaptive Federated Optimization"): FedAvg, FedAdagrad, FedAdam,
// FedYogi. The aggregated client delta acts as a pseudo-gradient.
#pragma once

#include <cstddef>
#include <vector>

namespace flips::fl {

enum class ServerOpt {
  kFedAvg,
  kFedAdagrad,
  kFedAdam,
  kFedYogi,
};

const char* to_string(ServerOpt opt);

struct ServerOptConfig {
  ServerOpt optimizer = ServerOpt::kFedAvg;
  double learning_rate = 1.0;  ///< 1.0 for FedAvg; ~0.05 for adaptive
  double beta1 = 0.9;
  double beta2 = 0.99;
  double tau = 1e-3;           ///< adaptivity floor
};

struct LocalUpdate {
  std::size_t num_samples = 0;
  std::vector<double> delta;
};

/// Sample-count-weighted average of client deltas (the FedAvg rule).
/// Updates with zero samples weigh 1 so pathological inputs still
/// aggregate. Returns empty when `updates` is empty; throws
/// std::invalid_argument when updates disagree on dimension. This is
/// the reference fold fl::Aggregator (fl/aggregator.h) is
/// bit-compatible with; the session uses the Aggregator.
[[nodiscard]] std::vector<double> aggregate_updates(
    const std::vector<LocalUpdate>& updates);

class ServerOptimizer {
 public:
  ServerOptimizer(const ServerOptConfig& config, std::size_t dim);

  /// One server step: moves `params` along `pseudo_gradient` (the
  /// aggregated delta, already pointing downhill — no sign flip).
  void apply(std::vector<double>& params,
             const std::vector<double>& pseudo_gradient);

  const ServerOptConfig& config() const { return config_; }

 private:
  ServerOptConfig config_;
  std::vector<double> momentum_;
  std::vector<double> second_moment_;
  std::size_t step_ = 0;
};

}  // namespace flips::fl
