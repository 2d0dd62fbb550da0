// Plain SGD applier with the round-indexed step decay the benches use
// (lr halves every `lr_decay_rounds` FL rounds).
#pragma once

#include <cmath>
#include <cstddef>

namespace flips::ml {

struct SgdConfig {
  double learning_rate = 0.01;
  double lr_decay_factor = 1.0;   ///< multiplied in every decay window
  std::size_t lr_decay_rounds = 0;  ///< 0 = no decay
};

class SgdOptimizer {
 public:
  explicit SgdOptimizer(const SgdConfig& config) : config_(config) {}

  /// Effective learning rate for 1-based FL round `round`.
  double learning_rate_for_round(std::size_t round) const {
    if (config_.lr_decay_rounds == 0 || config_.lr_decay_factor == 1.0 ||
        round <= 1) {
      return config_.learning_rate;
    }
    const auto windows =
        static_cast<double>((round - 1) / config_.lr_decay_rounds);
    return config_.learning_rate * std::pow(config_.lr_decay_factor, windows);
  }

  const SgdConfig& config() const { return config_; }

 private:
  SgdConfig config_;
};

}  // namespace flips::ml
