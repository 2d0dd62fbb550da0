// Local SGD settings and the round-indexed step decay the benches use
// (lr is multiplied by `lr_decay_factor` every `lr_decay_rounds` FL
// rounds).
#pragma once

#include <cmath>
#include <cstddef>

namespace flips::ml {

struct SgdConfig {
  double learning_rate = 0.01;
  double lr_decay_factor = 1.0;   ///< multiplied in every decay window
  std::size_t lr_decay_rounds = 0;  ///< 0 = no decay
};

/// Effective learning rate for 1-based FL round `round`.
inline double learning_rate_for_round(const SgdConfig& config,
                                      std::size_t round) {
  if (config.lr_decay_rounds == 0 || config.lr_decay_factor == 1.0 ||
      round <= 1) {
    return config.learning_rate;
  }
  const auto windows =
      static_cast<double>((round - 1) / config.lr_decay_rounds);
  return config.learning_rate * std::pow(config.lr_decay_factor, windows);
}

}  // namespace flips::ml
