// Differential-privacy primitives for the aggregation path: L2 clipping,
// Gaussian noise, and a Renyi-DP accountant for the Gaussian mechanism
// (epsilon via the standard RDP -> (eps, delta) conversion, minimized
// over a fixed alpha grid).
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace flips::privacy {

/// Scales `v` down to L2 norm `max_norm` when it exceeds it.
void clip_to_norm(std::vector<double>& v, double max_norm);

/// Adds iid N(0, stddev^2) noise to every coordinate.
void add_gaussian_noise(std::vector<double>& v, double stddev,
                        common::Rng& rng);

class RdpAccountant {
 public:
  /// Records one Gaussian-mechanism release with the given noise
  /// multiplier (sigma = multiplier * sensitivity).
  void step(double noise_multiplier) { steps(noise_multiplier, 1); }
  void steps(double noise_multiplier, std::size_t count);

  /// Smallest epsilon over the alpha grid for the accumulated steps.
  [[nodiscard]] double epsilon(double delta) const;

 private:
  /// Accumulated RDP at each grid alpha (same order as alpha_grid()).
  std::vector<double> rdp_;
};

}  // namespace flips::privacy
