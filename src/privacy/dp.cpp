#include "privacy/dp.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace flips::privacy {

void clip_to_norm(std::vector<double>& v, double max_norm) {
  if (max_norm <= 0.0) return;
  double norm_sq = 0.0;
  for (const double x : v) norm_sq += x * x;
  const double norm = std::sqrt(norm_sq);
  if (norm <= max_norm) return;
  const double scale = max_norm / norm;
  for (auto& x : v) x *= scale;
}

void add_gaussian_noise(std::vector<double>& v, double stddev,
                        common::Rng& rng) {
  if (stddev <= 0.0) return;
  for (auto& x : v) x += stddev * rng.normal();
}

namespace {

const std::vector<double>& alpha_grid() {
  static const std::vector<double> kGrid = {
      1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0,
      10.0, 12.0, 16.0, 20.0, 32.0, 64.0, 128.0, 256.0};
  return kGrid;
}

}  // namespace

void RdpAccountant::steps(double noise_multiplier, std::size_t count) {
  if (count == 0) return;
  const auto& grid = alpha_grid();
  if (rdp_.empty()) rdp_.assign(grid.size(), 0.0);
  if (noise_multiplier <= 0.0) {
    // No noise = no privacy; saturate the ledger.
    for (auto& r : rdp_) r = std::numeric_limits<double>::infinity();
    return;
  }
  const double per_step_base =
      1.0 / (2.0 * noise_multiplier * noise_multiplier);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    rdp_[i] += static_cast<double>(count) * grid[i] * per_step_base;
  }
}

double RdpAccountant::epsilon(double delta) const {
  if (rdp_.empty()) return 0.0;
  if (delta <= 0.0) return std::numeric_limits<double>::infinity();
  const auto& grid = alpha_grid();
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double alpha = grid[i];
    if (alpha <= 1.0) continue;
    best = std::min(best, rdp_[i] + std::log(1.0 / delta) / (alpha - 1.0));
  }
  return best;
}

}  // namespace flips::privacy
