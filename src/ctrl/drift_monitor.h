// Online drift detection for the streaming control plane (paper §8
// future work 2, grounded in §3.4's premise that the clustering holds
// "as long as … the data at participants does not change
// significantly"). Each (re-)submission's L1 distance to its assigned
// cluster's centroid feeds a per-cluster EMA; when any cluster's EMA
// climbs past its build-time baseline by a configurable ratio, the
// monitor flags a re-clustering epoch. The flag is sticky until the
// next rebuild resets the baselines.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

namespace flips::ctrl {

struct DriftMonitorConfig {
  /// Weight of each new residual in the per-cluster EMA.
  double ema = 0.2;
  /// Flag when ema > trigger_ratio * baseline + min_shift.
  double trigger_ratio = 1.5;
  /// Absolute L1 slack so near-zero baselines (tight or singleton
  /// clusters) do not flag on noise.
  double min_shift = 0.05;
  /// Observations a cluster must accumulate since the last reset
  /// before it may flag (EMA warm-up).
  std::size_t min_observations = 3;
};

class DriftMonitor {
 public:
  explicit DriftMonitor(const DriftMonitorConfig& config);

  /// New epoch: per-cluster build-time mean residuals become both the
  /// baselines and the EMA seeds; the trigger flag clears.
  void reset(std::vector<double> baselines);

  /// One submission landed `residual` (L1) away from the centroid of
  /// `cluster`. Thread-safe (called from concurrent submitters).
  void observe(std::size_t cluster, double residual);

  /// True once any cluster's EMA exceeded its trigger threshold since
  /// the last reset.
  bool triggered() const;

  std::size_t clusters() const;
  double shift(std::size_t cluster) const;     ///< current EMA
  double baseline(std::size_t cluster) const;  ///< build-time mean residual
  std::size_t observations(std::size_t cluster) const;

 private:
  DriftMonitorConfig config_;
  mutable std::mutex mutex_;
  std::vector<double> baseline_;
  std::vector<double> ema_;
  std::vector<std::size_t> observations_;
  bool triggered_ = false;
};

}  // namespace flips::ctrl
