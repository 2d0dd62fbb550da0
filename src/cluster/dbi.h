// Davies-Bouldin index and the two optimal-k rules from the paper's
// Figure 2 analysis: the prose "elbow" rule FLIPS actually uses, and the
// literal Eq. 3 rule (first k whose DBI improvement falls under a
// threshold), kept separate so the fig2 bench can compare them.
#pragma once

#include "cluster/kmeans.h"

namespace flips::cluster {

/// Mean over clusters of max_{j != i} (s_i + s_j) / d(c_i, c_j), where
/// s_i is mean intra-cluster distance. Lower is better.
[[nodiscard]] double davies_bouldin_index(
    const std::vector<Point>& points,
    const std::vector<std::size_t>& assignments,
    const std::vector<Point>& centroids);

struct OptimalKConfig {
  std::size_t k_min = 2;
  std::size_t k_max = 20;
  std::size_t repeats = 5;  ///< T: DBI is averaged over T k-means runs
  KMeansConfig kmeans;      ///< per-run knobs (k is overwritten)
  /// Eq. 3 rule: stop at the first k where the relative DBI improvement
  /// over k-1 drops below this threshold.
  double eq3_threshold = 0.05;
};

struct OptimalKResult {
  std::size_t k = 0;
  std::size_t k_min = 0;              ///< dbi_curve[0] corresponds to k_min
  std::vector<double> dbi_curve;      ///< mean DBI per k in [k_min, k_max]
};

/// Prose elbow rule: the k minimizing mean DBI over the sweep (the
/// smallest such k when several lie within 1e-9 of the minimum).
[[nodiscard]] OptimalKResult optimal_k_elbow(const std::vector<Point>& points,
                                             const OptimalKConfig& config,
                                             common::Rng& rng);

/// Literal Eq. 3 rule: smallest k whose marginal DBI improvement is
/// below `eq3_threshold` (falls back to the elbow k when none qualifies).
[[nodiscard]] OptimalKResult optimal_k_eq3(const std::vector<Point>& points,
                                           const OptimalKConfig& config,
                                           common::Rng& rng);

}  // namespace flips::cluster
