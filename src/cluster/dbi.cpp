#include "cluster/dbi.h"

#include <algorithm>
#include <cmath>

namespace flips::cluster {

double davies_bouldin_index(const std::vector<Point>& points,
                            const std::vector<std::size_t>& assignments,
                            const std::vector<Point>& centroids) {
  const std::size_t k = centroids.size();
  if (k < 2 || points.empty()) return 0.0;

  std::vector<double> scatter(k, 0.0);
  std::vector<std::size_t> counts(k, 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::size_t c = assignments[i];
    scatter[c] += std::sqrt(squared_distance(points[i], centroids[c]));
    ++counts[c];
  }
  for (std::size_t c = 0; c < k; ++c) {
    if (counts[c] > 0) scatter[c] /= static_cast<double>(counts[c]);
  }

  double dbi = 0.0;
  std::size_t live = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (counts[i] == 0) continue;
    ++live;
    double worst = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      if (j == i || counts[j] == 0) continue;
      const double separation =
          std::sqrt(squared_distance(centroids[i], centroids[j]));
      if (separation <= 0.0) continue;
      worst = std::max(worst, (scatter[i] + scatter[j]) / separation);
    }
    dbi += worst;
  }
  return live > 0 ? dbi / static_cast<double>(live) : 0.0;
}

namespace {

std::vector<double> mean_dbi_curve(const std::vector<Point>& points,
                                   const OptimalKConfig& config,
                                   common::Rng& rng) {
  const std::size_t k_max =
      std::min(config.k_max, points.empty() ? config.k_max : points.size());
  std::vector<double> curve;
  for (std::size_t k = config.k_min; k <= k_max; ++k) {
    double sum = 0.0;
    const std::size_t repeats = std::max<std::size_t>(1, config.repeats);
    for (std::size_t t = 0; t < repeats; ++t) {
      KMeansConfig kc = config.kmeans;
      kc.k = k;
      const KMeansResult result = kmeans(points, kc, rng);
      sum += davies_bouldin_index(points, result.assignments,
                                  result.centroids);
    }
    curve.push_back(sum / static_cast<double>(std::max<std::size_t>(
                              1, config.repeats)));
  }
  return curve;
}

}  // namespace

OptimalKResult optimal_k_elbow(const std::vector<Point>& points,
                               const OptimalKConfig& config,
                               common::Rng& rng) {
  OptimalKResult result;
  result.k_min = config.k_min;
  result.dbi_curve = mean_dbi_curve(points, config, rng);
  if (result.dbi_curve.empty()) return result;
  // On well-separated modes every k at or above the true count scores
  // rounding noise (~1e-17); ties within 1e-9 go to the smallest k.
  const double best = *std::min_element(result.dbi_curve.begin(),
                                        result.dbi_curve.end());
  std::size_t i = 0;
  while (result.dbi_curve[i] > best + 1e-9) ++i;
  result.k = config.k_min + i;
  return result;
}

OptimalKResult optimal_k_eq3(const std::vector<Point>& points,
                             const OptimalKConfig& config,
                             common::Rng& rng) {
  OptimalKResult result = optimal_k_elbow(points, config, rng);
  const auto& curve = result.dbi_curve;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    const double prev = curve[i - 1];
    if (prev <= 0.0) continue;
    const double improvement = (prev - curve[i]) / prev;
    if (improvement < config.eq3_threshold) {
      result.k = config.k_min + i - 1;
      break;
    }
  }
  return result;
}

}  // namespace flips::cluster
