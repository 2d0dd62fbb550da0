#include "cluster/kmeans.h"

#include <algorithm>
#include <limits>

namespace flips::cluster {

double squared_distance(const Point& a, const Point& b) {
  double s = 0.0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

namespace {

std::vector<Point> plus_plus_init(const std::vector<Point>& points,
                                  std::size_t k, common::Rng& rng) {
  std::vector<Point> centroids;
  centroids.reserve(k);
  centroids.push_back(points[rng.uniform_index(points.size())]);
  std::vector<double> d2(points.size(),
                         std::numeric_limits<double>::infinity());
  while (centroids.size() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      d2[i] = std::min(d2[i], squared_distance(points[i], centroids.back()));
      total += d2[i];
    }
    if (total <= 0.0) {
      // All remaining points coincide with a centroid; pick any.
      centroids.push_back(points[rng.uniform_index(points.size())]);
      continue;
    }
    double u = rng.uniform() * total;
    std::size_t chosen = points.size() - 1;
    for (std::size_t i = 0; i < points.size(); ++i) {
      u -= d2[i];
      if (u <= 0.0) {
        chosen = i;
        break;
      }
    }
    centroids.push_back(points[chosen]);
  }
  return centroids;
}

KMeansResult lloyd_once(const std::vector<Point>& points,
                        const KMeansConfig& config, common::Rng& rng) {
  const std::size_t k = std::min(config.k, points.size());
  const std::size_t dim = points.front().size();

  KMeansResult result;
  result.centroids = plus_plus_init(points, k, rng);
  result.assignments.assign(points.size(), 0);

  std::vector<Point> sums(k, Point(dim, 0.0));
  std::vector<std::size_t> counts(k, 0);

  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // Assignment step.
    for (std::size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      std::size_t best_c = 0;
      for (std::size_t c = 0; c < k; ++c) {
        const double d = squared_distance(points[i], result.centroids[c]);
        if (d < best) {
          best = d;
          best_c = c;
        }
      }
      result.assignments[i] = best_c;
    }
    // Update step.
    for (std::size_t c = 0; c < k; ++c) {
      std::fill(sums[c].begin(), sums[c].end(), 0.0);
      counts[c] = 0;
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
      const std::size_t c = result.assignments[i];
      ++counts[c];
      for (std::size_t j = 0; j < dim; ++j) sums[c][j] += points[i][j];
    }
    double shift = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster on a random point: keeps k live
        // clusters, which the selector's per-cluster quotas rely on.
        result.centroids[c] = points[rng.uniform_index(points.size())];
        shift += 1.0;
        continue;
      }
      Point next(dim, 0.0);
      for (std::size_t j = 0; j < dim; ++j) {
        next[j] = sums[c][j] / static_cast<double>(counts[c]);
      }
      shift += squared_distance(next, result.centroids[c]);
      result.centroids[c] = std::move(next);
    }
    if (shift <= config.tolerance) break;
  }

  result.inertia = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    result.inertia +=
        squared_distance(points[i], result.centroids[result.assignments[i]]);
  }
  return result;
}

}  // namespace

KMeansResult kmeans(const std::vector<Point>& points,
                    const KMeansConfig& config, common::Rng& rng) {
  if (points.empty() || config.k == 0) return {};
  KMeansResult best;
  best.inertia = std::numeric_limits<double>::infinity();
  const std::size_t restarts = std::max<std::size_t>(1, config.restarts);
  for (std::size_t r = 0; r < restarts; ++r) {
    KMeansResult run = lloyd_once(points, config, rng);
    if (run.inertia < best.inertia) best = std::move(run);
  }
  return best;
}

}  // namespace flips::cluster
