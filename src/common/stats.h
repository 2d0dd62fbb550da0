// Small numeric helpers shared by the data, selection and job layers.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

namespace flips::common {

/// L1-normalizes a non-negative vector (e.g. a label-count histogram)
/// into a probability distribution. All-zero input yields uniform.
inline std::vector<double> normalized(const std::vector<double>& counts) {
  std::vector<double> out(counts.size(), 0.0);
  double sum = 0.0;
  for (const double c : counts) sum += c;
  if (sum <= 0.0) {
    if (!out.empty()) {
      const double u = 1.0 / static_cast<double>(out.size());
      for (auto& v : out) v = u;
    }
    return out;
  }
  for (std::size_t i = 0; i < counts.size(); ++i) out[i] = counts[i] / sum;
  return out;
}

/// Jain's fairness index over resource shares: (sum x)^2 / (n * sum x^2).
/// 1.0 means perfectly even; 1/n means one party got everything.
template <typename T>
double jain_index(const std::vector<T>& shares) {
  if (shares.empty()) return 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const T& s : shares) {
    const double x = static_cast<double>(s);
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 0.0;
  return (sum * sum) / (static_cast<double>(shares.size()) * sum_sq);
}

/// Shannon entropy (nats) of a probability vector.
inline double entropy(const std::vector<double>& p) {
  double h = 0.0;
  for (const double v : p) {
    if (v > 0.0) h -= v * std::log(v);
  }
  return h;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

inline double l1_distance(const std::vector<double>& a,
                          const std::vector<double>& b) {
  double s = 0.0;
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < n; ++i) s += std::fabs(a[i] - b[i]);
  return s;
}

}  // namespace flips::common
