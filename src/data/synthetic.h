// Synthetic stand-ins for the paper's four datasets. Each spec fixes a
// class-prototype geometry (deterministic per spec) so that "MIT-BIH
// ECG" means the same learning problem in every bench and test; the
// federation builder then controls *who holds which labels*, which is
// the axis FLIPS actually studies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/tensor.h"

namespace flips::data {

struct SyntheticSpec {
  std::string name = "synthetic";
  std::size_t feature_dim = 32;
  std::size_t num_classes = 5;
  /// Global class marginals (sums to 1). Heavy skew here is what makes
  /// the rare-label reproduction (Fig. 13) meaningful.
  std::vector<double> class_priors;
  /// Distance between class prototype means, in units of feature noise.
  double class_separation = 2.4;
  double feature_noise = 1.0;
  /// Seed for the class prototype geometry (fixed per dataset so every
  /// federation drawn from a spec shares one ground truth).
  std::uint64_t prototype_seed = 0xF11B5;

  /// Specs are compared field-for-field (the bench layer's federation
  /// cache keys on the whole spec, so new fields are covered
  /// automatically).
  friend bool operator==(const SyntheticSpec&,
                         const SyntheticSpec&) = default;
};

/// The four paper datasets (reduced-scale synthetic analogues).
struct DatasetCatalog {
  static SyntheticSpec ecg();            ///< MIT-BIH: 5 beat classes, skewed
  static SyntheticSpec ham10000();       ///< 7 lesion classes, skewed
  static SyntheticSpec ham() { return ham10000(); }
  static SyntheticSpec femnist();        ///< 62 classes, mild skew
  static SyntheticSpec fashion_mnist();  ///< 10 classes, uniform
};

/// One party's (or the test set's) samples: row i of `features` (one
/// row-major buffer, labels.size() x feature_dim) carries labels[i].
struct Dataset {
  ml::Tensor features;
  std::vector<std::uint32_t> labels;
  std::size_t num_classes = 0;

  std::size_t size() const { return labels.size(); }
};

/// Per-class sample counts of a dataset (length = num_classes).
using LabelDistribution = std::vector<double>;

[[nodiscard]] LabelDistribution label_distribution(const Dataset& dataset);

/// Samples one feature vector for `label` under `spec` into `out`
/// (spec.feature_dim values). The prototype geometry depends only on
/// the spec; `rng` drives the additive noise.
void sample_features(const SyntheticSpec& spec, std::uint32_t label,
                     common::Rng& rng, double* out);

}  // namespace flips::data
