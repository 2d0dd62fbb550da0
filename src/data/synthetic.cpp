#include "data/synthetic.h"

#include <cmath>
#include <span>

namespace flips::data {

namespace {

SyntheticSpec make_spec(std::string name, std::size_t feature_dim,
                        std::size_t num_classes,
                        std::vector<double> class_priors,
                        double class_separation,
                        std::uint64_t prototype_seed) {
  SyntheticSpec spec;
  spec.name = std::move(name);
  spec.feature_dim = feature_dim;
  spec.num_classes = num_classes;
  spec.class_priors = std::move(class_priors);
  spec.class_separation = class_separation;
  spec.prototype_seed = prototype_seed;
  return spec;
}

std::vector<double> uniform_priors(std::size_t num_classes) {
  return std::vector<double>(num_classes, 1.0 / static_cast<double>(
                                              num_classes));
}

}  // namespace

SyntheticSpec DatasetCatalog::ecg() {
  // MIT-BIH beat classes N, S, V, F, Q with the real database's heavy
  // skew (S at 2.5 % is the Fig. 13 under-represented label).
  return make_spec("ecg", 32, 5, {0.899, 0.025, 0.053, 0.008, 0.015}, 1.4,
                   0xEC6u);
}

SyntheticSpec DatasetCatalog::ham10000() {
  // HAM10000 lesion types: nv, mel, bkl, bcc, akiec, vasc, df.
  return make_spec("ham10000", 48, 7,
                   {0.670, 0.111, 0.110, 0.051, 0.033, 0.014, 0.011}, 2.6,
                   0x4A3Du);
}

SyntheticSpec DatasetCatalog::femnist() {
  // 62 character classes; writers induce the non-IID-ness, so global
  // priors stay uniform and Dirichlet skew does the rest.
  return make_spec("femnist", 64, 62, uniform_priors(62), 3.2, 0xFE33u);
}

SyntheticSpec DatasetCatalog::fashion_mnist() {
  return make_spec("fashion_mnist", 64, 10, uniform_priors(10), 3.0,
                   0xFA51u);
}

LabelDistribution label_distribution(const Dataset& dataset) {
  LabelDistribution counts(dataset.num_classes, 0.0);
  for (const std::uint32_t label : dataset.labels) {
    if (label < counts.size()) counts[label] += 1.0;
  }
  return counts;
}

void sample_features(const SyntheticSpec& spec, std::uint32_t label,
                     common::Rng& rng, double* out) {
  // Prototype for `label`: a deterministic Gaussian direction scaled to
  // `class_separation`. Re-deriving it per call keeps the generator
  // stateless; the per-class Rng seed makes it identical across calls.
  common::Rng proto_rng(spec.prototype_seed ^
                        (0x9E37u + 0x1000193u * (label + 1)));
  const std::span<double> x(out, spec.feature_dim);
  double norm = 0.0;
  for (auto& v : x) {
    v = proto_rng.normal();
    norm += v * v;
  }
  norm = std::sqrt(norm);
  const double scale = norm > 0.0 ? spec.class_separation / norm *
                                        std::sqrt(static_cast<double>(
                                            spec.feature_dim))
                                  : 0.0;
  for (auto& v : x) {
    v = v * scale + spec.feature_noise * rng.normal();
  }
}

}  // namespace flips::data
