#include "data/federated.h"

#include <algorithm>

namespace flips::data {

namespace {

/// Per-party label distribution under the configured scheme.
std::vector<LabelDistribution> party_label_priors(
    const FederatedDataConfig& config, common::Rng& rng) {
  const std::size_t c = config.spec.num_classes;
  std::vector<double> priors = config.spec.class_priors;
  if (priors.size() != c) priors.assign(c, 1.0 / static_cast<double>(c));

  std::vector<LabelDistribution> out;
  out.reserve(config.num_parties);

  if (config.scheme == PartitionScheme::kPlantedModes) {
    // Ground-truth modes must be *distinct* (unlike Dirichlet draws
    // under skewed priors, which all concentrate on the head class, so
    // no clustering could recover them). Mode m peaks on a rotating
    // (main, secondary) label pair with a stride that keeps up to
    // C * (C - 1) modes pairwise different; parties copy their mode's
    // distribution with a little jitter so modes stay recoverable.
    std::vector<LabelDistribution> modes;
    const std::size_t num_modes = std::max<std::size_t>(1, config.num_modes);
    for (std::size_t m = 0; m < num_modes; ++m) {
      std::vector<double> mode(c, 0.2 / static_cast<double>(c));
      const std::size_t main_label = m % c;
      const std::size_t secondary =
          (main_label + 1 + m / c) % c;
      mode[main_label] += 0.5;
      mode[secondary == main_label ? (main_label + 1) % c : secondary] +=
          0.3;
      modes.push_back(std::move(mode));
    }
    for (std::size_t p = 0; p < config.num_parties; ++p) {
      std::vector<double> dist = modes[p % num_modes];
      double sum = 0.0;
      for (auto& v : dist) {
        v = std::max(0.0, v + config.mode_jitter * rng.normal());
        sum += v;
      }
      if (sum <= 0.0) {
        dist.assign(c, 1.0 / static_cast<double>(c));
      } else {
        for (auto& v : dist) v /= sum;
      }
      out.push_back(std::move(dist));
    }
    return out;
  }

  // kDirichlet: concentration alpha * priors * C keeps the *expected*
  // federation marginal equal to the dataset priors while alpha tunes
  // per-party concentration.
  std::vector<double> concentration(c);
  for (std::size_t j = 0; j < c; ++j) {
    concentration[j] = config.alpha * priors[j] * static_cast<double>(c);
  }
  for (std::size_t p = 0; p < config.num_parties; ++p) {
    out.push_back(rng.dirichlet(concentration));
  }
  return out;
}

}  // namespace

FederatedData build_federated_data(const FederatedDataConfig& config) {
  FederatedData data;
  common::Rng rng(config.seed);
  const std::size_t c = config.spec.num_classes;

  const auto priors = party_label_priors(config, rng);

  const std::size_t dim = config.spec.feature_dim;
  data.party_data.reserve(config.num_parties);
  data.label_distributions.reserve(config.num_parties);
  for (std::size_t p = 0; p < config.num_parties; ++p) {
    Dataset party;
    party.num_classes = c;
    party.features = ml::Tensor(config.samples_per_party, dim);
    party.labels.reserve(config.samples_per_party);
    for (std::size_t s = 0; s < config.samples_per_party; ++s) {
      const auto label =
          static_cast<std::uint32_t>(rng.categorical(priors[p]));
      party.labels.push_back(label);
      sample_features(config.spec, label, rng, party.features.row(s));
    }
    data.label_distributions.push_back(label_distribution(party));
    data.party_data.push_back(std::move(party));
  }

  // Balanced held-out test set: per-class recall (and hence balanced
  // accuracy) gets equal evidence for rare and common labels.
  Dataset& test = data.global_test;
  test.num_classes = c;
  test.features = ml::Tensor(c * config.test_per_class, dim);
  for (std::uint32_t label = 0; label < c; ++label) {
    for (std::size_t s = 0; s < config.test_per_class; ++s) {
      sample_features(config.spec, label, rng, test.features.row(test.size()));
      test.labels.push_back(label);
    }
  }
  return data;
}

}  // namespace flips::data
