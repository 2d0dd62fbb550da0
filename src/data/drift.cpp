#include "data/drift.h"

#include <algorithm>
#include <numeric>

#include "common/stats.h"

namespace flips::data {

DriftResult apply_label_drift(const SyntheticSpec& spec,
                              const std::vector<Dataset>& party_data,
                              const DriftConfig& config) {
  DriftResult result;
  result.party_data = party_data;
  if (party_data.empty()) return result;

  common::Rng rng(config.seed);
  const std::size_t n = party_data.size();
  const auto affected = static_cast<std::size_t>(
      config.affected_fraction * static_cast<double>(n) + 0.5);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  double total_shift = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = order[i];
    Dataset& party = result.party_data[p];
    const auto before = common::normalized(label_distribution(party));
    if (i < affected && party.num_classes > 0) {
      for (std::size_t s = 0; s < party.labels.size(); ++s) {
        const auto rotated = static_cast<std::uint32_t>(
            (party.labels[s] + config.label_rotation) % party.num_classes);
        party.labels[s] = rotated;
        sample_features(spec, rotated, rng, party.features.row(s));
      }
    }
    const auto after = common::normalized(label_distribution(party));
    total_shift += common::l1_distance(before, after);
  }
  result.mean_shift = total_shift / static_cast<double>(n);
  return result;
}

}  // namespace flips::data
