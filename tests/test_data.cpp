// Federation builder: Dirichlet label-marginal correctness, skew
// behaviour, planted modes, and drift.
#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.h"
#include "data/drift.h"
#include "data/federated.h"

namespace {

using flips::data::DatasetCatalog;
using flips::data::FederatedDataConfig;
using flips::data::build_federated_data;

/// A dataset's features are one labels.size() x feature_dim tensor.
void expect_flat_shape(const flips::data::Dataset& dataset,
                       std::size_t feature_dim) {
  EXPECT_EQ(dataset.features.rows(), dataset.labels.size());
  EXPECT_EQ(dataset.features.cols(), feature_dim);
}

TEST(DirichletPartitioner, LabelMarginalsMatchPriors) {
  FederatedDataConfig config;
  config.spec = DatasetCatalog::ecg();
  config.num_parties = 400;
  config.samples_per_party = 100;
  config.alpha = 0.3;
  config.seed = 7;
  const auto data = build_federated_data(config);

  ASSERT_EQ(data.party_data.size(), config.num_parties);
  ASSERT_EQ(data.label_distributions.size(), config.num_parties);

  // Pool every party's label histogram: the federation marginal must
  // track the spec's class priors (law of large numbers over parties).
  std::vector<double> pooled(config.spec.num_classes, 0.0);
  double total = 0.0;
  for (const auto& ld : data.label_distributions) {
    ASSERT_EQ(ld.size(), config.spec.num_classes);
    for (std::size_t c = 0; c < ld.size(); ++c) {
      pooled[c] += ld[c];
      total += ld[c];
    }
  }
  EXPECT_DOUBLE_EQ(
      total, static_cast<double>(config.num_parties *
                                 config.samples_per_party));
  for (std::size_t c = 0; c < pooled.size(); ++c) {
    const double marginal = pooled[c] / total;
    // 40k samples: allow a few points of absolute deviation.
    EXPECT_NEAR(marginal, config.spec.class_priors[c], 0.04)
        << "class " << c;
  }
}

TEST(DirichletPartitioner, HistogramsMatchDatasets) {
  FederatedDataConfig config;
  config.spec = DatasetCatalog::ham10000();
  config.num_parties = 20;
  config.samples_per_party = 50;
  config.seed = 3;
  const auto data = build_federated_data(config);
  for (std::size_t p = 0; p < config.num_parties; ++p) {
    EXPECT_EQ(flips::data::label_distribution(data.party_data[p]),
              data.label_distributions[p]);
    EXPECT_EQ(data.party_data[p].size(), config.samples_per_party);
    expect_flat_shape(data.party_data[p], config.spec.feature_dim);
  }
  expect_flat_shape(data.global_test, config.spec.feature_dim);
}

TEST(DirichletPartitioner, LowerAlphaMeansMoreSkew) {
  FederatedDataConfig config;
  config.spec = DatasetCatalog::fashion_mnist();
  config.num_parties = 150;
  config.samples_per_party = 100;
  config.seed = 11;

  const auto mean_entropy = [&](double alpha) {
    config.alpha = alpha;
    const auto data = build_federated_data(config);
    double h = 0.0;
    for (const auto& ld : data.label_distributions) {
      h += flips::common::entropy(flips::common::normalized(ld));
    }
    return h / static_cast<double>(config.num_parties);
  };

  // Skewed parties concentrate on few labels => lower entropy.
  EXPECT_LT(mean_entropy(0.1), mean_entropy(1.0));
  EXPECT_LT(mean_entropy(1.0), mean_entropy(10.0));
}

TEST(DirichletPartitioner, DeterministicUnderSeed) {
  FederatedDataConfig config;
  config.spec = DatasetCatalog::ecg();
  config.num_parties = 10;
  config.samples_per_party = 20;
  config.seed = 99;
  const auto a = build_federated_data(config);
  const auto b = build_federated_data(config);
  ASSERT_EQ(a.label_distributions, b.label_distributions);
  ASSERT_EQ(a.party_data[0].features, b.party_data[0].features);

  config.seed = 100;
  const auto c = build_federated_data(config);
  EXPECT_NE(a.label_distributions, c.label_distributions);
}

TEST(PlantedModes, PartiesShareModeDistributions) {
  FederatedDataConfig config;
  config.spec = DatasetCatalog::ecg();
  config.num_parties = 40;
  config.samples_per_party = 200;
  config.scheme = flips::data::PartitionScheme::kPlantedModes;
  config.num_modes = 4;
  config.seed = 21;
  const auto data = build_federated_data(config);

  // Same mode (p % 4) => similar label distribution; the L1 gap within
  // a mode must be far below the gap across modes on average.
  double within = 0.0;
  std::size_t within_n = 0;
  double across = 0.0;
  std::size_t across_n = 0;
  for (std::size_t p = 0; p < config.num_parties; ++p) {
    for (std::size_t q = p + 1; q < config.num_parties; ++q) {
      const double gap = flips::common::l1_distance(
          flips::common::normalized(data.label_distributions[p]),
          flips::common::normalized(data.label_distributions[q]));
      if (p % 4 == q % 4) {
        within += gap;
        ++within_n;
      } else {
        across += gap;
        ++across_n;
      }
    }
  }
  within /= static_cast<double>(within_n);
  across /= static_cast<double>(across_n);
  EXPECT_LT(within, 0.5 * across);
}

TEST(GlobalTest, BalancedPerClass) {
  FederatedDataConfig config;
  config.spec = DatasetCatalog::ham10000();
  config.num_parties = 5;
  config.samples_per_party = 10;
  config.test_per_class = 25;
  const auto data = build_federated_data(config);
  expect_flat_shape(data.global_test, config.spec.feature_dim);
  EXPECT_EQ(data.global_test.size(), 25u * config.spec.num_classes);
  const auto counts = flips::data::label_distribution(data.global_test);
  for (const double c : counts) {
    EXPECT_DOUBLE_EQ(c, 25.0);
  }
}

TEST(Drift, RotatesAffectedPartiesOnly) {
  FederatedDataConfig config;
  config.spec = DatasetCatalog::ecg();
  config.num_parties = 30;
  config.samples_per_party = 60;
  config.seed = 5;
  const auto data = build_federated_data(config);

  flips::data::DriftConfig drift;
  drift.affected_fraction = 0.5;
  drift.label_rotation = 2;
  drift.seed = 17;
  const auto drifted =
      apply_label_drift(config.spec, data.party_data, drift);

  ASSERT_EQ(drifted.party_data.size(), data.party_data.size());
  EXPECT_GT(drifted.mean_shift, 0.0);

  std::size_t changed = 0;
  for (std::size_t p = 0; p < data.party_data.size(); ++p) {
    const auto& before = data.party_data[p];
    const auto& after = drifted.party_data[p];
    expect_flat_shape(after, config.spec.feature_dim);
    if (before.labels != after.labels) {
      ++changed;
      // Rotation is a permutation: total count is preserved, and the
      // drifted rows are re-sampled from their new class.
      EXPECT_EQ(after.size(), before.size());
      EXPECT_NE(after.features, before.features) << "party " << p;
    } else {
      EXPECT_EQ(after.features, before.features) << "party " << p;
    }
  }
  EXPECT_EQ(changed, 15u);

  flips::data::DriftConfig none = drift;
  none.affected_fraction = 0.0;
  const auto unchanged =
      apply_label_drift(config.spec, data.party_data, none);
  EXPECT_DOUBLE_EQ(unchanged.mean_shift, 0.0);
}

}  // namespace
