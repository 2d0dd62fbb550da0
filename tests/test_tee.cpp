// TEE simulation: sealing integrity, attestation gating, and private
// clustering end to end: the Lloyd and mini-batch paths either side of
// the threshold, and the DBI elbow on both.
#include <gtest/gtest.h>

#include "cluster/minibatch_kmeans.h"
#include "core/private_clustering.h"

namespace {

TEST(Enclave, SealOpenRoundTripAndTamperDetection) {
  flips::tee::Enclave enclave("test-enclave", 1.05);
  const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 0, 42};
  auto blob = enclave.seal(payload, 7);
  EXPECT_NE(blob.bytes, payload);  // actually transformed
  EXPECT_EQ(enclave.open(blob), payload);

  blob.bytes[2] ^= 0xFF;
  EXPECT_THROW((void)enclave.open(blob), std::runtime_error);
}

TEST(Enclave, ExecutionLedgerAppliesOverheadFactor) {
  flips::tee::Enclave enclave("ledger", 1.5);
  volatile double sink = 0.0;
  enclave.execute([&]() {
    for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  });
  EXPECT_GT(enclave.raw_execution_seconds(), 0.0);
  EXPECT_NEAR(enclave.simulated_execution_seconds(),
              enclave.raw_execution_seconds() * 1.5, 1e-12);
}

TEST(Attestation, VerifiesOnlyTrustedMeasurements) {
  flips::tee::Enclave enclave("good", 1.0);
  flips::tee::Enclave rogue("evil", 1.0);
  flips::tee::AttestationServer server;
  server.trust_measurement(enclave.measurement());
  server.register_platform_key(enclave.platform_key());

  EXPECT_TRUE(server.verify(enclave.measurement(), enclave.platform_key()));
  EXPECT_FALSE(server.verify(rogue.measurement(), rogue.platform_key()));
  EXPECT_FALSE(server.verify(rogue.measurement(), enclave.platform_key()));
}

/// A label histogram concentrated on `mode`.
flips::data::LabelDistribution mode_distribution(std::size_t mode,
                                                 std::size_t dim) {
  flips::data::LabelDistribution ld(dim, 0.02);
  ld[mode % dim] = 0.8;
  return ld;
}

std::vector<flips::data::LabelDistribution> planted(std::size_t parties,
                                                    std::size_t modes,
                                                    std::size_t dim) {
  std::vector<flips::data::LabelDistribution> lds;
  for (std::size_t p = 0; p < parties; ++p) {
    lds.push_back(mode_distribution(p % modes, dim));
  }
  return lds;
}

std::vector<flips::cluster::Point> hellinger_points(
    const std::vector<flips::data::LabelDistribution>& lds) {
  std::vector<flips::cluster::Point> points;
  for (const auto& ld : lds) {
    points.push_back(flips::core::hellinger_point(ld));
  }
  return points;
}

flips::core::PrivateClusteringConfig small_config() {
  flips::core::PrivateClusteringConfig config;
  config.k = 3;
  config.restarts = 2;
  config.seed = 7;
  return config;
}

/// Every party sits in the cluster of the party with its mode.
void expect_modes_recovered(const flips::cluster::KMeansResult& result,
                            std::size_t parties, std::size_t modes) {
  ASSERT_EQ(result.assignments.size(), parties);
  for (std::size_t p = modes; p < parties; ++p) {
    EXPECT_EQ(result.assignments[p], result.assignments[p % modes]);
  }
}

TEST(PrivateClustering, ClustersInsideTheEnclave) {
  flips::core::AttestedEnclave attested;
  const auto lds = planted(30, 3, 6);
  const auto result = flips::core::cluster_privately(
      small_config(), lds, attested.enclave, attested.attestation);
  EXPECT_EQ(result.centroids.size(), 3u);
  expect_modes_recovered(result, 30, 3);
  EXPECT_GT(attested.enclave.raw_execution_seconds(), 0.0);
}

TEST(PrivateClustering, LloydPathAtOrBelowThreshold) {
  flips::core::PrivateClusteringConfig config = small_config();
  config.lloyd_threshold = 30;
  const auto lds = planted(30, 3, 6);
  const auto result = flips::core::cluster_privately(config, lds);
  expect_modes_recovered(result, 30, 3);

  // Bit for bit the Lloyd kernel on Rng(seed).
  flips::cluster::KMeansConfig kc;
  kc.k = 3;
  kc.restarts = config.restarts;
  flips::common::Rng rng(config.seed);
  const auto lloyd = flips::cluster::kmeans(hellinger_points(lds), kc, rng);
  EXPECT_EQ(result.assignments, lloyd.assignments);
  EXPECT_EQ(result.centroids, lloyd.centroids);
}

TEST(PrivateClustering, MiniBatchPathAboveThreshold) {
  flips::core::PrivateClusteringConfig config = small_config();
  config.lloyd_threshold = 20;  // 40 parties > 20 => mini-batch
  const auto lds = planted(40, 3, 6);
  const auto result = flips::core::cluster_privately(config, lds);
  EXPECT_EQ(result.centroids.size(), 3u);
  // Mini-batch must recover the same obvious mode structure.
  expect_modes_recovered(result, 40, 3);

  // Bit for bit the mini-batch kernel on Rng(seed).
  flips::cluster::MiniBatchKMeansConfig mb;
  mb.k = 3;
  mb.batch_size = flips::core::kMiniBatchSize;
  mb.iterations = flips::core::kMiniBatchIterations;
  flips::common::Rng rng(config.seed);
  const auto minibatch =
      flips::cluster::minibatch_kmeans(hellinger_points(lds), mb, rng);
  EXPECT_EQ(result.assignments, minibatch.assignments);
  EXPECT_EQ(result.centroids, minibatch.centroids);
}

TEST(PrivateClustering, ElbowFindsPlantedKOnBothPaths) {
  // Every k >= 3 splits the three exact modes with a DBI of rounding
  // noise, so only the elbow's tie rule (smallest k within noise of the
  // minimum) makes k = 3 hold on every seed, not just lucky ones.
  const std::size_t thresholds[] = {100, 10};
  const auto lds = planted(60, 3, 8);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const std::size_t threshold : thresholds) {
      flips::core::PrivateClusteringConfig config = small_config();
      config.k = 0;  // engage the elbow
      config.k_min = 2;
      config.k_max = 6;
      config.lloyd_threshold = threshold;
      config.elbow_sample = 48;
      config.seed = seed;
      const auto result = flips::core::cluster_privately(config, lds);
      const char* path = lds.size() <= threshold ? "lloyd" : "minibatch";
      EXPECT_EQ(result.centroids.size(), 3u) << path << " seed " << seed;
    }
  }
}

TEST(PrivateClustering, RejectsUnattestedEnclave) {
  flips::tee::Enclave rogue("untrusted", 1.0);
  flips::tee::AttestationServer none;  // trusts no measurement
  const auto config = small_config();
  const std::vector<flips::data::LabelDistribution> one = {{1.0, 2.0}};
  EXPECT_THROW((void)flips::core::cluster_privately(config, one, rogue, none),
               std::runtime_error);
  EXPECT_EQ(rogue.raw_execution_seconds(), 0.0);
}

}  // namespace
