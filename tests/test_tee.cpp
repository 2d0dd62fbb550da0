// TEE simulation: sealing integrity, attestation gating, and the
// private clustering service end-to-end.
#include <gtest/gtest.h>

#include "core/private_clustering.h"
#include "data/federated.h"

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

TEST(PrivateClustering, ClustersSubmissionsInsideEnclave) {
  auto enclave = std::make_shared<flips::tee::Enclave>("clustering", 1.05);
  auto attestation = std::make_shared<flips::tee::AttestationServer>();
  attestation->trust_measurement(enclave->measurement());
  attestation->register_platform_key(enclave->platform_key());

  flips::ctrl::StreamingClusterConfig config;
  config.k_override = 3;
  flips::core::PrivateClusteringService service(config, enclave,
                                                attestation);

  // Three obvious label-distribution modes.
  for (std::size_t p = 0; p < 30; ++p) {
    flips::data::LabelDistribution ld(6, 1.0);
    ld[p % 3] = 50.0;
    service.submit_label_distribution(p, ld);
  }
  const auto result = service.finalize();
  EXPECT_EQ(result.k, 3u);
  ASSERT_EQ(result.cluster_of.size(), 30u);
  for (std::size_t p = 3; p < 30; ++p) {
    EXPECT_EQ(result.cluster_of[p], result.cluster_of[p % 3]);
  }
  EXPECT_GT(enclave->raw_execution_seconds(), 0.0);
}

TEST(PrivateClustering, ResubmissionUpdatesInPlaceWithoutDuplicating) {
  auto enclave = std::make_shared<flips::tee::Enclave>("re-submit", 1.0);
  auto attestation = std::make_shared<flips::tee::AttestationServer>();
  attestation->trust_measurement(enclave->measurement());
  attestation->register_platform_key(enclave->platform_key());

  flips::ctrl::StreamingClusterConfig config;
  config.k_override = 2;
  flips::core::PrivateClusteringService service(config, enclave,
                                                attestation);
  for (std::size_t p = 0; p < 12; ++p) {
    flips::data::LabelDistribution ld(4, 1.0);
    ld[p % 2] = 40.0;
    service.submit_label_distribution(p, ld);
  }
  // A drift refresh re-submits every party; the service must update
  // in place, not append.
  for (std::size_t p = 0; p < 12; ++p) {
    flips::data::LabelDistribution ld(4, 1.0);
    ld[(p + 1) % 2] = 40.0;  // every party flips its dominant label
    service.submit_label_distribution(p, ld);
  }
  EXPECT_EQ(service.submissions(), 12u);

  const auto result = service.finalize();
  ASSERT_EQ(result.cluster_of.size(), 12u);
  EXPECT_EQ(result.k, 2u);
  // The clustering reflects the refreshed distributions: parity still
  // partitions the parties (labels flipped for everyone).
  for (std::size_t p = 2; p < 12; ++p) {
    EXPECT_EQ(result.cluster_of[p], result.cluster_of[p % 2]);
  }
}

TEST(PrivateClustering, DriftDetectionTriggersRecluster) {
  auto enclave = std::make_shared<flips::tee::Enclave>("drift", 1.0);
  auto attestation = std::make_shared<flips::tee::AttestationServer>();
  attestation->trust_measurement(enclave->measurement());
  attestation->register_platform_key(enclave->platform_key());

  flips::ctrl::StreamingClusterConfig config;
  config.k_override = 2;
  flips::core::PrivateClusteringService service(config, enclave,
                                                attestation);
  auto submit_all = [&](std::size_t rotation) {
    for (std::size_t p = 0; p < 20; ++p) {
      flips::data::LabelDistribution ld(4, 1.0);
      ld[(p + rotation) % 2] = 60.0;
      service.submit_label_distribution(p, ld);
    }
  };
  submit_all(0);
  service.finalize();
  EXPECT_EQ(service.epoch(), 1u);

  submit_all(0);  // unchanged refresh: no drift
  EXPECT_FALSE(service.drift_detected());
  EXPECT_FALSE(service.maybe_recluster());

  submit_all(1);  // rotated refresh: drift flags, service re-clusters
  EXPECT_TRUE(service.drift_detected());
  EXPECT_TRUE(service.maybe_recluster());
  EXPECT_EQ(service.epoch(), 2u);
  EXPECT_EQ(service.membership().cluster_of.size(), 20u);
}

TEST(PrivateClustering, RejectsUnattestedEnclave) {
  auto enclave = std::make_shared<flips::tee::Enclave>("untrusted", 1.0);
  auto attestation = std::make_shared<flips::tee::AttestationServer>();
  flips::core::PrivateClusteringService service({}, enclave, attestation);
  EXPECT_THROW(service.submit_label_distribution(0, {1.0, 2.0}),
               std::runtime_error);
}

}  // namespace
