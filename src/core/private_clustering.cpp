#include "core/private_clustering.h"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/stats.h"

namespace flips::core {

cluster::Point hellinger_point(const data::LabelDistribution& distribution) {
  cluster::Point point = common::normalized(distribution);
  for (auto& v : point) v = std::sqrt(v);
  return point;
}

PrivateClusteringService::PrivateClusteringService(
    const ctrl::StreamingClusterConfig& config,
    std::shared_ptr<tee::Enclave> enclave,
    std::shared_ptr<tee::AttestationServer> attestation)
    : enclave_(std::move(enclave)), attestation_(std::move(attestation)),
      engine_(config) {}

void PrivateClusteringService::submit_label_distribution(
    std::size_t party_id, const data::LabelDistribution& distribution) {
  // The party verifies the enclave before trusting it with its label
  // histogram — this is the whole point of the TEE path.
  if (!attestation_->verify(enclave_->measurement(),
                            enclave_->platform_key())) {
    throw std::runtime_error(
        "private clustering: enclave attestation rejected");
  }

  // Secure-channel framing: serialize, seal for the enclave, open
  // inside it. The seal/open pair is the honest marginal cost of the
  // simulation (keystream + integrity tag over the payload).
  std::vector<std::uint8_t> wire(distribution.size() * sizeof(double));
  if (!wire.empty()) {
    std::memcpy(wire.data(), distribution.data(), wire.size());
  }
  const tee::SealedBlob blob = enclave_->seal(wire, party_id + 1);
  const std::vector<std::uint8_t> opened = enclave_->open(blob);

  data::LabelDistribution received(distribution.size(), 0.0);
  if (!opened.empty()) {
    std::memcpy(received.data(), opened.data(), opened.size());
  }

  engine_.submit(party_id, hellinger_point(received));
}

ctrl::MembershipView PrivateClusteringService::finalize() {
  return enclave_->execute([&]() { return engine_.rebuild(); });
}

bool PrivateClusteringService::maybe_recluster() {
  return enclave_->execute([&]() { return engine_.maybe_rebuild(); });
}

ctrl::MembershipView cluster_privately(
    const ctrl::StreamingClusterConfig& config,
    const std::vector<data::LabelDistribution>& distributions) {
  auto enclave = std::make_shared<tee::Enclave>(
      "flips-label-distribution-clustering-v1", 1.05);
  auto attestation = std::make_shared<tee::AttestationServer>();
  attestation->trust_measurement(enclave->measurement());
  attestation->register_platform_key(enclave->platform_key());
  PrivateClusteringService service(config, std::move(enclave),
                                   std::move(attestation));
  for (std::size_t p = 0; p < distributions.size(); ++p) {
    service.submit_label_distribution(p, distributions[p]);
  }
  return service.finalize();
}

}  // namespace flips::core
