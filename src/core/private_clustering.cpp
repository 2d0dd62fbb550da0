#include "core/private_clustering.h"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/stats.h"

namespace flips::core {

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

  // Hellinger embedding (sqrt of proportions) — the same space the
  // bench layer clusters in.
  cluster::Point point = common::normalized(received);
  for (auto& v : point) v = std::sqrt(v);
  engine_.submit(party_id, std::move(point));
}

void PrivateClusteringService::refresh_result(
    const ctrl::MembershipView& view) {
  result_.k = view.k;
  result_.assignments = view.cluster_of;
}

const PrivateClusteringService::Result& PrivateClusteringService::finalize() {
  const ctrl::MembershipView view =
      enclave_->execute([&]() { return engine_.rebuild(); });
  refresh_result(view);
  return result_;
}

bool PrivateClusteringService::maybe_recluster() {
  if (!engine_.drift_detected()) return false;
  finalize();
  return true;
}

}  // namespace flips::core
