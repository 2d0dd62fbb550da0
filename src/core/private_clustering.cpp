#include "core/private_clustering.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "cluster/dbi.h"
#include "cluster/minibatch_kmeans.h"
#include "common/rng.h"
#include "common/stats.h"

namespace flips::core {

cluster::Point hellinger_point(const data::LabelDistribution& distribution) {
  cluster::Point point = common::normalized(distribution);
  for (auto& v : point) v = std::sqrt(v);
  return point;
}

AttestedEnclave::AttestedEnclave() {
  attestation.trust_measurement(enclave.measurement());
  attestation.register_platform_key(enclave.platform_key());
}

namespace {

/// k fixed, or picked by the elbow over every point (Lloyd path) or a
/// bounded sample of them (mini-batch path), clamped to [1, points].
std::size_t choose_k(const PrivateClusteringConfig& config,
                     const std::vector<cluster::Point>& points,
                     common::Rng& rng) {
  std::size_t k = config.k;
  if (k == 0) {
    cluster::OptimalKConfig okc;
    okc.k_min = config.k_min;
    okc.k_max = config.k_max;
    okc.repeats = kElbowRepeats;
    okc.kmeans.restarts = config.restarts;
    const std::size_t n = points.size();
    if (n <= config.lloyd_threshold || n <= config.elbow_sample) {
      k = cluster::optimal_k_elbow(points, okc, rng).k;
    } else {
      // The k decision costs O(sample), not O(parties).
      std::vector<cluster::Point> sample;
      sample.reserve(config.elbow_sample);
      for (std::size_t i = 0; i < config.elbow_sample; ++i) {
        sample.push_back(points[rng.uniform_index(n)]);
      }
      k = cluster::optimal_k_elbow(sample, okc, rng).k;
    }
  }
  return std::max<std::size_t>(1, std::min(k, points.size()));
}

}  // namespace

cluster::KMeansResult cluster_privately(
    const PrivateClusteringConfig& config,
    const std::vector<data::LabelDistribution>& distributions,
    tee::Enclave& enclave, const tee::AttestationServer& attestation) {
  std::vector<cluster::Point> points;
  points.reserve(distributions.size());
  for (std::size_t p = 0; p < distributions.size(); ++p) {
    // The party verifies the enclave before trusting it with its label
    // histogram — this is the whole point of the TEE path.
    if (!attestation.verify(enclave.measurement(), enclave.platform_key())) {
      throw std::runtime_error(
          "private clustering: enclave attestation rejected");
    }
    // Secure-channel framing: serialize, seal for the enclave, open
    // inside it. The seal/open pair is the honest marginal cost of the
    // simulation (keystream + integrity tag over the payload).
    const data::LabelDistribution& sent = distributions[p];
    std::vector<std::uint8_t> wire(sent.size() * sizeof(double));
    if (!wire.empty()) std::memcpy(wire.data(), sent.data(), wire.size());
    const std::vector<std::uint8_t> opened =
        enclave.open(enclave.seal(wire, p + 1));
    data::LabelDistribution received(sent.size(), 0.0);
    if (!opened.empty()) {
      std::memcpy(received.data(), opened.data(), opened.size());
    }
    points.push_back(hellinger_point(received));
  }
  if (points.empty()) return {};

  return enclave.execute([&] {
    common::Rng rng(config.seed);
    const std::size_t k = choose_k(config, points, rng);
    if (points.size() <= config.lloyd_threshold) {
      cluster::KMeansConfig kc;
      kc.k = k;
      kc.restarts = config.restarts;
      return cluster::kmeans(points, kc, rng);
    }
    cluster::MiniBatchKMeansConfig mb;
    mb.k = k;
    mb.batch_size = kMiniBatchSize;
    mb.iterations = kMiniBatchIterations;
    return cluster::minibatch_kmeans(points, mb, rng);
  });
}

cluster::KMeansResult cluster_privately(
    const PrivateClusteringConfig& config,
    const std::vector<data::LabelDistribution>& distributions) {
  AttestedEnclave attested;
  return cluster_privately(config, distributions, attested.enclave,
                           attested.attestation);
}

}  // namespace flips::core
