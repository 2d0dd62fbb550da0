// FLIPS's clustering of parties by label distribution, run once per
// job inside the (simulated) enclave so the aggregation server never
// sees a raw label histogram (paper §3.4/§5.1). Every party verifies
// the enclave's attestation and sends its histogram over a sealed
// channel; inside the enclave the histograms become Hellinger points
// and are clustered with Lloyd k-means, or mini-batch k-means past
// `lloyd_threshold` parties, after the DBI elbow picks k when none is
// fixed. Every session's builder calls cluster_privately() once per
// federation.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/kmeans.h"
#include "data/synthetic.h"
#include "tee/enclave.h"

namespace flips::core {

/// DBI elbow: k-means runs averaged per candidate k.
inline constexpr std::size_t kElbowRepeats = 5;
/// Mini-batch path: points per batch and batches per run.
inline constexpr std::size_t kMiniBatchSize = 256;
inline constexpr std::size_t kMiniBatchIterations = 120;

struct PrivateClusteringConfig {
  /// Fixed cluster count; 0 = pick k with the DBI elbow over
  /// [k_min, k_max].
  std::size_t k = 0;
  std::size_t k_min = 2;
  std::size_t k_max = 30;
  /// Best-of-N Lloyd runs (also per elbow run).
  std::size_t restarts = 3;
  /// At or below this many parties the clustering runs Lloyd k-means
  /// (and the elbow over every point); above it, mini-batch k-means
  /// (and the elbow over a sample of `elbow_sample` points).
  std::size_t lloyd_threshold = 5000;
  std::size_t elbow_sample = 1024;
  std::uint64_t seed = 42;
};

/// The space the enclave clusters in: square roots of the histogram's
/// proportions (Hellinger), where Euclidean distance is a distance
/// between distributions that keeps rare-label parties apart.
[[nodiscard]] cluster::Point hellinger_point(
    const data::LabelDistribution& distribution);

/// An enclave whose own attestation server trusts its measurement and
/// platform key.
struct AttestedEnclave {
  tee::Enclave enclave{"flips-label-distribution-clustering-v1", 1.05};
  tee::AttestationServer attestation;

  AttestedEnclave();
};

/// Party p sends distributions[p] (id order) to `enclave` after
/// checking its attestation against `attestation`; the clustering runs
/// inside enclave.execute, drawing from Rng(config.seed). Returns one
/// assignment per party. With k fixed and at most lloyd_threshold
/// parties it equals cluster::kmeans over the Hellinger points with k,
/// restarts and Rng(config.seed). Throws if the attestation does not
/// verify.
[[nodiscard]] cluster::KMeansResult cluster_privately(
    const PrivateClusteringConfig& config,
    const std::vector<data::LabelDistribution>& distributions,
    tee::Enclave& enclave, const tee::AttestationServer& attestation);

/// The same on a fresh AttestedEnclave.
[[nodiscard]] cluster::KMeansResult cluster_privately(
    const PrivateClusteringConfig& config,
    const std::vector<data::LabelDistribution>& distributions);

}  // namespace flips::core
