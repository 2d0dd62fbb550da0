// The middleware control-plane path for FLIPS clustering: parties
// submit label distributions over attested sealed channels; the service
// clusters them inside the (simulated) enclave so the aggregation
// server never sees raw label histograms (paper §3.4/§5.1). Every
// session's builder runs cluster_privately() once per federation.
//
// Clustering itself is delegated to ctrl::StreamingClusterEngine: the
// service keeps only the attestation + sealed-channel framing and the
// enclave execution ledger, while the engine keeps one point per
// party and provides the Lloyd/mini-batch size threshold, incremental
// late-joiner assignment and online drift detection. The seal/open
// pair runs before the engine's lock, so concurrent submitters
// overlap on it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ctrl/recluster_observer.h"
#include "ctrl/streaming_cluster_engine.h"
#include "data/synthetic.h"
#include "tee/enclave.h"

namespace flips::core {

/// The space the service clusters in: square roots of the histogram's
/// proportions (Hellinger), where Euclidean distance is a distance
/// between distributions that keeps rare-label parties apart.
[[nodiscard]] cluster::Point hellinger_point(
    const data::LabelDistribution& distribution);

/// Implements ctrl::ClusterControl, so a session can drive the service
/// through a ctrl::ReclusterObserver.
class PrivateClusteringService : public ctrl::ClusterControl {
 public:
  PrivateClusteringService(const ctrl::StreamingClusterConfig& config,
                           std::shared_ptr<tee::Enclave> enclave,
                           std::shared_ptr<tee::AttestationServer> attestation);

  /// One party's secure submission: verify attestation, seal the
  /// histogram for the enclave, open it inside, ingest into the
  /// streaming engine. Re-submission (e.g. a drift refresh) updates
  /// the party's point in place — it never duplicates the party.
  /// Throws if the enclave's attestation does not verify.
  void submit_label_distribution(
      std::size_t party_id,
      const data::LabelDistribution& distribution) override;

  /// Clusters everything submitted so far inside the enclave, starting
  /// a new membership epoch, and returns it.
  ctrl::MembershipView finalize();

  /// Re-clusters (inside the enclave) iff the drift monitor has
  /// flagged the current epoch; returns whether a new epoch was built.
  bool maybe_recluster() override;

  std::size_t submissions() const { return engine_.parties(); }

  // Control-plane passthroughs.
  ctrl::MembershipView membership() const override {
    return engine_.view();
  }
  std::uint64_t epoch() const override { return engine_.epoch(); }
  bool drift_detected() const override {
    return engine_.drift_detected();
  }
  const char* clustering_path() const { return engine_.last_path(); }

 private:
  std::shared_ptr<tee::Enclave> enclave_;
  std::shared_ptr<tee::AttestationServer> attestation_;
  ctrl::StreamingClusterEngine engine_;
};

/// Epoch 1 of a service on a self-attested enclave, party p submitting
/// distributions[p] in id order. With k_override = k and at most
/// lloyd_threshold parties it is cluster::kmeans over the Hellinger
/// points with k, restarts and Rng(config.seed).
[[nodiscard]] ctrl::MembershipView cluster_privately(
    const ctrl::StreamingClusterConfig& config,
    const std::vector<data::LabelDistribution>& distributions);

}  // namespace flips::core
