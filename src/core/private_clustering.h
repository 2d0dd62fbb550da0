// The middleware control-plane path for FLIPS clustering: parties
// submit label distributions over attested sealed channels; the service
// clusters them inside the (simulated) enclave so the aggregation
// server never sees raw label histograms (paper §3.4/§5.1).
//
// Clustering itself is delegated to ctrl::StreamingClusterEngine: the
// service keeps only the attestation + sealed-channel framing and the
// enclave execution ledger, while the engine provides sharded
// bounded-memory ingestion, the Lloyd/mini-batch size threshold,
// incremental late-joiner assignment and online drift detection.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ctrl/recluster_observer.h"
#include "ctrl/streaming_cluster_engine.h"
#include "data/synthetic.h"
#include "tee/enclave.h"

namespace flips::core {

/// Implements ctrl::ClusterControl, so a session can drive the service
/// through a ctrl::ReclusterObserver instead of a pre_round_hook.
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

  struct Result {
    std::vector<std::size_t> assignments;  ///< party id -> cluster
    std::size_t k = 0;
  };

  /// Clusters everything submitted so far inside the enclave, starting
  /// a new membership epoch.
  const Result& finalize();

  /// Re-clusters (inside the enclave) iff the drift monitor has
  /// flagged the current epoch; returns whether a new epoch was built.
  bool maybe_recluster() override;

  const Result& result() const { return result_; }
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
  const ctrl::StreamingClusterEngine& engine() const { return engine_; }

 private:
  void refresh_result(const ctrl::MembershipView& view);

  std::shared_ptr<tee::Enclave> enclave_;
  std::shared_ptr<tee::AttestationServer> attestation_;
  ctrl::StreamingClusterEngine engine_;
  Result result_;
};

}  // namespace flips::core
