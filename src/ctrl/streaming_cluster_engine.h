// The FLIPS streaming control plane. Replaces the "buffer every label
// distribution, then run full Lloyd once" preprocessing step with a
// live service:
//
//  - One resident point per party: submissions land in a table indexed
//    by party id, under the one lock that also guards membership.
//    Callers do their per-party work (the enclave's seal/open, the
//    Hellinger embedding) before submit(), outside that lock.
//  - Threshold-scaled clustering: at or below `lloyd_threshold`
//    parties, rebuilds run full Lloyd k-means (with the DBI elbow when
//    k is not fixed); above it they run cluster::MiniBatchKMeans with
//    the elbow on a bounded sample — the path §3.4's scalability claim
//    actually needs at millions of parties.
//  - Incremental late joiners: a first-time submission after an epoch
//    exists is assigned to the nearest centroid immediately, without
//    re-clustering and without bumping the epoch.
//  - Online drift detection: every submission against an existing
//    epoch feeds its L1 residual to a DriftMonitor; when the monitor
//    flags, maybe_rebuild() starts a re-clustering epoch.
//
// Assignments are published as epoch-versioned MembershipViews;
// within an epoch, existing parties' assignments never change. A
// rebuild clusters every submitted point in party-id order, so a view
// is a function of the submitted set, the seed and the config alone:
// neither submission order nor thread scheduling reaches it.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "ctrl/drift_monitor.h"
#include "ctrl/membership_view.h"

namespace flips::ctrl {

struct StreamingClusterConfig {
  /// Fixed cluster count; 0 = pick k with the DBI elbow.
  std::size_t k_override = 0;
  std::size_t k_min = 2;
  std::size_t k_max = 30;
  std::size_t restarts = 3;
  std::size_t elbow_repeats = 5;
  /// Party-count threshold picking the clustering path: <= runs full
  /// Lloyd (+ DBI elbow), > runs mini-batch k-means (+ elbow on a
  /// sample of `elbow_sample` points).
  std::size_t lloyd_threshold = 5000;
  std::size_t elbow_sample = 1024;
  std::size_t minibatch_size = 256;
  std::size_t minibatch_iterations = 120;
  std::uint64_t seed = 42;
  DriftMonitorConfig drift;
};

class StreamingClusterEngine {
 public:
  explicit StreamingClusterEngine(const StreamingClusterConfig& config);

  /// Ingests one party's point (Hellinger-embedded label distribution).
  /// Thread-safe across parties. Re-submission updates the party's
  /// point in place — it never duplicates the party. When an epoch
  /// exists, first-time submitters are assigned to the nearest centroid
  /// incrementally and every submission feeds the drift monitor.
  /// Returns true for a first-time submission.
  bool submit(std::size_t party_id, cluster::Point point);

  /// Clusters every submitted point, publishes a new epoch and resets
  /// the drift monitor. Parties that first submit while the rebuild
  /// clusters are carried over by mapping their previous cluster's
  /// centroid to the nearest new centroid (deterministic hash spread
  /// before the first epoch, and for ids that never submitted). No-op
  /// when nothing has been submitted.
  MembershipView rebuild();

  /// rebuild() iff the drift monitor has flagged; returns whether a
  /// new epoch was built.
  bool maybe_rebuild();

  /// Snapshot of the current epoch (copy; grab once per epoch change,
  /// `epoch()` is the cheap staleness check).
  MembershipView view() const;

  std::uint64_t epoch() const;
  std::size_t parties() const;
  /// "none", "lloyd" or "minibatch" — the path the last rebuild took.
  const char* last_path() const;

  bool drift_detected() const { return drift_.triggered(); }

 private:
  static constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);

  /// Immutable per-epoch clustering state (assignments live separately
  /// so late joiners can be appended without copying centroids).
  struct Epoch {
    std::uint64_t id = 0;
    std::size_t k = 0;
    std::vector<cluster::Point> centroids;
  };

  static std::size_t nearest_centroid(const cluster::Point& point,
                                      const std::vector<cluster::Point>& cs);
  /// Zero-information fallback for parties with no clustered point and
  /// no previous assignment (deterministic, spreads across clusters).
  static std::size_t hash_spread(std::size_t party_id, std::size_t k);

  StreamingClusterConfig config_;

  mutable std::mutex mutex_;
  /// party -> its latest point (nullopt until the party submits).
  std::vector<std::optional<cluster::Point>> points_;
  std::size_t parties_ = 0;  ///< submitted entries of points_
  std::shared_ptr<const Epoch> epoch_;   ///< never null
  std::vector<std::size_t> assignment_;  ///< party -> cluster
  const char* last_path_ = "none";

  DriftMonitor drift_;
};

}  // namespace flips::ctrl
