// The FLIPS streaming control plane. Replaces the "buffer every label
// distribution, then run full Lloyd once" preprocessing step with a
// live service shaped for very large federations:
//
//  - Sharded ingestion: submissions hash to one of `num_shards`
//    independently-locked shards, each holding a FIXED-SIZE reservoir
//    sample of points. Memory is O(num_shards * shard_capacity), not
//    O(parties); per-party state is one assignment slot.
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
// rebuild clusters the resident points in party-id order, so it does
// not depend on submission order unless shards evict.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
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
  /// Ingestion shards (independent locks + reservoirs).
  std::size_t num_shards = 8;
  /// Reservoir capacity per shard; total buffered points never exceed
  /// num_shards * shard_capacity regardless of party count.
  std::size_t shard_capacity = 4096;
  /// Party-count threshold picking the clustering path: <= runs full
  /// Lloyd (+ DBI elbow), > runs mini-batch k-means (+ elbow on a
  /// sample of `elbow_sample` buffered points).
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
  /// buffered point in place — it never duplicates the party. When an
  /// epoch exists, first-time submitters are assigned to the nearest
  /// centroid incrementally and every submission feeds the drift
  /// monitor. Returns true for a first-time submission.
  bool submit(std::size_t party_id, cluster::Point point);

  /// Clusters the buffered reservoir, publishes a new epoch and resets
  /// the drift monitor. Parties whose points were evicted from the
  /// reservoir are carried over by mapping their previous cluster's
  /// centroid to the nearest new centroid (deterministic hash spread
  /// when they predate the first epoch). No-op when nothing has been
  /// submitted.
  MembershipView rebuild();

  /// rebuild() iff the drift monitor has flagged; returns whether a
  /// new epoch was built.
  bool maybe_rebuild();

  /// Snapshot of the current epoch (copy; grab once per epoch change,
  /// `epoch()` is the cheap staleness check).
  MembershipView view() const;

  std::uint64_t epoch() const;
  std::size_t parties() const;
  std::size_t buffered_points() const;
  /// "none", "lloyd" or "minibatch" — the path the last rebuild took.
  const char* last_path() const;

  bool drift_detected() const { return drift_.triggered(); }

 private:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  static constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);

  struct Shard {
    mutable std::mutex mutex;
    /// party -> reservoir slot (kNoSlot once evicted).
    std::unordered_map<std::size_t, std::size_t> slot_of;
    std::vector<std::size_t> party_at;  ///< slot -> party
    std::vector<cluster::Point> buffer;
    std::uint64_t seen = 0;  ///< distinct parties ever ingested here
    std::size_t max_party = 0;  ///< largest party id ingested here
    common::Rng rng{0};
  };

  /// Immutable per-epoch clustering state (assignments live separately
  /// so late joiners can be appended without copying centroids).
  struct Epoch {
    std::uint64_t id = 0;
    std::size_t k = 0;
    std::vector<cluster::Point> centroids;
  };

  Shard& shard_for(std::size_t party_id);
  std::shared_ptr<const Epoch> current_epoch() const;
  static std::size_t nearest_centroid(const cluster::Point& point,
                                      const std::vector<cluster::Point>& cs);
  /// Zero-information fallback for parties with no buffered point and
  /// no previous assignment (deterministic, spreads across clusters).
  static std::size_t hash_spread(std::size_t party_id, std::size_t k);

  StreamingClusterConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> parties_{0};

  mutable std::mutex membership_mutex_;
  std::shared_ptr<const Epoch> epoch_;          ///< never null
  std::vector<std::size_t> assignment_;         ///< party -> cluster
  const char* last_path_ = "none";
  /// Mirrors epoch_->id so the bulk-ingestion hot path can skip all
  /// membership bookkeeping before the first epoch without touching
  /// membership_mutex_ (pre-epoch submits only contend on their
  /// shard's lock).
  std::atomic<std::uint64_t> epoch_id_{0};

  DriftMonitor drift_;
};

}  // namespace flips::ctrl
