// Control-plane ↔ session bridge: plugs a streaming clustering service
// into a running fl::FederationSession as a RoundObserver.
//
// Each round, before selection, the observer (1) feeds the service any
// scheduled label-distribution refreshes (a rolling schedule supplied
// by the caller — live deployments see drift incrementally), (2) polls
// the drift monitor, and (3) lets the service re-cluster iff the
// monitor flagged the epoch; a new epoch is handed to the caller's
// sink (typically select::FlipsSelector::consume on the session's
// selector), making FLIPS-style mid-job re-clustering a first-class
// session event.
//
// ClusterControl is the minimal service surface the bridge needs;
// core::PrivateClusteringService implements it (the attested
// sealed-channel path). bench_drift_recluster is the one driver.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "ctrl/membership_view.h"
#include "data/synthetic.h"
#include "fl/observer.h"

namespace flips::ctrl {

/// What a clustering control plane exposes to a session bridge.
class ClusterControl {
 public:
  virtual ~ClusterControl() = default;

  /// (Re-)submits one party's label distribution; re-submission
  /// updates the party's point in place.
  virtual void submit_label_distribution(
      std::size_t party_id, const data::LabelDistribution& distribution) = 0;

  /// Re-clusters iff the drift monitor flagged the current epoch;
  /// returns whether a new epoch was built.
  virtual bool maybe_recluster() = 0;

  virtual MembershipView membership() const = 0;
  virtual bool drift_detected() const = 0;
  virtual std::uint64_t epoch() const = 0;
};

class ReclusterObserver final : public fl::RoundObserver {
 public:
  /// Scheduled refresh feed, invoked at the start of every round
  /// (e.g. "rounds 1..5 re-submit successive fifths of the fleet").
  using RefreshFeed = std::function<void(std::size_t round,
                                         ClusterControl& control)>;
  /// Receives every new membership epoch the service builds.
  using EpochSink = std::function<void(const MembershipView& view)>;

  ReclusterObserver(ClusterControl& control, EpochSink on_new_epoch,
                    RefreshFeed feed = {})
      : control_(control),
        on_new_epoch_(std::move(on_new_epoch)),
        feed_(std::move(feed)) {}

  void on_round_begin(std::size_t round,
                      fl::ParticipantSelector& selector) override {
    (void)selector;
    if (feed_) feed_(round, control_);
    if (trigger_round_ == 0 && control_.drift_detected()) {
      trigger_round_ = round;
    }
    if (control_.maybe_recluster()) {
      if (first_recluster_round_ == 0) first_recluster_round_ = round;
      if (on_new_epoch_) on_new_epoch_(control_.membership());
    }
  }

  /// First round the drift monitor flagged (0 = never).
  std::size_t trigger_round() const { return trigger_round_; }
  /// First round a re-clustering epoch was built (0 = never).
  std::size_t first_recluster_round() const {
    return first_recluster_round_;
  }

 private:
  ClusterControl& control_;
  EpochSink on_new_epoch_;
  RefreshFeed feed_;
  std::size_t trigger_round_ = 0;
  std::size_t first_recluster_round_ = 0;
};

}  // namespace flips::ctrl
