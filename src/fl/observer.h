// Round-observer sinks for the steppable federation session
// (fl/session.h). The session decomposes each server step into
//   select → local-train → aggregate → server-step → eval
// and emits three events per step (a "round" in sync mode, a buffered
// server step in async mode):
//
//   on_round_begin(round, selector)   before selection — the control
//       plane's slot (feed refreshed label distributions, trigger a
//       re-clustering epoch, rebind the selector; see
//       ctrl::ReclusterObserver).
//   on_party_feedback(round, fb)      once per selected party, in
//       cohort order (sync) / arrival order (async), after the fold
//       (fb.delta is the wire update the server saw; valid only for
//       the duration of the call — the buffer returns to the
//       session's arena afterwards).
//   on_round_end(round, record)       after evaluation; the record
//       carries the step's byte accounting.
//
// The async mode additionally emits one arrival-granularity event per
// update landing at the server:
//
//   on_arrival(round, arrival)        as each dispatched party's
//       update (or failure notice) is popped off the arrival queue, in
//       deterministic (time, dispatch seq) order, before the update is
//       folded — `arrival` carries the staleness and the discounted
//       fold weight it will receive.
//
// Observers run on the session's stepping thread in registration
// order — never concurrently — so they may keep plain state even when
// local training uses a worker pool. The session's own result
// accounting (bytes, fairness counts, coverage, target tracking) is
// itself implemented as an observer (fl::ResultAccounting), so
// everything FlJobResult aggregates flows through this interface.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "fl/selector.h"

namespace flips::fl {

struct RoundRecord;

/// What happened to one dispatched party's arrival (async mode).
enum class ArrivalOutcome {
  kFolded,        ///< update folded into the buffer (discounted weight)
  kDroppedStale,  ///< bounded-staleness cutoff discarded the update
  kFailed,        ///< straggler / availability / fault — no update
};

/// The phases a server step decomposes into. Sync mode times each of
/// the five stages of sync_step; async mode maps its event loop onto
/// the same vocabulary (refill/dispatch → kTrainCohort, the arrival
/// fold loop → kFold).
enum class SessionPhase : std::uint8_t {
  kSelect = 0,
  kTrainCohort,
  kFold,
  kServerStep,
  kEval,
};

inline constexpr std::size_t kNumSessionPhases = 5;

inline const char* to_string(SessionPhase phase) {
  switch (phase) {
    case SessionPhase::kSelect: return "select";
    case SessionPhase::kTrainCohort: return "train_cohort";
    case SessionPhase::kFold: return "fold";
    case SessionPhase::kServerStep: return "server_step";
    case SessionPhase::kEval: return "eval";
  }
  return "unknown";
}

/// Wall-clock interval of one completed phase (steady-clock ns), plus
/// the session's simulated clock when the phase ended.
struct PhaseRecord {
  SessionPhase phase = SessionPhase::kSelect;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  double sim_time_s = 0.0;

  double duration_s() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// One failed dispatch being re-scheduled by the fault plan: an async
/// retry of the same party after a backoff, or a sync backfill wave
/// replacing a crashed cohort slot with a fresh selector pick.
struct RetryRecord {
  std::size_t party_id = 0;  ///< the party being (re-)dispatched
  std::size_t attempt = 0;   ///< 1-based retry / backfill wave
  double backoff_s = 0.0;    ///< simulated delay before the dispatch
  double time_s = 0.0;       ///< simulated clock when scheduled
};

/// One arrival popped off the async event queue, in deterministic
/// (time_s, seq) order.
struct ArrivalRecord {
  std::size_t party_id = 0;
  std::uint64_t seq = 0;       ///< monotone dispatch sequence
  double time_s = 0.0;         ///< simulated arrival time
  std::size_t staleness = 0;   ///< server steps since dispatch
  ArrivalOutcome outcome = ArrivalOutcome::kFailed;
  double weight = 0.0;         ///< discounted fold weight (kFolded only)
};

class RoundObserver {
 public:
  virtual ~RoundObserver() = default;

  /// Start of 1-based `round`, before selection. `selector` is the
  /// session's own selector (mutable: re-clustering observers rebind
  /// membership here).
  virtual void on_round_begin(std::size_t round,
                              ParticipantSelector& selector) {
    (void)round;
    (void)selector;
  }

  /// One selected party's outcome, in cohort order. Fires for every
  /// cohort member — non-responders arrive with fb.responded == false
  /// and an empty delta.
  virtual void on_party_feedback(std::size_t round,
                                 const PartyFeedback& feedback) {
    (void)round;
    (void)feedback;
  }

  /// End of `round`, after evaluation and selector feedback.
  virtual void on_round_end(std::size_t round, const RoundRecord& record) {
    (void)round;
    (void)record;
  }

  /// Async mode only: one dispatched party's update (or failure)
  /// landing at the server during server step `round`, fired on the
  /// stepping thread in arrival order, before the fold.
  virtual void on_arrival(std::size_t round, const ArrivalRecord& arrival) {
    (void)round;
    (void)arrival;
  }

  /// One completed phase of server step `round`, fired as each phase
  /// finishes (so all of a round's phases precede its on_round_end).
  virtual void on_phase(std::size_t round, const PhaseRecord& record) {
    (void)round;
    (void)record;
  }

  /// Fault plan only: a failed dispatch being retried (async) or a
  /// cohort slot being backfilled (sync), on the stepping thread.
  virtual void on_retry(std::size_t round, const RetryRecord& record) {
    (void)round;
    (void)record;
  }
};

/// The session's own result accounting, expressed as an observer:
/// communication volume, per-party selection counts (fairness /
/// coverage), wall-time-to-target tracking, and the peak-accuracy
/// watermark. The session installs one instance
/// internally and folds its state into FlJobResult; external tools can
/// attach their own to account any session the same way.
class ResultAccounting final : public RoundObserver {
 public:
  ResultAccounting(std::size_t num_parties, double target_accuracy)
      : selection_counts_(num_parties, 0),
        target_accuracy_(target_accuracy) {}

  void on_party_feedback(std::size_t round,
                         const PartyFeedback& feedback) override;
  void on_round_end(std::size_t round, const RoundRecord& record) override;

  std::uint64_t total_bytes() const { return total_bytes_; }
  std::uint64_t upload_bytes() const { return upload_bytes_; }
  std::uint64_t download_bytes() const { return download_bytes_; }
  double total_time_s() const { return total_time_s_; }
  double peak_accuracy() const { return peak_accuracy_; }
  const std::vector<std::size_t>& selection_counts() const {
    return selection_counts_;
  }
  /// First round after which every party had been selected >= once.
  const std::optional<std::size_t>& coverage_round() const {
    return coverage_round_;
  }
  const std::optional<std::size_t>& rounds_to_target() const {
    return rounds_to_target_;
  }
  const std::optional<double>& time_to_target_s() const {
    return time_to_target_s_;
  }

 private:
  std::vector<std::size_t> selection_counts_;
  double target_accuracy_ = 0.0;
  std::size_t covered_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t upload_bytes_ = 0;
  std::uint64_t download_bytes_ = 0;
  double total_time_s_ = 0.0;
  double peak_accuracy_ = 0.0;
  std::optional<std::size_t> coverage_round_;
  std::optional<std::size_t> rounds_to_target_;
  std::optional<double> time_to_target_s_;
};

}  // namespace flips::fl
