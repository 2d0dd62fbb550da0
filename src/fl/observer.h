// Round-observer sinks for the steppable federation session
// (fl/session.h). The session decomposes each server step into
//   select → local-train → aggregate → server-step → eval
// and emits three events per step (a "round" in sync mode, a buffered
// server step in async mode):
//
//   on_round_begin(round)             before selection.
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
// local training uses a worker pool. FlJobResult does not depend on
// any observer: the session derives it from its round history
// (fl/session.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fl/selector.h"

namespace flips::fl {

struct RoundRecord;

/// What happened to one dispatched party's arrival (async mode).
enum class ArrivalOutcome {
  kFolded,        ///< update folded into the buffer (discounted weight)
  kDroppedStale,  ///< bounded-staleness cutoff discarded the update
  kFailed,        ///< straggler or fault-plan failure — no update
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

  /// Start of 1-based `round`, before selection.
  virtual void on_round_begin(std::size_t round) { (void)round; }

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

}  // namespace flips::fl
