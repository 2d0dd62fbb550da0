// Deterministic fault-injection plane: seeded device churn, mid-round
// crashes, and transient link faults for the simulated federation.
//
// Three failure processes, all pure functions of (plan seed, party,
// event), so fault sequences are bit-identical across thread counts:
//
//   churn       Markov on/off reachability traces per device. Each
//               party alternates exponential up/down intervals with the
//               device's mean_up_s/mean_down_s (the stationary up
//               fraction mean_up / (mean_up + mean_down) is the device
//               type's long-run reachability). The `churn` knob
//               scales mean downtime: 0 disables churn, 1 reproduces
//               the device trace, >1 makes outages longer.
//   crashes     per-dispatch Bernoulli loss combining the device's
//               fault_rate with the plan-wide crash_rate. A crashed
//               dispatch consumes its full simulated duration before
//               the server notices (mid-training crash), unlike churn,
//               which fails instantly at dispatch.
//   link faults per-transfer failure (uplink lost after training, the
//               bytes are charged as waste) or slowdown (transfer takes
//               link_slowdown x as long but folds normally).
//
// Threading contract: `available()` keeps a cached per-party trace
// cursor and must only be called from the session's stepping thread.
// `crashes()` and `transfer()` build a fresh RNG stream per call and
// are safe from worker threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace flips::net {

/// Knobs for the fault plan, the session's only reliability model.
/// Default-constructed = no faults: no dispatch is unreachable, crashes
/// or loses its uplink.
struct FaultConfig {
  double churn = 0.0;            ///< downtime scale; 0 = no churn
  double crash_rate = 0.0;       ///< extra per-dispatch crash probability
  double link_fault_rate = 0.0;  ///< per-transfer uplink loss probability
  double link_slowdown = 2.0;    ///< duration multiplier on a slow link
  std::size_t max_retries = 2;   ///< retry/backfill waves per dispatch
  double backoff_base_s = 0.5;   ///< first retry delay (simulated)
  double backoff_mult = 2.0;     ///< exponential backoff multiplier
  double min_quorum = 0.0;       ///< sync: skip the fold below this
                                 ///< responded/cohort fraction

  bool operator==(const FaultConfig&) const = default;

  bool enabled() const {
    return churn > 0.0 || crash_rate > 0.0 || link_fault_rate > 0.0;
  }

  /// Simulated delay before retry attempt `attempt` (0-based):
  /// backoff_base_s * backoff_mult^attempt.
  double backoff_s(std::size_t attempt) const;

  /// Throws std::invalid_argument when any knob is out of range.
  void validate() const;
};

/// Outcome of a single simulated uplink transfer.
struct LinkFault {
  bool failed = false;     ///< update lost in transit
  double slowdown = 1.0;   ///< duration multiplier when it survives
};

/// Seeded fault schedule over a fixed fleet. Copyable/movable; a
/// default-constructed plan reports enabled() == false and never fails
/// anything.
class FaultPlan {
 public:
  FaultPlan() = default;
  FaultPlan(std::uint64_t seed, const FaultConfig& config,
            std::size_t num_parties);

  bool enabled() const { return config_.enabled(); }
  const FaultConfig& config() const { return config_; }

  /// Whether `party` is reachable at simulated time `time_s` under its
  /// Markov on/off trace. Devices with mean_up_s <= 0 or
  /// mean_down_s <= 0 never churn. Stepping thread only: the cached
  /// cursor advances forward and deterministically replays from t = 0
  /// when queried before its current interval.
  bool available(std::size_t party, double time_s, double mean_up_s,
                 double mean_down_s);

  /// Whether dispatch `event` for `party` crashes mid-training. The
  /// probability combines the device and plan rates:
  /// 1 - (1 - device_fault_rate) * (1 - crash_rate). Thread-safe.
  bool crashes(std::size_t party, std::uint64_t event,
               double device_fault_rate) const;

  /// Per-transfer link outcome for dispatch `event`. Thread-safe.
  LinkFault transfer(std::size_t party, std::uint64_t event) const;

 private:
  /// Cached churn cursor: the current interval is
  /// [interval_begin_s, interval_end_s) with state `up`.
  struct Trace {
    bool started = false;
    bool up = true;
    double interval_begin_s = 0.0;
    double interval_end_s = 0.0;
    common::Rng rng{0};
  };

  void restart_trace(std::size_t party, Trace& trace, double mean_up_s,
                     double mean_down_s);

  std::uint64_t seed_ = 0;
  FaultConfig config_;
  std::vector<Trace> traces_;
};

}  // namespace flips::net
