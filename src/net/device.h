// Simulated device fleet: the senior-care deployment mix from the
// paper's §7 case study. Devices carry compute and network parameters
// that the FL session turns into per-dispatch durations — the physical
// origin of deadline stragglers and, in the event-driven async mode, of
// the arrival order itself — plus the reliability columns (fault rate,
// churn means) that only the fault plan (net/faults.h) reads.
//
// Two session-facing pieces live here:
//   simulated_duration_s()  — the latency model proper: compute time
//       scaled by the device's slowdown factor plus a model up+down
//       transfer at the device's link speed. Both federation modes
//       (fl/session.h) derive every party duration from this one
//       expression, so sync and async arrivals share one physics.
//   ArrivalQueue — a deterministic min-heap of (time, sequence) events
//       that drives FederationSession::advance() in async mode. Ties
//       break on the monotone dispatch sequence, so the arrival order
//       is a pure function of the simulated durations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "common/rng.h"

namespace flips::net {

struct Device {
  std::string type = "phone";
  /// Local-training slowdown vs the nominal device (1.0 = nominal).
  double compute_factor = 1.0;
  double network_mbps = 10.0;
  /// Per-dispatch probability of an independent fault (crash, battery),
  /// drawn by the fault plan's crash stream.
  double fault_rate = 0.0;
  /// Markov churn trace (net/faults.h): mean seconds of continuous
  /// reachability / outage. The stationary up fraction
  /// mean_up / (mean_up + mean_down) is the device type's long-run
  /// reachability. 0 = the device never churns.
  double mean_up_s = 0.0;
  double mean_down_s = 0.0;
};

struct FleetMix {
  struct Entry {
    Device device;
    double weight = 1.0;
  };
  std::vector<Entry> entries;

  /// 45 % wearables / 40 % phones / 15 % gateways+workstations.
  static FleetMix senior_care();
};

class FleetBuilder {
 public:
  explicit FleetBuilder(FleetMix mix);

  /// Samples one device from the mix (weights need not be normalized).
  [[nodiscard]] Device sample(common::Rng& rng) const;

 private:
  FleetMix mix_;
  double total_weight_ = 0.0;
};

/// Simulated seconds for one party's full participation: local compute
/// (`speed_factor × samples × epochs × compute_s_per_sample`) plus the
/// model down- and uplink (`2 × payload_bytes` at `network_mbps`).
/// Left-to-right evaluation order is part of the contract — the sync
/// round loop's historical durations must reproduce bit-for-bit.
inline double simulated_duration_s(double speed_factor, double samples,
                                   double epochs,
                                   double compute_s_per_sample,
                                   double payload_bytes,
                                   double network_mbps) {
  const double compute_s =
      speed_factor * samples * epochs * compute_s_per_sample;
  const double network_s = 2.0 * payload_bytes / (network_mbps * 125000.0);
  return compute_s + network_s;
}

/// One scheduled arrival: a dispatched party's update (or failure
/// notice) landing at the server at simulated time `time_s`.
struct ArrivalEvent {
  double time_s = 0.0;
  /// Monotone dispatch sequence — the deterministic tie-break.
  std::uint64_t seq = 0;
  /// Caller-owned payload handle (the session's in-flight slot index).
  std::size_t slot = 0;
};

/// Deterministic simulated-time event queue: pops the earliest arrival,
/// breaking time ties by dispatch sequence. Single-threaded — the
/// session's stepping thread owns it.
class ArrivalQueue {
 public:
  void push(const ArrivalEvent& event) { heap_.push(event); }

  /// Earliest event (undefined when empty()).
  [[nodiscard]] const ArrivalEvent& top() const { return heap_.top(); }

  ArrivalEvent pop() {
    ArrivalEvent event = heap_.top();
    heap_.pop();
    return event;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

 private:
  struct Later {
    bool operator()(const ArrivalEvent& a, const ArrivalEvent& b) const {
      if (a.time_s != b.time_s) return a.time_s > b.time_s;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<ArrivalEvent, std::vector<ArrivalEvent>, Later> heap_;
};

}  // namespace flips::net
