#include "net/device.h"

namespace flips::net {

FleetMix FleetMix::senior_care() {
  FleetMix mix;
  // Columns: type, compute factor, Mb/s, fault rate, mean up s, mean
  // down s. The churn means set each type's long-run up fraction
  // mean_up / (mean_up + mean_down): 0.85, 0.92, 0.95, 0.99 and 0.995.
  mix.entries = {
      {{"wearable", 8.0, 1.0, 0.05, 510.0, 90.0}, 0.45},
      {{"budget-phone", 2.5, 5.0, 0.02, 552.0, 48.0}, 0.25},
      {{"flagship-phone", 1.2, 20.0, 0.01, 570.0, 30.0}, 0.15},
      {{"home-gateway", 1.0, 50.0, 0.005, 1188.0, 12.0}, 0.10},
      {{"workstation", 0.4, 100.0, 0.002, 2388.0, 12.0}, 0.05},
  };
  return mix;
}

FleetBuilder::FleetBuilder(FleetMix mix) : mix_(std::move(mix)) {
  for (const auto& entry : mix_.entries) total_weight_ += entry.weight;
}

Device FleetBuilder::sample(common::Rng& rng) const {
  if (mix_.entries.empty()) return {};
  double u = rng.uniform() * total_weight_;
  for (const auto& entry : mix_.entries) {
    u -= entry.weight;
    if (u <= 0.0) return entry.device;
  }
  return mix_.entries.back().device;
}

}  // namespace flips::net
