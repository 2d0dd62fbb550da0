#include "net/faults.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace flips::net {
namespace {

// Distinct stream salts so churn, crash, and link draws never alias
// even when they share an event id.
constexpr std::uint64_t kChurnSalt = 0xFA01'7C00'0000'0001ull;
constexpr std::uint64_t kCrashSalt = 0xFA01'7C00'0000'0002ull;
constexpr std::uint64_t kLinkSalt = 0xFA01'7C00'0000'0003ull;

/// Exponential variate with the given mean; strictly positive so
/// intervals always advance.
double draw_exponential(common::Rng& rng, double mean) {
  const double u = rng.uniform();
  return -mean * std::log1p(-std::min(u, 0.999999999));
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::invalid_argument("FaultConfig: " + what);
}

}  // namespace

double FaultConfig::backoff_s(std::size_t attempt) const {
  double delay = backoff_base_s;
  for (std::size_t i = 0; i < attempt; ++i) delay *= backoff_mult;
  return delay;
}

void FaultConfig::validate() const {
  require(churn >= 0.0 && std::isfinite(churn), "churn must be >= 0");
  require(crash_rate >= 0.0 && crash_rate <= 1.0,
          "crash rate must be in [0, 1]");
  require(link_fault_rate >= 0.0 && link_fault_rate < 1.0,
          "link fault rate must be in [0, 1)");
  require(link_slowdown >= 1.0, "link slowdown must be >= 1");
  require(max_retries <= 64, "max retries must be <= 64");
  require(backoff_base_s >= 0.0, "backoff base must be >= 0");
  require(backoff_mult >= 1.0, "backoff multiplier must be >= 1");
  require(min_quorum >= 0.0 && min_quorum <= 1.0,
          "min quorum must be in [0, 1]");
}

FaultPlan::FaultPlan(std::uint64_t seed, const FaultConfig& config,
                     std::size_t num_parties)
    : seed_(seed), config_(config), traces_(num_parties) {
  config_.validate();
}

void FaultPlan::restart_trace(std::size_t party, Trace& trace,
                              double mean_up_s, double mean_down_s) {
  trace.rng = common::Rng(common::mix_seed(seed_, kChurnSalt, party));
  // Stationary start state: up with probability mean_up / (up + down),
  // the trace's long-run up fraction, so it starts in equilibrium.
  trace.up =
      trace.rng.uniform() < mean_up_s / (mean_up_s + mean_down_s);
  trace.interval_begin_s = 0.0;
  trace.interval_end_s = draw_exponential(
      trace.rng, trace.up ? mean_up_s : mean_down_s);
  trace.started = true;
}

bool FaultPlan::available(std::size_t party, double time_s,
                          double mean_up_s, double mean_down_s) {
  if (config_.churn <= 0.0 || mean_up_s <= 0.0 || mean_down_s <= 0.0) {
    return true;
  }
  const double scaled_down_s = mean_down_s * config_.churn;
  Trace& trace = traces_.at(party);
  // Non-monotone query (e.g. a deadline-clamped round): replay the
  // trace from t = 0 — same seed, same intervals, so the answer is
  // still a pure function of (seed, party, time).
  if (!trace.started || time_s < trace.interval_begin_s) {
    restart_trace(party, trace, mean_up_s, scaled_down_s);
  }
  while (time_s >= trace.interval_end_s) {
    trace.up = !trace.up;
    trace.interval_begin_s = trace.interval_end_s;
    trace.interval_end_s += draw_exponential(
        trace.rng, trace.up ? mean_up_s : scaled_down_s);
  }
  return trace.up;
}

bool FaultPlan::crashes(std::size_t party, std::uint64_t event,
                        double device_fault_rate) const {
  const double p =
      1.0 - (1.0 - std::clamp(device_fault_rate, 0.0, 1.0)) *
                (1.0 - config_.crash_rate);
  if (p <= 0.0) return false;
  common::Rng rng(common::mix_seed(seed_, kCrashSalt ^ event, party));
  return rng.uniform() < p;
}

LinkFault FaultPlan::transfer(std::size_t party,
                              std::uint64_t event) const {
  LinkFault fault;
  if (config_.link_fault_rate <= 0.0) return fault;
  common::Rng rng(common::mix_seed(seed_, kLinkSalt ^ event, party));
  if (rng.uniform() < config_.link_fault_rate) {
    fault.failed = true;
  } else if (rng.uniform() < config_.link_fault_rate) {
    fault.slowdown = config_.link_slowdown;
  }
  return fault;
}

}  // namespace flips::net
