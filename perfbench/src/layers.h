// Builds a federation session through each layer's public call — data,
// cluster, selection, fl — so set-up can be timed layer by layer, and
// times a running session from outside through the seams the program
// already exposes: a decorator around the selector and a RoundObserver.
// Nothing here changes what the session computes; main.cpp checks that a
// session built here matches bench::make_session bit for bit.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/experiment.h"
#include "fl/observer.h"
#include "fl/session.h"

namespace perfbench {

/// Wall seconds of each set-up layer for one session.
struct SetupTimes {
  double data_s = 0.0;     ///< build_federated_data + party fleet
  double cluster_s = 0.0;  ///< Hellinger k-means over label histograms
  double selection_s = 0.0;
  double session_s = 0.0;  ///< model init + FederationSession ctor
};

/// Times every select() and report_round() of the selector it wraps and
/// forwards both untouched.
class TimedSelector final : public flips::fl::ParticipantSelector {
 public:
  explicit TimedSelector(
      std::unique_ptr<flips::fl::ParticipantSelector> inner)
      : inner_(std::move(inner)) {}

  std::vector<std::size_t> select(std::size_t round,
                                  std::size_t num_required) override;
  void report_round(
      std::size_t round,
      const std::vector<flips::fl::PartyFeedback>& feedback) override;
  const char* name() const override { return inner_->name(); }

  std::vector<double> select_ms;
  std::vector<double> report_ms;

 private:
  std::unique_ptr<flips::fl::ParticipantSelector> inner_;
};

/// Everything the traced run reads off the observer seam, summed over
/// the sessions it was attached to.
class LayerObserver final : public flips::fl::RoundObserver {
 public:
  void on_party_feedback(std::size_t round,
                         const flips::fl::PartyFeedback& feedback) override;
  void on_arrival(std::size_t round,
                  const flips::fl::ArrivalRecord& arrival) override;
  void on_phase(std::size_t round,
                const flips::fl::PhaseRecord& record) override;
  void on_retry(std::size_t round,
                const flips::fl::RetryRecord& record) override;
  void on_round_end(std::size_t round,
                    const flips::fl::RoundRecord& record) override;

  /// Rounds of each session before arena misses count: a fresh session
  /// fills its buffer arena during its first steps.
  static constexpr std::size_t kWarmupRounds = 5;

  std::array<double, flips::fl::kNumSessionPhases> phase_s{};
  std::array<std::size_t, flips::fl::kNumSessionPhases> phase_n{};
  std::size_t steps = 0;
  std::size_t feedbacks = 0;
  std::size_t arrivals = 0;
  std::size_t retries = 0;
  // RoundRecord tallies.
  std::size_t dispatched = 0;  ///< cohort members (sync) / arrivals (async)
  std::size_t responded = 0;
  std::size_t dropped_stale = 0;
  std::size_t crashed = 0;
  std::size_t retried = 0;
  std::size_t backfilled = 0;
  std::uint64_t up_bytes = 0;
  std::uint64_t down_bytes = 0;
  /// flips_arena_misses_total growth after kWarmupRounds, per session.
  std::uint64_t arena_misses_after_warmup = 0;

 private:
  std::uint64_t misses_at_warmup_ = 0;
};

/// Builds the session bench::make_session(config, kind, seed) builds,
/// one layer call at a time. When `timed` is non-null the selector is
/// wrapped in a TimedSelector and *timed points at it (owned by the
/// session).
std::unique_ptr<flips::fl::FederationSession> build_session(
    const flips::bench::ExperimentConfig& config,
    flips::select::SelectorKind kind, std::uint64_t seed,
    SetupTimes& times, TimedSelector** timed = nullptr);

/// FNV-1a over the parameters' bytes: two runs agree bitwise iff
/// their hashes do (up to a 2^-64 collision).
std::uint64_t hash_parameters(const std::vector<double>& parameters);

}  // namespace perfbench
