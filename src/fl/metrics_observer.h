// Telemetry observers riding the fl/observer.h seam.
//
// MetricsObserver bridges one session's round events into the
// process-wide obs plane: per-phase duration histograms, arrival /
// party-outcome counters, byte counters, and accuracy / simulated-time
// gauges — all labeled tenant="<label>" so multi-tenant front ends
// (serve::Server attaches one per opened session) expose per-tenant
// families from one registry. It also emits one span per phase plus a
// parent span per round through obs::Tracer, which writes each span
// straight to its sink, and flushes the sink at round end.
//
// All instruments are registered at construction; every callback is
// allocation-free relaxed-atomic work, preserving the session's
// zero-steady-state-allocation contract.
//
// JsonlRoundObserver is the `flips_run --metrics-out` sink: one JSON
// line per completed round (accuracy, bytes, staleness drops, and the
// per-phase durations captured from on_phase).
#pragma once

#include <array>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

#include "fl/observer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace flips::fl {

class MetricsObserver final : public RoundObserver {
 public:
  /// `tenant` labels every family this observer writes; defaults to
  /// the process-wide registry/tracer singletons.
  explicit MetricsObserver(std::string tenant,
                           obs::Registry* registry = &obs::Registry::global(),
                           obs::Tracer* tracer = &obs::Tracer::global());

  void on_round_begin(std::size_t round) override;
  void on_party_feedback(std::size_t round,
                         const PartyFeedback& feedback) override;
  void on_arrival(std::size_t round, const ArrivalRecord& arrival) override;
  void on_phase(std::size_t round, const PhaseRecord& record) override;
  void on_retry(std::size_t round, const RetryRecord& record) override;
  void on_round_end(std::size_t round, const RoundRecord& record) override;

 private:
  std::string tenant_;
  obs::Tracer* tracer_;

  obs::Counter* rounds_;
  obs::Counter* upload_bytes_;
  obs::Counter* download_bytes_;
  obs::Counter* dropped_stale_;
  obs::Gauge* accuracy_;
  obs::Gauge* sim_time_s_;
  std::array<obs::Histogram*, kNumSessionPhases> phase_seconds_{};
  std::array<obs::Counter*, 2> parties_{};   ///< [failed, responded]
  std::array<obs::Counter*, 3> arrivals_{};  ///< by ArrivalOutcome
  obs::Histogram* staleness_;
  /// Fault plane: flips_faults_total{event=crashed|retried|backfilled|
  /// quorum_skipped} plus the retry-backoff latency histogram.
  std::array<obs::Counter*, 4> faults_{};
  obs::Histogram* retry_backoff_s_;

  std::uint64_t round_span_id_ = 0;
  std::uint64_t round_start_ns_ = 0;
};

/// `flips_run --metrics-out` sink: buffers each round's phase
/// durations and appends one JSON object per round to a shared file.
/// One instance per session/run; instances share the file through
/// SharedFile (writes are line-atomic under its mutex).
class JsonlRoundObserver final : public RoundObserver {
 public:
  struct SharedFile {
    explicit SharedFile(const std::string& path);
    ~SharedFile();
    std::FILE* file;
    std::mutex mu;
  };

  JsonlRoundObserver(std::shared_ptr<SharedFile> out, std::size_t run);

  void on_phase(std::size_t round, const PhaseRecord& record) override;
  void on_round_end(std::size_t round, const RoundRecord& record) override;

 private:
  std::shared_ptr<SharedFile> out_;
  std::size_t run_;
  std::array<double, kNumSessionPhases> phase_s_{};
};

}  // namespace flips::fl
