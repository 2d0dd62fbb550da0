#include "fl/metrics_observer.h"

#include <stdexcept>

#include "common/clock.h"
#include "fl/job.h"

namespace flips::fl {

namespace {

/// Phase durations span sub-microsecond folds to minutes of training.
constexpr obs::HistogramConfig kPhaseConfig{1e-7, 1e3, 3};
/// Staleness in server steps; FedBuff cutoffs are small integers.
constexpr obs::HistogramConfig kStalenessConfig{1.0, 4096.0, 2};
/// Retry backoffs: exponential schedules from milliseconds to ~hours
/// of simulated time.
constexpr obs::HistogramConfig kBackoffConfig{1e-3, 1e4, 3};

}  // namespace

MetricsObserver::MetricsObserver(std::string tenant, obs::Registry* registry,
                                 obs::Tracer* tracer)
    : tenant_(std::move(tenant)), tracer_(tracer) {
  const obs::Labels t{{"tenant", tenant_}};
  rounds_ = &registry->counter("flips_session_rounds_total", t);
  upload_bytes_ = &registry->counter("flips_session_upload_bytes_total", t);
  download_bytes_ =
      &registry->counter("flips_session_download_bytes_total", t);
  dropped_stale_ =
      &registry->counter("flips_session_dropped_stale_total", t);
  accuracy_ = &registry->gauge("flips_session_accuracy", t);
  sim_time_s_ = &registry->gauge("flips_session_sim_time_seconds", t);
  for (std::size_t i = 0; i < kNumSessionPhases; ++i) {
    obs::Labels labels = t;
    labels.emplace_back("phase", to_string(static_cast<SessionPhase>(i)));
    phase_seconds_[i] = &registry->histogram("flips_session_phase_seconds",
                                             labels, kPhaseConfig);
  }
  const char* party_outcomes[] = {"failed", "responded"};
  for (std::size_t i = 0; i < 2; ++i) {
    obs::Labels labels = t;
    labels.emplace_back("outcome", party_outcomes[i]);
    parties_[i] = &registry->counter("flips_session_parties_total", labels);
  }
  const char* arrival_outcomes[] = {"folded", "dropped_stale", "failed"};
  for (std::size_t i = 0; i < 3; ++i) {
    obs::Labels labels = t;
    labels.emplace_back("outcome", arrival_outcomes[i]);
    arrivals_[i] = &registry->counter("flips_session_arrivals_total", labels);
  }
  staleness_ =
      &registry->histogram("flips_session_staleness", t, kStalenessConfig);
  const char* fault_events[] = {"crashed", "retried", "backfilled",
                                "quorum_skipped"};
  for (std::size_t i = 0; i < 4; ++i) {
    obs::Labels labels = t;
    labels.emplace_back("event", fault_events[i]);
    faults_[i] = &registry->counter("flips_faults_total", labels);
  }
  retry_backoff_s_ = &registry->histogram("flips_faults_retry_backoff_seconds",
                                          t, kBackoffConfig);
}

void MetricsObserver::on_round_begin(std::size_t round) {
  (void)round;
  round_start_ns_ = common::steady_now_ns();
  round_span_id_ = tracer_->next_id();
}

void MetricsObserver::on_party_feedback(std::size_t round,
                                        const PartyFeedback& feedback) {
  (void)round;
  parties_[feedback.responded ? 1 : 0]->inc();
}

void MetricsObserver::on_arrival(std::size_t round,
                                 const ArrivalRecord& arrival) {
  (void)round;
  arrivals_[static_cast<std::size_t>(arrival.outcome)]->inc();
  staleness_->record(static_cast<double>(arrival.staleness));
}

void MetricsObserver::on_phase(std::size_t round, const PhaseRecord& record) {
  const auto i = static_cast<std::size_t>(record.phase);
  if (i >= kNumSessionPhases) return;
  phase_seconds_[i]->record(record.duration_s());
  if (tracer_->enabled()) {
    obs::Span span;
    span.set_name(to_string(record.phase));
    span.set_tenant(tenant_.c_str());
    span.id = tracer_->next_id();
    span.parent = round_span_id_;
    span.round = round;
    span.start_ns = record.start_ns;
    span.end_ns = record.end_ns;
    span.sim_time_s = record.sim_time_s;
    tracer_->record(span);
  }
}

void MetricsObserver::on_retry(std::size_t round,
                               const RetryRecord& record) {
  (void)round;
  retry_backoff_s_->record(record.backoff_s);
}

void MetricsObserver::on_round_end(std::size_t round,
                                   const RoundRecord& record) {
  rounds_->inc();
  upload_bytes_->inc(record.upload_bytes);
  download_bytes_->inc(record.download_bytes);
  dropped_stale_->inc(record.dropped_stale);
  faults_[0]->inc(record.crashed);
  faults_[1]->inc(record.retried);
  faults_[2]->inc(record.backfilled);
  if (record.quorum_skipped) faults_[3]->inc();
  accuracy_->set(record.balanced_accuracy);
  sim_time_s_->add(record.round_time_s);
  if (tracer_->enabled()) {
    obs::Span span;
    span.set_name("round");
    span.set_tenant(tenant_.c_str());
    span.id = round_span_id_;
    span.parent = 0;
    span.round = round;
    span.start_ns = round_start_ns_;
    span.end_ns = common::steady_now_ns();
    tracer_->record(span);
    tracer_->flush();
  }
}

// ---------------------------------------------------------------------------
// JsonlRoundObserver

JsonlRoundObserver::SharedFile::SharedFile(const std::string& path)
    : file(std::fopen(path.c_str(), "w")) {
  if (file == nullptr) {
    throw std::runtime_error("metrics-out: cannot open " + path);
  }
}

JsonlRoundObserver::SharedFile::~SharedFile() {
  if (file != nullptr) std::fclose(file);
}

JsonlRoundObserver::JsonlRoundObserver(std::shared_ptr<SharedFile> out,
                                       std::size_t run)
    : out_(std::move(out)), run_(run) {}

void JsonlRoundObserver::on_phase(std::size_t round,
                                  const PhaseRecord& record) {
  (void)round;
  const auto i = static_cast<std::size_t>(record.phase);
  if (i < kNumSessionPhases) phase_s_[i] = record.duration_s();
}

void JsonlRoundObserver::on_round_end(std::size_t round,
                                      const RoundRecord& record) {
  std::lock_guard<std::mutex> lock(out_->mu);
  std::fprintf(out_->file,
               "{\"run\":%zu,\"round\":%zu,\"accuracy\":%.6f,"
               "\"upload_bytes\":%llu,\"download_bytes\":%llu,"
               "\"dropped_stale\":%zu,\"round_time_s\":%.6f",
               run_, round, record.balanced_accuracy,
               static_cast<unsigned long long>(record.upload_bytes),
               static_cast<unsigned long long>(record.download_bytes),
               record.dropped_stale, record.round_time_s);
  std::fprintf(out_->file, ",\"phases\":{");
  for (std::size_t i = 0; i < kNumSessionPhases; ++i) {
    std::fprintf(out_->file, "%s\"%s\":%.9f", i == 0 ? "" : ",",
                 to_string(static_cast<SessionPhase>(i)), phase_s_[i]);
  }
  std::fprintf(out_->file, "}}\n");
  std::fflush(out_->file);
  phase_s_.fill(0.0);
}

}  // namespace flips::fl
