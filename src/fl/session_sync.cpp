// The sync driver: one barrier round per advance(). Selects a cohort
// and schedules it (plus backfill waves under a fault plan) on the
// stepping thread, trains every scheduled dispatch in one pass on the
// worker pool, then, on the stepping thread, adds every trained update
// to the aggregator in cohort order, folds once and steps the server.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "common/clock.h"
#include "fl/session.h"

namespace flips::fl {

double FederationSession::train_cohort(std::size_t round,
                                       std::vector<std::size_t>& cohort,
                                       RoundRecord& record) {
  // SCAFFOLD: every party in the cohort must train against the SAME
  // round-start control variate; updates to c are folded in after the
  // parallel phase so results do not depend on cohort order or
  // scheduling.
  if (config_.local.algo == ClientAlgo::kScaffold) {
    scaffold_c_round_ = scaffold_c_;
  }

  // Under a fault plan the round reserves a backfill budget of one
  // extra slot per cohort member. Reserved once, so the pending
  // pointers into outcomes_ stay valid until train_pending().
  const std::size_t base = cohort.size();
  const std::size_t budget = faults_on_ ? base : 0;
  outcomes_.clear();
  outcomes_.reserve(base + budget);

  // Schedules one wave at `time_s` into the next outcome slots and
  // returns its longest simulated duration.
  const auto schedule_wave = [&](const std::vector<std::size_t>& wave,
                                 double time_s) {
    double wave_max_s = 0.0;
    for (const std::size_t p : wave) {
      Dispatch& d = outcomes_.emplace_back();
      schedule_dispatch(d, p, round, time_s);
      wave_max_s = std::max(wave_max_s, d.fb.duration_s);
    }
    return wave_max_s;
  };
  double elapsed_s = schedule_wave(cohort, sim_time_s_);

  if (faults_on_ && budget > 0) {
    // Backfill waves: each wave replaces the previous wave's
    // fault-failed slots with fresh selector picks, dispatched after an
    // exponential backoff. Wave count is capped by max_retries and the
    // slot budget. Every verdict is drawn at scheduling time, so the
    // whole schedule is known before any party trains.
    std::size_t wave_begin = 0;
    for (std::size_t wave = 1; wave <= config_.faults.max_retries;
         ++wave) {
      std::size_t failures = 0;
      for (std::size_t k = wave_begin; k < outcomes_.size(); ++k) {
        if (outcomes_[k].fault_failed) ++failures;
      }
      const std::size_t room = base + budget - outcomes_.size();
      const std::size_t need = std::min(failures, room);
      if (need == 0) break;
      const std::vector<std::size_t> extra = pick_parties(round, need, need);
      if (extra.empty()) break;
      const double backoff_s = config_.faults.backoff_s(wave - 1);
      elapsed_s += backoff_s;
      for (const std::size_t p : extra) {
        emit_retry(round, p, wave, backoff_s, sim_time_s_ + elapsed_s);
      }
      record.backfilled += extra.size();
      wave_begin = outcomes_.size();
      cohort.insert(cohort.end(), extra.begin(), extra.end());
      elapsed_s += schedule_wave(extra, sim_time_s_ + elapsed_s);
    }
  }
  train_pending(round);
  return elapsed_s;
}

void FederationSession::fold_outcomes(
    const std::vector<std::size_t>& cohort, RoundRecord& record,
    std::uint64_t& up_bytes) {
  // ---- Sequential phase: fold outcomes into shared state in cohort
  // order (bit-identical for every thread count).
  aggregator_.begin_round(dim_);
  feedback_.clear();
  feedback_.reserve(cohort.size());
  double round_time = 0.0;
  double loss_sum = 0.0;
  std::size_t responded = 0;
  const std::size_t n = parties_->size();

  for (std::size_t k = 0; k < cohort.size(); ++k) {
    const std::size_t p = cohort[k];
    Dispatch& out = outcomes_[k];

    if (out.trained) {
      aggregator_.add(fold_weight(out.fb), out.delta);
      loss_sum += out.fb.mean_loss;
      ++responded;
      up_bytes += out.wire_bytes;

      if (config_.local.algo == ClientAlgo::kScaffold &&
          !out.scaffold_ci_new.empty()) {
        auto& ci = scaffold_ci_[p];
        if (ci.empty()) ci.assign(dim_, 0.0);
        const double inv_n = 1.0 / static_cast<double>(n);
        for (std::size_t i = 0; i < dim_; ++i) {
          // Server-side c absorbs the per-client change scaled by 1/N;
          // nobody reads it until the next round.
          scaffold_c_[i] += (out.scaffold_ci_new[i] - ci[i]) * inv_n;
        }
        ci = std::move(out.scaffold_ci_new);
      }
      // (FedDyn's hi refresh happens in the parallel phase.)

      // Zero-copy hand-off: the arena buffer travels through the
      // feedback (selectors and observers may read it; the aggregator
      // keeps borrowing it, since a move keeps the buffer) and is
      // released back to the arena after the round.
      out.fb.delta = std::move(out.delta);
    } else if (out.fault_failed) {
      ++record.crashed;
      // A lost uplink still transited the wire: charge the waste.
      up_bytes += out.wire_bytes;
    }

    round_time = std::max(round_time, out.fb.duration_s);
    feedback_.push_back(std::move(out.fb));
  }

  if (config_.stragglers.mode == StragglerMode::kDeadline &&
      config_.stragglers.deadline_s > 0.0) {
    round_time = std::min(round_time, config_.stragglers.deadline_s);
  }

  record.selected = cohort.size();
  record.responded = responded;
  record.round_time_s = round_time;
  record.mean_train_loss =
      responded > 0 ? loss_sum / static_cast<double>(responded) : 0.0;
}

std::uint64_t FederationSession::server_step(
    std::vector<double>& aggregate,
    const std::vector<std::size_t>& cohort, bool apply) {
  std::uint64_t round_down_bytes = 0;
  if (apply && aggregator_.contributions() > 0) {
    add_dp_noise(aggregate);
    std::vector<double>& global = model_.mutable_parameters();
    if (codec_on_) {
      // The broadcast is the codec-compressed per-round parameter
      // delta (clients cache the model and apply decoded deltas). The
      // server applies the DECODED delta to its own copy too, so the
      // single global model in the simulation is exactly what every
      // client reconstructs. Server-side error feedback keeps the
      // broadcast stream convergent.
      std::vector<double> prev = arena_.lease(dim_);
      std::memcpy(prev.data(), global.data(), dim_ * sizeof(double));
      server_.apply(global, aggregate);
      std::vector<double> pre = arena_.lease(dim_);
      for (std::size_t i = 0; i < dim_; ++i) {
        pre[i] = (global[i] - prev[i]) + server_residual_[i];
      }
      codec_.encode(pre, broadcast_rng_, broadcast_enc_, broadcast_ws_);
      round_down_bytes =
          static_cast<std::uint64_t>(broadcast_enc_.wire_bytes()) *
          cohort.size();
      codec_.decode(broadcast_enc_, broadcast_wire_);
      for (std::size_t i = 0; i < dim_; ++i) {
        server_residual_[i] = pre[i] - broadcast_wire_[i];
        global[i] = prev[i] + broadcast_wire_[i];
      }
      arena_.release(std::move(prev));
      arena_.release(std::move(pre));
    } else {
      server_.apply(global, aggregate);
    }
  }
  if (!codec_on_) {
    round_down_bytes = model_bytes_ * cohort.size();  // full model down
  }
  return round_down_bytes;
}

const RoundRecord& FederationSession::sync_step() {
  const std::size_t round = next_round_;

  for (RoundObserver* obs : observers_) {
    obs->on_round_begin(round);
  }

  std::uint64_t t = common::steady_now_ns();
  // The cohort keeps every valid pick: FLIPS over-provisions past
  // parties_per_round when parties straggle.
  std::vector<std::size_t> cohort =
      pick_parties(round, config_.parties_per_round,
                   std::numeric_limits<std::size_t>::max());
  const std::size_t base_cohort = cohort.size();
  emit_phase(round, SessionPhase::kSelect, t);

  t = common::steady_now_ns();
  RoundRecord record;
  record.round = round;
  const double elapsed_s = train_cohort(round, cohort, record);
  for (const std::size_t p : cohort) party_in_flight_[p] = 0;
  emit_phase(round, SessionPhase::kTrainCohort, t);

  t = common::steady_now_ns();
  fold_outcomes(cohort, record, record.upload_bytes);
  std::vector<double>& aggregate = aggregator_.finalize();
  if (faults_on_) {
    // Under a fault plan the round's simulated length is the wave
    // schedule (per-wave maxima + backoffs), not the plain cohort max.
    record.round_time_s = elapsed_s;
  }
  emit_phase(round, SessionPhase::kFold, t);

  // Quorum rule: with fewer than ceil(min_quorum x cohort) responders
  // the fold is too degraded to trust — skip the server step (the
  // round still evaluates and advances; nothing throws).
  bool apply = true;
  if (faults_on_ && config_.faults.min_quorum > 0.0) {
    const auto quorum = static_cast<std::size_t>(std::ceil(
        config_.faults.min_quorum * static_cast<double>(base_cohort)));
    if (record.responded < quorum) {
      apply = false;
      record.quorum_skipped = true;
    }
  }

  t = common::steady_now_ns();
  record.download_bytes = server_step(aggregate, cohort, apply);
  emit_phase(round, SessionPhase::kServerStep, t);

  const RoundRecord& stored = finish_step(round, record);
  // Advance the simulated clock (drives the churn traces across
  // rounds).
  sim_time_s_ += stored.round_time_s;
  return stored;
}

}  // namespace flips::fl
