// The async (FedBuff) driver: keeps `parties_per_round` dispatches in
// flight, pops their arrivals in simulated-time order, folds each with
// its staleness discount and steps the server every buffer_k folds.
// Every dispatch, first try or retry, is scheduled on the stepping
// thread when it is sent; the step's one training pass runs after the
// arrival loop, before the fold.
#include <utility>
#include <vector>

#include "common/clock.h"
#include "fl/session.h"

namespace flips::fl {

std::size_t FederationSession::refill_inflight(std::size_t step) {
  if (free_slots_.empty()) return 0;
  std::size_t dispatched = 0;
  for (const std::size_t p : pick_parties(step, config_.parties_per_round,
                                          free_slots_.size())) {
    const std::size_t slot = free_slots_.back();
    free_slots_.pop_back();
    InFlight& f = inflight_[slot];
    f.attempt = 0;
    f.dispatch_version = server_version_;
    schedule_dispatch(f, p, step, sim_time_s_);
    arrivals_.push({sim_time_s_ + f.fb.duration_s, f.event, slot});
    ++dispatched;
  }
  return dispatched;
}

const RoundRecord& FederationSession::async_step() {
  const std::size_t step = next_round_;
  for (RoundObserver* obs : observers_) {
    obs->on_round_begin(step);
  }

  const double step_start_s = sim_time_s_;
  std::uint64_t t = common::steady_now_ns();
  const std::size_t dispatched = refill_inflight(step);
  feedback_.clear();
  RoundRecord record;
  record.round = step;

  if (arrivals_.empty()) {
    // Nothing in flight and nothing dispatchable: the session cannot
    // make progress (degenerate selector). Record an empty step and
    // stop.
    emit_phase(step, SessionPhase::kTrainCohort, t);
    exhausted_ = true;
    return finish_step(step, record);
  }

  std::uint64_t up_bytes = 0;
  std::size_t arrivals_seen = 0;
  std::size_t redispatched = 0;  ///< fault-plan retries this step
  // Folded arrivals in pop order. Their slots stay occupied until the
  // server step: the aggregator borrows their delta buffers until
  // finalize().
  struct Folded {
    std::size_t slot = 0;
    std::size_t feedback_index = 0;
    double weight = 0.0;
  };
  std::vector<Folded> folded;

  while (folded.size() < buffer_k_ && !arrivals_.empty()) {
    const net::ArrivalEvent ev = arrivals_.pop();
    sim_time_s_ = ev.time_s;
    InFlight& f = inflight_[ev.slot];
    const std::size_t staleness = server_version_ - f.dispatch_version;
    ++arrivals_seen;

    ArrivalRecord arec;
    arec.party_id = f.fb.party_id;
    arec.seq = f.event;
    arec.time_s = ev.time_s;
    arec.staleness = staleness;
    if (!f.trained) {
      arec.outcome = ArrivalOutcome::kFailed;
    } else if (staleness > config_.async.max_staleness) {
      arec.outcome = ArrivalOutcome::kDroppedStale;
    } else {
      arec.outcome = ArrivalOutcome::kFolded;
      arec.weight = fold_weight(f.fb) * staleness_discount(staleness);
    }
    for (RoundObserver* obs : observers_) {
      obs->on_arrival(step, arec);
    }

    const std::size_t pid = f.fb.party_id;
    switch (arec.outcome) {
      case ArrivalOutcome::kFolded:
        // The update may still be pending (dispatched this step); its
        // feedback entry is filled after the training pass.
        folded.push_back({ev.slot, feedback_.size(), arec.weight});
        feedback_.emplace_back();
        break;
      case ArrivalOutcome::kDroppedStale:
        // The bytes transited even though the fold discards them;
        // selectors see a non-responder (the server learned nothing).
        up_bytes += f.wire_bytes;
        ++record.dropped_stale;
        f.fb.responded = false;
        arena_.release(std::move(f.delta));
        feedback_.push_back(std::move(f.fb));
        party_in_flight_[pid] = 0;
        free_slots_.push_back(ev.slot);
        break;
      case ArrivalOutcome::kFailed:
        // The failure notice reaches the selector either way; a lost
        // uplink additionally charges its wasted bytes. Only fault
        // failures are retried and counted as crashed (as in sync
        // backfill): a straggler or an empty party is no fault.
        up_bytes += f.wire_bytes;
        feedback_.push_back(f.fb);
        if (f.fault_failed && f.attempt < config_.faults.max_retries) {
          // Retry the slot in place: a fresh dispatch of the same
          // party, scheduled after an exponential backoff. It trains in
          // this step's training pass, against the same server state
          // as every other dispatch of the step.
          ++record.crashed;
          ++record.retried;
          ++redispatched;
          const std::size_t attempt = ++f.attempt;
          const double backoff_s = config_.faults.backoff_s(attempt - 1);
          emit_retry(step, pid, attempt, backoff_s, sim_time_s_);
          // The churn trace is re-checked at the retry time — backoff
          // is also how a churned party waits out its downtime.
          const double redispatch_s = sim_time_s_ + backoff_s;
          f.dispatch_version = server_version_;
          schedule_dispatch(f, pid, step, redispatch_s);
          arrivals_.push(
              {redispatch_s + f.fb.duration_s, f.event, ev.slot});
        } else {
          if (f.fault_failed) ++record.crashed;
          party_in_flight_[pid] = 0;
          free_slots_.push_back(ev.slot);
        }
        break;
    }
  }

  // The model does not change before the server step, so training every
  // dispatch of the step here, after the pops, gives the same updates
  // as training each one when it was sent.
  train_pending(step);
  emit_phase(step, SessionPhase::kTrainCohort, t);

  t = common::steady_now_ns();
  aggregator_.begin_round(dim_);
  double loss_sum = 0.0;
  for (const Folded& fold : folded) {
    const InFlight& f = inflight_[fold.slot];
    up_bytes += f.wire_bytes;
    loss_sum += f.fb.mean_loss;
    aggregator_.add(fold.weight, f.delta);
    feedback_[fold.feedback_index] = f.fb;  // delta attached after finalize
  }
  std::vector<double>& aggregate = aggregator_.finalize();
  emit_phase(step, SessionPhase::kFold, t);

  record.selected = arrivals_seen;
  record.responded = folded.size();
  record.round_time_s = sim_time_s_ - step_start_s;
  record.upload_bytes = up_bytes;
  // Async downlink: every dispatch ships the full model (clients may
  // rejoin at any version, so there is no shared broadcast delta);
  // fault-plan retries re-ship it.
  record.download_bytes = model_bytes_ * (dispatched + redispatched);
  record.mean_train_loss =
      folded.empty() ? 0.0 : loss_sum / static_cast<double>(folded.size());

  t = common::steady_now_ns();
  if (aggregator_.contributions() > 0) {
    add_dp_noise(aggregate);
    server_.apply(model_.mutable_parameters(), aggregate);
    // Staleness is measured in APPLIED steps: an empty flush does not
    // age in-flight updates.
    ++server_version_;
  }
  emit_phase(step, SessionPhase::kServerStep, t);

  // Hand the folded deltas to their feedback entries now that the
  // aggregator released its borrow.
  for (const Folded& fold : folded) {
    feedback_[fold.feedback_index].delta =
        std::move(inflight_[fold.slot].delta);
  }

  const RoundRecord& stored = finish_step(step, record);
  for (const Folded& fold : folded) {
    party_in_flight_[inflight_[fold.slot].fb.party_id] = 0;
    free_slots_.push_back(fold.slot);
  }
  return stored;
}

}  // namespace flips::fl
