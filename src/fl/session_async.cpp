// The async (FedBuff) driver: keeps `parties_per_round` dispatches in
// flight, pops their arrivals in simulated-time order, folds each with
// its staleness discount and steps the server every buffer_k folds.
// Every dispatch, first try or retry, goes through begin_dispatch() and
// the shared dispatch kernel.
#include <utility>

#include "common/clock.h"
#include "fl/session.h"

namespace flips::fl {

namespace {

/// RNG-stream salt for async dispatches: streams are keyed by the
/// monotone dispatch sequence (not the step number), so a party
/// re-dispatched at the same server version still draws fresh noise.
constexpr std::uint64_t kAsyncStreamSalt = 0x0A57'0000'0000'0000ull;

}  // namespace

std::size_t FederationSession::refill_inflight(std::size_t step) {
  if (free_slots_.empty()) return 0;
  // Stepping thread assigns slots and dispatch metadata; the worker
  // pool then trains the whole batch against the CURRENT server state
  // (every dispatch in the batch shares one model version, so training
  // eagerly at dispatch time is equivalent to training on arrival).
  std::vector<std::size_t> batch;
  for (const std::size_t p : pick_parties(step, config_.parties_per_round,
                                          free_slots_.size())) {
    const std::size_t slot = free_slots_.back();
    free_slots_.pop_back();
    InFlight& f = inflight_[slot];
    f.attempt = 0;
    f.dispatch_version = server_version_;
    begin_dispatch(f, p, sim_time_s_);
    batch.push_back(slot);
  }
  if (batch.empty()) return 0;

  const double lr = local_sgd_.learning_rate_for_round(step);
  pool().parallel_for(batch.size(), [&](std::size_t b) {
    run_dispatch(inflight_[batch[b]], lr);
  });

  for (const std::size_t slot : batch) {
    const InFlight& f = inflight_[slot];
    arrivals_.push({sim_time_s_ + f.fb.duration_s, f.event, slot});
  }
  return batch.size();
}

void FederationSession::run_dispatch(InFlight& f, double lr) {
  const std::size_t p = f.fb.party_id;
  static_cast<Dispatch&>(f) = dispatch_party(
      common::mix_seed(config_.seed, kAsyncStreamSalt ^ f.event, p),
      f.event, p, lr, f.churned);
}

const RoundRecord& FederationSession::async_step() {
  const std::size_t step = next_round_;
  for (RoundObserver* obs : observers_) {
    obs->on_round_begin(step);
  }

  const double step_start_s = sim_time_s_;
  std::uint64_t t = common::steady_now_ns();
  const std::size_t dispatched = refill_inflight(step);
  emit_phase(step, SessionPhase::kTrainCohort, t);

  if (arrivals_.empty()) {
    // Nothing in flight and nothing dispatchable: the session cannot
    // make progress (degenerate selector). Record an empty step and
    // stop.
    exhausted_ = true;
    feedback_.clear();
    RoundRecord record;
    record.round = step;
    return finish_step(step, record);
  }

  t = common::steady_now_ns();
  aggregator_.begin_round(dim_);
  feedback_.clear();
  RoundRecord record;
  record.round = step;
  std::uint64_t up_bytes = 0;
  std::size_t arrivals_seen = 0;
  std::size_t folded = 0;
  std::size_t redispatched = 0;  ///< fault-plan retries this step
  double loss_sum = 0.0;
  // Folded slots stay occupied until the server step: the aggregator
  // borrows their delta buffers until finalize().
  std::vector<std::pair<std::size_t, std::size_t>> folded_slots;

  while (folded < buffer_k_ && !arrivals_.empty()) {
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
        up_bytes += f.wire_bytes;
        loss_sum += f.fb.mean_loss;
        aggregator_.add(arec.weight, f.delta);
        folded_slots.emplace_back(ev.slot, feedback_.size());
        feedback_.push_back(f.fb);  // delta attached after finalize
        ++folded;
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
          // party against the CURRENT server state, scheduled after an
          // exponential backoff. Runs inline on the stepping thread —
          // the result only depends on the new event-keyed stream, so
          // it is bit-identical to a worker execution.
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
          begin_dispatch(f, pid, redispatch_s);
          run_dispatch(f, local_sgd_.learning_rate_for_round(step));
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

  std::vector<double>& aggregate = aggregator_.finalize();
  emit_phase(step, SessionPhase::kFold, t);

  record.selected = arrivals_seen;
  record.responded = folded;
  record.round_time_s = sim_time_s_ - step_start_s;
  record.upload_bytes = up_bytes;
  // Async downlink: every dispatch ships the full model (clients may
  // rejoin at any version, so there is no shared broadcast delta);
  // fault-plan retries re-ship it.
  record.download_bytes = model_bytes_ * (dispatched + redispatched);
  record.mean_train_loss =
      folded > 0 ? loss_sum / static_cast<double>(folded) : 0.0;

  t = common::steady_now_ns();
  if (aggregator_.contributions() > 0) {
    add_dp_noise(aggregate);
    server_.apply(global_params_, aggregate);
    model_.set_parameters(global_params_);
    // Staleness is measured in APPLIED steps: an empty flush does not
    // age in-flight updates.
    ++server_version_;
  }
  emit_phase(step, SessionPhase::kServerStep, t);

  // Hand the folded deltas to their feedback entries now that the
  // aggregator released its borrow.
  for (const auto& [slot, idx] : folded_slots) {
    feedback_[idx].delta = std::move(inflight_[slot].delta);
  }

  const RoundRecord& stored = finish_step(step, record);
  for (const auto& [slot, idx] : folded_slots) {
    party_in_flight_[inflight_[slot].fb.party_id] = 0;
    free_slots_.push_back(slot);
  }
  return stored;
}

}  // namespace flips::fl
