#include "fl/session.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/clock.h"
#include "common/stats.h"

namespace flips::fl {

namespace {

/// Simulated seconds of local compute per (sample x epoch) on a nominal
/// device; scaled by each party's speed_factor.
constexpr double kComputeSPerSample = 2e-3;
/// FedDyn's dynamic-regularizer strength (Acar et al.'s alpha).
constexpr double kFedDynAlpha = 0.1;

struct EvalResult {
  double balanced_accuracy = 0.0;
  std::vector<double> per_label_accuracy;
};

/// Balanced accuracy over the test set. Predictions are computed in
/// parallel chunks (each chunk forwards through its own clone of the
/// model, since layers cache activations) into per-row slots; the
/// per-class tally runs on one thread, so the result does not depend
/// on the chunking.
EvalResult evaluate(const ml::Sequential& model, const ml::Tensor& features,
                    const std::vector<std::uint32_t>& labels,
                    std::size_t num_classes, common::ThreadPool& pool) {
  EvalResult eval;
  const std::size_t n = features.rows();
  if (n == 0) return eval;
  eval.per_label_accuracy.assign(num_classes, 0.0);
  std::vector<double> totals(num_classes, 0.0);

  std::vector<std::uint32_t> preds(n, 0);
  // Fixed chunk granularity, not pool.size()-derived. Every row's
  // logits are one fixed chain wherever the row sits in its chunk
  // (ml/kernels.h), so the chunking cannot change results; a constant
  // size keeps the work split the same for every thread count and each
  // full chunk a whole number of the dense kernel's 4-row tiles. The
  // pool merely distributes the chunks.
  constexpr std::size_t kEvalChunkRows = 64;
  const std::size_t num_chunks = (n + kEvalChunkRows - 1) / kEvalChunkRows;
  // Scratch models are recycled through a small checkout stack so the
  // number of deep clones is bounded by the worker count, not the
  // chunk count (a clone exists only to give each in-flight chunk
  // private activation buffers).
  std::vector<std::unique_ptr<ml::Sequential>> scratch_models;
  std::mutex scratch_mutex;
  pool.parallel_for(num_chunks, [&](std::size_t c) {
    const std::size_t begin = c * kEvalChunkRows;
    const std::size_t end = std::min(n, begin + kEvalChunkRows);
    if (begin >= end) return;
    std::unique_ptr<ml::Sequential> local;
    {
      std::lock_guard<std::mutex> lock(scratch_mutex);
      if (!scratch_models.empty()) {
        local = std::move(scratch_models.back());
        scratch_models.pop_back();
      }
    }
    if (!local) local = std::make_unique<ml::Sequential>(model);
    ml::Tensor slice(end - begin, features.cols());
    std::memcpy(slice.data(), features.row(begin),
                slice.size() * sizeof(double));
    const ml::Tensor& logits = local->forward(slice);
    for (std::size_t i = begin; i < end; ++i) {
      const double* row = logits.row(i - begin);
      std::size_t best = 0;
      for (std::size_t k = 1; k < logits.cols(); ++k) {
        if (row[k] > row[best]) best = k;
      }
      preds[i] = static_cast<std::uint32_t>(best);
    }
    std::lock_guard<std::mutex> lock(scratch_mutex);
    scratch_models.push_back(std::move(local));
  });

  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t truth = labels[i];
    totals[truth] += 1.0;
    if (preds[i] == truth) eval.per_label_accuracy[truth] += 1.0;
  }
  std::size_t live_classes = 0;
  for (std::size_t c = 0; c < num_classes; ++c) {
    if (totals[c] > 0.0) {
      eval.per_label_accuracy[c] /= totals[c];
      eval.balanced_accuracy += eval.per_label_accuracy[c];
      ++live_classes;
    }
  }
  if (live_classes > 0) {
    eval.balanced_accuracy /= static_cast<double>(live_classes);
  }
  return eval;
}

/// Seed salt for the session's fault plan: its churn/crash/link streams
/// must never alias the party training streams.
constexpr std::uint64_t kFaultPlanSalt = 0xFA17'0000'0000'0000ull;

}  // namespace

// ---------------------------------------------------------------------
// FederationSession

FederationSession::FederationSession(
    FlJobConfig config, std::shared_ptr<const std::vector<Party>> parties,
    data::Dataset global_test, ml::Sequential model,
    std::unique_ptr<ParticipantSelector> selector,
    common::ThreadPool* shared_pool)
    : config_(std::move(config)),
      parties_(std::move(parties)),
      global_test_(std::move(global_test)),
      model_(std::move(model)),
      selector_(std::move(selector)),
      shared_pool_(shared_pool),
      selection_counts_(parties_->size(), 0),
      rng_(config_.seed),
      server_(config_.server, model_.num_parameters()),
      local_sgd_(config_.local.sgd),
      codec_(config_.codec),
      broadcast_rng_(common::mix_seed(config_.seed, 0, 0xB0ADCA57ull)) {
  const std::size_t n = parties_->size();
  inert_ = n == 0 || config_.rounds == 0;
  if (shared_pool_ == nullptr) {
    owned_pool_ = std::make_unique<common::ThreadPool>(config_.threads);
  }

  global_params_ = model_.parameters();
  dim_ = global_params_.size();
  model_bytes_ = static_cast<std::uint64_t>(dim_ * sizeof(double));

  // Drift-correction state (lazily touched per party).
  if (config_.local.algo == ClientAlgo::kScaffold) {
    scaffold_ci_.assign(n, {});
    scaffold_c_.assign(dim_, 0.0);
  } else if (config_.local.algo == ClientAlgo::kFedDyn) {
    feddyn_hi_.assign(n, {});
  }

  dp_on_ = config_.privacy.mechanism == PrivacyMechanism::kDp &&
           config_.privacy.dp.noise_multiplier > 0.0;
  party_in_flight_.assign(n, 0);

  codec_on_ = config_.codec.codec != net::Codec::kDense64;
  if (codec_on_) {
    ef_residuals_.assign(n, {});
    server_residual_.assign(dim_, 0.0);
  }

  config_.faults.validate();
  faults_on_ = config_.faults.enabled();
  if (faults_on_) {
    faults_ = net::FaultPlan(
        common::mix_seed(config_.seed, kFaultPlanSalt, 0), config_.faults,
        n);
  }

  if (config_.mode == FederationMode::kAsync) {
    // Round-synchronous algorithms need every cohort member to train
    // against the same server state and fold at the same barrier —
    // structurally incompatible with buffered stepping.
    if (config_.local.algo != ClientAlgo::kSgd) {
      throw std::invalid_argument(
          "FederationSession: async mode supports ClientAlgo::kSgd only "
          "(SCAFFOLD/FedDyn are round-synchronous)");
    }
    if (config_.stragglers.mode == StragglerMode::kDeadline &&
        config_.stragglers.deadline_s > 0.0) {
      // There is no round to bound in async mode: slow updates are
      // discounted and eventually dropped by the staleness cutoff, so a
      // configured deadline would be silently ignored. Fail fast like
      // SCAFFOLD rather than run a config that means nothing.
      throw std::invalid_argument(
          "FederationSession: StragglerMode::kDeadline has no effect in "
          "async mode (the bounded-staleness cutoff subsumes it) — use "
          "async.max_staleness instead, or clear deadline_s");
    }
    const std::size_t cohort = std::max<std::size_t>(
        1, std::min(config_.parties_per_round, n == 0 ? 1 : n));
    buffer_k_ = config_.async.buffer_k > 0 ? config_.async.buffer_k
                                           : (cohort + 1) / 2;
    buffer_k_ = std::min(buffer_k_, cohort);
    inflight_.resize(cohort);
    free_slots_.resize(cohort);
    // Pop order is cosmetic (slot ids never feed the math) but keep it
    // deterministic: slot 0 dispatches first.
    for (std::size_t k = 0; k < cohort; ++k) {
      free_slots_[k] = cohort - 1 - k;
    }
  }
}

FederationSession::FederationSession(
    FlJobConfig config, std::vector<Party> parties,
    data::Dataset global_test, ml::Sequential model,
    std::unique_ptr<ParticipantSelector> selector,
    common::ThreadPool* shared_pool)
    : FederationSession(
          std::move(config),
          std::make_shared<const std::vector<Party>>(std::move(parties)),
          std::move(global_test), std::move(model), std::move(selector),
          shared_pool) {}

FederationSession::~FederationSession() = default;

void FederationSession::add_observer(RoundObserver* observer) {
  if (observer != nullptr) observers_.push_back(observer);
}

void FederationSession::add_observer(
    std::shared_ptr<RoundObserver> observer) {
  if (!observer) return;
  observers_.push_back(observer.get());
  owned_observers_.push_back(std::move(observer));
}

bool FederationSession::done() const {
  return inert_ || exhausted_ || next_round_ > config_.rounds;
}

void FederationSession::evaluate_round(std::size_t round,
                                       RoundRecord& record) {
  // Every eval_every rounds; carried forward in between.
  const bool eval_now = round == 1 || round == config_.rounds ||
                        config_.eval_every == 0 ||
                        round % config_.eval_every == 0;
  if (eval_now) {
    const EvalResult eval =
        evaluate(model_, global_test_.features, global_test_.labels,
                 global_test_.num_classes, pool());
    record.balanced_accuracy = eval.balanced_accuracy;
    record.per_label_accuracy = eval.per_label_accuracy;
  } else if (!history_.empty()) {
    record.balanced_accuracy = history_.back().balanced_accuracy;
    record.per_label_accuracy = history_.back().per_label_accuracy;
  }
}

const RoundRecord& FederationSession::advance() {
  if (done()) {
    throw std::logic_error("FederationSession::advance: session done");
  }
  return config_.mode == FederationMode::kAsync ? async_step() : sync_step();
}

void FederationSession::emit_phase(std::size_t round, SessionPhase phase,
                                   std::uint64_t start_ns) {
  PhaseRecord record;
  record.phase = phase;
  record.start_ns = start_ns;
  record.end_ns = common::steady_now_ns();
  record.sim_time_s = sim_time_s_;
  for (RoundObserver* obs : observers_) {
    obs->on_phase(round, record);
  }
}

FederationSession::Dispatch FederationSession::dispatch_party(
    std::uint64_t stream_key, std::uint64_t event, std::size_t p, double lr,
    bool churned) {
  const Party& party = (*parties_)[p];
  Dispatch out;
  out.event = event;
  out.churned = churned;
  PartyFeedback& fb = out.fb;
  fb.party_id = p;
  fb.num_samples = party.size();
  if (churned) {
    // Unreachable at dispatch: the server notices immediately — no
    // compute, no wire time.
    out.fault_failed = true;
    return out;
  }

  common::Rng prng(stream_key);
  fb.duration_s =
      net::simulated_duration_s(
          party.profile().speed_factor, static_cast<double>(party.size()),
          static_cast<double>(config_.local.epochs), kComputeSPerSample,
          static_cast<double>(model_bytes_), party.profile().network_mbps) *
      prng.uniform(0.85, 1.15);

  // (kDeadline never reaches an async dispatch: construction rejects
  // it, since the bounded-staleness cutoff subsumes it.)
  bool responds = true;
  if (config_.stragglers.mode == StragglerMode::kDropFraction) {
    if (prng.uniform() < config_.stragglers.rate) responds = false;
  } else if (config_.stragglers.deadline_s > 0.0 &&
             fb.duration_s > config_.stragglers.deadline_s) {
    responds = false;
  }
  // The fault plan is the only reliability model: with it off, every
  // dispatch that beats the straggler rules responds.
  if (faults_on_ && responds) {
    if (faults_.crashes(p, event, party.profile().fault_rate)) {
      // Mid-training crash: the full simulated duration elapses before
      // the server gives up on the dispatch, but no update lands (and
      // the party burns no persistent client state).
      responds = false;
      out.fault_failed = true;
    } else if (const net::LinkFault link = faults_.transfer(p, event);
               link.failed) {
      // Uplink lost in transit: full duration consumed and the encoded
      // update's bytes are charged as waste (the dense size — the
      // failed transfer never reaches the codec path, which also keeps
      // the party's error-feedback residual untouched).
      responds = false;
      out.fault_failed = true;
      out.wire_bytes = model_bytes_;
    } else {
      fb.duration_s *= link.slowdown;
    }
  }
  fb.responded = responds;
  if (!responds || party.size() == 0) return out;

  // ---- Local training (only responders pay the compute). Shared
  // state (model_, global_params_, round-start control variates) is
  // read-only here.
  out.trained = true;
  ml::Sequential local = model_;
  std::vector<double>& w = local.mutable_parameters();
  const auto& dataset = party.dataset();
  const std::size_t feature_dim = dataset.features.cols();
  std::vector<std::size_t> order(dataset.size());
  std::iota(order.begin(), order.end(), 0);

  const double mu = config_.local.prox_mu;
  const double* ci = nullptr;  // round-start SCAFFOLD variate
  if (config_.local.algo == ClientAlgo::kScaffold &&
      !scaffold_ci_[p].empty()) {
    ci = scaffold_ci_[p].data();
  }
  const double* hi = nullptr;  // round-start FedDyn regularizer
  if (config_.local.algo == ClientAlgo::kFedDyn && !feddyn_hi_[p].empty()) {
    hi = feddyn_hi_[p].data();
  }

  ml::Tensor batch;
  std::vector<std::uint32_t> batch_labels;
  double batch_loss_sum = 0.0;
  double batch_loss_sq_sum = 0.0;
  std::size_t steps = 0;
  for (std::size_t epoch = 0; epoch < config_.local.epochs; ++epoch) {
    prng.shuffle(order);
    for (std::size_t start = 0; start < order.size();
         start += config_.local.batch_size) {
      const std::size_t stop =
          std::min(order.size(), start + config_.local.batch_size);
      batch.resize(stop - start, feature_dim);
      batch_labels.resize(stop - start);
      for (std::size_t i = start; i < stop; ++i) {
        std::memcpy(batch.row(i - start), dataset.features.row(order[i]),
                    feature_dim * sizeof(double));
        batch_labels[i - start] = dataset.labels[order[i]];
      }
      const double loss = local.train_step_gradient(batch, batch_labels);
      batch_loss_sum += loss;
      batch_loss_sq_sum += loss * loss;
      ++steps;

      // Fused correction + SGD step, straight on the model's flat
      // parameter buffer (no gradient copy, no copy-back).
      const std::vector<double>& grad = local.gradients();
      switch (config_.local.algo) {
        case ClientAlgo::kSgd:
          if (mu > 0.0) {
            for (std::size_t i = 0; i < dim_; ++i) {
              w[i] -= lr * (grad[i] + mu * (w[i] - global_params_[i]));
            }
          } else {
            for (std::size_t i = 0; i < dim_; ++i) {
              w[i] -= lr * grad[i];
            }
          }
          break;
        case ClientAlgo::kScaffold:
          for (std::size_t i = 0; i < dim_; ++i) {
            double g = grad[i] + scaffold_c_round_[i] -
                       (ci != nullptr ? ci[i] : 0.0);
            if (mu > 0.0) g += mu * (w[i] - global_params_[i]);
            w[i] -= lr * g;
          }
          break;
        case ClientAlgo::kFedDyn:
          for (std::size_t i = 0; i < dim_; ++i) {
            double g = grad[i] + kFedDynAlpha * (w[i] - global_params_[i]) -
                       (hi != nullptr ? hi[i] : 0.0);
            if (mu > 0.0) g += mu * (w[i] - global_params_[i]);
            w[i] -= lr * g;
          }
          break;
      }
    }
  }
  out.delta = arena_.lease(dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    out.delta[i] = w[i] - global_params_[i];
  }
  if (steps > 0) {
    fb.mean_loss = batch_loss_sum / static_cast<double>(steps);
    fb.loss_rms = std::sqrt(batch_loss_sq_sum / static_cast<double>(steps));
  }

  // SCAFFOLD option-II variate refresh (Karimireddy et al. Eq. 5);
  // depends only on round-start state, so it can run in parallel. Uses
  // the RAW delta — client-side state must not see wire loss. The
  // stepping thread folds it into the server variate in cohort order.
  if (config_.local.algo == ClientAlgo::kScaffold && steps > 0) {
    out.scaffold_ci_new.resize(dim_);
    const double inv = 1.0 / (static_cast<double>(steps) * lr);
    for (std::size_t i = 0; i < dim_; ++i) {
      out.scaffold_ci_new[i] = (ci != nullptr ? ci[i] : 0.0) -
                               scaffold_c_round_[i] - out.delta[i] * inv;
    }
  }
  // FedDyn regularizer refresh: per-party state touched only by its
  // owner (cohorts are deduped), so it is safe — and deterministic — to
  // update here. Raw delta, same as SCAFFOLD.
  if (config_.local.algo == ClientAlgo::kFedDyn) {
    auto& hi_state = feddyn_hi_[p];
    if (hi_state.empty()) hi_state.assign(dim_, 0.0);
    for (std::size_t i = 0; i < dim_; ++i) {
      hi_state[i] -= kFedDynAlpha * out.delta[i];
    }
  }

  // ---- Wire codec (client side): error feedback + encode + decode.
  // out.delta becomes the decoded update — exactly what the server
  // receives. A party is dispatched at most once at a time, so only
  // this dispatch touches ef_residuals_[p].
  if (codec_on_) {
    thread_local net::EncodedUpdate enc;
    thread_local net::CodecWorkspace ws;
    auto& residual = ef_residuals_[p];
    std::vector<double> pre = arena_.lease(dim_);
    if (residual.empty()) {
      std::memcpy(pre.data(), out.delta.data(), dim_ * sizeof(double));
    } else {
      for (std::size_t i = 0; i < dim_; ++i) {
        pre[i] = out.delta[i] + residual[i];
      }
    }
    codec_.encode(pre, prng, enc, ws);
    out.wire_bytes = enc.wire_bytes();
    codec_.decode(enc, out.delta);
    if (residual.empty()) residual.assign(dim_, 0.0);
    for (std::size_t i = 0; i < dim_; ++i) {
      residual[i] = pre[i] - out.delta[i];
    }
    arena_.release(std::move(pre));
  } else {
    out.wire_bytes = model_bytes_;
  }

  if (dp_on_) {
    privacy::clip_to_norm(out.delta, config_.privacy.dp.clip_norm);
  }
  return out;
}

double FederationSession::fold_weight(const PartyFeedback& fb) const {
  // DP-FedAvg aggregates clipped updates with EQUAL weights: under
  // sample-count weighting one large party could dominate the mean with
  // weight ~1, and the sensitivity clip_norm / cohort (which the noise
  // sigma assumes) would be violated.
  if (dp_on_) return 1.0;
  return fb.num_samples > 0 ? static_cast<double>(fb.num_samples) : 1.0;
}

std::vector<std::size_t> FederationSession::pick_parties(std::size_t round,
                                                         std::size_t want,
                                                         std::size_t limit) {
  // Selectors should return distinct, valid ids; a pick that names no
  // party, repeats one or names one already dispatched is dropped.
  std::vector<std::size_t> kept;
  for (const std::size_t p : selector_->select(round, want)) {
    if (kept.size() == limit) break;
    if (p >= parties_->size() || party_in_flight_[p] != 0) continue;
    party_in_flight_[p] = 1;
    kept.push_back(p);
  }
  return kept;
}

void FederationSession::begin_dispatch(Dispatch& d, std::size_t p,
                                       double time_s) {
  d.fb.party_id = p;
  d.event = dispatch_seq_++;
  // Stateful churn cursor: stepping thread only, at dispatch time. The
  // workers then use only the plan's stateless crash and link streams.
  const PartyProfile& profile = (*parties_)[p].profile();
  d.churned = faults_on_ && !faults_.available(p, time_s, profile.mean_up_s,
                                               profile.mean_down_s);
}

void FederationSession::add_dp_noise(std::vector<double>& aggregate) {
  if (!dp_on_) return;
  // Weighted-mean sensitivity: one clipped update moves the aggregate by
  // at most clip_norm * w_i / sum(w), so sigma is calibrated on the
  // LARGEST folded weight. Sync weights are all 1.0 (fold_weight), which
  // gives clip_norm / K; async weights are staleness discounts, and a
  // fresh update among stale ones has influence above clip_norm / K.
  // sigma / sensitivity stays noise_multiplier either way, so the
  // accountant's per-step z is unchanged.
  const double sigma = config_.privacy.dp.noise_multiplier *
                       config_.privacy.dp.clip_norm *
                       aggregator_.max_weight() / aggregator_.total_weight();
  privacy::add_gaussian_noise(aggregate, sigma, rng_);
  accountant_.step(config_.privacy.dp.noise_multiplier);
}

void FederationSession::emit_retry(std::size_t round, std::size_t party,
                                   std::size_t attempt, double backoff_s,
                                   double time_s) {
  RetryRecord retry;
  retry.party_id = party;
  retry.attempt = attempt;
  retry.backoff_s = backoff_s;
  retry.time_s = time_s;
  for (RoundObserver* obs : observers_) {
    obs->on_retry(round, retry);
  }
}

const RoundRecord& FederationSession::finish_step(std::size_t step,
                                                  RoundRecord& record) {
  const std::uint64_t t = common::steady_now_ns();
  evaluate_round(step, record);
  emit_phase(step, SessionPhase::kEval, t);
  history_.push_back(std::move(record));
  const RoundRecord& stored = history_.back();

  for (const PartyFeedback& fb : feedback_) {
    if (selection_counts_[fb.party_id]++ == 0) ++covered_;
    for (RoundObserver* obs : observers_) {
      obs->on_party_feedback(step, fb);
    }
  }
  if (!coverage_round_ && covered_ == selection_counts_.size()) {
    coverage_round_ = step;
  }
  for (RoundObserver* obs : observers_) {
    obs->on_round_end(step, stored);
  }

  selector_->report_round(step, feedback_);
  // Selectors that keep deltas copy them in report_round; the arena
  // buffers come home so the next step leases allocation-free.
  for (PartyFeedback& fb : feedback_) {
    arena_.release(std::move(fb.delta));
  }
  ++next_round_;
  return stored;
}

FlJobResult FederationSession::result() const {
  FlJobResult result;
  if (inert_) return result;
  result.history = history_;
  result.final_parameters = global_params_;
  // Running sums in round order, so time_to_target_s is exactly the
  // simulated clock at the end of the target round.
  for (const RoundRecord& r : history_) {
    result.download_bytes += r.download_bytes;
    result.upload_bytes += r.upload_bytes;
    result.total_bytes += r.download_bytes + r.upload_bytes;
    result.total_time_s += r.round_time_s;
    result.peak_accuracy = std::max(result.peak_accuracy, r.balanced_accuracy);
    if (!result.rounds_to_target && config_.target_accuracy > 0.0 &&
        r.balanced_accuracy >= config_.target_accuracy) {
      result.rounds_to_target = r.round;
      result.time_to_target_s = result.total_time_s;
    }
  }
  result.fairness.jain_index = common::jain_index(selection_counts_);
  result.coverage_round = coverage_round_;
  if (dp_on_) {
    result.epsilon_spent = accountant_.epsilon(config_.privacy.dp.delta);
  }
  return result;
}

}  // namespace flips::fl
