// Shared FL job vocabulary: the configs (FlJobConfig and its parts),
// Party, the per-round RoundRecord and the FlJobResult summary. The
// federation itself runs in fl::FederationSession (fl/session.h): one
// party-dispatch kernel (fl/session.cpp) driven by a sync round-barrier
// driver (fl/session_sync.cpp) or an async FedBuff driver
// (fl/session_async.cpp), one server step per advance().
//
// Selected parties train concurrently on a small worker pool
// (FlJobConfig::threads); every dispatch draws from a private RNG
// stream. The stepping thread then adds the updates to fl::Aggregator
// in cohort (sync) or arrival (async) order and folds them once; it
// also runs every other order-sensitive reduction (SCAFFOLD
// control-variate updates, loss averaging) — so results are
// bit-identical across thread counts. Delta buffers are
// leased from a fl::BufferArena and reused across rounds: the
// steady-state aggregation path performs no heap allocation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "data/synthetic.h"
#include "fl/selector.h"
#include "fl/server_optimizer.h"
#include "ml/model.h"
#include "ml/sgd.h"
#include "net/codec.h"
#include "net/device.h"
#include "net/faults.h"

namespace flips::fl {

enum class ClientAlgo {
  kSgd,       ///< plain local SGD (optionally with FedProx's mu)
  kScaffold,  ///< control-variate drift correction
  kFedDyn,    ///< dynamic-regularizer drift correction
};

const char* to_string(ClientAlgo algo);

enum class StragglerMode {
  kDropFraction,  ///< paper's emulation: each pick fails w.p. `rate`
  kDeadline,      ///< physics: miss if simulated duration > deadline_s
};

/// kDeadline applies to sync mode only: async has no round to bound
/// (the staleness cutoff subsumes the deadline), so an async session
/// rejects kDeadline with deadline_s > 0 at construction.
struct StragglerConfig {
  double rate = 0.0;
  StragglerMode mode = StragglerMode::kDropFraction;
  double deadline_s = 0.0;  ///< 0 = unbounded (kDeadline mode only)
};

enum class FederationMode {
  kSync,   ///< round barrier: the server steps once per full cohort
  kAsync,  ///< FedBuff-style: the server steps every K arrivals
};

const char* to_string(FederationMode mode);

/// Knobs for the buffered asynchronous mode (FederationMode::kAsync).
/// The session keeps `parties_per_round` parties in flight; the event
/// loop folds arrivals into a buffer and takes a server step every
/// `buffer_k` of them, discounting each update by
/// fl::staleness_discount(server steps since its dispatch) and
/// dropping updates staler than `max_staleness` outright.
struct AsyncConfig {
  /// Arrivals buffered per server step (0 = half the in-flight cohort,
  /// rounded up).
  std::size_t buffer_k = 0;
  /// Bounded staleness: updates dispatched more than this many server
  /// steps ago are dropped (and accounted in RoundRecord::dropped_stale).
  std::size_t max_staleness = 4;
};

enum class PrivacyMechanism {
  kNone,
  kDp,  ///< clip + Gaussian noise on the aggregate, RDP-accounted
};

struct DpParams {
  double clip_norm = 1.0;
  double noise_multiplier = 0.0;
  double delta = 1e-5;
};

struct PrivacyConfig {
  PrivacyMechanism mechanism = PrivacyMechanism::kNone;
  DpParams dp;
};

struct PartyProfile {
  double speed_factor = 1.0;  ///< local-training slowdown multiplier
  double network_mbps = 10.0;
  /// Device crash probability per dispatch; read only by the fault
  /// plan's crash stream (net/faults.h), so it acts only when a plan is
  /// on.
  double fault_rate = 0.0;
  /// Markov churn trace means (net/faults.h); 0 = this party never
  /// churns even when the fault plan's churn knob is on.
  double mean_up_s = 0.0;
  double mean_down_s = 0.0;

  static PartyProfile from_device(const net::Device& device) {
    PartyProfile profile;
    profile.speed_factor = device.compute_factor;
    profile.network_mbps = device.network_mbps;
    profile.fault_rate = device.fault_rate;
    profile.mean_up_s = device.mean_up_s;
    profile.mean_down_s = device.mean_down_s;
    return profile;
  }
};

class Party {
 public:
  Party(std::size_t id, data::Dataset dataset, PartyProfile profile)
      : id_(id), dataset_(std::move(dataset)), profile_(profile) {}

  std::size_t id() const { return id_; }
  const data::Dataset& dataset() const { return dataset_; }
  const PartyProfile& profile() const { return profile_; }
  std::size_t size() const { return dataset_.size(); }

 private:
  std::size_t id_;
  data::Dataset dataset_;
  PartyProfile profile_;
};

struct LocalSolverConfig {
  std::size_t epochs = 1;  ///< τ
  std::size_t batch_size = 32;
  ml::SgdConfig sgd;
  double prox_mu = 0.0;    ///< FedProx proximal strength (0 = off)
  ClientAlgo algo = ClientAlgo::kSgd;
  double feddyn_alpha = 0.1;
};

struct FlJobConfig {
  std::size_t rounds = 100;
  std::size_t parties_per_round = 10;  ///< Nr
  LocalSolverConfig local;
  ServerOptConfig server;
  StragglerConfig stragglers;
  PrivacyConfig privacy;
  std::uint64_t seed = 42;
  /// Worker threads for per-party local training and evaluation
  /// (0 = hardware concurrency). Parties are embarrassingly parallel
  /// within a round; each draws from a private round-seeded RNG stream
  /// and aggregation is applied in cohort order on one thread, so
  /// results are bit-identical for every thread count.
  std::size_t threads = 1;
  std::size_t eval_every = 1;
  double target_accuracy = 0.0;  ///< 0 = no target tracking
  /// Stepping discipline: kSync runs the round barrier; kAsync runs
  /// the FedBuff-style buffered event loop configured by `async`.
  FederationMode mode = FederationMode::kSync;
  AsyncConfig async;
  /// Simulated seconds of local compute per (sample x epoch) on a
  /// nominal device; scaled by each party's speed_factor.
  double compute_s_per_sample = 2e-3;
  /// Wire codec for updates (uplink) and the broadcast delta
  /// (downlink). kDense64 ships raw doubles. Lossy codecs (kQuant8 /
  /// kTopK) run with client-side error-feedback residuals; the server
  /// compresses its own per-round parameter delta with a server-side
  /// residual, applies the DECODED delta to the global model (so server
  /// and client replicas agree bit-for-bit), and the byte accounting
  /// charges the encoded sizes. Under DP the decoded uplink update is what gets
  /// clipped — selectors that read PartyFeedback::delta see the wire
  /// (decoded, clipped) update, i.e. exactly what the server sees.
  net::CodecConfig codec;
  /// Deterministic fault plan (churn / crashes / link faults) plus the
  /// recovery knobs (retry backoff, sync backfill budget, quorum). It
  /// is the only way a dispatch is unreachable, crashes or loses its
  /// uplink: the churn trace reads each profile's mean_up_s/mean_down_s
  /// and the crash stream folds its fault_rate in. Default-constructed
  /// = disabled, and then no dispatch fails (stragglers aside).
  net::FaultConfig faults;
};

struct RoundRecord {
  std::size_t round = 0;  ///< 1-based
  double balanced_accuracy = 0.0;
  std::vector<double> per_label_accuracy;
  std::size_t selected = 0;
  std::size_t responded = 0;
  double round_time_s = 0.0;
  double mean_train_loss = 0.0;
  /// Per-round communication accounting (codec-aware), consumed by
  /// observer sinks; FlJobResult's totals are their running sums.
  std::uint64_t upload_bytes = 0;    ///< update traffic this round
  std::uint64_t download_bytes = 0;  ///< broadcast traffic this round
  /// Async mode only: arrivals discarded by the bounded-staleness
  /// cutoff during this server step (counted toward `selected` but not
  /// `responded`).
  std::size_t dropped_stale = 0;
  /// Fault-plan tallies (FlJobConfig::faults; all zero when disabled).
  std::size_t crashed = 0;     ///< dispatches lost to churn/crash/link
  std::size_t retried = 0;     ///< async re-dispatches scheduled
  std::size_t backfilled = 0;  ///< sync replacement parties dispatched
  /// Sync only: the fold was skipped because fewer than
  /// min_quorum x cohort parties responded (the round still evaluates
  /// and advances — degraded, not crashed).
  bool quorum_skipped = false;
};

struct FairnessStats {
  double jain_index = 0.0;  ///< over per-party selection counts
};

struct FlJobResult {
  std::vector<RoundRecord> history;  ///< one record per round
  std::vector<double> final_parameters;
  double peak_accuracy = 0.0;
  std::uint64_t total_bytes = 0;  ///< download_bytes + upload_bytes
  std::uint64_t download_bytes = 0;  ///< broadcast traffic (codec-aware)
  std::uint64_t upload_bytes = 0;    ///< update traffic (codec-aware)
  double epsilon_spent = 0.0;     ///< DP budget (0 when DP off)
  FairnessStats fairness;
  /// First round after which every party has been selected >= once.
  std::optional<std::size_t> coverage_round;
  std::optional<double> time_to_target_s;
  double total_time_s = 0.0;
  std::optional<std::size_t> rounds_to_target;
};

}  // namespace flips::fl
