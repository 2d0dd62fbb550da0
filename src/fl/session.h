// The steppable, event-driven federation driver. FederationSession
// holds one FL job's full cross-step state — global model replica,
// server optimizer moments, client drift-correction state (SCAFFOLD /
// FedDyn), codec error-feedback residuals, the zero-copy aggregation
// plane — and exposes it one server step at a time:
//
//   FederationSession session(config, parties, test, model, selector);
//   session.add_observer(&my_sink);
//   while (!session.done()) session.advance();
//   FlJobResult result = session.result();
//
// Every party dispatch, in either mode, runs through one kernel,
// dispatch_party() in fl/session.cpp: the duration draw, straggler
// checks, the legacy reliability draws or the fault plan's crash and
// link draws, local SGD / FedProx / SCAFFOLD / FedDyn over batches
// gathered row by row from the party's feature tensor, the arena delta
// lease, the client-state refresh, codec error feedback and the DP
// clip. It returns one Dispatch record. Two thin drivers call it, and
// advance() picks one by FlJobConfig::mode:
//
//   kSync (fl/session_sync.cpp) — the round barrier: select a cohort,
//       run the kernel over it on the worker pool (submitting to the
//       streaming aggregator inside the worker, so the fold overlaps
//       training), fold in cohort order, one server step per round.
//       Under a fault plan, fault-failed slots are backfilled from the
//       selector in later waves and a quorum rule can skip the step.
//   kAsync (fl/session_async.cpp) — FedBuff-style buffered stepping:
//       the session keeps `parties_per_round` parties in flight, an
//       arrival queue ordered by the net/device.h latency model
//       delivers their updates one at a time, and the server steps
//       every `async.buffer_k` folded arrivals. Each folded update is
//       weighted by fold_weight() times staleness_discount(server steps
//       since its dispatch); updates staler than `async.max_staleness`
//       are dropped (RoundRecord::dropped_stale). Freed in-flight slots
//       are refilled from the selector at the top of every advance() —
//       continuous re-selection, so a slow party never stalls the
//       cohort. Under a fault plan, a dispatch lost to a fault is
//       retried in place after a backoff; other non-responders
//       (stragglers, empty parties) are not. Async supports
//       ClientAlgo::kSgd (with FedProx mu), DP and the lossy uplink
//       codecs; SCAFFOLD / FedDyn are round-synchronous by construction
//       and rejected at build time, as is StragglerMode::kDeadline (the
//       staleness cutoff subsumes it). The downlink ships the full model
//       per dispatch (no broadcast-delta compression).
//
// Every decision the two drivers share has one implementation in
// fl/session.cpp: pick_parties() (selector picks, minus unknown and
// already-dispatched ids), begin_dispatch() (dispatch sequence and churn
// verdict), add_dp_noise() (sigma from the aggregator's fold weights),
// emit_retry() and the step epilogue finish_step() (eval, history,
// observer fan-out, report_round and arena release).
//
// Ownership: the session owns (or shares) its parties — a value
// vector or a shared_ptr<const std::vector<Party>> — so a session can
// outlive the scope that built it.
//
// Observers (fl/observer.h) fire on the stepping thread in
// registration order; the session's own byte/fairness/target
// accounting is one of them (fl::ResultAccounting). Async sessions
// additionally emit on_arrival per queue pop.
//
// Determinism: per-dispatch RNG streams (sync keyed by (round, party);
// async by the monotone dispatch sequence, so re-dispatches draw fresh
// noise), cohort/arrival-ordered reductions, strict-FP aggregation —
// so every step is bit-identical for any thread count, whether the
// worker pool is owned or shared with other sessions (the serving
// front end's tenants, flips_run's sessions=N). Async arrival order is a pure function of the
// simulated durations: ties break on the dispatch sequence.
#pragma once

#include <cmath>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "fl/aggregator.h"
#include "fl/job.h"
#include "fl/observer.h"
#include "ml/tensor.h"
#include "net/codec.h"
#include "net/device.h"
#include "net/faults.h"
#include "privacy/dp.h"

namespace flips::fl {

/// FedBuff-style staleness discount for an update dispatched
/// `staleness` server steps ago: 1 / sqrt(1 + s). Multiplies the
/// update's base (sample-count, or 1.0 under DP) fold weight.
inline double staleness_discount(std::size_t staleness) {
  return 1.0 / std::sqrt(1.0 + static_cast<double>(staleness));
}

class FederationSession {
 public:
  /// Shared party ownership: several sessions may step over one fleet
  /// (the table grid's federation cache backs every arm of a cell
  /// with one).
  FederationSession(FlJobConfig config,
                    std::shared_ptr<const std::vector<Party>> parties,
                    data::Dataset global_test, ml::Sequential model,
                    std::unique_ptr<ParticipantSelector> selector,
                    common::ThreadPool* shared_pool = nullptr);

  /// Value ownership: the session keeps its own copy of the fleet.
  FederationSession(FlJobConfig config, std::vector<Party> parties,
                    data::Dataset global_test, ml::Sequential model,
                    std::unique_ptr<ParticipantSelector> selector,
                    common::ThreadPool* shared_pool = nullptr);

  FederationSession(const FederationSession&) = delete;
  FederationSession& operator=(const FederationSession&) = delete;
  ~FederationSession();

  /// Registers an observer (called in registration order). Raw
  /// pointers are borrowed and must outlive the session; the shared
  /// overload keeps the observer alive with the session.
  void add_observer(RoundObserver* observer);
  void add_observer(std::shared_ptr<RoundObserver> observer);

  /// True once every configured server step has run (immediately true
  /// for an empty federation or a zero-round config). An async session
  /// can also exhaust early if the selector stops producing
  /// dispatchable parties.
  [[nodiscard]] bool done() const;

  /// Runs the next server step (sync: one barrier round; async: one
  /// buffered step) and returns its record. Throws std::logic_error when
  /// done().
  const RoundRecord& advance();

  /// Server steps completed so far.
  std::size_t rounds_completed() const { return next_round_ - 1; }

  /// Result snapshot over the rounds run so far; callable at any time.
  [[nodiscard]] FlJobResult result() const;

  ParticipantSelector& selector() { return *selector_; }
  const std::vector<Party>& parties() const { return *parties_; }
  const FlJobConfig& config() const { return config_; }
  /// Current global model parameters (the server replica).
  const std::vector<double>& parameters() const { return global_params_; }

 private:
  /// One party dispatch, as dispatch_party() produced it: the party's
  /// feedback, its arena-leased wire update (decoded under a lossy
  /// codec, clipped under DP) and how the dispatch ended. Sync keeps one
  /// per cohort slot; async extends it into an in-flight slot.
  struct Dispatch {
    PartyFeedback fb;
    /// What the aggregator folds. Moved into fb.delta once the fold has
    /// released it, then returned to the arena after report_round.
    std::vector<double> delta;
    std::uint64_t wire_bytes = 0;  ///< encoded uplink size
    std::uint64_t event = 0;       ///< dispatch sequence (fault stream)
    bool trained = false;          ///< update produced (and submitted)
    bool churned = false;          ///< unreachable at dispatch
    bool fault_failed = false;     ///< lost to churn / crash / link fault
    std::vector<double> scaffold_ci_new;  ///< SCAFFOLD only
  };
  /// An async in-flight slot: occupied from dispatch until its arrival
  /// is processed (folded slots keep their delta borrowed by the
  /// aggregator until the server step).
  struct InFlight : Dispatch {
    std::size_t dispatch_version = 0;  ///< server_version_ at dispatch
    std::size_t attempt = 0;           ///< retries used by this occupancy
  };

  common::ThreadPool& pool() {
    return shared_pool_ != nullptr ? *shared_pool_ : *owned_pool_;
  }

  // ---- The party-dispatch kernel (session.cpp). ----
  /// Runs one dispatch of `party` end to end: duration draw, straggler
  /// checks, the legacy reliability draws or the fault plan's crash and
  /// link draws, local training at rate `lr`, the delta lease, the
  /// SCAFFOLD / FedDyn client-state refresh, codec error feedback and
  /// the DP clip. `stream_key` seeds the dispatch's private RNG stream
  /// and `event` keys its fault draws; `churned` is the churn verdict
  /// the stepping thread took at dispatch time. Writes only state owned
  /// by `party` (plus the thread-safe arena), so dispatches of distinct
  /// parties run concurrently.
  Dispatch dispatch_party(std::uint64_t stream_key, std::uint64_t event,
                          std::size_t party, double lr, bool churned);
  /// Base fold weight of a trained dispatch: its sample count, or 1.0
  /// under DP (equal weights keep the clip-based sensitivity valid).
  double fold_weight(const PartyFeedback& fb) const;

  // ---- Step decisions shared by both drivers (session.cpp). ----
  /// Asks the selector for `want` parties at `round` and keeps, in pick
  /// order and at most `limit` of them, the ids that name a party not
  /// already dispatched. Marks each kept party in party_in_flight_.
  std::vector<std::size_t> pick_parties(std::size_t round, std::size_t want,
                                        std::size_t limit);
  /// Prepares `d` for a fresh dispatch of `party` at simulated time
  /// `time_s`: takes the next dispatch sequence and checks the churn
  /// trace (stepping thread only).
  void begin_dispatch(Dispatch& d, std::size_t party, double time_s);
  /// Under DP, adds Gaussian noise to the finalized aggregate and steps
  /// the accountant; a no-op otherwise.
  void add_dp_noise(std::vector<double>& aggregate);
  /// Fans one fault-plan retry out to observers.
  void emit_retry(std::size_t round, std::size_t party, std::size_t attempt,
                  double backoff_s, double time_s);
  /// Shared step epilogue: eval, history, observer fan-out,
  /// report_round and arena release of the step's feedback_.
  const RoundRecord& finish_step(std::size_t step, RoundRecord& record);
  void evaluate_round(std::size_t round, RoundRecord& record);
  /// Stamp the end of a phase that started at `start_ns` and fan it
  /// out to observers (telemetry; not part of the simulated clock).
  void emit_phase(std::size_t round, SessionPhase phase,
                  std::uint64_t start_ns);

  // ---- Sync driver (session_sync.cpp). ----
  const RoundRecord& sync_step();
  /// Trains the cohort; under a fault plan, follows up with backfill
  /// waves that replace fault-failed slots from the selector (cohort
  /// grows in place). Returns the round's simulated elapsed seconds
  /// (wave maxima + backoffs).
  double train_cohort(std::size_t round, std::vector<std::size_t>& cohort,
                      RoundRecord& record);
  /// One parallel dispatch wave writing outcomes_[slot_offset ...].
  /// Returns the wave's max simulated duration.
  double train_wave(std::size_t round,
                    const std::vector<std::size_t>& wave,
                    std::size_t slot_offset, double dispatch_time_s);
  void fold_outcomes(const std::vector<std::size_t>& cohort,
                     RoundRecord& record, std::uint64_t& up_bytes);
  std::uint64_t server_step(std::vector<double>& aggregate,
                            const std::vector<std::size_t>& cohort,
                            bool apply);

  // ---- Async (FedBuff) driver (session_async.cpp). ----
  /// Refills freed in-flight slots from the selector, trains the new
  /// dispatch batch in parallel, and schedules its arrivals. Returns
  /// the number of parties dispatched.
  std::size_t refill_inflight(std::size_t step);
  /// Runs the dispatch kernel for a slot prepared by begin_dispatch(),
  /// on the slot's dispatch-sequence-keyed RNG stream.
  void run_dispatch(InFlight& flight, double lr);
  /// One buffered server step: pop arrivals until buffer_k of them
  /// fold (or the queue drains), then step the server.
  const RoundRecord& async_step();

  FlJobConfig config_;
  std::shared_ptr<const std::vector<Party>> parties_;
  data::Dataset global_test_;
  ml::Sequential model_;
  std::unique_ptr<ParticipantSelector> selector_;

  common::ThreadPool* shared_pool_ = nullptr;
  std::unique_ptr<common::ThreadPool> owned_pool_;

  // Observer sinks. accounting_ absorbs the byte/fairness/target
  // bookkeeping and runs before user observers.
  std::vector<RoundObserver*> observers_;
  std::vector<std::shared_ptr<RoundObserver>> owned_observers_;
  ResultAccounting accounting_;

  // ---- Cross-round state.
  bool inert_ = false;  ///< empty federation / zero rounds
  std::size_t next_round_ = 1;
  std::size_t dim_ = 0;
  std::uint64_t model_bytes_ = 0;
  std::vector<double> global_params_;
  common::Rng rng_;  ///< feeds only DP noise after party streams split
  ServerOptimizer server_;
  ml::SgdOptimizer local_sgd_;
  privacy::RdpAccountant accountant_;

  std::vector<std::vector<double>> scaffold_ci_;
  std::vector<double> scaffold_c_;
  std::vector<double> scaffold_c_round_;
  std::vector<std::vector<double>> feddyn_hi_;

  bool dp_on_ = false;

  // Aggregation plane + wire codec state (see fl/job.h for the codec
  // contract; buffers recycle across rounds — zero steady-state
  // allocation).
  BufferArena arena_;
  StreamingAggregator aggregator_;
  bool codec_on_ = false;
  net::UpdateCodec codec_;
  std::vector<std::vector<double>> ef_residuals_;
  std::vector<double> server_residual_;
  common::Rng broadcast_rng_;
  net::EncodedUpdate broadcast_enc_;
  net::CodecWorkspace broadcast_ws_;
  std::vector<double> broadcast_wire_;

  // Hoisted per-round containers: capacity survives across rounds.
  std::vector<Dispatch> outcomes_;
  std::vector<PartyFeedback> feedback_;
  /// Per-party dispatch guard: set by pick_parties(), cleared when the
  /// party's dispatch ends (sync: at round end; async: when its slot
  /// frees).
  std::vector<char> party_in_flight_;
  std::uint64_t dispatch_seq_ = 0;  ///< next dispatch sequence number

  // ---- Async (FedBuff) engine state. Slots are in-flight dispatch
  // records; the arrival queue holds (time, seq, slot) events. The
  // stepping thread owns all of it — workers only fill their own
  // dispatch record during the parallel training batch.
  std::vector<InFlight> inflight_;
  std::vector<std::size_t> free_slots_;
  net::ArrivalQueue arrivals_;
  std::size_t server_version_ = 0;  ///< completed async server steps
  double sim_time_s_ = 0.0;         ///< simulated clock
  std::size_t buffer_k_ = 0;        ///< resolved async.buffer_k
  bool exhausted_ = false;          ///< async: no arrivals left to drive

  // ---- Fault plan (FlJobConfig::faults). When faults_on_ is false
  // every path above is byte-identical to a fault-free build; the
  // plan's churn cursor is only touched on the stepping thread.
  net::FaultPlan faults_;
  bool faults_on_ = false;

  std::vector<RoundRecord> history_;
};

}  // namespace flips::fl
