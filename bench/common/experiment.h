// Shared experiment engine for the table/figure benches: builds a
// federation from a dataset spec, runs one FL job per (selector,
// straggler-rate) cell, averages over repeats, and prints
// paper-vs-measured tables. Benches build an ExperimentConfig from a
// ScenarioSpec (common/scenario.h, to_experiment_config).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "data/federated.h"
#include "fl/session.h"
#include "net/codec.h"
#include "selection/factory.h"

namespace flips::bench {

/// Scale knobs, lowered from the ScenarioSpec keys parties, samples,
/// rounds, runs and eval_every (to_experiment_config). Each bench's
/// default spec is a reduced scale that finishes in minutes;
/// --paper-scale raises it to the paper's setting (200 parties, 400
/// rounds, 6 runs).
struct Scale {
  std::size_t num_parties = 100;
  std::size_t samples_per_party = 80;
  std::size_t rounds = 100;
  std::size_t runs = 3;
  std::size_t eval_every = 2;
};

struct ExperimentConfig {
  flips::data::SyntheticSpec spec;
  double alpha = 0.3;
  double participation = 0.2;   ///< fraction of parties per round
  flips::fl::ServerOpt server_opt = flips::fl::ServerOpt::kFedYogi;
  double server_lr = 0.05;
  double prox_mu = 0.0;         ///< FedProx
  double straggler_rate = 0.0;
  double target_accuracy = 0.6; ///< paper's per-dataset target
  Scale scale;
  std::uint64_t seed = 42;
  /// Cluster count for FLIPS. The paper's elbow finds 10 on its real
  /// datasets; the reduced-scale synthetic federations have finer mode
  /// structure and calibrate best at 20 (the fig2 bench demonstrates the
  /// elbow machinery itself).
  std::size_t flips_clusters = 20;
  /// Local solver knobs (τ epochs; higher values amplify client drift,
  /// the non-IID pathology the paper studies).
  std::size_t local_epochs = 2;
  double local_lr = 0.05;
  /// Hidden width of the per-party MLP (0 = softmax regression). The
  /// multilayer model matters: rare-class boundaries erode between
  /// exposures (the paper's DNN retention effect), which a convex model
  /// hides.
  std::size_t mlp_hidden = 24;
  /// Aggregation-path privacy (off by default; the privacy-overhead bench
  /// sweeps it).
  flips::fl::PrivacyConfig privacy;
  /// Stateful client algorithm (FedDyn / SCAFFOLD ablations).
  flips::fl::ClientAlgo client_algo = flips::fl::ClientAlgo::kSgd;
  /// Local-training worker threads per FL job (0 = hardware
  /// concurrency). Results are bit-identical for every value.
  std::size_t threads = 0;
  /// Wire codec for updates and the broadcast delta (kDense64
  /// reproduces the historical byte accounting; kQuant8/kTopK charge
  /// encoded sizes and run with error feedback — see fl/job.h).
  flips::net::CodecConfig codec;
  /// Stepping discipline (fl/session.h): kSync = round barrier; kAsync
  /// = FedBuff buffered stepping, where `scale.rounds` counts server
  /// steps and `async` carries the buffer/staleness knobs.
  flips::fl::FederationMode mode = flips::fl::FederationMode::kSync;
  flips::fl::AsyncConfig async;
  /// Fault plan (net/faults.h). When enabled() the federation builder
  /// samples the senior-care fleet's availability / fault-rate / churn
  /// columns onto party profiles (otherwise those stay at their inert
  /// defaults and every path is byte-identical to a fault-free build).
  flips::net::FaultConfig faults;
  /// Optional telemetry hook: called once per run with the 0-based run
  /// index; every returned observer is attached to that run's session
  /// before stepping (flips_run --metrics-out rides this).
  std::function<std::vector<std::shared_ptr<flips::fl::RoundObserver>>(
      std::size_t run)>
      observer_factory;
};

struct SelectorResult {
  std::string selector;
  double peak_accuracy = 0.0;              ///< mean over runs, in [0,1]
  /// Mean rounds to target over runs that reached it; nullopt if none did.
  std::optional<double> rounds_to_target;
  std::vector<double> accuracy_curve;      ///< mean balanced acc per round
  double total_gib = 0.0;                  ///< mean communication volume
  double mean_epsilon = 0.0;               ///< DP budget (0 when DP off)
  /// Selection-fairness summary (mean over runs).
  double mean_jain_index = 0.0;
  /// Mean coverage round over the runs that reached full coverage;
  /// nullopt when no run covered every party (a round-0 mean would
  /// conflate "covered immediately" with "never covered").
  std::optional<double> mean_coverage_round;
  /// Host wall-clock seconds per simulated round (mean over runs) —
  /// the simulator-throughput number the CI perf rail tracks.
  double wall_s_per_round = 0.0;
};

/// Runs `runs` FL jobs (different seeds) for one selector and averages.
/// Also prints two machine-readable lines per call with stable schemas
///   perf,<selector>,<wall_s_per_round>,<rounds_to_target|-1>
///   perf,aggregate,<codec>,<bytes_per_round>,<wall_s_per_round>
/// so CI perf artifacts can scrape both the wall-time and the wire-byte
/// trajectory from any bench's stdout.
[[nodiscard]] SelectorResult run_selector(const ExperimentConfig& config,
                                          flips::select::SelectorKind kind);

/// Builds one steppable FL session for `config` at `seed`: federation
/// (cached when small), model, selector — everything run_selector
/// assembles per run. The session shares ownership of the cached
/// federation, so it stays valid however long the caller steps it.
/// `shared_pool` lets several sessions (interleave_sessions) contend
/// for one worker pool; nullptr = the session owns a pool of
/// config.threads workers.
[[nodiscard]] std::unique_ptr<flips::fl::FederationSession> make_session(
    const ExperimentConfig& config, flips::select::SelectorKind kind,
    std::uint64_t seed, flips::common::ThreadPool* shared_pool = nullptr);

/// Steps every unfinished session once per pass, in index order, until
/// all are done: N federations interleaved round-robin at round
/// granularity, the multi-tenant shape. Each session's result is
/// bit-identical to stepping it alone. Returns the rounds stepped.
std::size_t interleave_sessions(
    const std::vector<std::unique_ptr<flips::fl::FederationSession>>&
        sessions);

/// How label distributions are embedded before clustering: raw counts,
/// proportions, or Hellinger space (sqrt-proportions, where Euclidean
/// distance is a proper distribution distance that keeps rare-label
/// parties distinguishable).
enum class LdSpace { kRawCounts, kProportions, kHellinger };

/// Clusters parties on their label distributions: k-means with 3
/// restarts and k capped at the party count, seeded with `rng_seed`.
/// Returns each party's cluster.
[[nodiscard]] std::vector<std::size_t> cluster_label_distributions(
    const std::vector<flips::data::LabelDistribution>& lds, std::size_t k,
    LdSpace space, std::uint64_t rng_seed);

/// Per-label accuracy curves (for the Fig. 13 underrepresented-label
/// analysis). Returns [label][round].
[[nodiscard]] std::vector<std::vector<double>> run_per_label_curves(
    const ExperimentConfig& config, flips::select::SelectorKind kind);

// ---------------------------------------------------------------------
// Reporting helpers shared by all bench binaries (the command line is
// parse_scenario_args in common/scenario.h).

/// Rounds-to-target cell: "N" or ">R" when the target was never reached.
[[nodiscard]] std::string format_rounds(
    const std::optional<double>& rounds, std::size_t round_budget);

/// Paper cell: rounds value or -1 for ">threshold".
[[nodiscard]] std::string format_paper_rounds(int rounds,
                                              int paper_budget);

void print_table_header(const std::string& title,
                        const std::vector<std::string>& columns);
void print_table_row(const std::vector<std::string>& cells);

/// Emits one selector's accuracy curve as CSV rows: name,round,accuracy.
void print_curve_csv(const std::string& experiment,
                     const SelectorResult& result);

}  // namespace flips::bench
