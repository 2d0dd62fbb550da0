// Shared experiment engine for the table/figure benches: runs one FL
// job per (selector, straggler-rate) cell over sessions from the
// session builder (scenario/builder.h), averages over repeats, and
// prints paper-vs-measured tables. Benches build an ExperimentConfig
// from a ScenarioSpec (scenario/spec.h, to_experiment_config).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fl/session.h"
#include "scenario/builder.h"
#include "selection/factory.h"

namespace flips::bench {

// perfbench/ (frozen with the benchmark) names the builder through the
// bench layer, as flips::bench::ExperimentConfig and
// flips::bench::make_session.
using flips::ExperimentConfig;
using flips::make_session;

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

/// Observers to attach to run `run`'s session before it steps
/// (flips_run --metrics-out rides this).
using ObserverFactory =
    std::function<std::vector<std::shared_ptr<flips::fl::RoundObserver>>(
        std::size_t run)>;

/// Runs `runs` FL jobs (seeds config.seed + 1000·run) for one selector
/// and averages, over federations from a process-wide LRU (flips_tables
/// replays each one for all 11 arms of a setting). Not thread-safe.
/// Also prints two machine-readable lines per call with stable schemas
///   perf,<selector>,<wall_s_per_round>,<rounds_to_target|-1>
///   perf,aggregate,<codec>,<bytes_per_round>,<wall_s_per_round>
/// so CI perf artifacts can scrape both the wall-time and the wire-byte
/// trajectory from any bench's stdout.
[[nodiscard]] SelectorResult run_selector(
    const ExperimentConfig& config, flips::select::SelectorKind kind,
    const ObserverFactory& observers = {});

/// Steps every unfinished session once per pass, in index order, until
/// all are done: N federations interleaved round-robin at round
/// granularity, the multi-tenant shape. Each session's result is
/// bit-identical to stepping it alone. Returns the rounds stepped.
std::size_t interleave_sessions(
    const std::vector<std::unique_ptr<flips::fl::FederationSession>>&
        sessions);

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

/// Fixed-width tables: each cell prints as one space plus the cell
/// right-aligned in 12 characters, so a longer cell still gets its
/// separator.
void print_table_header(const std::string& title,
                        const std::vector<std::string>& columns);
void print_table_row(const std::vector<std::string>& cells);

/// Emits one selector's accuracy curve as CSV rows: name,round,accuracy.
void print_curve_csv(const std::string& experiment,
                     const SelectorResult& result);

}  // namespace flips::bench
