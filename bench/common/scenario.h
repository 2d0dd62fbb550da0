// One declarative description of an FL scenario, and the one command
// line every bench binary is configured through. ScenarioSpec unifies
// the knobs of fl::FlJobConfig and bench::ExperimentConfig: every field
// has a stable string key, so any scenario is a preset plus
// `--set key=value` overrides:
//
//   flips_run --scenario ecg-fedavg --set rounds=60 --set codec=quant8
//             --set selector=oort --set sessions=4
//   flips_tables --scenario ham-fedprox --set parties=30 --set runs=1
//   bench_fairness --set rounds=40 --set seed=7
//
// parse_scenario_args() is that grammar's only parser: --scenario,
// --set, --paper-scale, --csv and --help, plus whatever flags a binary
// adds of its own. Presets cover the twelve paper table pairs (dataset
// × FL algorithm, calibrated reduced-scale targets from
// bench/common/paper_tables.h); `scenario_usage()` lists every settable
// key for --help.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/experiment.h"
#include "selection/factory.h"

namespace flips {

/// Ordered key=value pairs — the wire-friendly image of a ScenarioSpec
/// (serve/protocol.h ships it as "key=value\n" lines).
using KeyValueList = std::vector<std::pair<std::string, std::string>>;

struct ScenarioSpec {
  std::string name = "custom";

  // Dataset / federation.
  std::string dataset = "ecg";  ///< ecg | ham | femnist | fashion
  double alpha = 0.3;           ///< Dirichlet non-IID skew
  /// 0 = the dataset catalog's default prototype separation.
  double class_separation = 0.0;
  std::size_t parties = 100;
  std::size_t samples_per_party = 80;

  // Round schedule.
  std::size_t rounds = 100;
  std::size_t runs = 1;
  std::size_t eval_every = 2;
  double participation = 0.2;  ///< fraction of parties per round

  // Federation mode (fl::FederationMode): sync = round barrier,
  // async = FedBuff-style buffered stepping (`rounds` then counts
  // server steps).
  std::string mode = "sync";      ///< sync | async
  std::size_t buffer_k = 0;       ///< async: arrivals per step (0 = Nr/2)
  std::size_t max_staleness = 4;  ///< async: bounded-staleness cutoff

  // Learning.
  std::string server_opt = "fedavg";  ///< fedavg|fedadagrad|fedadam|fedyogi
  double server_lr = 0.05;            ///< ignored for fedavg (lr 1)
  std::string client_algo = "sgd";    ///< sgd | scaffold | feddyn
  double prox_mu = 0.0;
  std::size_t local_epochs = 2;
  double local_lr = 0.05;
  std::size_t mlp_hidden = 24;
  double target_accuracy = 0.72;

  // Selection.
  std::string selector = "flips";  ///< see select::selector_names()
  std::size_t flips_clusters = 20;
  double straggler_rate = 0.0;

  // Fault plane (net/faults.h). churn scales each device type's mean
  // downtime (0 = always-on); fault_rate is an extra per-dispatch
  // crash probability stacked on the device's own; min_quorum is the
  // sync-mode fraction of the base cohort that must respond for the
  // server step to apply; max_retries bounds backfill waves (sync) and
  // per-slot re-dispatches (async).
  double churn = 0.0;
  double fault_rate = 0.0;
  double min_quorum = 0.0;
  std::size_t max_retries = 2;

  // Privacy.
  std::string privacy = "none";  ///< none | dp | masking
  double dp_clip = 1.0;
  double dp_noise = 0.0;

  // Systems.
  std::size_t threads = 0;         ///< 0 = all cores
  std::string codec = "dense64";   ///< dense64 | quant8 | topk
  std::uint64_t seed = 42;
  /// Concurrent federations interleaved round-robin on one worker pool
  /// (seeds seed, seed+1000, ...); 1 = a plain solo run.
  std::size_t sessions = 1;

  bool operator==(const ScenarioSpec&) const = default;

  /// Every settable key with this spec's current value, in registry
  /// order — the serialization a scenario crosses the wire as. Values
  /// use shortest-round-trip formatting, so
  /// from_key_values(spec.to_key_values()) == spec always holds
  /// (test_bench_options pins it).
  [[nodiscard]] KeyValueList to_key_values() const;

  /// Rebuilds a spec by applying `kv` over the defaults with the same
  /// fail-fast validation as apply_override: unknown keys and
  /// unparsable values throw std::invalid_argument. A partial list is
  /// a valid override set — unmentioned fields keep their defaults.
  [[nodiscard]] static ScenarioSpec from_key_values(const KeyValueList& kv);
};

/// Applies one `key=value` override. Throws std::invalid_argument on
/// an unknown key or an unparsable value.
void apply_override(ScenarioSpec& spec, std::string_view assignment);

/// All settable keys with their current values (for --help output).
[[nodiscard]] std::string scenario_usage(const ScenarioSpec& spec);

/// Named presets: the twelve table scenarios ("<dataset>-<algo>" for
/// dataset in ecg|ham|femnist|fashion, algo in fedavg|fedyogi|fedprox)
/// with per-dataset calibrated targets. Throws std::invalid_argument
/// on an unknown name; `scenario_preset_names()` lists them.
[[nodiscard]] ScenarioSpec scenario_preset(std::string_view name);
[[nodiscard]] std::vector<std::string> scenario_preset_names();

/// The flips_run command line that re-runs `spec` on its own:
/// `flips_run --scenario <spec.name>` plus one `--set key=value` per
/// key whose value differs from scenario_preset(spec.name), in registry
/// order. spec.name must be a preset.
[[nodiscard]] std::string scenario_command(const ScenarioSpec& spec);

/// What a bench command line resolves to.
struct ScenarioArgs {
  ScenarioSpec spec;
  bool csv = false;          ///< --csv: also print accuracy curves
  bool paper_scale = false;  ///< --paper-scale appeared
};

/// A binary's own flags beyond the shared grammar: called with each
/// argument the shared parser does not know, and a `value` callback
/// that consumes the next argument. Returns false when `flag` is not
/// one of its own either; throws std::exception on a bad value.
using ExtraFlags = std::function<bool(
    std::string_view flag, const std::function<const char*()>& value)>;

/// Parses a count flag's value: a decimal integer in [0, max]. Throws
/// std::invalid_argument naming `flag` otherwise (a sign, junk,
/// overflow or a value past `max`), so `--threads -1` is an error
/// instead of a count wrapped to 2^64-1.
[[nodiscard]] std::size_t parse_count(
    std::string_view flag, std::string_view text,
    std::size_t max = std::numeric_limits<std::size_t>::max());

/// Ceiling for the flags that start one thread per unit (flips_serve
/// --threads, flips_loadgen --tenants).
inline constexpr std::size_t kMaxThreadsFlag = 1024;

/// Parses a `--port` value: a decimal integer in [0, 65535]. Throws
/// std::invalid_argument naming the flag otherwise, so `--port 70000`
/// or `--port -1` is an error instead of a wrapped port number.
[[nodiscard]] std::uint16_t parse_port(std::string_view text);

/// The one bench command-line grammar, applied left to right over
/// `spec` (the binary's own defaults):
///   --scenario NAME   apply preset NAME's own keys (name, dataset,
///                     server_opt, prox_mu, target_accuracy,
///                     class_separation, local_lr, server_lr); every
///                     other key keeps its value
///   --set key=value   apply_override(spec, key=value)
///   --paper-scale     shorthand for parties=200 samples=120 rounds=400
///                     runs=6 eval_every=2
///   --csv             also print accuracy curves as CSV rows
///   --help, -h        print `usage` (the binary's own flags), the
///                     shared flags and every key; exit 0
/// An unknown flag, a missing value or a bad value prints the reason
/// and exits 2.
[[nodiscard]] ScenarioArgs parse_scenario_args(
    int argc, char** argv, ScenarioSpec spec, std::string_view usage = {},
    const ExtraFlags& extra = {});

/// Lowers the declarative spec onto the bench engine's config (the
/// spec's selector/sessions fields are the driver's concern).
[[nodiscard]] bench::ExperimentConfig to_experiment_config(
    const ScenarioSpec& spec);

/// Parses spec.selector. Throws std::invalid_argument on unknown names.
[[nodiscard]] select::SelectorKind selector_kind(const ScenarioSpec& spec);

}  // namespace flips
