// One declarative description of an FL scenario: every field has a
// stable string key, so any scenario is a preset (the twelve paper
// table pairs) plus key=value overrides, typed as `--set key=value` on
// a bench command line or sent to flips_serve as kOpenSession lines.
// to_experiment_config lowers a spec onto the session builder
// (scenario/builder.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "scenario/builder.h"
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
  std::size_t flips_clusters = 20;  ///< 0 = the DBI elbow picks k
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
  std::string privacy = "none";  ///< none | dp
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
  /// (test_scenario pins it).
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

/// Applies preset `name`'s own keys over `spec`: name, dataset,
/// server_opt, prox_mu, target_accuracy, class_separation, local_lr and
/// server_lr. Every other key keeps its value. Throws
/// std::invalid_argument on an unknown name.
void apply_preset(ScenarioSpec& spec, std::string_view name);

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

/// Lowers the declarative spec onto the session builder's config (the
/// spec's selector/sessions fields are the driver's concern).
[[nodiscard]] ExperimentConfig to_experiment_config(const ScenarioSpec& spec);

/// Parses spec.selector. Throws std::invalid_argument on unknown names.
[[nodiscard]] select::SelectorKind selector_kind(const ScenarioSpec& spec);

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

}  // namespace flips
