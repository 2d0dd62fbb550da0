#include "scenario/spec.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <stdexcept>

namespace flips {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument(message);
}

// Message building appends piecewise (gcc 12's -Wrestrict
// false-positives on `"literal" + std::string(...)` chains).
[[noreturn]] void fail_value(std::string_view key, std::string_view value,
                             std::string_view extra = {}) {
  std::string message = "invalid value for ";
  message += key;
  message += ": ";
  message += value;
  message += extra;
  fail(message);
}

double parse_double(std::string_view key, std::string_view value) {
  const std::string text(value);
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') fail_value(key, value);
  return parsed;
}

std::uint64_t parse_u64(std::string_view key, std::string_view value) {
  const std::string text(value);
  // strtoull silently wraps negatives ("-1" -> 2^64-1); reject them.
  if (!text.empty() && text.front() == '-') fail_value(key, value);
  char* end = nullptr;
  const std::uint64_t parsed = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') fail_value(key, value);
  return parsed;
}

/// One word of a string-valued key's vocabulary and what it lowers to.
/// Each table below is the one list both the registry validates
/// against and to_experiment_config reads.
template <typename T>
struct Choice {
  std::string_view name;
  T value;
};

/// A dataset word: its catalog spec plus the reduced-scale calibration
/// its presets read. The paper's 400/200-round budgets do not transfer
/// 1:1 to the reduced simulation, so the knobs are tuned (protocol in
/// EXPERIMENTS.md § "Reduced-target calibration") to land
/// rounds-to-target in the tens of rounds at the default scale: far
/// enough from round 1 that selector orderings are discriminative, far
/// enough from the budget that FLIPS reaches it.
struct Dataset {
  data::SyntheticSpec (*spec)();
  double target_accuracy;  ///< reduced-scale target (fraction)
  /// Class-prototype separation override (0 = catalog default). Lower
  /// values harden the learning problem without touching who holds
  /// which labels.
  double class_separation;
  double local_lr;
  /// Server lr for the adaptive optimizers (FedAvg is pinned to 1.0):
  /// the adaptive server, not the local solver, drives single-digit
  /// convergence, so it needs its own knob.
  double server_lr;
};

// ECG and FEMNIST swept 2026-07, HAM and Fashion 2026-08: FLIPS
// rounds-to-target at the default scale lands at 20/14/20 (ECG
// fedavg/fedyogi/fedprox), 56/16/56 (FEMNIST), 26/14/26 (HAM, with
// random never reaching the target inside the budget) and 18/10/18
// (Fashion) — tens of rounds on every arm, vs 4-10 before.
const Choice<Dataset> kDatasets[] = {
    {"ecg", {&data::DatasetCatalog::ecg, 0.72, 1.0, 0.03, 0.01}},
    {"ham", {&data::DatasetCatalog::ham10000, 0.72, 0.8, 0.02, 0.01}},
    {"femnist", {&data::DatasetCatalog::femnist, 0.78, 2.4, 0.03, 0.01}},
    {"fashion",
     {&data::DatasetCatalog::fashion_mnist, 0.78, 0.8, 0.02, 0.01}},
};
constexpr Choice<fl::ServerOpt> kServerOpts[] = {
    {"fedavg", fl::ServerOpt::kFedAvg},
    {"fedadagrad", fl::ServerOpt::kFedAdagrad},
    {"fedadam", fl::ServerOpt::kFedAdam},
    {"fedyogi", fl::ServerOpt::kFedYogi},
};
constexpr Choice<fl::ClientAlgo> kClientAlgos[] = {
    {"sgd", fl::ClientAlgo::kSgd},
    {"scaffold", fl::ClientAlgo::kScaffold},
    {"feddyn", fl::ClientAlgo::kFedDyn},
};
constexpr Choice<fl::PrivacyMechanism> kPrivacy[] = {
    {"none", fl::PrivacyMechanism::kNone},
    {"dp", fl::PrivacyMechanism::kDp},
};
constexpr Choice<fl::FederationMode> kModes[] = {
    {"sync", fl::FederationMode::kSync},
    {"async", fl::FederationMode::kAsync},
};
constexpr Choice<net::Codec> kCodecs[] = {
    {"dense64", net::Codec::kDense64},
    {"quant8", net::Codec::kQuant8},
    {"topk", net::Codec::kTopK},
};
/// The FL algorithm half of a preset name: the paper's three table
/// families. Its FedProx arm runs a FedAvg server with μ = 0.1; the
/// FedYogi arm is the adaptive server.
struct PresetAlgo {
  const char* server_opt;
  double prox_mu;
};
constexpr Choice<PresetAlgo> kPresetAlgos[] = {
    {"fedavg", {"fedavg", 0.0}},
    {"fedyogi", {"fedyogi", 0.0}},
    {"fedprox", {"fedavg", 0.1}},
};

/// The value `word` lowers to, or nullptr.
template <typename T, std::size_t N>
const T* find(const Choice<T> (&choices)[N], std::string_view word) {
  for (const Choice<T>& choice : choices) {
    if (choice.name == word) return &choice.value;
  }
  return nullptr;
}

/// The value `word` lowers to; throws listing the vocabulary otherwise.
template <typename T, std::size_t N>
const T& lookup(std::string_view key, const Choice<T> (&choices)[N],
                std::string_view word) {
  if (const T* value = find(choices, word)) return *value;
  std::string extra = " (expected one of:";
  for (const Choice<T>& choice : choices) {
    extra += " ";
    extra += choice.name;
  }
  extra += ")";
  fail_value(key, word, extra);
}

struct Field {
  const char* key;
  std::function<void(ScenarioSpec&, std::string_view)> set;
  std::function<std::string(const ScenarioSpec&)> get;
};

// Shortest round-trip formatting (std::to_chars): "0.05" stays
// "0.05", yet strtod(show(v)) == v exactly for every double — the
// property to_key_values()/from_key_values() round-trip equality
// rests on.
std::string show(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;  // 32 bytes always fit the shortest double form
  return std::string(buf, end);
}

const std::vector<Field>& fields() {
  // Numeric keys take an optional range check: `ok` rejects a parsed
  // value that would run silently wrong (or hit UB) downstream, and
  // `expected` names the range in the error message.
  auto size_field = [](const char* key, std::size_t ScenarioSpec::* mem,
                       bool (*ok)(std::uint64_t) = nullptr,
                       const char* expected = "") {
    return Field{key,
                 [=](ScenarioSpec& s, std::string_view v) {
                   const std::uint64_t parsed = parse_u64(key, v);
                   if (ok && !ok(parsed)) fail_value(key, v, expected);
                   s.*mem = static_cast<std::size_t>(parsed);
                 },
                 [mem](const ScenarioSpec& s) {
                   return std::to_string(s.*mem);
                 }};
  };
  auto double_field = [](const char* key, double ScenarioSpec::* mem,
                         bool (*ok)(double) = nullptr,
                         const char* expected = "") {
    return Field{key,
                 [=](ScenarioSpec& s, std::string_view v) {
                   const double parsed = parse_double(key, v);
                   if (ok && !ok(parsed)) fail_value(key, v, expected);
                   s.*mem = parsed;
                 },
                 [mem](const ScenarioSpec& s) { return show(s.*mem); }};
  };
  // `choices` is one of the namespace-scope tables above, so the
  // setter's reference to it never dangles.
  auto choice_field = [](const char* key, std::string ScenarioSpec::* mem,
                         const auto& choices) {
    return Field{key,
                 [key, mem, &choices](ScenarioSpec& s, std::string_view v) {
                   (void)lookup(key, choices, v);  // fail-fast
                   s.*mem = std::string(v);
                 },
                 [mem](const ScenarioSpec& s) { return s.*mem; }};
  };
  const auto positive_finite = +[](double x) {
    return x > 0.0 && std::isfinite(x);
  };
  const auto non_negative_finite = +[](double x) {
    return x >= 0.0 && std::isfinite(x);
  };
  const auto unit_interval = +[](double x) { return x >= 0.0 && x <= 1.0; };

  static const std::vector<Field> registry = {
      Field{"name",
            [](ScenarioSpec& s, std::string_view v) {
              s.name = std::string(v);
            },
            [](const ScenarioSpec& s) { return s.name; }},
      choice_field("dataset", &ScenarioSpec::dataset, kDatasets),
      // Rng::dirichlet would silently swap in a tiny concentration for
      // alpha <= 0 or nan.
      double_field("alpha", &ScenarioSpec::alpha, positive_finite,
                   " (expected a finite value > 0)"),
      double_field("class_separation", &ScenarioSpec::class_separation),
      size_field("parties", &ScenarioSpec::parties),
      size_field("samples", &ScenarioSpec::samples_per_party),
      size_field("rounds", &ScenarioSpec::rounds),
      // run_selector averages over runs.
      size_field("runs", &ScenarioSpec::runs,
                 +[](std::uint64_t n) { return n >= 1; }, " (expected >= 1)"),
      size_field("eval_every", &ScenarioSpec::eval_every),
      // A cohort is participation × parties, cast to an unsigned count.
      double_field("participation", &ScenarioSpec::participation,
                   +[](double x) { return x > 0.0 && x <= 1.0; },
                   " (expected a value in (0, 1])"),
      choice_field("mode", &ScenarioSpec::mode, kModes),
      size_field("buffer_k", &ScenarioSpec::buffer_k),
      size_field("max_staleness", &ScenarioSpec::max_staleness),
      choice_field("server_opt", &ScenarioSpec::server_opt, kServerOpts),
      // Learning rates, prox_mu and the DP knobs scale every update: a
      // nan or inf trains a NaN model, and a huge negative rate sends
      // non-finite deltas into the codecs.
      double_field("server_lr", &ScenarioSpec::server_lr, positive_finite,
                   " (expected a finite value > 0)"),
      choice_field("client_algo", &ScenarioSpec::client_algo, kClientAlgos),
      double_field("prox_mu", &ScenarioSpec::prox_mu, non_negative_finite,
                   " (expected a finite value >= 0)"),
      size_field("local_epochs", &ScenarioSpec::local_epochs),
      double_field("local_lr", &ScenarioSpec::local_lr, positive_finite,
                   " (expected a finite value > 0)"),
      size_field("mlp_hidden", &ScenarioSpec::mlp_hidden),
      double_field("target_accuracy", &ScenarioSpec::target_accuracy,
                   unit_interval, " (expected a value in [0, 1])"),
      // Validated against the selector registry itself, so new
      // selectors surface here without touching the scenario layer.
      Field{"selector",
            [](ScenarioSpec& s, std::string_view v) {
              (void)select::selector_kind_from_name(v);  // fail-fast
              s.selector = std::string(v);
            },
            [](const ScenarioSpec& s) { return s.selector; }},
      size_field("flips_clusters", &ScenarioSpec::flips_clusters),
      double_field("straggler_rate", &ScenarioSpec::straggler_rate,
                   unit_interval, " (expected a value in [0, 1])"),
      // Fault-plane knobs fail fast on out-of-range values here (the
      // session would also reject them, but only after the federation
      // was built).
      double_field("churn", &ScenarioSpec::churn, non_negative_finite,
                   " (expected a finite value >= 0)"),
      double_field("fault_rate", &ScenarioSpec::fault_rate, unit_interval,
                   " (expected a value in [0, 1])"),
      double_field("min_quorum", &ScenarioSpec::min_quorum, unit_interval,
                   " (expected a value in [0, 1])"),
      size_field("max_retries", &ScenarioSpec::max_retries,
                 +[](std::uint64_t n) { return n <= 64; }, " (expected <= 64)"),
      choice_field("privacy", &ScenarioSpec::privacy, kPrivacy),
      double_field("dp_clip", &ScenarioSpec::dp_clip, positive_finite,
                   " (expected a finite value > 0)"),
      double_field("dp_noise", &ScenarioSpec::dp_noise, non_negative_finite,
                   " (expected a finite value >= 0)"),
      size_field("threads", &ScenarioSpec::threads),
      choice_field("codec", &ScenarioSpec::codec, kCodecs),
      Field{"seed",
            [](ScenarioSpec& s, std::string_view v) {
              s.seed = parse_u64("seed", v);
            },
            [](const ScenarioSpec& s) { return std::to_string(s.seed); }},
      size_field("sessions", &ScenarioSpec::sessions),
  };
  return registry;
}

/// Sets one key through its registry setter. Throws
/// std::invalid_argument on an unknown key or a bad value.
void set_key(ScenarioSpec& spec, std::string_view key,
             std::string_view value) {
  for (const Field& field : fields()) {
    if (key == field.key) {
      field.set(spec, value);
      return;
    }
  }
  std::string message = "unknown scenario key: ";
  message += key;
  message += " (flips_run --help lists every key)";
  fail(message);
}

}  // namespace

void apply_override(ScenarioSpec& spec, std::string_view assignment) {
  const std::size_t eq = assignment.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    std::string message = "expected key=value, got: ";
    message += assignment;
    fail(message);
  }
  set_key(spec, assignment.substr(0, eq), assignment.substr(eq + 1));
}

void apply_preset(ScenarioSpec& spec, std::string_view name) {
  const std::size_t dash = name.rfind('-');
  if (dash != std::string_view::npos) {
    const Dataset* dataset = find(kDatasets, name.substr(0, dash));
    const PresetAlgo* algo = find(kPresetAlgos, name.substr(dash + 1));
    if (dataset != nullptr && algo != nullptr) {
      spec.name = std::string(name);
      spec.dataset = std::string(name.substr(0, dash));
      spec.server_opt = algo->server_opt;
      spec.prox_mu = algo->prox_mu;
      spec.target_accuracy = dataset->target_accuracy;
      spec.class_separation = dataset->class_separation;
      spec.local_lr = dataset->local_lr;
      spec.server_lr = dataset->server_lr;
      return;
    }
  }
  std::string message = "unknown scenario: ";
  message += name;
  message += " (known:";
  for (const std::string& preset : scenario_preset_names()) {
    message += " ";
    message += preset;
  }
  message += ")";
  fail(message);
}

std::string scenario_usage(const ScenarioSpec& spec) {
  std::string out;
  for (const auto& [key, value] : spec.to_key_values()) {
    out += "  ";
    out += key;
    out += "=";
    out += value;
    out += "\n";
  }
  return out;
}

KeyValueList ScenarioSpec::to_key_values() const {
  KeyValueList out;
  out.reserve(fields().size());
  for (const Field& field : fields()) {
    out.emplace_back(field.key, field.get(*this));
  }
  return out;
}

ScenarioSpec ScenarioSpec::from_key_values(const KeyValueList& kv) {
  // Reuses the registry setters, so every wire-submitted value gets
  // apply_override's fail-fast validation (unknown key, bad parse,
  // out-of-range number, out-of-choice string) before a session is
  // ever built from it.
  ScenarioSpec spec;
  for (const auto& [key, value] : kv) set_key(spec, key, value);
  return spec;
}

ScenarioSpec scenario_preset(std::string_view name) {
  ScenarioSpec spec;
  apply_preset(spec, name);
  return spec;
}

std::string scenario_command(const ScenarioSpec& spec) {
  const KeyValueList preset = scenario_preset(spec.name).to_key_values();
  const KeyValueList own = spec.to_key_values();
  std::string out = "flips_run --scenario ";
  out += spec.name;
  for (std::size_t i = 0; i < own.size(); ++i) {
    if (own[i].second == preset[i].second) continue;
    out += " --set ";
    out += own[i].first;
    out += "=";
    out += own[i].second;
  }
  return out;
}

std::size_t parse_count(std::string_view flag, std::string_view text,
                        std::size_t max) {
  // from_chars into an unsigned type rejects a sign, junk and overflow.
  std::size_t count = 0;
  const char* end = text.data() + text.size();
  const auto parsed = std::from_chars(text.data(), end, count);
  if (parsed.ec != std::errc() || parsed.ptr != end || count > max) {
    std::string range = " (must be 0..";
    range += std::to_string(max);
    range += ")";
    fail_value(flag, text, range);
  }
  return count;
}

std::uint16_t parse_port(std::string_view text) {
  return static_cast<std::uint16_t>(parse_count("--port", text, 65535));
}

std::vector<std::string> scenario_preset_names() {
  std::vector<std::string> names;
  for (const auto& dataset : kDatasets) {
    for (const auto& algo : kPresetAlgos) {
      std::string name(dataset.name);
      name += "-";
      name += algo.name;
      names.push_back(std::move(name));
    }
  }
  return names;
}

ExperimentConfig to_experiment_config(const ScenarioSpec& spec) {
  ExperimentConfig config;
  config.spec = lookup("dataset", kDatasets, spec.dataset).spec();
  if (spec.class_separation > 0.0) {
    config.spec.class_separation = spec.class_separation;
  }
  config.alpha = spec.alpha;
  config.participation = spec.participation;
  config.server_opt = lookup("server_opt", kServerOpts, spec.server_opt);
  config.server_lr = spec.server_lr;
  config.prox_mu = spec.prox_mu;
  config.straggler_rate = spec.straggler_rate;
  config.target_accuracy = spec.target_accuracy;
  config.scale.num_parties = spec.parties;
  config.scale.samples_per_party = spec.samples_per_party;
  config.scale.rounds = spec.rounds;
  config.scale.runs = spec.runs;
  config.scale.eval_every = spec.eval_every;
  config.seed = spec.seed;
  config.flips_clusters = spec.flips_clusters;
  config.local_epochs = spec.local_epochs;
  config.local_lr = spec.local_lr;
  config.mlp_hidden = spec.mlp_hidden;
  config.privacy.mechanism = lookup("privacy", kPrivacy, spec.privacy);
  if (config.privacy.mechanism == fl::PrivacyMechanism::kDp) {
    config.privacy.dp.clip_norm = spec.dp_clip;
    config.privacy.dp.noise_multiplier = spec.dp_noise;
  }
  config.client_algo = lookup("client_algo", kClientAlgos, spec.client_algo);
  config.threads = spec.threads;
  config.codec.codec = lookup("codec", kCodecs, spec.codec);
  config.mode = lookup("mode", kModes, spec.mode);
  config.async.buffer_k = spec.buffer_k;
  config.async.max_staleness = spec.max_staleness;
  config.faults.churn = spec.churn;
  config.faults.crash_rate = spec.fault_rate;
  config.faults.min_quorum = spec.min_quorum;
  config.faults.max_retries = spec.max_retries;
  config.faults.validate();
  return config;
}

select::SelectorKind selector_kind(const ScenarioSpec& spec) {
  // Registry lookup: throws listing the registered names.
  return select::selector_kind_from_name(spec.selector);
}

}  // namespace flips
