// The bench command line (parse_scenario_args), the ScenarioSpec key
// registry and presets, and the paper-table grid (bench/common layer).
#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/experiment.h"
#include "common/paper_tables.h"
#include "common/scenario.h"

namespace {

using flips::ScenarioArgs;
using flips::ScenarioSpec;

ScenarioArgs parse(std::vector<std::string> args,
                   const ScenarioSpec& defaults = ScenarioSpec{},
                   const flips::ExtraFlags& extra = {}) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  return flips::parse_scenario_args(
      static_cast<int>(argv.size()), argv.data(), defaults, {}, extra);
}

/// Splits a printed command line on spaces, dropping the program name.
std::vector<std::string> words_after_program(const std::string& command) {
  std::istringstream in(command);
  std::vector<std::string> words{std::istream_iterator<std::string>(in), {}};
  words.erase(words.begin());
  return words;
}

// ------------------------- parse_scenario_args ------------------------

TEST(ScenarioArgs, DefaultsPassThroughAndSetsApplyInOrder) {
  ScenarioSpec defaults;
  defaults.parties = 64;
  defaults.runs = 2;
  const ScenarioArgs plain = parse({}, defaults);
  EXPECT_EQ(plain.spec, defaults);
  EXPECT_FALSE(plain.paper_scale);
  EXPECT_FALSE(plain.csv);
  EXPECT_EQ(plain.spec.threads, 0u);  // 0 = all cores

  const ScenarioArgs args = parse(
      {"--set", "parties=12", "--set", "rounds=7", "--csv", "--set",
       "samples=100", "--set", "seed=1234", "--set", "threads=3", "--set",
       "codec=quant8", "--set", "rounds=9"});
  EXPECT_EQ(args.spec.parties, 12u);
  EXPECT_EQ(args.spec.rounds, 9u);  // the later --set wins
  EXPECT_EQ(args.spec.samples_per_party, 100u);
  EXPECT_EQ(args.spec.seed, 1234u);
  EXPECT_EQ(args.spec.threads, 3u);
  EXPECT_EQ(args.spec.codec, "quant8");
  EXPECT_TRUE(args.csv);
}

TEST(ScenarioArgs, PaperScaleAppliesWhereItAppears) {
  const ScenarioArgs paper = parse({"--paper-scale"});
  EXPECT_TRUE(paper.paper_scale);
  EXPECT_EQ(paper.spec.parties, 200u);
  EXPECT_EQ(paper.spec.samples_per_party, 120u);
  EXPECT_EQ(paper.spec.rounds, 400u);
  EXPECT_EQ(paper.spec.runs, 6u);
  EXPECT_EQ(paper.spec.eval_every, 2u);
  // A --set after it wins; one before it is overridden.
  const ScenarioArgs after =
      parse({"--paper-scale", "--set", "parties=16", "--set", "rounds=5"});
  EXPECT_EQ(after.spec.parties, 16u);
  EXPECT_EQ(after.spec.rounds, 5u);
  EXPECT_EQ(after.spec.runs, 6u);
  const ScenarioArgs before = parse({"--set", "parties=16", "--paper-scale"});
  EXPECT_EQ(before.spec.parties, 200u);
}

TEST(ScenarioArgs, SetBeforeScenarioSurvivesUnlessThePresetSetsIt) {
  const ScenarioArgs args = parse(
      {"--set", "rounds=7", "--set", "target_accuracy=0.5", "--scenario",
       "ham-fedprox"});
  const ScenarioSpec preset = flips::scenario_preset("ham-fedprox");
  EXPECT_EQ(args.spec.rounds, 7u);  // not a preset key: survives
  EXPECT_DOUBLE_EQ(args.spec.target_accuracy, preset.target_accuracy);
  EXPECT_EQ(args.spec.name, "ham-fedprox");
  EXPECT_EQ(args.spec.dataset, "ham");
  EXPECT_DOUBLE_EQ(args.spec.prox_mu, 0.1);

  // A bench's own defaults survive too; over ScenarioSpec{}, --scenario
  // alone gives exactly the preset.
  ScenarioSpec defaults;
  defaults.runs = 3;
  EXPECT_EQ(parse({"--scenario", "ham-fedprox"}, defaults).spec.runs, 3u);
  EXPECT_EQ(parse({"--scenario", "ham-fedprox"}).spec, preset);
}

TEST(ScenarioArgs, ExtraFlagsConsumeTheirValues) {
  std::string out;
  const auto extra = [&](std::string_view flag, const auto& value) {
    if (flag != "--out") return false;
    out = value();
    return true;
  };
  const ScenarioArgs args =
      parse({"--out", "x.jsonl", "--set", "rounds=3"}, {}, extra);
  EXPECT_EQ(args.spec.rounds, 3u);
  EXPECT_EQ(out, "x.jsonl");
  EXPECT_EXIT(parse({"--out"}, {}, extra), testing::ExitedWithCode(2),
              "missing value for --out");
  EXPECT_EXIT(parse({"--bogus"}, {}, extra), testing::ExitedWithCode(2),
              "unknown flag: --bogus");
}

TEST(ScenarioArgs, BadCommandLinesExitTwoAndHelpExitsZero) {
  EXPECT_EXIT(parse({"--bogus"}), testing::ExitedWithCode(2),
              "unknown flag");
  // The retired per-knob flags are unknown now.
  EXPECT_EXIT(parse({"--parties", "12"}), testing::ExitedWithCode(2),
              "unknown flag: --parties");
  EXPECT_EXIT(parse({"--set"}), testing::ExitedWithCode(2),
              "missing value for --set");
  EXPECT_EXIT(parse({"--scenario"}), testing::ExitedWithCode(2),
              "missing value for --scenario");
  EXPECT_EXIT(parse({"--set", "runs=O3"}), testing::ExitedWithCode(2),
              "invalid value for runs");
  EXPECT_EXIT(parse({"--set", "parties=12abc"}), testing::ExitedWithCode(2),
              "invalid value for parties");
  EXPECT_EXIT(parse({"--set", "codec=zstd"}), testing::ExitedWithCode(2),
              "invalid value for codec");
  EXPECT_EXIT(parse({"--set", "bogus=1"}), testing::ExitedWithCode(2),
              "unknown scenario key");
  EXPECT_EXIT(parse({"--scenario", "mnist"}), testing::ExitedWithCode(2),
              "unknown scenario");
  EXPECT_EXIT(parse({"--help"}), testing::ExitedWithCode(0), "");
  EXPECT_EXIT(parse({"--set", "rounds=3", "-h"}), testing::ExitedWithCode(0),
              "");
}

// --------------------------- table grid -------------------------------

TEST(TableGrid, EveryPresetYields44CellsThatItsRerunLinesReproduce) {
  namespace paper = flips::bench::paper;
  const std::set<std::string> grid_keys{"alpha", "participation", "seed",
                                        "selector", "straggler_rate"};
  // flips_run's own default spec, which a rerun line is parsed over.
  const ScenarioSpec flips_run_spec = flips::scenario_preset("ecg-fedavg");
  for (const auto& name : flips::scenario_preset_names()) {
    ASSERT_NE(paper::table_for(name), nullptr) << name;
    ScenarioSpec spec = flips::scenario_preset(name);
    spec.runs = 3;
    spec.parties = 30;
    spec.seed = 7;
    const auto spec_kv = spec.to_key_values();
    std::size_t cells = 0;
    for (std::size_t s = 0; s < paper::kSettings.size(); ++s) {
      const paper::Setting& setting = paper::kSettings[s];
      for (const auto& arm : paper::kArms) {
        const ScenarioSpec cell = paper::grid_cell(spec, s, arm);
        ++cells;
        const auto cell_kv = cell.to_key_values();
        for (std::size_t k = 0; k < spec_kv.size(); ++k) {
          if (grid_keys.count(spec_kv[k].first) == 0) {
            EXPECT_EQ(cell_kv[k], spec_kv[k]) << name;
          }
        }
        EXPECT_DOUBLE_EQ(cell.alpha, setting.alpha);
        EXPECT_DOUBLE_EQ(cell.participation, setting.party_fraction);
        EXPECT_EQ(cell.seed, 7u + 17u * s);
        EXPECT_EQ(flips::selector_kind(cell), arm.selector);
        EXPECT_DOUBLE_EQ(cell.straggler_rate, arm.straggler_rate);

        const std::string command = flips::scenario_command(cell);
        ASSERT_EQ(command.rfind("flips_run --scenario " + name, 0), 0u);
        const ScenarioArgs rerun =
            parse(words_after_program(command), flips_run_spec);
        EXPECT_EQ(rerun.spec, cell) << command;
      }
    }
    EXPECT_EQ(cells, 44u) << name;
  }
  EXPECT_EQ(paper::table_for("custom"), nullptr);
  // Only keys that differ from the preset are spelled out.
  EXPECT_EQ(flips::scenario_command(flips::scenario_preset("ham-fedavg")),
            "flips_run --scenario ham-fedavg");
}

TEST(ParsePort, AcceptsSixteenBitsAndRejectsTheRest) {
  EXPECT_EQ(flips::parse_port("0"), 0u);
  EXPECT_EQ(flips::parse_port("7070"), 7070u);
  EXPECT_EQ(flips::parse_port("65535"), 65535u);
  // Each of these used to wrap to some other port instead of failing.
  for (const char* bad : {"65536", "70000", "-1", "", "80x", "+80",
                          "99999999999999999999"}) {
    EXPECT_THROW((void)flips::parse_port(bad), std::invalid_argument)
        << bad;
  }
}

TEST(ParseCount, AcceptsUpToTheCapAndRejectsTheRest) {
  EXPECT_EQ(flips::parse_count("--threads", "0", flips::kMaxThreadsFlag),
            0u);
  EXPECT_EQ(flips::parse_count("--threads", "1024", flips::kMaxThreadsFlag),
            1024u);
  EXPECT_EQ(flips::parse_count("--window", "18446744073709551615"),
            18446744073709551615u);
  // std::stoul took "-1" as 2^64-1 threads; the cap is only ever
  // exercised by parsing, never by starting that many threads.
  for (const char* bad : {"1025", "-1", "", "4x", "+4", " 4", "0x10",
                          "99999999999999999999"}) {
    EXPECT_THROW(
        (void)flips::parse_count("--threads", bad, flips::kMaxThreadsFlag),
        std::invalid_argument)
        << bad;
  }
  EXPECT_THROW((void)flips::parse_count("--window", "18446744073709551616"),
               std::invalid_argument);
  try {
    (void)flips::parse_count("--tenants", "-1", flips::kMaxThreadsFlag);
    ADD_FAILURE() << "-1 was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()),
              "invalid value for --tenants: -1 (must be 0..1024)");
  }
}

TEST(FormatRounds, TargetReachedAndBudgetExceeded) {
  EXPECT_EQ(flips::bench::format_rounds(57.0, 100), "57");
  EXPECT_EQ(flips::bench::format_rounds(std::nullopt, 100), ">100");
  EXPECT_EQ(flips::bench::format_paper_rounds(-1, 400), ">400");
  EXPECT_EQ(flips::bench::format_paper_rounds(123, 400), "123");
}

// ------------------------- ScenarioSpec ------------------------------

TEST(ScenarioSpec, OverridesParseAndValidate) {
  flips::ScenarioSpec spec;
  flips::apply_override(spec, "rounds=60");
  flips::apply_override(spec, "alpha=0.6");
  flips::apply_override(spec, "selector=oort");
  flips::apply_override(spec, "codec=quant8");
  flips::apply_override(spec, "sessions=4");
  EXPECT_EQ(spec.rounds, 60u);
  EXPECT_DOUBLE_EQ(spec.alpha, 0.6);
  EXPECT_EQ(spec.selector, "oort");
  EXPECT_EQ(spec.codec, "quant8");
  EXPECT_EQ(spec.sessions, 4u);

  EXPECT_THROW(flips::apply_override(spec, "bogus_key=1"),
               std::invalid_argument);
  EXPECT_THROW(flips::apply_override(spec, "rounds=abc"),
               std::invalid_argument);
  EXPECT_THROW(flips::apply_override(spec, "selector=best"),
               std::invalid_argument);
  EXPECT_THROW(flips::apply_override(spec, "no-equals-sign"),
               std::invalid_argument);
  // Failed overrides must not half-apply.
  EXPECT_EQ(spec.selector, "oort");

  // Values that used to run silently wrong: runs=0 divides by zero in
  // run_selector, a negative participation casts a negative double to
  // size_t, alpha <= 0 or nan made Dirichlet sampling substitute a
  // tiny concentration, a nan learning rate trained a NaN model, and a
  // huge negative one sent non-finite deltas into quant8's int8 cast.
  for (const char* bad :
       {"runs=0", "participation=-0.5", "participation=0",
        "participation=1.5", "participation=nan", "alpha=0", "alpha=-1",
        "alpha=nan", "alpha=inf", "local_lr=nan", "local_lr=0",
        "local_lr=-1e300", "local_lr=inf", "server_lr=0", "server_lr=-1",
        "server_lr=nan", "server_lr=inf", "dp_clip=0", "dp_clip=-1",
        "dp_clip=nan", "dp_clip=inf", "prox_mu=-0.1", "prox_mu=nan",
        "prox_mu=inf", "dp_noise=-0.5", "dp_noise=nan", "dp_noise=inf",
        "straggler_rate=-0.1", "straggler_rate=1.5", "straggler_rate=nan",
        "target_accuracy=-0.1", "target_accuracy=1.01",
        "target_accuracy=nan"}) {
    EXPECT_THROW(flips::apply_override(spec, bad), std::invalid_argument)
        << bad;
  }
  flips::apply_override(spec, "runs=1");
  flips::apply_override(spec, "participation=1");
  flips::apply_override(spec, "alpha=1e-3");
  // The range ends are accepted.
  for (const char* edge :
       {"local_lr=1e-9", "server_lr=1", "dp_clip=0.5", "prox_mu=0",
        "dp_noise=0", "straggler_rate=0", "straggler_rate=1",
        "target_accuracy=0", "target_accuracy=1"}) {
    EXPECT_NO_THROW(flips::apply_override(spec, edge)) << edge;
  }
  EXPECT_EQ(spec.runs, 1u);
  EXPECT_DOUBLE_EQ(spec.participation, 1.0);
  EXPECT_DOUBLE_EQ(spec.alpha, 1e-3);
  // Served tenants go through the same setters.
  const flips::KeyValueList negative{{"participation", "-0.5"}};
  EXPECT_THROW(flips::ScenarioSpec::from_key_values(negative),
               std::invalid_argument);
  const flips::KeyValueList nan_lr{{"local_lr", "nan"}};
  EXPECT_THROW(flips::ScenarioSpec::from_key_values(nan_lr),
               std::invalid_argument);
}

TEST(ScenarioSpec, FederationModeKeysParseAndLower) {
  flips::ScenarioSpec spec;
  EXPECT_EQ(spec.mode, "sync");
  flips::apply_override(spec, "mode=async");
  flips::apply_override(spec, "buffer_k=3");
  flips::apply_override(spec, "max_staleness=7");
  EXPECT_EQ(spec.mode, "async");
  EXPECT_EQ(spec.buffer_k, 3u);
  EXPECT_EQ(spec.max_staleness, 7u);
  EXPECT_THROW(flips::apply_override(spec, "mode=lockstep"),
               std::invalid_argument);
  EXPECT_EQ(spec.mode, "async");

  const auto config = flips::to_experiment_config(spec);
  EXPECT_EQ(config.mode, flips::fl::FederationMode::kAsync);
  EXPECT_EQ(config.async.buffer_k, 3u);
  EXPECT_EQ(config.async.max_staleness, 7u);

  const flips::ScenarioSpec sync_spec;
  const auto sync_config = flips::to_experiment_config(sync_spec);
  EXPECT_EQ(sync_config.mode, flips::fl::FederationMode::kSync);
}

TEST(ScenarioSpec, PresetsCoverTheTableGridAndLowerCorrectly) {
  const auto names = flips::scenario_preset_names();
  EXPECT_EQ(names.size(), 12u);
  for (const auto& name : names) {
    const auto spec = flips::scenario_preset(name);
    EXPECT_EQ(spec.name, name);
    // Every preset must lower onto the engine without throwing.
    const auto config = flips::to_experiment_config(spec);
    EXPECT_GT(config.target_accuracy, 0.0);
  }
  EXPECT_THROW(flips::scenario_preset("mnist-fedsgd"),
               std::invalid_argument);

  const auto prox = flips::scenario_preset("ecg-fedprox");
  EXPECT_EQ(prox.server_opt, "fedavg");  // paper pairing
  EXPECT_DOUBLE_EQ(prox.prox_mu, 0.1);
  const auto yogi = flips::scenario_preset("femnist-fedyogi");
  EXPECT_EQ(yogi.server_opt, "fedyogi");
  EXPECT_DOUBLE_EQ(yogi.prox_mu, 0.0);
}

TEST(ScenarioSpec, LowersOntoExperimentConfig) {
  flips::ScenarioSpec spec = flips::scenario_preset("ham-fedyogi");
  flips::apply_override(spec, "parties=32");
  flips::apply_override(spec, "samples=48");
  flips::apply_override(spec, "rounds=21");
  flips::apply_override(spec, "threads=3");
  flips::apply_override(spec, "codec=topk");
  flips::apply_override(spec, "privacy=dp");
  flips::apply_override(spec, "dp_noise=0.7");
  flips::apply_override(spec, "client_algo=scaffold");
  flips::apply_override(spec, "class_separation=1.9");

  const auto config = flips::to_experiment_config(spec);
  EXPECT_EQ(config.spec.name, "ham10000");
  EXPECT_DOUBLE_EQ(config.spec.class_separation, 1.9);
  EXPECT_EQ(config.scale.num_parties, 32u);
  EXPECT_EQ(config.scale.samples_per_party, 48u);
  EXPECT_EQ(config.scale.rounds, 21u);
  EXPECT_EQ(config.threads, 3u);
  EXPECT_EQ(config.codec.codec, flips::net::Codec::kTopK);
  EXPECT_EQ(config.server_opt, flips::fl::ServerOpt::kFedYogi);
  EXPECT_EQ(config.client_algo, flips::fl::ClientAlgo::kScaffold);
  EXPECT_EQ(config.privacy.mechanism, flips::fl::PrivacyMechanism::kDp);
  EXPECT_DOUBLE_EQ(config.privacy.dp.noise_multiplier, 0.7);
  EXPECT_EQ(flips::selector_kind(spec), flips::select::SelectorKind::kFlips);
}

TEST(ScenarioSpec, KeyValueRoundTripIsExact) {
  // A spec that exercises every value family: choice strings,
  // registry-validated selector, integers, and doubles whose decimal
  // images must survive the wire (shortest-round-trip formatting).
  flips::ScenarioSpec spec = flips::scenario_preset("femnist-fedyogi");
  flips::apply_override(spec, "alpha=0.1");
  flips::apply_override(spec, "participation=0.35");
  flips::apply_override(spec, "selector=oort");
  flips::apply_override(spec, "codec=topk");
  flips::apply_override(spec, "mode=async");
  flips::apply_override(spec, "buffer_k=5");
  flips::apply_override(spec, "seed=9001");
  flips::apply_override(spec, "sessions=3");
  spec.local_lr = 0.1 + 0.2;  // 0.30000000000000004: needs 17 digits

  const auto kv = spec.to_key_values();
  const auto back = flips::ScenarioSpec::from_key_values(kv);
  EXPECT_EQ(back, spec);
  EXPECT_EQ(back.to_key_values(), kv);

  // A partial list is an override set over the defaults.
  const auto sparse = flips::ScenarioSpec::from_key_values(
      {{"rounds", "7"}, {"selector", "oort"}});
  EXPECT_EQ(sparse.rounds, 7u);
  EXPECT_EQ(sparse.selector, "oort");
  EXPECT_EQ(sparse.dataset, flips::ScenarioSpec{}.dataset);

  // Wire submissions get the same fail-fast validation as --set.
  EXPECT_THROW(flips::ScenarioSpec::from_key_values({{"bogus", "1"}}),
               std::invalid_argument);
  EXPECT_THROW(flips::ScenarioSpec::from_key_values({{"rounds", "abc"}}),
               std::invalid_argument);
  EXPECT_THROW(flips::ScenarioSpec::from_key_values({{"selector", "best"}}),
               std::invalid_argument);
  EXPECT_THROW(flips::ScenarioSpec::from_key_values({{"mode", "warp"}}),
               std::invalid_argument);
}

TEST(ScenarioSpec, UsageListsEveryKey) {
  const flips::ScenarioSpec spec;
  const std::string usage = flips::scenario_usage(spec);
  for (const char* key :
       {"dataset=", "alpha=", "parties=", "rounds=", "selector=",
        "codec=", "sessions=", "privacy=", "straggler_rate=", "mode=",
        "buffer_k=", "max_staleness=", "churn=", "fault_rate=",
        "min_quorum=", "max_retries="}) {
    EXPECT_NE(usage.find(key), std::string::npos) << key;
  }
}

TEST(ScenarioSpec, FaultKeysParseValidateAndLower) {
  flips::ScenarioSpec spec;
  flips::apply_override(spec, "churn=1.5");
  flips::apply_override(spec, "fault_rate=0.1");
  flips::apply_override(spec, "min_quorum=0.5");
  flips::apply_override(spec, "max_retries=3");
  EXPECT_DOUBLE_EQ(spec.churn, 1.5);
  EXPECT_DOUBLE_EQ(spec.fault_rate, 0.1);
  EXPECT_DOUBLE_EQ(spec.min_quorum, 0.5);
  EXPECT_EQ(spec.max_retries, 3u);

  const auto config = flips::to_experiment_config(spec);
  EXPECT_DOUBLE_EQ(config.faults.churn, 1.5);
  EXPECT_DOUBLE_EQ(config.faults.crash_rate, 0.1);
  EXPECT_DOUBLE_EQ(config.faults.min_quorum, 0.5);
  EXPECT_EQ(config.faults.max_retries, 3u);
  EXPECT_TRUE(config.faults.enabled());

  // The fault keys ride the serving wire with everything else.
  const auto kv = spec.to_key_values();
  const auto back = flips::ScenarioSpec::from_key_values(kv);
  EXPECT_EQ(back, spec);

  // Fail-fast on out-of-range knobs, same as every other key.
  EXPECT_THROW(flips::apply_override(spec, "churn=-1"),
               std::invalid_argument);
  EXPECT_THROW(flips::apply_override(spec, "churn=nan"),
               std::invalid_argument);
  EXPECT_THROW(flips::apply_override(spec, "fault_rate=2"),
               std::invalid_argument);
  EXPECT_THROW(flips::apply_override(spec, "min_quorum=1.5"),
               std::invalid_argument);
  EXPECT_THROW(flips::apply_override(spec, "max_retries=65"),
               std::invalid_argument);
}

TEST(ScenarioSpec, FaultPlanActivatesTheDeviceFleet) {
  // With faults off, build_federation keeps the legacy always-on
  // profiles: every selected party responds. With any fault knob on,
  // the senior-care device fleet's reliability columns reach the
  // session, so dispatches actually crash. Pinned end to end because
  // the Device availability/fault_rate columns were silently unused
  // for several releases.
  flips::ScenarioSpec spec;
  spec.parties = 16;
  spec.samples_per_party = 20;
  spec.rounds = 4;
  spec.threads = 2;
  spec.seed = 99;

  auto run = [&] {
    auto session = flips::bench::make_session(
        flips::to_experiment_config(spec), flips::selector_kind(spec),
        spec.seed);
    while (!session->done()) session->advance();
    return session->result();
  };

  const auto plain = run();
  for (const auto& record : plain.history) {
    EXPECT_EQ(record.responded, record.selected);
    EXPECT_EQ(record.crashed, 0u);
  }

  flips::apply_override(spec, "churn=1");
  flips::apply_override(spec, "fault_rate=0.15");
  const auto faulted = run();
  ASSERT_EQ(faulted.history.size(), 4u);
  std::size_t crashed = 0;
  for (const auto& record : faulted.history) crashed += record.crashed;
  EXPECT_GT(crashed, 0u);
}

}  // namespace
