// The bench command line (parse_scenario_args), the count and port
// flag parsers, and the paper-table grid (bench/common layer). The
// ScenarioSpec registry and presets are test_scenario's.
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

}  // namespace
