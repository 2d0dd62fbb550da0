// Reproduces the paper's Tables 1-24: one (dataset, FL algorithm) table
// pair per run, named by a scenario preset —
//   4 settings (α ∈ {0.3, 0.6} × participation ∈ {20 %, 15 %})
//   × 5 selectors at 0 % stragglers
//   × {FLIPS, Oort, TiFL} at 10 % and 20 % stragglers
// — printing measured-vs-paper rows for the rounds-to-target table and
// the peak-accuracy table. With --csv it also emits the per-round
// accuracy curves behind the corresponding convergence figures.
//
//   flips_tables                             # Tables 1-2 (ecg-fedyogi)
//   flips_tables --scenario ham-fedprox      # Tables 11-12
//   flips_tables --scenario femnist-fedavg --set parties=30 --set runs=1
//
// Each grid cell is the spec plus five overrides (paper::grid_cell), and
// prints the `flips_run` command that re-runs that cell on its own:
//   rerun,<setting>,<column>,flips_run --scenario <preset> --set ...
#include <algorithm>
#include <array>
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/experiment.h"
#include "common/paper_tables.h"
#include "common/scenario.h"

namespace {

namespace paper = flips::bench::paper;
using flips::bench::SelectorResult;

std::string pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", 100.0 * fraction);
  return buf;
}

std::string paper_acc(double value) {
  if (std::isnan(value)) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", value);
  return buf;
}

std::string setting_label(const paper::Setting& setting) {
  std::ostringstream label;
  label << "a=" << setting.alpha << "/"
        << pct(setting.party_fraction).substr(0, 2) << "%";
  return label.str();
}

using SettingResults = std::array<SelectorResult, paper::kArms.size()>;

// The shape checks compare FLIPS at 0 % stragglers with every other
// 0 %-straggler arm.
constexpr std::size_t kFlipsArm = 1;
static_assert(paper::kArms[kFlipsArm].selector ==
                  flips::select::SelectorKind::kFlips &&
              paper::kArms[kFlipsArm].straggler_rate == 0.0);

bool is_baseline(std::size_t a) {
  return a != kFlipsArm && paper::kArms[a].straggler_rate == 0.0;
}

/// Prints one measured-vs-paper table: per setting a measured row and a
/// "(paper)" row, one column per arm.
template <typename Measured, typename Paper>
void print_table(const std::string& title,
                 const std::vector<SettingResults>& results,
                 Measured measured, Paper paper_cell) {
  std::vector<std::string> columns{"setting"};
  for (const paper::Arm& arm : paper::kArms) columns.push_back(arm.column);
  flips::bench::print_table_header(title, columns);
  for (std::size_t s = 0; s < paper::kSettings.size(); ++s) {
    std::vector<std::string> row{setting_label(paper::kSettings[s])};
    std::vector<std::string> paper_row{"  (paper)"};
    for (std::size_t a = 0; a < paper::kArms.size(); ++a) {
      row.push_back(measured(results[s][a]));
      paper_row.push_back(paper_cell(s, paper::kArms[a]));
    }
    flips::bench::print_table_row(row);
    flips::bench::print_table_row(paper_row);
  }
}

}  // namespace

int main(int argc, char** argv) {
  flips::ScenarioSpec defaults = flips::scenario_preset("ecg-fedyogi");
  defaults.runs = 3;
  const auto args = flips::parse_scenario_args(argc, argv, defaults);
  const flips::ScenarioSpec& spec = args.spec;
  const paper::TablePair* table = paper::table_for(spec.name);
  if (table == nullptr) {
    std::cerr << "no paper table for scenario " << spec.name << " (known:";
    for (const auto& entry : paper::kPresetTables) {
      std::cerr << " " << entry.preset;
    }
    std::cerr << ")\n";
    return 2;
  }

  std::cout << "FLIPS reproduction — " << table->dataset << " / "
            << table->algorithm << "\n"
            << "scale: " << spec.parties << " parties, " << spec.rounds
            << " rounds, " << spec.runs << " run(s), "
            << (spec.threads == 0 ? std::string("all")
                                  : std::to_string(spec.threads))
            << " thread(s); target balanced accuracy "
            << pct(spec.target_accuracy) << " % (paper target "
            << pct(table->target_accuracy) << " % in "
            << table->paper_round_budget << " rounds)\n";

  std::vector<SettingResults> results(paper::kSettings.size());
  for (std::size_t s = 0; s < paper::kSettings.size(); ++s) {
    for (std::size_t a = 0; a < paper::kArms.size(); ++a) {
      const auto cell = paper::grid_cell(spec, s, paper::kArms[a]);
      results[s][a] = flips::bench::run_selector(
          flips::to_experiment_config(cell), flips::selector_kind(cell));
      std::cout << "rerun," << setting_label(paper::kSettings[s]) << ","
                << paper::kArms[a].column << ","
                << flips::scenario_command(cell) << "\n";
    }
  }

  print_table(
      std::string("Rounds to ") + pct(spec.target_accuracy) +
          " % balanced accuracy (measured | paper)",
      results,
      [&](const SelectorResult& r) {
        return flips::bench::format_rounds(r.rounds_to_target, spec.rounds);
      },
      [&](std::size_t s, const paper::Arm& arm) {
        return flips::bench::format_paper_rounds(
            table->rounds[s].*arm.paper_rounds, table->paper_round_budget);
      });
  print_table(
      "Highest balanced accuracy within budget, % (measured | paper)",
      results,
      [](const SelectorResult& r) { return pct(r.peak_accuracy); },
      [&](std::size_t s, const paper::Arm& arm) {
        return paper_acc(table->accuracy[s].*arm.paper_accuracy);
      });

  // ---- Convergence-figure series (Figs. 5-12 analogues) -----------
  if (args.csv) {
    for (std::size_t s = 0; s < paper::kSettings.size(); ++s) {
      const auto& setting = paper::kSettings[s];
      std::ostringstream tag;
      tag << table->dataset << "/" << table->algorithm << "/a"
          << setting.alpha << "/p" << setting.party_fraction;
      for (std::size_t a = 0; a < paper::kArms.size(); ++a) {
        const double rate = paper::kArms[a].straggler_rate;
        std::string arm_tag = tag.str();
        if (rate > 0.0) {
          arm_tag += "/strag" + std::to_string(std::lround(100.0 * rate));
        }
        flips::bench::print_curve_csv(arm_tag, results[s][a]);
      }
    }
  }

  std::cout << "\nShape checks (reduced scale — see EXPERIMENTS.md for the "
               "full analysis, including the known TiFL deviation):\n";
  const std::size_t n = results.size();
  for (std::size_t a = 0; a < paper::kArms.size(); ++a) {
    if (!is_baseline(a)) continue;
    const auto beats = std::count_if(
        results.begin(), results.end(), [a](const SettingResults& cell) {
          return cell[kFlipsArm].peak_accuracy >= cell[a].peak_accuracy;
        });
    std::string name = paper::kArms[a].name;
    name.resize(9, ' ');
    std::cout << "  FLIPS peak accuracy >= " << name << "in " << beats << "/"
              << n << " settings (paper: 4/4"
              << (paper::kArms[a].selector == flips::select::SelectorKind::kTifl
                      ? "; reduced scale inflates TiFL — see EXPERIMENTS.md"
                      : "")
              << ")\n";
  }
  const auto flips_fastest = std::count_if(
      results.begin(), results.end(), [](const SettingResults& cell) {
        double best_other_rounds = 1e9;
        for (std::size_t a = 0; a < paper::kArms.size(); ++a) {
          if (!is_baseline(a)) continue;
          best_other_rounds = std::min(
              best_other_rounds, cell[a].rounds_to_target.value_or(1e9));
        }
        return cell[kFlipsArm].rounds_to_target.value_or(1e9) <=
               best_other_rounds;
      });
  std::cout << "  FLIPS reaches target first      in " << flips_fastest << "/"
            << n << " settings (paper: 4/4)\n";
  return 0;
}
