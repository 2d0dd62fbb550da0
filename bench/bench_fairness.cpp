// Selection fairness across strategies (paper §1/§3.2: FLIPS "ensures
// that parties are equitably represented while offering each party a
// fair opportunity to participate").
//
// For every selector: Jain's index over per-party pick counts, rounds
// until full coverage (every party selected >= once), and peak accuracy.
// Interpreting Jain needs care: FLIPS equalizes *cluster* representation,
// so a party in a small cluster is picked more often than one in a large
// cluster — per-party Jain is deliberately below random's, while within
// any one cluster picks are exactly balanced (least-selected first).
// Random/TiFL maximize per-party Jain but are blind to label coverage.
#include <iostream>

#include "common/experiment.h"
#include "common/scenario.h"

int main(int argc, char** argv) {
  flips::ScenarioSpec defaults;  // ECG, alpha 0.3
  defaults.participation = 0.15;
  defaults.server_opt = "fedyogi";
  defaults.target_accuracy = 0.6;
  defaults.rounds = 120;
  defaults.runs = 2;
  const auto config = flips::to_experiment_config(
      flips::parse_scenario_args(argc, argv, defaults).spec);

  std::cout << "=== Selection fairness (ECG-style, alpha=0.3, 15% "
               "participation, FedYogi) ===\n\n";
  flips::bench::print_table_header(
      "fairness", {"selector", "jain-index", "coverage-round", "peak-acc %"});

  for (const auto kind :
       {flips::select::SelectorKind::kFlips,
        flips::select::SelectorKind::kRandom,
        flips::select::SelectorKind::kOort,
        flips::select::SelectorKind::kGradClus,
        flips::select::SelectorKind::kTifl,
        flips::select::SelectorKind::kPowerOfChoice,
        flips::select::SelectorKind::kFedCbs}) {
    const auto result = flips::bench::run_selector(config, kind);
    flips::bench::print_table_row(
        {result.selector, std::to_string(result.mean_jain_index),
         result.mean_coverage_round
             ? std::to_string(*result.mean_coverage_round)
             : std::string("never"),
         std::to_string(result.peak_accuracy * 100.0)});
  }

  std::cout << "\nExpected shape: random and TiFL maximize per-party Jain "
               "(uniform picks) but cover the population late and lose "
               "accuracy on non-IID data; Oort and Fed-CBS concentrate "
               "picks on favoured parties (lowest Jain; Fed-CBS re-selects "
               "the same QCID-optimal cohort and may never cover the "
               "population); FLIPS sits between — its picks are uniform "
               "within clusters but weighted toward small clusters, which "
               "is exactly the equitable label representation the paper "
               "argues for, at accuracy competitive with the greedy "
               "strategies.\n";
  return 0;
}
