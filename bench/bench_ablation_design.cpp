// Ablation bench for FLIPS's design choices (beyond the paper's own
// tables; DESIGN.md §5 calls these out):
//   A. straggler over-provisioning on/off at increasing straggler rates;
//   B. label-distribution representation fed to k-means: raw counts vs
//      normalized proportions vs Hellinger (sqrt-proportion) space;
//   C. cluster-count sensitivity (k sweep around the elbow's choice);
//   D. the Power-of-Choice extension vs FLIPS and random.
#include <cctype>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "common/scenario.h"
#include "selection/flips_selector.h"

namespace {

using flips::LdSpace;

/// Peak balanced accuracy of `session` stepped to completion.
double peak_accuracy(flips::fl::FederationSession& session) {
  while (!session.done()) session.advance();
  return session.result().peak_accuracy;
}

/// Mean over two federations: seeds `seed` and `seed` + 1000.
template <typename F>
double avg2(std::uint64_t seed, F&& f) {
  return (f(seed) + f(seed + 1000)) / 2.0;
}

}  // namespace

int main(int argc, char** argv) {
  flips::ScenarioSpec defaults;
  defaults.rounds = 80;
  defaults.server_opt = "fedyogi";
  const auto spec = flips::parse_scenario_args(argc, argv, defaults).spec;
  const flips::ExperimentConfig base = flips::to_experiment_config(spec);

  std::string dataset = spec.dataset;
  for (char& c : dataset) c = static_cast<char>(std::toupper(c));
  std::cout << "FLIPS design ablations (" << dataset
            << " stand-in, alpha=" << spec.alpha << ", "
            << (spec.server_opt == "fedyogi" ? "FedYogi" : spec.server_opt)
            << ", " << spec.parties << " parties, " << spec.rounds
            << " rounds)\n";

  // FLIPS over k clusters of the label distributions in `space`, mean
  // peak accuracy over two federations. The arm builds its own
  // FlipsSelector so it can switch over-provisioning off.
  auto flips_acc = [&](std::size_t k, LdSpace space, bool overprovision,
                       double straggler_rate) {
    flips::ExperimentConfig config = base;
    config.flips_clusters = k;
    config.straggler_rate = straggler_rate;
    return avg2(spec.seed, [&](std::uint64_t seed) {
      auto fed = flips::build_federation(config, seed, space);
      flips::select::FlipsSelectorConfig sc;
      sc.overprovision = overprovision;
      auto selector = std::make_unique<flips::select::FlipsSelector>(
          fed.clusters, fed.num_clusters, sc);
      return peak_accuracy(*flips::make_session(config, std::move(fed),
                                                std::move(selector), seed));
    });
  };

  // A. Straggler over-provisioning.
  std::cout << "\n[A] straggler over-provisioning (peak balanced acc %)\n"
               "  rate   with    without\n";
  for (const double rate : {0.0, 0.1, 0.2, 0.3}) {
    const double with_op = flips_acc(20, LdSpace::kHellinger, true, rate);
    const double without = flips_acc(20, LdSpace::kHellinger, false, rate);
    printf("  %3.0f%%   %5.1f   %5.1f\n", 100.0 * rate, 100.0 * with_op,
           100.0 * without);
  }

  // B. Label-distribution representation.
  std::cout << "\n[B] clustering space for label distributions\n";
  for (const auto& [space, name] :
       {std::pair{LdSpace::kRawCounts, "raw counts  "},
        std::pair{LdSpace::kProportions, "proportions "},
        std::pair{LdSpace::kHellinger, "hellinger   "}}) {
    printf("  %s  %5.1f %%\n", name, 100.0 * flips_acc(20, space, true, 0.0));
  }

  // C. Cluster-count sensitivity.
  std::cout << "\n[C] cluster count k (paper's elbow picks ~10 at its "
               "scale; the reduced-scale federations calibrate at 20)\n";
  for (const std::size_t k : {5u, 10u, 20u, 40u}) {
    printf("  k=%-3zu  %5.1f %%\n", k,
           100.0 * flips_acc(k, LdSpace::kHellinger, true, 0.0));
  }

  // D. Power-of-Choice extension vs FLIPS vs random.
  std::cout << "\n[D] loss-biased selection extension (pow-d, paper §3 "
               "related work) vs FLIPS vs random\n";
  for (const auto kind :
       {flips::select::SelectorKind::kRandom,
        flips::select::SelectorKind::kPowerOfChoice,
        flips::select::SelectorKind::kFlips}) {
    const double acc = avg2(spec.seed, [&](std::uint64_t seed) {
      return peak_accuracy(*flips::make_session(base, kind, seed));
    });
    printf("  %-8s  %5.1f %%\n", flips::select::to_string(kind),
           100.0 * acc);
  }
  return 0;
}
