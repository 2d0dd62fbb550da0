// Reproduces Figure 2: Davies-Bouldin index vs. cluster count k, with the
// elbow marking the optimal k (the paper finds k = 10 for 200 parties).
//
// Uses the planted-modes partitioner so the ground-truth number of label
// distribution modes is known; the bench reports whether the DBI elbow
// recovers it, prints the averaged curve (T = 20 repeats per k, as in the
// paper), and compares the prose elbow rule with the literal Eq. 3 rule.
#include <iostream>

#include "cluster/dbi.h"
#include "common/scenario.h"
#include "common/stats.h"
#include "data/federated.h"

int main(int argc, char** argv) {
  flips::ScenarioSpec defaults;
  defaults.parties = 200;  // clustering is cheap; use paper scale
  const auto spec = flips::parse_scenario_args(argc, argv, defaults).spec;

  constexpr std::size_t kTrueModes = 10;

  flips::data::FederatedDataConfig dc;
  dc.spec = flips::data::DatasetCatalog::ecg();
  dc.num_parties = spec.parties;
  dc.samples_per_party = 120;
  dc.alpha = 0.3;
  dc.scheme = flips::data::PartitionScheme::kPlantedModes;
  dc.num_modes = kTrueModes;
  dc.seed = spec.seed;
  const auto fed = flips::data::build_federated_data(dc);

  std::vector<flips::cluster::Point> points;
  points.reserve(fed.label_distributions.size());
  for (const auto& ld : fed.label_distributions) {
    points.push_back(flips::common::normalized(ld));
  }

  flips::cluster::OptimalKConfig okc;
  okc.k_min = 2;
  okc.k_max = 30;
  okc.repeats = 20;  // T in the paper
  flips::common::Rng rng(spec.seed);
  const auto elbow = flips::cluster::optimal_k_elbow(points, okc, rng);
  const auto eq3 = flips::cluster::optimal_k_eq3(points, okc, rng);

  std::cout << "Figure 2 reproduction: DBI vs cluster size ("
            << spec.parties << " parties, " << kTrueModes
            << " planted label-distribution modes, T=" << okc.repeats
            << ")\n\n";
  std::cout << "  k    mean DBI\n";
  for (std::size_t i = 0; i < elbow.dbi_curve.size(); ++i) {
    const std::size_t k = elbow.k_min + i;
    std::cout << "  " << k << (k < 10 ? "    " : "   ");
    const int bars = static_cast<int>(elbow.dbi_curve[i] * 120.0);
    printf("%.4f  %s\n", elbow.dbi_curve[i],
           std::string(static_cast<std::size_t>(std::max(bars, 0)), '#')
               .c_str());
  }
  std::cout << "\nElbow rule (prose / used by FLIPS): k = " << elbow.k
            << "\nEq. 3 literal rule:                 k = " << eq3.k
            << "\nGround truth planted modes:         k = " << kTrueModes
            << "\nPaper (Fig. 2, real datasets):      k = 10\n";
  return 0;
}
