// Ablation bench for FLIPS's design choices (beyond the paper's own
// tables; DESIGN.md §5 calls these out):
//   A. straggler over-provisioning on/off at increasing straggler rates;
//   B. label-distribution representation fed to k-means: raw counts vs
//      normalized proportions vs Hellinger (sqrt-proportion) space;
//   C. cluster-count sensitivity (k sweep around the elbow's choice);
//   D. the Power-of-Choice extension vs FLIPS and random.
#include <iostream>

#include "common/experiment.h"
#include "common/scenario.h"
#include "common/stats.h"
#include "data/federated.h"
#include "fl/session.h"
#include "selection/factory.h"
#include "selection/flips_selector.h"

namespace {

struct Fed {
  std::vector<flips::fl::Party> parties;
  flips::data::Dataset test;
  std::vector<flips::data::LabelDistribution> lds;
  std::vector<double> latencies;
};

Fed build(std::uint64_t seed, std::size_t parties_n) {
  flips::data::FederatedDataConfig dc;
  dc.spec = flips::data::DatasetCatalog::ecg();
  dc.num_parties = parties_n;
  dc.samples_per_party = 80;
  dc.alpha = 0.3;
  dc.test_per_class = 100;
  dc.seed = seed;
  const auto data = flips::data::build_federated_data(dc);
  Fed fed;
  flips::common::Rng prof(seed ^ 0xBEEF);
  for (std::size_t p = 0; p < data.party_data.size(); ++p) {
    flips::fl::PartyProfile profile;
    const double u = prof.uniform();
    profile.speed_factor = u < 0.6 ? 1.0 : (u < 0.9 ? 2.0 : 4.0);
    fed.parties.emplace_back(p, data.party_data[p], profile);
    fed.latencies.push_back(profile.speed_factor *
                            static_cast<double>(data.party_data[p].size()));
  }
  fed.test = data.global_test;
  fed.lds = data.label_distributions;
  return fed;
}

using flips::bench::cluster_label_distributions;
using flips::bench::LdSpace;

/// Peak accuracy of one FedYogi job over `fed` driven by `selector`.
double run_job(const Fed& fed,
               std::unique_ptr<flips::fl::ParticipantSelector> selector,
               double straggler_rate, std::uint64_t seed,
               std::size_t rounds) {
  flips::fl::FlJobConfig config;
  config.rounds = rounds;
  config.parties_per_round = fed.parties.size() / 5;
  config.local.epochs = 2;
  config.local.sgd.learning_rate = 0.05;
  config.local.sgd.lr_decay_factor = 0.5;
  config.local.sgd.lr_decay_rounds = 20;
  config.server.optimizer = flips::fl::ServerOpt::kFedYogi;
  config.server.learning_rate = 0.05;
  config.stragglers.rate = straggler_rate;
  config.seed = seed;
  config.eval_every = 2;

  flips::common::Rng mrng(seed ^ 0x30DE);
  auto model = flips::ml::ModelFactory::mlp(32, 24, 5, mrng);
  flips::fl::FederationSession session(config, fed.parties, fed.test,
                                      std::move(model), std::move(selector));
  while (!session.done()) session.advance();
  return session.result().peak_accuracy;
}

/// Mean over two federations.
template <typename F>
double avg2(F&& f) {
  return (f(42) + f(1042)) / 2.0;
}

}  // namespace

int main(int argc, char** argv) {
  flips::ScenarioSpec defaults;
  defaults.rounds = 80;
  const auto spec = flips::parse_scenario_args(argc, argv, defaults).spec;
  const std::size_t parties = spec.parties;
  const std::size_t rounds = spec.rounds;

  std::cout << "FLIPS design ablations (ECG stand-in, alpha=0.3, FedYogi, "
            << parties << " parties, " << rounds << " rounds)\n";

  // FLIPS over k clusters of the label distributions in `space`, mean
  // peak accuracy over two federations.
  auto flips_acc = [&](std::size_t k, LdSpace space, bool overprovision,
                       double straggler_rate) {
    return avg2([&](std::uint64_t s) {
      const Fed fed = build(s, parties);
      flips::select::FlipsSelectorConfig sc;
      sc.overprovision = overprovision;
      return run_job(fed,
                     std::make_unique<flips::select::FlipsSelector>(
                         cluster_label_distributions(fed.lds, k, space,
                                                     s ^ 0xC1),
                         k, sc),
                     straggler_rate, s, rounds);
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
    const double acc = avg2([&](std::uint64_t s) {
      const Fed fed = build(s, parties);
      flips::select::SelectorContext ctx;
      ctx.num_parties = fed.parties.size();
      ctx.seed = s ^ 0x5E1E;
      ctx.cluster_of = cluster_label_distributions(
          fed.lds, 20, LdSpace::kHellinger, s ^ 0xC1);
      ctx.num_clusters = 20;
      ctx.latencies = fed.latencies;
      ctx.rounds_hint = rounds;
      return run_job(fed, flips::select::make_selector(kind, ctx), 0.0, s,
                     rounds);
    });
    printf("  %-8s  %5.1f %%\n", flips::select::to_string(kind),
           100.0 * acc);
  }
  return 0;
}
