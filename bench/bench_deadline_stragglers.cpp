// Deadline-based straggler study on a simulated smart-community fleet
// (paper §2.3 causes — network congestion, device faults, restricted
// resources — and §7's senior-care deployment mix).
//
// Where the paper *emulates* stragglers by dropping a fixed fraction
// (reproduced by flips_tables), this bench derives stragglers from
// device physics: wearables and budget phones miss tight aggregation
// deadlines. It sweeps the deadline and reports response rate, simulated
// time-to-target, and accuracy for FLIPS vs random — showing FLIPS's
// cluster-based over-provisioning keeps label coverage when whole device
// classes straggle.
#include <cstdio>
#include <iostream>
#include <utility>

#include "common/experiment.h"
#include "common/perf.h"
#include "common/scenario.h"
#include "common/stats.h"
#include "core/private_clustering.h"
#include "data/federated.h"
#include "fl/session.h"
#include "net/device.h"
#include "selection/factory.h"

namespace {

// Not built through scenario/builder.h: this bench samples the
// senior-care device fleet even with the fault plan off (the builder
// then gives parties speed factors only), pins its fault rate at 0 and
// runs without LR decay, which the builder has no keys for; routing it
// there would move its published numbers.
struct Fleet {
  std::vector<flips::fl::Party> parties;
  flips::data::Dataset test;
  std::vector<std::size_t> clusters;
  std::size_t k = 0;
};

Fleet build_fleet(const flips::ScenarioSpec& spec) {
  flips::data::FederatedDataConfig dc;
  dc.spec = flips::data::DatasetCatalog::ecg();
  dc.num_parties = spec.parties;
  dc.samples_per_party = spec.samples_per_party;
  dc.alpha = spec.alpha;
  dc.test_per_class = 80;
  dc.seed = spec.seed;
  const auto data = flips::data::build_federated_data(dc);

  Fleet fleet;
  fleet.test = data.global_test;

  flips::common::Rng rng(spec.seed ^ 0xF1EE7);
  const flips::net::FleetBuilder devices(flips::net::FleetMix::senior_care());
  for (std::size_t p = 0; p < data.party_data.size(); ++p) {
    auto device = devices.sample(rng);
    device.fault_rate = 0.0;  // the fault arm crashes at crash_rate only
    fleet.parties.emplace_back(p, data.party_data[p],
                               flips::fl::PartyProfile::from_device(device));
  }

  flips::core::PrivateClusteringConfig cc;
  cc.k = 10;
  cc.seed = spec.seed ^ 0xC1;
  auto clustering =
      flips::core::cluster_privately(cc, data.label_distributions);
  fleet.clusters = std::move(clustering.assignments);
  fleet.k = clustering.centroids.size();
  return fleet;
}

}  // namespace

int main(int argc, char** argv) {
  flips::ScenarioSpec defaults;
  defaults.parties = 60;
  defaults.rounds = 80;
  const auto spec = flips::parse_scenario_args(argc, argv, defaults).spec;

  const Fleet fleet = build_fleet(spec);
  const std::size_t nr =
      std::max<std::size_t>(2, fleet.parties.size() / 5);
  // Async arm knobs (see below).
  const std::size_t buffer_k = std::max<std::size_t>(1, nr / 2);
  const std::size_t max_staleness = 4;

  // One job shape for every arm; the async step budget matches the
  // sync arm's total folded updates (rounds x Nr / K steps).
  auto arm_config = [&](flips::fl::FederationMode mode, std::size_t threads,
                        const flips::net::FaultConfig& faults = {}) {
    flips::fl::FlJobConfig job_config;
    job_config.mode = mode;
    job_config.rounds = mode == flips::fl::FederationMode::kAsync
                            ? spec.rounds * nr / buffer_k
                            : spec.rounds;
    job_config.parties_per_round = nr;
    job_config.async.buffer_k = buffer_k;
    job_config.async.max_staleness = max_staleness;
    job_config.local.epochs = 2;
    job_config.local.sgd.learning_rate = 0.05;
    job_config.server.optimizer = flips::fl::ServerOpt::kFedYogi;
    job_config.server.learning_rate = 0.05;
    job_config.seed = spec.seed;
    job_config.threads = threads;
    job_config.eval_every = 2;
    job_config.target_accuracy = 0.6;
    job_config.faults = faults;
    return job_config;
  };

  auto run_arm = [&](const flips::fl::FlJobConfig& job_config,
                     flips::select::SelectorKind kind =
                         flips::select::SelectorKind::kFlips) {
    flips::select::SelectorContext ctx;
    ctx.num_parties = fleet.parties.size();
    ctx.seed = spec.seed ^ 0x5E1E;
    ctx.cluster_of = fleet.clusters;
    ctx.num_clusters = fleet.k;
    flips::common::Rng model_rng(spec.seed ^ 0x30DE);
    flips::fl::FederationSession session(
        job_config, fleet.parties, fleet.test,
        flips::ml::ModelFactory::mlp(32, 24, 5, model_rng),
        flips::select::make_selector(kind, ctx));
    while (!session.done()) session.advance();
    return session.result();
  };

  // Appends piecewise: gcc 12's -Wrestrict false-positives on
  // `"literal" + std::to_string(...)` once this is inlined.
  auto time_cell = [](const flips::fl::FlJobResult& result) {
    if (result.time_to_target_s) {
      return std::to_string(*result.time_to_target_s);
    }
    std::string cell = ">";
    cell += std::to_string(result.total_time_s);
    return cell;
  };

  std::cout << "=== Deadline stragglers on a senior-care fleet (45% "
               "wearables / 40% phones / 15% gateways+workstations) ===\n\n";
  flips::bench::print_table_header(
      "deadline sweep",
      {"deadline", "selector", "response-rate", "peak-acc %",
       "sim-time-to-60% (s)"});

  for (const double deadline : {0.5, 2.0, 8.0, 0.0 /* = unbounded */}) {
    for (const auto kind : {flips::select::SelectorKind::kFlips,
                            flips::select::SelectorKind::kRandom}) {
      auto job_config =
          arm_config(flips::fl::FederationMode::kSync, spec.threads);
      job_config.stragglers.mode = flips::fl::StragglerMode::kDeadline;
      job_config.stragglers.deadline_s = deadline;
      const auto result = run_arm(job_config, kind);

      double responded = 0.0;
      double selected = 0.0;
      for (const auto& record : result.history) {
        responded += static_cast<double>(record.responded);
        selected += static_cast<double>(record.selected);
      }
      flips::bench::print_table_row(
          {deadline > 0.0 ? std::to_string(deadline) + " s" : "unbounded",
           flips::select::to_string(kind),
           std::to_string(responded / selected),
           std::to_string(result.peak_accuracy * 100.0), time_cell(result)});
    }
  }

  std::cout << "\nExpected shape: tight deadlines silence the wearable "
               "tier; FLIPS's over-provisioning from straggler clusters "
               "keeps minority-label coverage, so its accuracy degrades "
               "more gracefully than random's. Unbounded deadlines trade "
               "wall-clock for full participation.\n";

  // --- Async arm: buffered asynchronous federation vs the sync barrier.
  //
  // Sync with no deadline pays the slowest cohort member every round —
  // on this fleet that is a wearable, so every round costs wearable
  // time. Async (FedBuff-style) steps the server every K arrivals and
  // drops updates staler than S, so fast gateways keep folding while
  // wearables trickle in. Same fleet, same selector, same simulated
  // clock.
  //
  // Bit-identity gate: both modes must be pure functions of the seed —
  // rerunning with a different worker count reproduces the exact
  // parameter vector. CI fails the perf job when this prints "no".
  struct ModePair {
    flips::fl::FlJobResult sync, async;
    bool identical = false;
  };
  const std::size_t alt_threads = spec.threads == 1 ? 4 : 1;
  auto run_modes = [&](const flips::net::FaultConfig& faults) {
    using flips::fl::FederationMode;
    ModePair out{run_arm(arm_config(FederationMode::kSync, spec.threads,
                                    faults)),
                 run_arm(arm_config(FederationMode::kAsync, spec.threads,
                                    faults))};
    out.identical =
        run_arm(arm_config(FederationMode::kSync, alt_threads, faults))
                .final_parameters == out.sync.final_parameters &&
        run_arm(arm_config(FederationMode::kAsync, alt_threads, faults))
                .final_parameters == out.async.final_parameters;
    return out;
  };

  const ModePair plain = run_modes({});
  const bool bit_identical = plain.identical;
  const auto& sync_result = plain.sync;
  const auto& async_result = plain.async;

  std::size_t dropped_stale = 0;
  for (const auto& record : async_result.history) {
    dropped_stale += record.dropped_stale;
  }

  std::cout << "\n";
  flips::bench::print_table_header(
      "async vs sync (flips selector, no deadline)",
      {"mode", "peak-acc %", "sim-time-to-60% (s)", "dropped-stale",
       "bit-identical"});
  flips::bench::print_table_row(
      {"sync", std::to_string(sync_result.peak_accuracy * 100.0),
       time_cell(sync_result), "0", bit_identical ? "yes" : "no"});
  flips::bench::print_table_row(
      {"async k=" + std::to_string(buffer_k) +
           " s=" + std::to_string(max_staleness),
       std::to_string(async_result.peak_accuracy * 100.0),
       time_cell(async_result), std::to_string(dropped_stale),
       bit_identical ? "yes" : "no"});

  // Stable machine-readable line for the CI perf artifact:
  //   perf,async,<buffer_k>,<max_staleness>,<async_tt_s|-1>,
  //        <sync_tt_s|-1>,<speedup>,<bit_identical yes|no>
  const double async_tt = async_result.time_to_target_s
                              ? *async_result.time_to_target_s
                              : -1.0;
  const double sync_tt =
      sync_result.time_to_target_s ? *sync_result.time_to_target_s : -1.0;
  const double speedup =
      async_tt > 0.0 && sync_tt > 0.0 ? sync_tt / async_tt : 0.0;
  flips::bench::PerfLine("async")
      .uint("buffer_k", buffer_k)
      .uint("max_staleness", max_staleness)
      .num("async_tt_s", async_tt, 3)
      .num("sync_tt_s", sync_tt, 3)
      .num("speedup", speedup, 3)
      .text("bit_identical", bit_identical ? "yes" : "no")
      .print();

  // --- Fault arm: the same fleet under an identical fault plan (device
  // churn + a 10% per-dispatch crash rate), comparing the two recovery
  // disciplines — sync backfills crashed cohort slots from the selector
  // (degrading to a quorum fold when backfill can't fill the hole),
  // async retries the failed slot in place after a backoff. Both must
  // stay bit-identical across worker counts WITH the fault plan on.
  flips::net::FaultConfig faults;
  faults.churn = 1.0;
  faults.crash_rate = 0.10;
  faults.max_retries = 2;
  faults.min_quorum = 0.5;

  const ModePair faulted = run_modes(faults);
  const auto& sync_faulted = faulted.sync;
  const auto& async_faulted = faulted.async;
  const bool fault_identical = faulted.identical;

  auto fault_tallies = [](const flips::fl::FlJobResult& result) {
    std::size_t crashed = 0;
    std::size_t recovered = 0;
    for (const auto& record : result.history) {
      crashed += record.crashed;
      recovered += record.retried + record.backfilled;
    }
    return std::make_pair(crashed, recovered);
  };
  const auto [sync_crashed, sync_recovered] = fault_tallies(sync_faulted);
  const auto [async_crashed, async_recovered] = fault_tallies(async_faulted);

  std::cout << "\n";
  flips::bench::print_table_header(
      "fault plan: churn=1.0 crash=0.10 (backfill vs retry)",
      {"mode", "peak-acc %", "sim-time-to-60% (s)", "crashed",
       "recovered", "bit-identical"});
  flips::bench::print_table_row(
      {"sync+backfill",
       std::to_string(sync_faulted.peak_accuracy * 100.0),
       time_cell(sync_faulted), std::to_string(sync_crashed),
       std::to_string(sync_recovered), fault_identical ? "yes" : "no"});
  flips::bench::print_table_row(
      {"async+retry",
       std::to_string(async_faulted.peak_accuracy * 100.0),
       time_cell(async_faulted), std::to_string(async_crashed),
       std::to_string(async_recovered), fault_identical ? "yes" : "no"});

  // Stable machine-readable line for the CI perf artifact:
  //   perf,faults,<churn>,<fault_rate>,<rounds_to_target|-1>,
  //        <bit_identical yes|no>
  const double fault_rounds_tt =
      sync_faulted.rounds_to_target
          ? static_cast<double>(*sync_faulted.rounds_to_target)
          : -1.0;
  flips::bench::PerfLine("faults")
      .num("churn", faults.churn, 2)
      .num("fault_rate", faults.crash_rate, 2)
      .num("rounds_to_target", fault_rounds_tt, 0)
      .text("bit_identical", fault_identical ? "yes" : "no")
      .print();
  return 0;
}
