// Scalability of FLIPS's clustering (paper §3.4: "k-means++ … has
// been demonstrated to scale to millions of data points, i.e.,
// parties"; FLIPS is "as scalable as the underlying aggregation
// algorithm").
//
// Runs end-to-end through core::cluster_privately (attested sealed
// channels into the enclave), measuring, as the party count N grows:
//   1. clustering wall-clock — the Lloyd kernel pinned at every size
//      (cluster::kmeans on the same Hellinger points, k, restarts and
//      stream) vs the enclave's threshold-scaled clustering
//      (mini-batch k-means past `lloyd_threshold` parties), read from
//      the enclave's execution ledger;
//   2. clustering agreement between the two (mini-batch must find the
//      same mode structure for FLIPS to be correct at scale);
//   3. per-round selection latency of the Algorithm-1 selector over
//      the enclave's assignments.
//
// Emits stable `perf,<name>,<seconds>,-1` lines (same schema as the
// engine's per-selector lines) so the CI perf rail can scrape
// clustering scaling: ctrl-lloyd-<N>, ctrl-auto-<N>, ctrl-select-<N>.
//
// Flags: `--set parties=N` pins a single size (CI smoke uses 10000,
// past the threshold); default sweeps 1k/5k/20k (+100k with
// --paper-scale). `--set threads=T` sizes the multi-tenant arm's
// shared worker pool (0 = all cores); the clustering columns do not
// depend on it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "common/experiment.h"
#include "common/perf.h"
#include "common/scenario.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/private_clustering.h"
#include "selection/flips_selector.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kModes = 10;
constexpr std::size_t kDim = 10;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Synthetic label distributions with `modes` planted modes over `dim`
/// labels — the shape FLIPS clusters in production.
std::vector<flips::cluster::Point> planted_lds(std::size_t n,
                                               std::size_t modes,
                                               std::size_t dim,
                                               std::uint64_t seed) {
  flips::common::Rng rng(seed);
  std::vector<flips::cluster::Point> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t mode = i % modes;
    flips::cluster::Point p(dim, 0.02);
    p[(mode * 2) % dim] = 0.5 + rng.uniform(-0.05, 0.05);
    p[(mode * 2 + 1) % dim] = 0.3 + rng.uniform(-0.05, 0.05);
    double sum = 0.0;
    for (const double v : p) sum += v;
    for (auto& v : p) v /= sum;
    points.push_back(std::move(p));
  }
  return points;
}

/// Fraction of point pairs on which two clusterings agree (same/different
/// cluster) — the Rand index, over a sampled pair set.
double rand_index(const std::vector<std::size_t>& a,
                  const std::vector<std::size_t>& b,
                  flips::common::Rng& rng) {
  std::size_t agree = 0;
  const std::size_t trials = 20'000;
  for (std::size_t t = 0; t < trials; ++t) {
    const std::size_t i = rng.uniform_index(a.size());
    const std::size_t j = rng.uniform_index(a.size());
    if (i == j) {
      ++agree;
      continue;
    }
    const bool same_a = a[i] == a[j];
    const bool same_b = b[i] == b[j];
    agree += same_a == same_b;
  }
  return static_cast<double>(agree) / static_cast<double>(trials);
}

void perf_line(const std::string& name, double seconds) {
  flips::bench::PerfLine(name)
      .num("seconds", seconds, 6)
      .num("rounds_to_target", -1.0, 0)
      .print();
}

}  // namespace

int main(int argc, char** argv) {
  // The multi-tenant arm below runs this scenario at a fixed toy scale.
  flips::ScenarioSpec defaults;
  defaults.parties = 0;  // 0 = sweep the default sizes
  defaults.server_opt = "fedyogi";
  defaults.target_accuracy = 0.6;
  const auto args = flips::parse_scenario_args(argc, argv, defaults);
  const flips::ScenarioSpec& spec = args.spec;
  // --paper-scale wins over its generic parties=200 (this bench's sizes
  // are its own axis): it extends the sweep to 100k. Otherwise an
  // explicit parties=N pins a single size.
  std::vector<std::size_t> sizes;
  if (args.paper_scale) {
    sizes = {1'000, 5'000, 20'000, 100'000};
  } else if (spec.parties > 0) {
    sizes.push_back(spec.parties);
  } else {
    sizes = {1'000, 5'000, 20'000};
  }

  flips::core::PrivateClusteringConfig config;
  config.k = kModes;
  config.restarts = 1;
  config.seed = spec.seed;

  std::cout << "=== FLIPS clustering scalability (through "
               "core::cluster_privately, threshold "
            << config.lloyd_threshold << " parties) ===\n\n";
  flips::bench::print_table_header(
      "clustering", {"parties", "path", "lloyd (s)", "auto (s)", "speedup",
                     "rand-agreement"});

  // Per-size assignments, reused by the selection-latency section.
  std::vector<std::vector<std::size_t>> assignments_by_size;

  for (const std::size_t n : sizes) {
    const auto lds = planted_lds(n, kModes, kDim, spec.seed);

    // Reference: the Lloyd kernel pinned regardless of size.
    std::vector<flips::cluster::Point> points;
    points.reserve(n);
    for (const auto& ld : lds) {
      points.push_back(flips::core::hellinger_point(ld));
    }
    flips::cluster::KMeansConfig kc;
    kc.k = config.k;
    kc.restarts = config.restarts;
    flips::common::Rng lloyd_rng(config.seed);
    const auto t_lloyd = Clock::now();
    const auto lloyd = flips::cluster::kmeans(points, kc, lloyd_rng);
    const double lloyd_s = seconds_since(t_lloyd);

    // Threshold-scaled clustering in the enclave — the production path.
    flips::core::AttestedEnclave attested;
    auto clustering = flips::core::cluster_privately(
        config, lds, attested.enclave, attested.attestation);
    const double auto_s = attested.enclave.raw_execution_seconds();

    flips::common::Rng pair_rng(spec.seed + 2);
    const double agreement =
        rand_index(lloyd.assignments, clustering.assignments, pair_rng);
    assignments_by_size.push_back(std::move(clustering.assignments));

    flips::bench::print_table_row(
        {std::to_string(n),
         n <= config.lloyd_threshold ? "lloyd" : "minibatch",
         std::to_string(lloyd_s), std::to_string(auto_s),
         std::to_string(lloyd_s / std::max(auto_s, 1e-9)) + "x",
         std::to_string(agreement)});

    perf_line("ctrl-lloyd-" + std::to_string(n), lloyd_s);
    perf_line("ctrl-auto-" + std::to_string(n), auto_s);
  }

  std::cout << "\n";
  flips::bench::print_table_header(
      "selection latency",
      {"parties", "clusters", "Nr", "mean select+report (us)"});

  for (std::size_t s = 0; s < sizes.size(); ++s) {
    const std::size_t n = sizes[s];
    // The selector over the enclave's assignments, as every session
    // builds it.
    flips::select::FlipsSelector selector(assignments_by_size[s], kModes,
                                          {});

    const std::size_t nr = std::max<std::size_t>(10, n / 10);
    const std::size_t rounds = 50;
    const auto start = Clock::now();
    for (std::size_t r = 1; r <= rounds; ++r) {
      const auto selected = selector.select(r, nr);
      std::vector<flips::fl::PartyFeedback> feedback(selected.size());
      for (std::size_t i = 0; i < selected.size(); ++i) {
        feedback[i].party_id = selected[i];
        feedback[i].responded = true;
      }
      selector.report_round(r, feedback);
    }
    const double select_s =
        seconds_since(start) / static_cast<double>(rounds);
    flips::bench::print_table_row({std::to_string(n),
                                   std::to_string(kModes),
                                   std::to_string(nr),
                                   std::to_string(select_s * 1e6)});
    perf_line("ctrl-select-" + std::to_string(n), select_s);
  }

  // ---- Multi-tenant serving: N concurrent federations interleaved
  // round-robin (interleave_sessions) over ONE shared worker pool vs
  // running each alone. Per-session results must stay bit-identical (the
  // isolation contract test_session pins at unit scale; re-checked
  // here at bench scale), and the interleaved wall time tracks the sum
  // of the solo runs (scheduling overhead, not contention, is the only
  // delta on a fixed worker budget).
  std::cout << "\n";
  flips::bench::print_table_header(
      "multi-tenant sessions (ECG reduced scale, shared workers)",
      {"sessions", "solo (s)", "interleaved (s)", "overhead",
       "bit-identical"});
  {
    flips::ScenarioSpec mt_spec = spec;
    mt_spec.parties = 24;
    mt_spec.samples_per_party = 40;
    mt_spec.rounds = 12;
    mt_spec.runs = 1;
    const auto mt = flips::to_experiment_config(mt_spec);
    flips::common::ThreadPool workers(spec.threads);

    for (const std::size_t tenants : {std::size_t{2}, std::size_t{4}}) {
      // Solo references: each tenant run to completion on its own
      // (sessions built outside the timer, like the interleaved arm's
      // below).
      std::vector<std::unique_ptr<flips::fl::FederationSession>> solo;
      for (std::size_t s = 0; s < tenants; ++s) {
        solo.push_back(flips::make_session(mt,
                                           flips::select::SelectorKind::kFlips,
                                           spec.seed + 1000 * s, &workers));
      }
      const auto t_solo = Clock::now();
      for (auto& session : solo) {
        while (!session->done()) session->advance();
      }
      const double solo_s = seconds_since(t_solo);
      std::vector<std::vector<double>> solo_params;
      for (auto& session : solo) {
        solo_params.push_back(session->result().final_parameters);
      }

      // The same tenants, interleaved round-robin on the same workers.
      std::vector<std::unique_ptr<flips::fl::FederationSession>> sessions;
      for (std::size_t s = 0; s < tenants; ++s) {
        sessions.push_back(flips::make_session(
            mt, flips::select::SelectorKind::kFlips, spec.seed + 1000 * s,
            &workers));
      }
      const auto t_mixed = Clock::now();
      flips::bench::interleave_sessions(sessions);
      const double mixed_s = seconds_since(t_mixed);

      bool identical = true;
      for (std::size_t s = 0; s < tenants; ++s) {
        identical = identical &&
                    sessions[s]->result().final_parameters ==
                        solo_params[s];
      }

      flips::bench::print_table_row(
          {std::to_string(tenants), std::to_string(solo_s),
           std::to_string(mixed_s),
           std::to_string(100.0 * (mixed_s / std::max(solo_s, 1e-9) - 1.0)) +
               "%",
           identical ? "yes" : "NO"});
      perf_line("multitenant-" + std::to_string(tenants), mixed_s);
    }
  }

  std::cout << "\nExpected shape: the enclave switches to mini-batch "
               "k-means past the " +
                   std::to_string(config.lloyd_threshold) +
                   "-party threshold, where it grows ~linearly and "
                   "overtakes Lloyd while agreeing with its cluster "
                   "structure (Rand agreement ~0.9+); selection stays "
                   "microseconds-per-round at every N (one O(N) shuffle "
                   "and partial sort per round).\n";
  return 0;
}
