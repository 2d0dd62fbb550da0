#include "common/experiment.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <iomanip>
#include <iostream>
#include <memory>
#include <mutex>

#include "cluster/kmeans.h"
#include "common/perf.h"
#include "common/stats.h"
#include "ml/model.h"

namespace flips::bench {

namespace {

/// Platform heterogeneity profile used across all benches: 60 % nominal
/// devices, 30 % 2× slower, 10 % 4× slower (TiFL/Oort react to these).
double speed_factor(flips::common::Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.6) return 1.0;
  if (u < 0.9) return 2.0;
  return 4.0;
}

struct Federation {
  std::vector<flips::fl::Party> parties;
  flips::data::Dataset global_test;
  std::vector<std::size_t> flips_clusters;
  std::size_t num_flips_clusters = 0;
  std::vector<double> latencies;
  std::vector<flips::data::LabelDistribution> label_distributions;
};

Federation build_federation(const ExperimentConfig& config,
                            std::uint64_t seed) {
  flips::data::FederatedDataConfig dc;
  dc.spec = config.spec;
  dc.num_parties = config.scale.num_parties;
  dc.samples_per_party = config.scale.samples_per_party;
  dc.alpha = config.alpha;
  dc.test_per_class = 100;  // keep per-label eval noise low
  dc.seed = seed;
  const auto fed = flips::data::build_federated_data(dc);

  Federation out;
  flips::common::Rng profile_rng(seed ^ 0xBEEF);
  // Under a fault plan the fleet comes from the senior-care device mix,
  // so the availability / fault-rate / churn columns reach the session
  // (they used to be sampled and then ignored). The fault-free path
  // keeps the historical speed-factor-only profiles byte-for-byte.
  const bool fault_fleet = config.faults.enabled();
  const flips::net::FleetBuilder fleet(flips::net::FleetMix::senior_care());
  out.parties.reserve(fed.party_data.size());
  for (std::size_t p = 0; p < fed.party_data.size(); ++p) {
    flips::fl::PartyProfile profile;
    if (fault_fleet) {
      profile = flips::fl::PartyProfile::from_device(fleet.sample(profile_rng));
    } else {
      profile.speed_factor = speed_factor(profile_rng);
    }
    out.parties.emplace_back(p, fed.party_data[p], profile);
    // TiFL's profiling pass: latency proportional to per-round work.
    out.latencies.push_back(profile.speed_factor *
                            static_cast<double>(fed.party_data[p].size()));
  }
  out.global_test = fed.global_test;

  // FLIPS clustering in Hellinger space. The middleware path runs the
  // same kernel inside the TEE; benches call it directly to keep the
  // hot loop lean.
  out.flips_clusters = cluster_label_distributions(
      fed.label_distributions, config.flips_clusters, LdSpace::kHellinger,
      seed ^ 0xC1u);
  out.num_flips_clusters =
      std::min(config.flips_clusters, fed.label_distributions.size());
  out.label_distributions = fed.label_distributions;
  return out;
}

// The federation depends only on (spec, scale, alpha, clusters, seed) —
// not on the selector or straggler rate — so flips_tables rebuilds
// the SAME federation for every selector cell of a setting. Building it
// (synthetic sampling + Hellinger k-means) costs more than many FL
// rounds; a small keyed cache removes that without changing results.
// Oversized federations (scalability sweeps) bypass the cache so memory
// stays bounded.

struct FederationKey {
  // The whole spec, compared field-for-field, so fields added to
  // SyntheticSpec later can never alias two different datasets onto
  // one cache entry.
  flips::data::SyntheticSpec spec;
  double alpha = 0.0;
  std::size_t num_parties = 0;
  std::size_t samples_per_party = 0;
  std::size_t flips_clusters = 0;
  std::uint64_t seed = 0;
  /// A fault plan switches the fleet to the senior-care device mix, so
  /// it must discriminate cache entries (aliasing a fault federation
  /// onto a fault-free one would silently change the profiles).
  bool fault_fleet = false;

  bool operator==(const FederationKey&) const = default;
};

FederationKey federation_key(const ExperimentConfig& config,
                             std::uint64_t seed) {
  FederationKey key;
  key.spec = config.spec;
  key.alpha = config.alpha;
  key.num_parties = config.scale.num_parties;
  key.samples_per_party = config.scale.samples_per_party;
  key.flips_clusters = config.flips_clusters;
  key.seed = seed;
  key.fault_fleet = config.faults.enabled();
  return key;
}

std::shared_ptr<const Federation> cached_federation(
    const ExperimentConfig& config, std::uint64_t seed) {
  // ~8 MB per cacheable entry, tops. Capacity must cover one cell's
  // full run set (selector cells replay the same `runs` seeds back to
  // back) or the LRU would churn at 0% hit rate for runs > capacity.
  const std::size_t max_entries = std::max<std::size_t>(
      8, config.scale.runs);
  constexpr std::size_t kMaxSamples = 64'000;  // parties x samples
  static std::mutex cache_mu;
  static std::deque<std::pair<FederationKey,
                              std::shared_ptr<const Federation>>> cache;
  // The serving plane builds sessions on its builder thread while
  // e.g. a loadgen's bit-identity re-run builds in-process on another;
  // serializing the whole lookup (builds included) keeps concurrent
  // misses on the same key from duplicating an 8 MB federation.
  std::lock_guard<std::mutex> cache_lock(cache_mu);

  const bool cacheable =
      config.scale.num_parties * config.scale.samples_per_party <=
      kMaxSamples;
  const FederationKey key = federation_key(config, seed);
  if (cacheable) {
    for (auto it = cache.begin(); it != cache.end(); ++it) {
      if (it->first == key) {
        // LRU: move the hit to the back so surviving entries are the
        // most recently used.
        auto entry = std::move(*it);
        cache.erase(it);
        cache.push_back(std::move(entry));
        return cache.back().second;
      }
    }
  }
  auto fed = std::make_shared<const Federation>(
      build_federation(config, seed));
  if (cacheable) {
    cache.emplace_back(key, fed);
    while (cache.size() > max_entries) cache.pop_front();
  }
  return fed;
}

flips::fl::FlJobConfig make_job_config(const ExperimentConfig& config,
                                       std::uint64_t seed) {
  flips::fl::FlJobConfig job;
  job.rounds = config.scale.rounds;
  job.parties_per_round = std::max<std::size_t>(
      1, static_cast<std::size_t>(config.participation *
                                  static_cast<double>(
                                      config.scale.num_parties)));
  job.local.epochs = config.local_epochs;
  job.local.batch_size = 32;
  job.local.sgd.learning_rate = config.local_lr;
  job.local.sgd.lr_decay_factor = 0.5;
  job.local.sgd.lr_decay_rounds = 20;
  job.local.prox_mu = config.prox_mu;
  job.server.optimizer = config.server_opt;
  job.server.learning_rate =
      config.server_opt == flips::fl::ServerOpt::kFedAvg ? 1.0
                                                         : config.server_lr;
  job.stragglers.rate = config.straggler_rate;
  job.privacy = config.privacy;
  job.local.algo = config.client_algo;
  job.seed = seed;
  job.threads = config.threads;
  job.eval_every = config.scale.eval_every;
  job.target_accuracy = config.target_accuracy;
  job.codec = config.codec;
  job.mode = config.mode;
  job.async = config.async;
  job.faults = config.faults;
  return job;
}

}  // namespace

std::unique_ptr<flips::fl::FederationSession> make_session(
    const ExperimentConfig& config, flips::select::SelectorKind kind,
    std::uint64_t seed, flips::common::ThreadPool* shared_pool) {
  const std::shared_ptr<const Federation> fed_ptr =
      cached_federation(config, seed);
  const Federation& fed = *fed_ptr;

  flips::select::SelectorContext ctx;
  ctx.num_parties = fed.parties.size();
  ctx.seed = seed ^ 0x5E1Eu;
  ctx.cluster_of = fed.flips_clusters;
  ctx.num_clusters = fed.num_flips_clusters;
  ctx.latencies = fed.latencies;
  ctx.rounds_hint = config.scale.rounds;
  ctx.label_distributions = fed.label_distributions;

  flips::common::Rng model_rng(seed ^ 0x30DEu);
  auto model =
      config.mlp_hidden > 0
          ? flips::ml::ModelFactory::mlp(config.spec.feature_dim,
                                         config.mlp_hidden,
                                         config.spec.num_classes, model_rng)
          : flips::ml::ModelFactory::logistic_regression(
                config.spec.feature_dim, config.spec.num_classes, model_rng);

  // The session aliases the cached federation's party vector — the
  // aliasing shared_ptr keeps the whole cache entry alive for the
  // session's lifetime (steppable sessions outlive this scope).
  std::shared_ptr<const std::vector<flips::fl::Party>> parties(
      fed_ptr, &fed_ptr->parties);
  return std::make_unique<flips::fl::FederationSession>(
      make_job_config(config, seed), std::move(parties), fed.global_test,
      std::move(model), flips::select::make_selector(kind, ctx),
      shared_pool);
}

std::size_t interleave_sessions(
    const std::vector<std::unique_ptr<flips::fl::FederationSession>>&
        sessions) {
  std::size_t stepped = 0;
  for (bool stepped_any = true; stepped_any;) {
    stepped_any = false;
    for (const auto& session : sessions) {
      if (session->done()) continue;
      session->advance();
      ++stepped;
      stepped_any = true;
    }
  }
  return stepped;
}

SelectorResult run_selector(const ExperimentConfig& config,
                            flips::select::SelectorKind kind) {
  SelectorResult result;
  result.selector = flips::select::to_string(kind);
  result.accuracy_curve.assign(config.scale.rounds, 0.0);

  double bytes_sum = 0.0;
  double wall_s_sum = 0.0;
  double coverage_sum = 0.0;
  std::size_t covered_runs = 0;

  for (std::size_t run = 0; run < config.scale.runs; ++run) {
    const std::uint64_t seed = config.seed + 1000 * run;
    // The engine rides the steppable session API; one run = stepping a
    // session to completion.
    const auto session = make_session(config, kind, seed);
    if (config.observer_factory) {
      for (auto& observer : config.observer_factory(run)) {
        session->add_observer(std::move(observer));
      }
    }
    const auto wall_start = std::chrono::steady_clock::now();
    while (!session->done()) session->advance();
    const auto job_result = session->result();
    wall_s_sum += std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();

    bytes_sum += static_cast<double>(job_result.total_bytes);
    for (std::size_t r = 0; r < job_result.history.size(); ++r) {
      result.accuracy_curve[r] += job_result.history[r].balanced_accuracy;
    }
    result.mean_epsilon += job_result.epsilon_spent;
    result.mean_jain_index += job_result.fairness.jain_index;
    if (job_result.coverage_round) {
      ++covered_runs;
      coverage_sum += static_cast<double>(*job_result.coverage_round);
    }
  }

  const auto runs = static_cast<double>(config.scale.runs);
  constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
  result.total_gib = bytes_sum / runs / kGiB;
  result.mean_epsilon /= runs;
  result.mean_jain_index /= runs;
  // Mean over the runs that actually reached full coverage (nullopt ⇒
  // none did — distinct from "covered at round ~0", which the old 0.0
  // sentinel conflated); averaging over all runs would understate the
  // coverage round.
  if (covered_runs > 0) {
    result.mean_coverage_round =
        coverage_sum / static_cast<double>(covered_runs);
  }
  for (auto& a : result.accuracy_curve) a /= runs;

  // Peak and rounds-to-target are read off the run-averaged curve (the
  // paper averages 6 runs). Reading per-run maxima instead would reward
  // volatile schedules whose single-round spikes are noise.
  for (std::size_t r = 0; r < result.accuracy_curve.size(); ++r) {
    result.peak_accuracy =
        std::max(result.peak_accuracy, result.accuracy_curve[r]);
    if (!result.rounds_to_target && config.target_accuracy > 0.0 &&
        result.accuracy_curve[r] >= config.target_accuracy) {
      result.rounds_to_target = static_cast<double>(r + 1);
    }
  }

  result.wall_s_per_round =
      config.scale.rounds > 0
          ? wall_s_sum / runs / static_cast<double>(config.scale.rounds)
          : 0.0;
  // Stable machine-readable perf line (schema documented in the
  // header): host wall-clock per simulated round next to the
  // rounds-to-target the tables report. Emitted through the
  // registry-backed PerfLine so the numbers also land in the kMetrics
  // exposition (`flips_perf` gauges).
  PerfLine(result.selector)
      .num("wall_s_per_round", result.wall_s_per_round, 6)
      .num("rounds_to_target",
           result.rounds_to_target ? *result.rounds_to_target : -1.0, 0)
      .print();
  // Codec-aware companion line: mean wire bytes moved per simulated
  // round next to the wall time, so the perf trajectory captures both
  // dimensions the aggregation plane optimizes.
  {
    const double bytes_per_round =
        config.scale.rounds > 0
            ? bytes_sum / runs / static_cast<double>(config.scale.rounds)
            : 0.0;
    PerfLine("aggregate")
        .text("codec", flips::net::to_string(config.codec.codec))
        .num("bytes_per_round", bytes_per_round, 0)
        .num("wall_s_per_round", result.wall_s_per_round, 6)
        .print();
  }
  return result;
}

std::vector<std::size_t> cluster_label_distributions(
    const std::vector<flips::data::LabelDistribution>& lds, std::size_t k,
    LdSpace space, std::uint64_t rng_seed) {
  std::vector<flips::cluster::Point> points;
  points.reserve(lds.size());
  for (const auto& ld : lds) {
    if (space == LdSpace::kRawCounts) {
      points.emplace_back(ld.begin(), ld.end());
      continue;
    }
    auto p = flips::common::normalized(ld);
    if (space == LdSpace::kHellinger) {
      for (auto& v : p) v = std::sqrt(v);
    }
    points.push_back(std::move(p));
  }
  flips::cluster::KMeansConfig kc;
  kc.k = std::min(k, points.size());
  kc.restarts = 3;
  flips::common::Rng rng(rng_seed);
  return flips::cluster::kmeans(points, kc, rng).assignments;
}

std::vector<std::vector<double>> run_per_label_curves(
    const ExperimentConfig& config, flips::select::SelectorKind kind) {
  const auto session = make_session(config, kind, config.seed);
  while (!session->done()) session->advance();
  const auto job_result = session->result();

  std::vector<std::vector<double>> curves(
      config.spec.num_classes,
      std::vector<double>(job_result.history.size(), 0.0));
  for (std::size_t r = 0; r < job_result.history.size(); ++r) {
    const auto& per_label = job_result.history[r].per_label_accuracy;
    for (std::size_t l = 0; l < per_label.size(); ++l) {
      curves[l][r] = per_label[l];
    }
  }
  return curves;
}

std::string format_rounds(const std::optional<double>& rounds,
                          std::size_t round_budget) {
  char buf[32];
  if (!rounds) {
    std::snprintf(buf, sizeof buf, ">%zu", round_budget);
    return buf;
  }
  std::snprintf(buf, sizeof buf, "%.0f", *rounds);
  return buf;
}

std::string format_paper_rounds(int rounds, int paper_budget) {
  if (rounds < 0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, ">%d", paper_budget);
    return buf;
  }
  return std::to_string(rounds);
}

void print_table_header(const std::string& title,
                        const std::vector<std::string>& columns) {
  std::cout << "\n== " << title << " ==\n";
  for (const auto& c : columns) {
    std::cout << std::setw(13) << c;
  }
  std::cout << "\n";
  std::cout << std::string(13 * columns.size(), '-') << "\n";
}

void print_table_row(const std::vector<std::string>& cells) {
  for (const auto& c : cells) {
    std::cout << std::setw(13) << c;
  }
  std::cout << "\n";
}

void print_curve_csv(const std::string& experiment,
                     const SelectorResult& result) {
  for (std::size_t r = 0; r < result.accuracy_curve.size(); ++r) {
    std::cout << "csv," << experiment << "," << result.selector << ","
              << (r + 1) << "," << result.accuracy_curve[r] << "\n";
  }
}

}  // namespace flips::bench
