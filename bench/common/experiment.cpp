#include "common/experiment.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <iomanip>
#include <iostream>
#include <memory>

#include "common/perf.h"

namespace flips::bench {

namespace {

/// Everything build_federation() reads: the selector, straggler rate
/// and job knobs vary across a setting's arms, these do not.
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
  /// A fault plan switches the fleet to the senior-care device mix.
  bool fault_fleet = false;

  bool operator==(const FederationKey&) const = default;
};

std::shared_ptr<const Federation> cached_federation(
    const ExperimentConfig& config, std::uint64_t seed) {
  // ~8 MB per cacheable entry, tops. Capacity must cover one cell's
  // full run set (selector cells replay the same `runs` seeds back to
  // back) or the LRU would churn at 0% hit rate for runs > capacity.
  const std::size_t max_entries = std::max<std::size_t>(
      8, config.scale.runs);
  // Oversized federations (scalability sweeps) bypass the cache so
  // memory stays bounded.
  constexpr std::size_t kMaxSamples = 64'000;  // parties x samples
  static std::deque<std::pair<FederationKey,
                              std::shared_ptr<const Federation>>> cache;

  const bool cacheable =
      config.scale.num_parties * config.scale.samples_per_party <=
      kMaxSamples;
  const FederationKey key{
      config.spec, config.alpha, config.scale.num_parties,
      config.scale.samples_per_party, config.flips_clusters, seed,
      config.faults.enabled()};
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

/// A `kind` session over the cached federation for `seed`.
std::unique_ptr<flips::fl::FederationSession> cached_session(
    const ExperimentConfig& config, flips::select::SelectorKind kind,
    std::uint64_t seed) {
  const auto federation = cached_federation(config, seed);
  auto selector = flips::select::make_selector(
      kind, selector_context(config, *federation, seed));
  return make_session(config, *federation, std::move(selector), seed);
}

}  // namespace

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
                            flips::select::SelectorKind kind,
                            const ObserverFactory& observers) {
  SelectorResult result;
  result.selector = flips::select::to_string(kind);
  result.accuracy_curve.assign(config.scale.rounds, 0.0);

  double bytes_sum = 0.0;
  double wall_s_sum = 0.0;
  double coverage_sum = 0.0;
  std::size_t covered_runs = 0;

  for (std::size_t run = 0; run < config.scale.runs; ++run) {
    const std::uint64_t seed = config.seed + 1000 * run;
    const auto session = cached_session(config, kind, seed);
    if (observers) {
      for (auto& observer : observers(run)) {
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
  // rounds-to-target the tables report.
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

std::vector<std::vector<double>> run_per_label_curves(
    const ExperimentConfig& config, flips::select::SelectorKind kind) {
  const auto session = cached_session(config, kind, config.seed);
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
    std::cout << ' ' << std::setw(12) << c;
  }
  std::cout << "\n";
  std::cout << std::string(13 * columns.size(), '-') << "\n";
}

void print_table_row(const std::vector<std::string>& cells) {
  for (const auto& c : cells) {
    std::cout << ' ' << std::setw(12) << c;
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
