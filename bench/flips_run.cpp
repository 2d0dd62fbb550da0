// Scenario driver: launches any FL scenario from the CLI as a preset
// plus declarative `--set key=value` overrides (one ScenarioSpec is the
// whole configuration surface, parsed by parse_scenario_args — see
// bench/common/scenario.h). flips_tables prints one such command line
// per paper table cell.
//
//   flips_run                                   # default ecg-fedavg
//   flips_run --scenario femnist-fedyogi --set rounds=60 --set runs=3
//   flips_run --set selector=oort --set codec=quant8 --set dp_noise=0.5
//   flips_run --set sessions=4 --set threads=4  # multi-tenant pool
//   flips_run --list                            # preset names
//
// sessions=1 runs the scenario through the shared bench engine
// (federation cache + perf,… lines). sessions>1 interleaves N
// federations — seeds seed, seed+1000, … so session i is bit-identical
// to run i of the solo engine — round-robin (interleave_sessions) over
// one shared worker pool, and prints a `perf,multitenant,…` line.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/experiment.h"
#include "common/perf.h"
#include "common/scenario.h"
#include "common/thread_pool.h"
#include "fl/metrics_observer.h"
#include "obs/trace.h"

namespace {

/// Telemetry sinks resolved from --metrics-out / --trace-out. Both are
/// optional; when set, every session (solo runs and multi-tenant
/// alike) gets the matching observers attached before stepping.
struct Telemetry {
  std::shared_ptr<flips::fl::JsonlRoundObserver::SharedFile> metrics_file;
  bool tracing = false;  ///< JsonlTraceSink installed on the global tracer

  bool active() const { return metrics_file != nullptr || tracing; }

  /// Observers for run/session index `run`. Tracing needs a
  /// MetricsObserver: it is the component that emits phase/round spans
  /// and drains the trace ring at round end.
  std::vector<std::shared_ptr<flips::fl::RoundObserver>> observers(
      const std::string& scenario, std::size_t run) const {
    std::vector<std::shared_ptr<flips::fl::RoundObserver>> out;
    if (metrics_file) {
      out.push_back(
          std::make_shared<flips::fl::JsonlRoundObserver>(metrics_file, run));
    }
    if (tracing) {
      out.push_back(std::make_shared<flips::fl::MetricsObserver>(
          scenario + "/r" + std::to_string(run)));
    }
    return out;
  }
};

constexpr std::string_view kUsage =
    "  --metrics-out PATH  append one JSON line per completed round\n"
    "                      (run, round, accuracy, bytes, dropped_stale,\n"
    "                      per-phase durations)\n"
    "  --trace-out PATH    append one JSON span per session phase\n"
    "  --list              print the preset names\n";

std::string format_opt(const std::optional<double>& value) {
  if (!value) return "never";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f", *value);
  return buf;
}

int run_solo(const flips::ScenarioSpec& spec, bool csv,
             const Telemetry& telemetry) {
  auto config = flips::to_experiment_config(spec);
  if (telemetry.active()) {
    config.observer_factory = [&](std::size_t run) {
      return telemetry.observers(spec.name, run);
    };
  }
  const auto result =
      flips::bench::run_selector(config, flips::selector_kind(spec));

  flips::bench::print_table_header(
      "scenario " + spec.name + " (" + spec.selector + ")",
      {"peak-acc %", "rounds-to-tgt", "coverage", "jain", "total GiB",
       "wall s/round"});
  char peak[32], jain[32], gib[32], wall[32];
  std::snprintf(peak, sizeof peak, "%.2f", 100.0 * result.peak_accuracy);
  std::snprintf(jain, sizeof jain, "%.3f", result.mean_jain_index);
  std::snprintf(gib, sizeof gib, "%.4f", result.total_gib);
  std::snprintf(wall, sizeof wall, "%.4f", result.wall_s_per_round);
  flips::bench::print_table_row(
      {peak,
       flips::bench::format_rounds(result.rounds_to_target, spec.rounds),
       format_opt(result.mean_coverage_round), jain, gib, wall});
  if (csv) flips::bench::print_curve_csv(spec.name, result);
  return 0;
}

int run_multitenant(const flips::ScenarioSpec& spec, bool csv,
                    const Telemetry& telemetry) {
  const auto config = flips::to_experiment_config(spec);
  const auto kind = flips::selector_kind(spec);

  // One worker pool, shared by every tenant (the multi-tenant serving
  // shape: N federations contend for the host's cores instead of
  // oversubscribing them N-fold).
  flips::common::ThreadPool workers(spec.threads);
  std::vector<std::unique_ptr<flips::fl::FederationSession>> sessions;
  for (std::size_t s = 0; s < spec.sessions; ++s) {
    // Seed stride matches the solo engine's per-run stride, so tenant
    // s is bit-identical to run s of `sessions=1 runs=N`.
    auto session = flips::bench::make_session(config, kind,
                                              spec.seed + 1000 * s, &workers);
    for (auto& observer : telemetry.observers(spec.name, s)) {
      session->add_observer(std::move(observer));
    }
    sessions.push_back(std::move(session));
  }

  const auto start = std::chrono::steady_clock::now();
  const std::size_t rounds_total =
      flips::bench::interleave_sessions(sessions);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();

  flips::bench::print_table_header(
      "multi-tenant " + spec.name + " (" + std::to_string(spec.sessions) +
          " sessions, " + std::to_string(workers.size()) +
          " shared workers)",
      {"session", "peak-acc %", "rounds-to-tgt", "total GiB"});
  constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    const auto result = sessions[s]->result();
    char peak[32], gib[32];
    std::snprintf(peak, sizeof peak, "%.2f", 100.0 * result.peak_accuracy);
    std::snprintf(gib, sizeof gib, "%.4f",
                  static_cast<double>(result.total_bytes) / kGiB);
    std::string rounds = "never";
    if (result.rounds_to_target) {
      rounds = std::to_string(*result.rounds_to_target);
    }
    flips::bench::print_table_row(
        {std::to_string(s), peak, rounds, gib});
    if (csv) {
      // Same schema as print_curve_csv, one experiment tag per tenant.
      for (const auto& record : result.history) {
        std::cout << "csv," << spec.name << "/s" << s << ","
                  << spec.selector << "," << record.round << ","
                  << record.balanced_accuracy << "\n";
      }
    }
  }

  // Stable machine-readable line for the CI perf artifact:
  //   perf,multitenant,<sessions>,<wall_s_per_round>,<rounds_total>
  const double per_round =
      rounds_total > 0 ? wall_s / static_cast<double>(rounds_total) : 0.0;
  flips::bench::PerfLine("multitenant")
      .uint("sessions", spec.sessions)
      .num("wall_s_per_round", per_round, 6)
      .uint("rounds_total", rounds_total)
      .print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_out;
  std::string trace_out;
  const auto args = flips::parse_scenario_args(
      argc, argv, flips::scenario_preset("ecg-fedavg"), kUsage,
      [&](std::string_view flag, const auto& value) {
        if (flag == "--metrics-out") {
          metrics_out = value();
        } else if (flag == "--trace-out") {
          trace_out = value();
        } else if (flag == "--list") {
          for (const auto& name : flips::scenario_preset_names()) {
            std::cout << name << "\n";
          }
          std::exit(0);
        } else {
          return false;
        }
        return true;
      });
  const flips::ScenarioSpec& spec = args.spec;

  std::cout << "flips_run scenario " << spec.name << ": dataset "
            << spec.dataset << ", " << spec.parties << " parties, "
            << spec.rounds << " rounds, ";
  if (spec.sessions > 1) {
    // Multi-tenant mode schedules `sessions` seed-strided federations;
    // the solo engine's `runs` averaging does not apply.
    std::cout << spec.sessions << " sessions, ";
  } else {
    std::cout << spec.runs << " run(s), ";
  }
  std::cout << "mode " << spec.mode << ", selector " << spec.selector
            << ", codec " << spec.codec << "\n";

  Telemetry telemetry;
  if (!metrics_out.empty()) {
    telemetry.metrics_file =
        std::make_shared<flips::fl::JsonlRoundObserver::SharedFile>(
            metrics_out);
  }
  if (!trace_out.empty()) {
    flips::obs::Tracer::global().set_sink(
        std::make_shared<flips::obs::JsonlTraceSink>(trace_out));
    telemetry.tracing = true;
  }

  const int status = spec.sessions > 1
                         ? run_multitenant(spec, args.csv, telemetry)
                         : run_solo(spec, args.csv, telemetry);
  if (telemetry.tracing) {
    // Flush any spans still buffered past the last round-end drain.
    flips::obs::Tracer::global().drain();
    flips::obs::Tracer::global().set_sink(nullptr);
  }
  return status;
}
