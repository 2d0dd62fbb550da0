// flips_perf — one run of the FLIPS benchmark (perfbench/README.md).
//
//   flips_perf --workload sync-femnist|async-ecg-faults|serve-4t
//              --seed N --seconds S --trace 0|1
//              [--uds PATH --server-pid PID]   (serve-4t only)
//
// A run first steps 2 s untimed, then steps sixteen seed-strided
// sessions (seed, seed+1000, ..., seed+15000) in turn until S seconds are
// used up — serve-4t four at a time, one per tenant — then checks every
// output. With --trace 0 nothing is attached to the sessions and the
// end-to-end metrics are printed; with --trace 1 every other session is
// traced through the selector decorator, the round observer and the
// metrics registry, and the per-layer metrics are printed. The last
// stdout line is the JSON result; the exit code is 1 when any check
// failed.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/experiment.h"
#include "common/scenario.h"
#include "common/stats.h"
#include "fl/metrics_observer.h"
#include "layers.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "stats.h"

namespace {

using Clock = std::chrono::steady_clock;
using flips::common::mean;
using perfbench::LabelFilter;

// Sub-sessions per run. The time-to-target figures are read off their
// mean accuracy curve: one sync-femnist seed reaches the target anywhere
// from round 39 to past 80, the mean of 4 seeds spreads ~14 % across
// runs and the mean of 16 4-8 %.
constexpr std::size_t kSubSessions = 16;
constexpr std::size_t kTenants = 4;          // serve-4t's concurrent tenants
constexpr std::uint64_t kSeedStride = 1000;  // flips_run's tenant stride
constexpr double kMiB = 1024.0 * 1024.0;

// A fresh process steps up to 2.5x slower for its first second or so
// (sync-femnist: its first 35 steps took 33 ms, later ones 13.5 ms), so
// every run first steps this long untimed.
constexpr double kWarmupSeconds = 2.0;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::time_point from_now(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string uds;
  long server_pid = 0;
};

/// The three workloads (README.md says why each exists). Every one runs
/// the FLIPS selector, evaluates every round (eval_every=2 made steps
/// bimodal) and trains on 2 worker threads.
flips::ScenarioSpec workload_spec(const std::string& name) {
  flips::ScenarioSpec spec;
  if (name == "sync-femnist") {
    spec = flips::scenario_preset("femnist-fedavg");
    spec.parties = 200;
    spec.rounds = 80;
    spec.codec = "dense64";
  } else if (name == "async-ecg-faults") {
    spec = flips::scenario_preset("ecg-fedyogi");
    spec.mode = "async";
    spec.codec = "quant8";
    spec.churn = 1.0;
    spec.fault_rate = 0.1;
    spec.parties = 1600;  // 13-20 ms of work per buffered step
    spec.rounds = 40;
  } else if (name == "serve-4t") {
    spec = flips::scenario_preset("ecg-fedavg");
    spec.parties = 200;  // ~3 ms per step; 4 tenants queue behind it
    spec.rounds = 50;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  spec.selector = "flips";
  spec.participation = 0.2;
  spec.eval_every = 1;
  spec.threads = 2;
  return spec;
}

flips::ScenarioSpec sub_spec(const flips::ScenarioSpec& base,
                             std::uint64_t seed, std::size_t sub) {
  flips::ScenarioSpec spec = base;
  spec.seed = seed + kSeedStride * sub;
  return spec;
}

/// Peak resident set (VmHWM) of a process, in MiB; 0 when unreadable.
double peak_rss_mb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Collects checks and metrics, prints the human-readable report as it
/// goes and the JSON line at the end.
class Report {
 public:
  void check(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) {
      ++failed_;
      std::cout << "CHECK FAILED: " << what << "\n";
    }
  }
  void operations(std::size_t attempted, std::size_t failed) {
    ops_ += attempted;
    failed_ += failed;
  }
  std::size_t attempted() const { return ops_ + checks_; }
  std::size_t failed() const { return failed_; }

  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "") {
    std::printf("%-26s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
    metrics_.emplace_back(name, std::make_pair(value, unit));
  }

  void print_json() const {
    std::string out = "{\"correct\": ";
    out += failed_ == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted());
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].first + "\": {\"value\": " +
             json_number(metrics_[i].second.first) + ", \"unit\": \"" +
             metrics_[i].second.second + "\"}";
    }
    out += "}}";
    std::cout << out << std::endl;
  }

 private:
  std::size_t ops_ = 0;
  std::size_t checks_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

std::string samples_note(std::size_t n) {
  return "(n=" + std::to_string(n) + ")";
}

/// Step-time end-to-end metrics shared by all workloads.
void report_timings(Report& report, const std::vector<double>& step_ms,
                    double stepping_s, const std::vector<double>& setup_s) {
  report.metric("setup_s", perfbench::median(setup_s), "s",
                "median " + samples_note(setup_s.size()));
  report.metric("steps_per_s",
                stepping_s > 0.0
                    ? static_cast<double>(step_ms.size()) / stepping_s
                    : 0.0,
                "1/s", samples_note(step_ms.size()) + " over " +
                           json_number(stepping_s) + " s");
  report.metric("step_ms_p50", perfbench::median(step_ms), "ms",
                samples_note(step_ms.size()));
  const auto tail = perfbench::tail_value(step_ms);
  report.check(tail.has_value(), "enough step samples for a tail");
  report.metric("step_ms_tail", tail ? tail->second : 0.0, "ms",
                tail ? "p" + json_number(tail->first.percentile) + " " +
                           samples_note(step_ms.size()) + ", " +
                           std::to_string(tail->first.beyond) + " beyond"
                     : "");
}

/// The time-to-target family, read off the mean accuracy curve of the
/// sub-sessions, plus per-session consistency with FlJobResult.
void report_quality(Report& report, const flips::ScenarioSpec& spec,
                    const std::vector<flips::fl::FlJobResult>& results) {
  std::vector<std::vector<flips::fl::RoundRecord>> histories;
  for (const auto& r : results) {
    histories.push_back(r.history);
    report.check(r.history.size() == spec.rounds,
                 "a session ran its full round budget");
    const auto own = perfbench::first_round_at_or_above(
        perfbench::mean_accuracy_curve({r.history}), spec.target_accuracy);
    report.check(own == r.rounds_to_target,
                 "first round at target agrees with FlJobResult");
    if (own) {
      report.check(perfbench::sim_seconds_through_round(r.history, *own) ==
                       r.time_to_target_s,
                   "simulated time to target agrees with FlJobResult");
    }
  }
  const auto curve = perfbench::mean_accuracy_curve(histories);
  const auto rtt =
      perfbench::first_round_at_or_above(curve, spec.target_accuracy);
  const double peak =
      curve.empty() ? 0.0 : *std::max_element(curve.begin(), curve.end());
  report.check(rtt.has_value(), "mean accuracy reaches the target");
  report.check(peak >= spec.target_accuracy, "peak accuracy >= target");
  const std::size_t r = rtt.value_or(curve.size());
  std::vector<double> sim_s;
  std::vector<double> comm_mb;
  for (const auto& h : histories) {
    sim_s.push_back(perfbench::sim_seconds_through_round(h, r));
    comm_mb.push_back(
        static_cast<double>(perfbench::bytes_through_round(h, r)) / kMiB);
  }
  const std::string over =
      "mean curve of " + std::to_string(histories.size()) + " sessions";
  report.metric("rounds_to_target", static_cast<double>(r), "rounds",
                "target " + json_number(spec.target_accuracy) + ", " + over);
  report.metric("sim_s_to_target", mean(sim_s), "s", over);
  report.metric("comm_mb_to_target", mean(comm_mb), "MiB", over);
  report.metric("peak_accuracy", peak, "frac", over);
}

/// Registry families the traced run reads, as deltas between two
/// exposition snapshots (one process's registry or a server's kMetrics).
struct RegistryDelta {
  double fold_s = 0.0;
  double fold_n = 0.0;
  double folds = 0.0;
  std::map<std::string, double> faults;  ///< by event
  std::map<std::string, double> phase_s; ///< by phase (served sessions)
  std::map<std::string, double> phase_n;
  double steps = 0.0;
  double reply_s = 0.0;
  double reply_n = 0.0;
  double frames = 0.0;
  double rejected = 0.0;
  perfbench::BucketSeries reply_before;
  perfbench::BucketSeries reply_after;
  std::size_t snapshots = 0;

  void add(const std::string& before, const std::string& after) {
    auto d = [&](std::string_view name, const LabelFilter& f = {}) {
      return perfbench::sample_sum(after, name, f) -
             perfbench::sample_sum(before, name, f);
    };
    fold_s += d("flips_agg_fold_seconds_sum");
    fold_n += d("flips_agg_fold_seconds_count");
    folds += d("flips_agg_folds_total");
    for (const char* event : {"crashed", "retried", "backfilled"}) {
      faults[event] += d("flips_faults_total", {{"event", event}});
    }
    for (std::size_t i = 0; i < flips::fl::kNumSessionPhases; ++i) {
      const std::string phase =
          flips::fl::to_string(static_cast<flips::fl::SessionPhase>(i));
      phase_s[phase] +=
          d("flips_session_phase_seconds_sum", {{"phase", phase}});
      phase_n[phase] +=
          d("flips_session_phase_seconds_count", {{"phase", phase}});
    }
    steps += d("flips_serve_steps_total");
    reply_s += d("flips_serve_reply_seconds_sum");
    reply_n += d("flips_serve_reply_seconds_count");
    frames += d("flips_serve_frames_total");
    rejected += d("flips_serve_rejections_total");
    // Each snapshot pair keeps its own series (prefixed by its index),
    // so the quantile covers exactly the samples of traced episodes.
    const std::string prefix = std::to_string(snapshots++) + "|";
    for (const auto* side : {&before, &after}) {
      auto& into = side == &before ? reply_before : reply_after;
      for (auto& [series, counts] :
           perfbench::bucket_counts(*side, "flips_serve_reply_seconds")) {
        into[prefix + series] = std::move(counts);
      }
    }
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer set-up medians.
void report_setup_layers(Report& report,
                         const std::vector<perfbench::SetupTimes>& setups) {
  auto med = [&](double perfbench::SetupTimes::*field) {
    std::vector<double> v;
    for (const auto& s : setups) v.push_back(s.*field);
    return perfbench::median(v);
  };
  const std::string n = samples_note(setups.size());
  report.metric("data.build_s", med(&perfbench::SetupTimes::data_s), "s", n);
  report.metric("cluster.kmeans_s", med(&perfbench::SetupTimes::cluster_s),
                "s", n);
  report.metric("selection.make_s", med(&perfbench::SetupTimes::selection_s),
                "s", n);
  report.metric("fl.session_init_s", med(&perfbench::SetupTimes::session_s),
                "s", n);
}

/// Useful-work and wire-byte counts of the traced sessions, per session
/// (or per step), from the observer seam.
void report_counts(Report& report, const perfbench::LayerObserver& obs,
                   std::size_t sessions) {
  const auto per_session = [&](std::size_t v) {
    return ratio(static_cast<double>(v), static_cast<double>(sessions));
  };
  const std::string n = "per session " + samples_note(sessions);
  report.metric("fl.dispatched", per_session(obs.dispatched), "count", n);
  report.metric("fl.responded", per_session(obs.responded), "count", n);
  report.metric("fl.useful_frac",
                ratio(static_cast<double>(obs.responded),
                      static_cast<double>(obs.dispatched)),
                "frac", "responded / dispatched");
  report.metric("fl.dropped_stale", per_session(obs.dropped_stale), "count", n);
  report.metric("net.crashed", per_session(obs.crashed), "count", n);
  report.metric("net.retried", per_session(obs.retried), "count", n);
  report.metric("net.backfilled", per_session(obs.backfilled), "count", n);
  const std::string per_step = "per step " + samples_note(obs.steps);
  report.metric("net.up_bytes_per_step",
                ratio(static_cast<double>(obs.up_bytes),
                      static_cast<double>(obs.steps)),
                "B", per_step);
  report.metric("net.down_bytes_per_step",
                ratio(static_cast<double>(obs.down_bytes),
                      static_cast<double>(obs.steps)),
                "B", per_step);
  report.metric("fl.arena_misses", per_session(obs.arena_misses_after_warmup),
                "count",
                "after round " +
                    std::to_string(perfbench::LayerObserver::kWarmupRounds) +
                    ", " + n);
}

/// The observer's per-event counts must add up to the RoundRecord
/// tallies: one feedback per dispatch, one arrival per async dispatch,
/// one retry event per async retry or sync backfill.
void check_events(Report& report, const perfbench::LayerObserver& obs,
                  bool async) {
  report.check(obs.feedbacks == obs.dispatched,
               "on_party_feedback fires once per dispatched party");
  report.check(obs.arrivals == (async ? obs.dispatched : 0),
               "on_arrival fires once per async arrival");
  report.check(obs.retries == obs.retried + obs.backfilled,
               "on_retry fires once per retry or backfill");
}

/// Fold phase figures from the aggregation plane's registry families.
void report_agg(Report& report, const RegistryDelta& reg, double steps) {
  report.metric("fl.agg_fold_ms", 1e3 * ratio(reg.fold_s, reg.fold_n), "ms",
                "flips_agg_fold_seconds " +
                    samples_note(static_cast<std::size_t>(reg.fold_n)));
  report.metric("fl.agg_folds", ratio(reg.folds, steps), "count",
                "per step");
}

/// Mean rather than median step time: host speed shifts make the step
/// times multimodal, and a median jumps between modes.
void report_overhead(Report& report, const std::vector<double>& traced,
                     const std::vector<double>& untraced) {
  report.metric("obs.trace_overhead_frac",
                ratio(mean(traced), mean(untraced)) - 1.0,
                "frac",
                "mean step, traced " + samples_note(traced.size()) +
                    " vs untraced " + samples_note(untraced.size()));
}

void report_selector(Report& report, const std::vector<double>& select_ms,
                     const std::vector<double>& report_ms) {
  report.metric("selection.select_ms", mean(select_ms), "ms",
                "TimedSelector " + samples_note(select_ms.size()));
  report.metric("selection.report_ms", mean(report_ms), "ms",
                "TimedSelector " + samples_note(report_ms.size()));
}

// ---------------------------------------------------------------------
// In-process workloads.

void run_in_process(const Options& opt, Report& report) {
  const flips::ScenarioSpec base = workload_spec(opt.workload);
  const auto kind = flips::selector_kind(base);
  for (const auto until = from_now(kWarmupSeconds); Clock::now() < until;) {
    const auto spec = sub_spec(base, opt.seed, 0);
    perfbench::SetupTimes ignored;
    auto session = perfbench::build_session(flips::to_experiment_config(spec),
                                            kind, spec.seed, ignored);
    while (!session->done() && Clock::now() < until) session->advance();
  }
  const auto deadline = from_now(opt.seconds);

  std::vector<flips::fl::FlJobResult> first(kSubSessions);
  std::vector<double> setup_s;
  std::vector<perfbench::SetupTimes> setups;
  std::vector<double> step_ms;         // untraced steps
  std::vector<double> traced_step_ms;  // traced steps
  double stepping_s = 0.0;
  double traced_stepping_s = 0.0;
  perfbench::LayerObserver layer;
  std::vector<double> select_ms;
  std::vector<double> report_ms;
  RegistryDelta reg;
  std::size_t traced_sessions = 0;

  for (std::size_t e = 0;; ++e) {
    const std::size_t cycle = e / kSubSessions;
    const std::size_t sub = e % kSubSessions;
    // Trace runs trace every other session, the odd ones in even cycles
    // and the even ones in odd cycles, so host speed drifts hit both
    // sides alike. They stop after an even number of cycles: every seed
    // is then traced as often as untraced.
    const bool past = Clock::now() >= deadline;
    if (opt.trace ? (sub == 0 && cycle >= 2 && cycle % 2 == 0 && past)
                  : (e >= kSubSessions && past)) {
      break;
    }
    const bool traced = opt.trace && (cycle + sub) % 2 == 1;
    const auto spec = sub_spec(base, opt.seed, sub);
    const auto config = flips::to_experiment_config(spec);

    perfbench::SetupTimes times;
    perfbench::TimedSelector* timed = nullptr;
    const auto t_setup = Clock::now();
    auto session = perfbench::build_session(config, kind, spec.seed, times,
                                            traced ? &timed : nullptr);
    setup_s.push_back(ms_between(t_setup, Clock::now()) / 1e3);
    setups.push_back(times);

    std::string before;
    if (traced) {
      session->add_observer(&layer);
      session->add_observer(
          std::make_shared<flips::fl::MetricsObserver>("perfbench"));
      before = flips::obs::Registry::global().text_exposition();
      ++traced_sessions;
    }
    auto& into = traced ? traced_step_ms : step_ms;
    const auto t_run = Clock::now();
    while (!session->done()) {
      const auto t0 = Clock::now();
      session->advance();
      into.push_back(ms_between(t0, Clock::now()));
    }
    (traced ? traced_stepping_s : stepping_s) +=
        ms_between(t_run, Clock::now()) / 1e3;
    if (traced) {
      reg.add(before, flips::obs::Registry::global().text_exposition());
      select_ms.insert(select_ms.end(), timed->select_ms.begin(),
                       timed->select_ms.end());
      report_ms.insert(report_ms.end(), timed->report_ms.begin(),
                       timed->report_ms.end());
    }

    auto result = session->result();
    if (cycle == 0) {
      first[sub] = std::move(result);
    } else {
      report.check(result.final_parameters == first[sub].final_parameters,
                   "a repeated session reproduces its first run bit for bit");
    }
  }
  const double rss_mb = peak_rss_mb("self");
  report.operations(step_ms.size() + traced_step_ms.size(), 0);

  // bench::make_session is what flips_run runs; the layer-by-layer build
  // must give the very same session.
  {
    const auto spec = sub_spec(base, opt.seed, 0);
    auto reference = flips::bench::make_session(
        flips::to_experiment_config(spec), kind, spec.seed);
    while (!reference->done()) reference->advance();
    const auto ref = reference->result();
    report.check(perfbench::hash_parameters(ref.final_parameters) ==
                     perfbench::hash_parameters(first[0].final_parameters),
                 "layer-built session matches bench::make_session "
                 "(final-parameter hash)");
    report.check(ref.rounds_to_target == first[0].rounds_to_target,
                 "layer-built session matches bench::make_session "
                 "(rounds_to_target)");
  }

  if (!opt.trace) {
    report_timings(report, step_ms, stepping_s, setup_s);
    report_quality(report, base, first);
    report.metric("peak_rss_mb", rss_mb, "MiB", "VmHWM of this process");
    return;
  }

  auto tallied = [&](const char* event, std::size_t count) {
    return reg.faults[event] == static_cast<double>(count);
  };
  report.check(tallied("crashed", layer.crashed) &&
                   tallied("retried", layer.retried) &&
                   tallied("backfilled", layer.backfilled),
               "flips_faults_total agrees with the RoundRecord tallies");
  check_events(report, layer, base.mode == "async");
  const double traced_steps = static_cast<double>(layer.steps);
  report_setup_layers(report, setups);
  auto phase = [&](flips::fl::SessionPhase p, const char* name,
                   const char* share) {
    const auto i = static_cast<std::size_t>(p);
    report.metric(name, 1e3 * ratio(layer.phase_s[i],
                                    static_cast<double>(layer.phase_n[i])),
                  "ms", "on_phase " + samples_note(layer.phase_n[i]));
    if (share != nullptr) {
      report.metric(share, ratio(layer.phase_s[i], traced_stepping_s), "frac",
                    "of traced stepping wall time");
    }
  };
  phase(flips::fl::SessionPhase::kTrainCohort, "fl.train_cohort_ms",
        "fl.train_cohort_share");
  phase(flips::fl::SessionPhase::kEval, "fl.eval_ms", "fl.eval_share");
  phase(flips::fl::SessionPhase::kFold, "fl.fold_ms", nullptr);
  report_agg(report, reg, traced_steps);
  report_selector(report, select_ms, report_ms);
  phase(flips::fl::SessionPhase::kSelect, "fl.select_ms", nullptr);
  phase(flips::fl::SessionPhase::kServerStep, "fl.server_step_ms", nullptr);
  report_counts(report, layer, traced_sessions);
  for (const char* name : {"serve.execute_ms", "serve.reply_ms_p50",
                           "serve.queue_wait_ms", "serve.wire_ms"}) {
    report.metric(name, 0.0, "ms", "bypassed in process");
  }
  report.metric("serve.frames", 0.0, "count", "bypassed in process");
  report.metric("serve.rejected", 0.0, "count", "bypassed in process");
  report_overhead(report, traced_step_ms, step_ms);
}

// ---------------------------------------------------------------------
// serve-4t: four closed-loop tenants against a running flips_serve.

struct TenantRun {
  std::vector<double> rtt_ms;
  Clock::time_point opened;  ///< session open; stepping starts here
  Clock::time_point last_step;
  std::uint64_t hash = 0;
  std::size_t steps_ok = 0;
  std::size_t steps_failed = 0;
  std::string error;
};

flips::net::Frame frame_of(flips::net::FrameType type,
                           flips::serve::Bytes payload = {}) {
  flips::net::Frame frame;
  frame.type = type;
  frame.payload = std::move(payload);
  return frame;
}

/// One tenant's episode: hello, open, step until the server says the
/// session finished (one step outstanding at a time), fetch the result.
void drive_tenant(const Options& opt, const flips::ScenarioSpec& spec,
                  const std::string& name, TenantRun& run) {
  try {
    flips::serve::Client client;
    client.connect_uds(opt.uds);
    client.hello(name);
    client.open_session(spec.to_key_values());
    run.opened = Clock::now();
    for (std::uint64_t id = 1;; ++id) {
      const auto t0 = Clock::now();
      const auto reply = client.call(frame_of(
          flips::net::FrameType::kStep, flips::serve::encode_step_request(id)));
      const auto t1 = Clock::now();
      flips::serve::StepReply body;
      if (reply.status != flips::net::FrameStatus::kOk ||
          !flips::serve::decode_step_reply(reply.payload, body) ||
          body.request_id != id) {
        ++run.steps_failed;
        throw std::runtime_error("step refused or malformed");
      }
      ++run.steps_ok;
      run.rtt_ms.push_back(ms_between(t0, t1));
      run.last_step = t1;
      if (body.finished) break;
    }
    const auto reply = client.call(frame_of(flips::net::FrameType::kResult));
    std::vector<double> params;
    if (reply.status != flips::net::FrameStatus::kOk ||
        !flips::serve::decode_result_reply(reply.payload, params)) {
      throw std::runtime_error("result fetch failed");
    }
    run.hash = perfbench::hash_parameters(params);
  } catch (const std::exception& error) {
    run.error = error.what();
  }
}

void run_served(const Options& opt, Report& report) {
  if (opt.uds.empty() || opt.server_pid <= 0) {
    throw std::invalid_argument("serve-4t needs --uds and --server-pid");
  }
  const flips::ScenarioSpec base = workload_spec(opt.workload);
  const auto kind = flips::selector_kind(base);
  flips::serve::Client control;
  control.connect_uds(opt.uds);

  std::vector<double> setup_s;
  std::vector<double> rtt_ms;         // untraced episodes
  std::vector<double> traced_rtt_ms;  // traced episodes
  double stepping_s = 0.0;
  std::vector<std::vector<std::uint64_t>> served_hashes(kSubSessions);
  RegistryDelta reg;
  std::size_t traced_episodes = 0;
  std::size_t steps_ok = 0;
  std::size_t steps_failed = 0;
  std::size_t episodes = 0;

  // One episode: four concurrent tenants serving the sub-sessions of
  // `group`, each to completion. Warm-up episodes are checked like the
  // rest but not timed.
  auto episode = [&](std::size_t group, bool timed, bool traced) {
    const std::string before = traced ? control.metrics() : std::string();
    const std::size_t e = episodes++;
    std::vector<TenantRun> runs(kTenants);
    const auto t_episode = Clock::now();
    {
      std::vector<std::thread> tenants;
      for (std::size_t i = 0; i < kTenants; ++i) {
        tenants.emplace_back(
            drive_tenant, std::cref(opt),
            sub_spec(base, opt.seed, group * kTenants + i),
            "t" + std::to_string(i) + "-e" + std::to_string(e),
            std::ref(runs[i]));
      }
      for (auto& t : tenants) t.join();
    }
    Clock::time_point opened = t_episode;
    Clock::time_point first_step = Clock::time_point::max();
    Clock::time_point last_step = t_episode;
    for (std::size_t i = 0; i < kTenants; ++i) {
      const TenantRun& run = runs[i];
      report.check(run.error.empty(), "tenant " + std::to_string(i) +
                                          " episode " + std::to_string(e) +
                                          ": " + run.error);
      steps_ok += run.steps_ok;
      steps_failed += run.steps_failed;
      if (!run.error.empty()) continue;
      report.check(run.steps_ok == base.rounds,
                   "served session stepped its full round budget");
      served_hashes[group * kTenants + i].push_back(run.hash);
      opened = std::max(opened, run.opened);
      first_step = std::min(first_step, run.opened);
      last_step = std::max(last_step, run.last_step);
      if (timed) {
        auto& into = traced ? traced_rtt_ms : rtt_ms;
        into.insert(into.end(), run.rtt_ms.begin(), run.rtt_ms.end());
      }
    }
    if (!timed) return;
    setup_s.push_back(ms_between(t_episode, opened) / 1e3);
    if (traced) {
      reg.add(before, control.metrics());
      ++traced_episodes;
    } else if (first_step < last_step) {
      stepping_s += ms_between(first_step, last_step) / 1e3;
    }
  };

  // Timed episode t serves group t % kGroups: the four tenants' sessions
  // are sub-sessions group * kTenants + i. Trace runs trace every other
  // episode, swapping which groups between passes, and stop after an
  // even number of passes (as in run_in_process).
  constexpr std::size_t kGroups = kSubSessions / kTenants;
  for (const auto until = from_now(kWarmupSeconds); Clock::now() < until;) {
    episode(0, false, false);
  }
  const auto deadline = from_now(opt.seconds);
  for (std::size_t t = 0;; ++t) {
    const std::size_t pass = t / kGroups;
    const bool past = Clock::now() >= deadline;
    if (opt.trace ? (t % kGroups == 0 && pass >= 2 && pass % 2 == 0 && past)
                  : (pass >= 1 && past)) {
      break;
    }
    episode(t % kGroups, true, opt.trace && (pass + t) % 2 == 1);
  }
  const double rss_mb = peak_rss_mb(std::to_string(opt.server_pid));
  control.shutdown_server();
  report.operations(steps_ok + steps_failed, steps_failed);

  // In-process references, built layer by layer after timing: the
  // served final parameters must match them bitwise, and their
  // histories carry the time-to-target figures.
  std::vector<flips::fl::FlJobResult> refs;
  std::vector<perfbench::SetupTimes> setups;
  perfbench::LayerObserver layer;
  std::vector<double> select_ms;
  std::vector<double> report_ms;
  for (std::size_t i = 0; i < kSubSessions; ++i) {
    const auto spec = sub_spec(base, opt.seed, i);
    perfbench::SetupTimes times;
    perfbench::TimedSelector* timed = nullptr;
    auto session = perfbench::build_session(
        flips::to_experiment_config(spec), kind, spec.seed, times, &timed);
    setups.push_back(times);
    session->add_observer(&layer);
    while (!session->done()) session->advance();
    refs.push_back(session->result());
    select_ms.insert(select_ms.end(), timed->select_ms.begin(),
                     timed->select_ms.end());
    report_ms.insert(report_ms.end(), timed->report_ms.begin(),
                     timed->report_ms.end());
    const auto want = perfbench::hash_parameters(refs.back().final_parameters);
    for (const auto got : served_hashes[i]) {
      report.check(got == want,
                   "served final parameters equal the in-process run");
    }
  }

  if (!opt.trace) {
    report_timings(report, rtt_ms, stepping_s, setup_s);
    report_quality(report, base, refs);
    report.metric("peak_rss_mb", rss_mb, "MiB", "VmHWM of flips_serve");
    return;
  }

  check_events(report, layer, base.mode == "async");
  report_setup_layers(report, setups);
  double execute_s = 0.0;
  for (const auto& [name, s] : reg.phase_s) execute_s += s;
  auto phase = [&](const char* key, const char* name, const char* share) {
    report.metric(name, 1e3 * ratio(reg.phase_s[key], reg.phase_n[key]), "ms",
                  "served flips_session_phase_seconds " +
                      samples_note(static_cast<std::size_t>(reg.phase_n[key])));
    if (share != nullptr) {
      report.metric(share, ratio(reg.phase_s[key], execute_s), "frac",
                    "of served execute time");
    }
  };
  phase("train_cohort", "fl.train_cohort_ms", "fl.train_cohort_share");
  phase("eval", "fl.eval_ms", "fl.eval_share");
  phase("fold", "fl.fold_ms", nullptr);
  report_agg(report, reg, reg.steps);
  report_selector(report, select_ms, report_ms);
  phase("select", "fl.select_ms", nullptr);
  phase("server_step", "fl.server_step_ms", nullptr);
  report_counts(report, layer, kSubSessions);

  const double execute_ms = 1e3 * ratio(execute_s, reg.steps);
  const double reply_ms = 1e3 * ratio(reg.reply_s, reg.reply_n);
  const auto reply_p50 =
      perfbench::bucket_quantile(reg.reply_before, reg.reply_after, 0.5);
  const std::string n = samples_note(static_cast<std::size_t>(reg.steps));
  report.metric("serve.execute_ms", execute_ms, "ms",
                "sum of phases per served step " + n);
  report.metric("serve.reply_ms_p50", 1e3 * reply_p50.value_or(0.0), "ms",
                "flips_serve_reply_seconds bucket edge " +
                    samples_note(static_cast<std::size_t>(reg.reply_n)));
  report.metric("serve.queue_wait_ms", reply_ms - execute_ms, "ms",
                "mean reply - mean execute");
  report.metric("serve.wire_ms", mean(traced_rtt_ms) - reply_ms,
                "ms", "mean client round trip - mean reply");
  report.metric("serve.frames", ratio(reg.frames, traced_episodes), "count",
                "per episode " + samples_note(traced_episodes));
  report.metric("serve.rejected", reg.rejected, "count",
                "over traced episodes");
  report_overhead(report, traced_rtt_ms, rtt_ms);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " +
                                                   std::string(arg));
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--uds") {
      opt.uds = value;
    } else if (arg == "--server-pid") {
      opt.server_pid = std::stol(value);
    } else {
      throw std::invalid_argument("unknown flag: " + std::string(arg));
    }
  }
  workload_spec(opt.workload);  // validates the name
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "flips_perf: " << error.what() << "\n";
    return 2;
  }
  std::cout << "workload " << opt.workload << ", seed " << opt.seed << ", "
            << opt.seconds << " s, trace " << (opt.trace ? 1 : 0) << "\n";
  Report report;
  try {
    if (opt.workload == "serve-4t") {
      run_served(opt, report);
    } else {
      run_in_process(opt, report);
    }
  } catch (const std::exception& error) {
    std::cerr << "flips_perf: " << error.what() << "\n";
    return 1;
  }
  if (!opt.trace) {
    // The complement of failed_frac: a ratio that is never 0, so its
    // relative spread and bound stay defined.
    report.metric("ok_frac",
                  1.0 - perfbench::failed_frac(report.attempted(),
                                               report.failed()),
                  "frac",
                  std::to_string(report.failed()) + " failed of " +
                      std::to_string(report.attempted()) +
                      " steps and checks");
  }
  report.print_json();
  return report.failed() == 0 ? 0 : 1;
}
