// Load generator for flips_serve: drives N concurrent tenants over
// TCP/UDS, each registering (kHello), opening a seed-strided
// ScenarioSpec session (kOpenSession), and stepping it to completion
// (kStep) in one of two disciplines:
//
//   closed loop  keep --window requests outstanding per tenant; a new
//                step is sent only when a reply lands (classic
//                closed-loop latency measurement)
//   open loop    send steps at --rate per second per tenant regardless
//                of replies (arrival-driven; overload shows up as
//                admission rejections instead of client throttling)
//
// Tenant seeds stride seed, seed+1000, ... — the same stride as
// flips_run's multitenant mode — and after the run each tenant fetches
// final parameters (kResult) and re-runs its ScenarioSpec in-process,
// comparing bitwise. The machine-readable summary
//
//   perf,serving,<tenants>,<p50_ms>,<p99_ms>,<rounds_per_s>,<yes|no>
//
// carries client-observed step latency, served throughput, and that
// bit-identity verdict (the CI perf rail fails unless it is "yes").
//
//   flips_loadgen --uds /tmp/flips.sock --tenants 2 --set rounds=6
//   flips_loadgen --port 7070 --open --rate 40 --shutdown
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/perf.h"
#include "common/scenario.h"
#include "obs/metrics.h"
#include "serve/client.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string uds_path;
  std::uint16_t tcp_port = 0;
  bool use_tcp = false;
  std::size_t tenants = 2;
  flips::ScenarioSpec spec;
  bool open_loop = false;
  double rate = 40.0;        ///< open loop: steps/s per tenant
  std::size_t window = 2;    ///< closed loop: outstanding per tenant
  bool send_shutdown = false;
  bool verify = true;
  bool metrics = false;      ///< poll kMetrics and cross-check counters
  /// Chaos arm: kill the connection mid-run every --fault-every ok
  /// steps (sometimes with a request in flight) and rely on the
  /// client's reconnect-and-replay path; bit-identity is still gated.
  bool fault = false;
  std::size_t fault_every = 5;
};

/// Step-latency histogram bounds: 1 µs .. 100 s in milliseconds at ~9%
/// resolution. Bounded memory however long the run (the previous
/// unbounded vector<double> grew with every reply).
constexpr flips::obs::HistogramConfig kLatencyMsConfig{1e-3, 1e5, 3};

struct TenantStats {
  flips::obs::Histogram latency_ms{kLatencyMsConfig};  ///< ok steps only
  std::size_t steps_ok = 0;
  std::size_t rejections = 0;
  std::vector<double> parameters;    ///< served final parameters
  std::string error;                 ///< non-empty = the tenant failed
};

flips::serve::Client connect(const Options& options) {
  flips::serve::Client client;
  if (options.use_tcp) {
    client.connect_tcp(options.tcp_port);
  } else {
    client.connect_uds(options.uds_path);
  }
  return client;
}

flips::net::Frame step_request(std::uint64_t request_id) {
  flips::net::Frame frame;
  frame.type = flips::net::FrameType::kStep;
  frame.payload = flips::serve::encode_step_request(request_id);
  return frame;
}

/// Fetches the served model (kResult) for the bit-identity check.
void fetch_result(flips::serve::Client& client, bool retry,
                  TenantStats& stats) {
  flips::net::Frame request;
  request.type = flips::net::FrameType::kResult;
  const auto reply =
      retry ? client.call_with_retry(request) : client.call(request);
  if (reply.status != flips::net::FrameStatus::kOk) {
    throw std::runtime_error("result fetch failed: " +
                             flips::serve::decode_text(reply.payload));
  }
  if (!flips::serve::decode_result_reply(reply.payload, stats.parameters)) {
    throw std::runtime_error("undecodable result payload");
  }
}

/// One tenant's whole serving conversation. Throws on protocol errors;
/// the caller captures the message into TenantStats::error.
void drive_tenant(const Options& options, std::size_t tenant_index,
                  TenantStats& stats) {
  flips::ScenarioSpec spec = options.spec;
  spec.seed += 1000 * tenant_index;  // flips_run's multitenant stride

  flips::serve::Client client = connect(options);
  client.hello("tenant-" + std::to_string(tenant_index));
  client.open_session(spec.to_key_values());

  std::unordered_map<std::uint64_t, Clock::time_point> sent_at;
  std::uint64_t next_id = 1;
  std::size_t outstanding = 0;
  bool finished = false;

  auto process = [&](const flips::net::Frame& reply) {
    if (reply.type != flips::net::FrameType::kStep) {
      throw std::runtime_error("unexpected reply type");
    }
    flips::serve::StepReply body;
    if (!flips::serve::decode_step_reply(reply.payload, body)) {
      throw std::runtime_error("undecodable step reply");
    }
    --outstanding;
    switch (reply.status) {
      case flips::net::FrameStatus::kOk: {
        const auto it = sent_at.find(body.request_id);
        if (it != sent_at.end()) {
          stats.latency_ms.record(
              std::chrono::duration<double, std::milli>(Clock::now() -
                                                        it->second)
                  .count());
          sent_at.erase(it);
        }
        ++stats.steps_ok;
        if (body.finished) finished = true;
        return;
      }
      case flips::net::FrameStatus::kRejected:
        ++stats.rejections;
        sent_at.erase(body.request_id);
        return;
      case flips::net::FrameStatus::kSessionDone:
        finished = true;
        sent_at.erase(body.request_id);
        return;
      default:
        throw std::runtime_error("step failed: " +
                                 flips::serve::decode_text(reply.payload));
    }
  };

  if (options.fault) {
    // Chaos discipline: strict request/reply through the self-healing
    // call path, killing our own connection every fault_every ok steps
    // — on odd kills with the request already on the wire, so the
    // server may execute a step whose reply we never see and the
    // replayed id steps again. The session's fixed round count makes
    // that harmless: we drive until the server says done, and the
    // final parameters must still match the in-process run bitwise.
    client.set_retry_policy({.max_attempts = 40,
                             .backoff_base_s = 0.01,
                             .backoff_mult = 1.5});
    std::size_t ok_since_kill = 0;
    std::size_t kills = 0;
    while (!finished) {
      const std::uint64_t id = next_id++;
      const auto request = step_request(id);
      if (ok_since_kill >= options.fault_every) {
        ok_since_kill = 0;
        ++kills;
        if (kills % 2 == 1) {
          try {
            client.send(request);  // in-flight when the connection dies
          } catch (const std::exception&) {
          }
        }
        client.close();
      }
      sent_at.emplace(id, Clock::now());
      ++outstanding;
      const std::size_t ok_before = stats.steps_ok;
      process(client.call_with_retry(request));
      ok_since_kill += stats.steps_ok - ok_before;
    }
    fetch_result(client, /*retry=*/true, stats);
    return;
  }

  auto send_step = [&] {
    const std::uint64_t id = next_id++;
    sent_at.emplace(id, Clock::now());
    client.send(step_request(id));
    ++outstanding;
  };

  if (options.open_loop) {
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / options.rate));
    auto next_send = Clock::now();
    while (!finished) {
      const auto now = Clock::now();
      if (now >= next_send) {
        // Drain ready replies first so a rate above the service rate
        // cannot fill both socket buffers and deadlock on send().
        while (!finished) {
          const auto reply = client.try_recv(0);
          if (!reply) break;
          process(*reply);
        }
        if (finished) break;
        send_step();
        next_send += interval;
        continue;
      }
      const int wait_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(next_send -
                                                                now)
              .count());
      if (const auto reply = client.try_recv(std::max(wait_ms, 1))) {
        process(*reply);
      }
    }
  } else {
    while (!finished) {
      if (outstanding < options.window) {
        send_step();
        continue;
      }
      process(client.recv());
    }
  }
  while (outstanding > 0) process(client.recv());

  fetch_result(client, /*retry=*/false, stats);
}

/// Re-runs `tenant_index`'s exact scenario in-process and compares the
/// final parameters bitwise against what the server sent back.
bool bit_identical(const Options& options, std::size_t tenant_index,
                   const std::vector<double>& served) {
  flips::ScenarioSpec spec = options.spec;
  spec.seed += 1000 * tenant_index;
  const auto config = flips::to_experiment_config(spec);
  auto session =
      flips::make_session(config, flips::selector_kind(spec), spec.seed);
  while (!session->done()) session->advance();
  const auto reference = session->result().final_parameters;
  return reference.size() == served.size() &&
         (served.empty() ||
          std::memcmp(reference.data(), served.data(),
                      served.size() * sizeof(double)) == 0);
}

/// Mandatory families every kMetrics snapshot of a serving run must
/// carry (smoke.sh fails the build when one goes missing).
constexpr std::string_view kMandatoryFamilies[] = {
    "flips_serve_frames_total",     "flips_serve_replies_total",
    "flips_serve_steps_total",      "flips_serve_rejections_total",
    "flips_session_rounds_total",
};

constexpr std::string_view kUsage =
    "  --uds PATH | --port N  the server to drive (one is required)\n"
    "  --tenants N    concurrent tenant connections (default 2,\n"
    "                 at most 1024)\n"
    "  --open         open-loop arrivals at --rate steps/s/tenant\n"
    "  --rate R       open-loop steps per second per tenant\n"
    "  --window N     closed-loop outstanding steps per tenant\n"
    "  --fault        chaos arm: kill+revive each tenant's\n"
    "                 connection mid-run (reconnect-and-replay);\n"
    "                 bit-identity must still hold\n"
    "  --fault-every N  ok steps between connection kills\n"
    "  --no-verify    skip the in-process bit-identity re-run\n"
    "  --metrics      fetch the kMetrics snapshot after the run and\n"
    "                 check mandatory families + that the server's\n"
    "                 rejection counters equal the client tally\n"
    "                 (assumes a freshly started server)\n"
    "  --shutdown     send kShutdown once all tenants finish\n";

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.spec =
      flips::parse_scenario_args(
          argc, argv, flips::scenario_preset("ecg-fedavg"), kUsage,
          [&](std::string_view flag, const auto& value) {
            if (flag == "--uds") {
              options.uds_path = value();
            } else if (flag == "--port") {
              options.tcp_port = flips::parse_port(value());
              options.use_tcp = true;
            } else if (flag == "--tenants") {
              options.tenants =
                  flips::parse_count(flag, value(), flips::kMaxThreadsFlag);
            } else if (flag == "--open") {
              options.open_loop = true;
            } else if (flag == "--rate") {
              options.rate = std::stod(value());
            } else if (flag == "--window") {
              options.window = flips::parse_count(flag, value());
            } else if (flag == "--fault") {
              options.fault = true;
            } else if (flag == "--fault-every") {
              options.fault_every = flips::parse_count(flag, value());
            } else if (flag == "--no-verify") {
              options.verify = false;
            } else if (flag == "--metrics") {
              options.metrics = true;
            } else if (flag == "--shutdown") {
              options.send_shutdown = true;
            } else {
              return false;
            }
            return true;
          })
          .spec;
  const char* invalid = nullptr;
  if (options.uds_path.empty() && !options.use_tcp) {
    invalid = "need --uds PATH or --port N";
  } else if (options.tenants == 0 || options.window == 0 ||
             !(options.rate > 0)) {
    invalid = "tenants/window/rate must be positive";
  } else if (options.fault && options.fault_every == 0) {
    invalid = "--fault-every must be positive";
  }
  if (invalid != nullptr) {
    std::cerr << invalid << " (try --help)\n";
    return 2;
  }

  std::cout << "flips_loadgen: " << options.tenants << " tenants, "
            << (options.open_loop ? "open" : "closed") << " loop, "
            << "scenario " << options.spec.name << " ("
            << options.spec.rounds << " rounds)\n";

  std::vector<TenantStats> stats(options.tenants);
  const auto start = Clock::now();
  {
    std::vector<std::thread> tenants;
    tenants.reserve(options.tenants);
    for (std::size_t t = 0; t < options.tenants; ++t) {
      tenants.emplace_back([&options, &stats, t] {
        try {
          drive_tenant(options, t, stats[t]);
        } catch (const std::exception& error) {
          stats[t].error = error.what();
        }
      });
    }
    for (auto& tenant : tenants) tenant.join();
  }
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  // Snapshot the server's registry before any shutdown: the kMetrics
  // frame needs no hello, so a fresh connection suffices.
  std::string metrics_text;
  std::string metrics_error;
  if (options.metrics) {
    try {
      flips::serve::Client client = connect(options);
      metrics_text = client.metrics();
    } catch (const std::exception& error) {
      metrics_error = error.what();
    }
  }

  if (options.send_shutdown) {
    try {
      flips::serve::Client client = connect(options);
      client.shutdown_server();
    } catch (const std::exception& error) {
      std::cerr << "shutdown request failed: " << error.what() << "\n";
    }
  }

  bool failed = false;
  flips::obs::Histogram all_latency_ms(kLatencyMsConfig);
  std::size_t total_steps = 0;
  std::size_t total_rejections = 0;
  bool identical = true;
  for (std::size_t t = 0; t < options.tenants; ++t) {
    const auto& tenant = stats[t];
    if (!tenant.error.empty()) {
      std::cerr << "tenant-" << t << " failed: " << tenant.error << "\n";
      failed = true;
      continue;
    }
    const bool match =
        !options.verify || bit_identical(options, t, tenant.parameters);
    identical = identical && match;
    std::cout << "tenant-" << t << ": " << tenant.steps_ok << " steps, "
              << tenant.rejections << " rejected, dim "
              << tenant.parameters.size() << ", bit-identical "
              << (options.verify ? (match ? "yes" : "NO") : "skipped")
              << "\n";
    all_latency_ms.merge(tenant.latency_ms);
    total_steps += tenant.steps_ok;
    total_rejections += tenant.rejections;
  }
  if (failed) return 1;

  const double p50 = all_latency_ms.quantile(0.50);
  const double p99 = all_latency_ms.quantile(0.99);
  const double rounds_per_s =
      wall_s > 0 ? static_cast<double>(total_steps) / wall_s : 0.0;

  std::cout << "total: " << total_steps << " steps ("
            << total_rejections << " rejected) in " << wall_s << " s\n";
  flips::bench::PerfLine("serving")
      .uint("tenants", options.tenants)
      .num("p50_ms", p50, 3)
      .num("p99_ms", p99, 3)
      .num("rounds_per_s", rounds_per_s, 3)
      .text("bit_identical",
            options.verify ? (identical ? "yes" : "no") : "skipped")
      .print();

  // --metrics cross-check: every mandatory family must appear in the
  // snapshot, and the server-side rejection counters must sum to
  // exactly what the clients tallied — the end-to-end proof that the
  // admission path and its telemetry agree.
  bool metrics_ok = true;
  if (options.metrics) {
    if (!metrics_error.empty()) {
      std::cerr << "metrics fetch failed: " << metrics_error << "\n";
      metrics_ok = false;
    } else {
      bool families_ok = true;
      for (const auto family : kMandatoryFamilies) {
        if (!flips::obs::prometheus_has_family(metrics_text, family)) {
          std::cerr << "metrics: mandatory family missing: " << family
                    << "\n";
          families_ok = false;
        }
      }
      const double server_rejections =
          flips::obs::prometheus_family_sum(metrics_text,
                                            "flips_serve_rejections_total")
              .value_or(-1.0);
      const bool rejections_match =
          server_rejections == static_cast<double>(total_rejections);
      if (!rejections_match) {
        std::cerr << "metrics: server counted " << server_rejections
                  << " rejections, clients counted " << total_rejections
                  << "\n";
      }
      metrics_ok = families_ok && rejections_match;
      // Stable machine-readable verdict (smoke.sh greps for ",match"):
      //   metrics,<ok|missing>,<server_rejections>,<client_rejections>,
      //           <match|MISMATCH>
      std::printf("metrics,%s,%.0f,%zu,%s\n",
                  families_ok ? "ok" : "missing", server_rejections,
                  total_rejections,
                  rejections_match ? "match" : "MISMATCH");
    }
  }
  return (options.verify && !identical) || !metrics_ok ? 1 : 0;
}
