// Serving front end: hosts one federation session per tenant behind a
// TCP/UDS socket speaking the length-prefixed frame protocol
// (net/codec.h framing, serve/protocol.h payloads). Remote drivers —
// flips_loadgen, or anything that speaks the protocol — register a
// tenant (kHello), submit a ScenarioSpec as key=value lines
// (kOpenSession), and step their federation round by round (kStep),
// while the server enforces per-tenant admission control and
// round-robin fairness across tenants.
//
//   flips_serve --uds /tmp/flips.sock
//   flips_serve --port 0            # ephemeral TCP; port printed
//   flips_serve --threads 4 --max-inflight 8
//
// The server drains gracefully on a client's kShutdown frame (or
// SIGINT/SIGTERM): queued work finishes, replies flush, then it exits
// with a stats summary.
#include <chrono>
#include <csignal>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "scenario/spec.h"
#include "serve/server.h"

namespace {

// Signal handlers may only do async-signal-safe work; set a flag the
// main loop polls alongside the server's own shutdown state.
std::sig_atomic_t g_signalled = 0;

void handle_signal(int) { g_signalled = 1; }

/// Lowers wire key=value pairs onto the session builder: ScenarioSpec
/// validation (fail-fast on unknown keys / bad values), then the same
/// make_session flips_run uses, which builds every session fresh. Runs
/// on the server's builder thread.
std::unique_ptr<flips::fl::FederationSession> build_session(
    const flips::serve::KvPairs& kv, flips::common::ThreadPool* workers,
    std::string* banner) {
  const auto spec = flips::ScenarioSpec::from_key_values(kv);
  const auto config = flips::to_experiment_config(spec);
  const auto kind = flips::selector_kind(spec);
  *banner = "scenario " + spec.name + ": dataset " + spec.dataset + ", " +
            std::to_string(spec.parties) + " parties, " +
            std::to_string(spec.rounds) + " rounds, mode " + spec.mode +
            ", selector " + spec.selector + ", codec " + spec.codec +
            ", seed " + std::to_string(spec.seed);
  return flips::make_session(config, kind, spec.seed, workers);
}

int usage() {
  std::cerr << "usage: flips_serve [--uds PATH | --port N] [--threads N]"
               " [--max-inflight N] [--idle-timeout S]\n"
               "  --uds PATH        listen on a unix-domain socket\n"
               "  --port N          listen on 127.0.0.1:N (0 = ephemeral;"
               " resolved port is printed)\n"
               "  --threads N       shared local-training workers"
               " (0 = all cores, at most 1024)\n"
               "  --max-inflight N  admission bound: step frames queued"
               " or executing per tenant\n"
               "  --idle-timeout S  evict tenants whose connection died"
               " and stayed idle S seconds (0 = never)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  flips::serve::ServerConfig config;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      auto next_value = [&]() -> const char* {
        if (i + 1 >= argc) {
          throw std::invalid_argument("missing value for " +
                                      std::string(arg));
        }
        return argv[++i];
      };
      if (arg == "--uds") {
        config.uds_path = next_value();
      } else if (arg == "--port") {
        config.tcp_port = flips::parse_port(next_value());
      } else if (arg == "--threads") {
        config.worker_threads = flips::parse_count(
            arg, next_value(), flips::kMaxThreadsFlag);
      } else if (arg == "--max-inflight") {
        config.max_inflight_per_tenant = flips::parse_count(arg, next_value());
      } else if (arg == "--idle-timeout") {
        config.tenant_idle_timeout_s = std::stod(next_value());
      } else if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else {
        throw std::invalid_argument("unknown flag: " + std::string(arg));
      }
    }
  } catch (const std::exception& error) {
    std::cerr << error.what() << "\n";
    return usage();
  }

  flips::serve::Server server(std::move(config), build_session);
  try {
    server.start();
  } catch (const std::exception& error) {
    std::cerr << "flips_serve: " << error.what() << "\n";
    return 1;
  }
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  if (server.port() != 0) {
    std::cout << "flips_serve listening on 127.0.0.1:" << server.port()
              << std::endl;
  } else {
    std::cout << "flips_serve listening" << std::endl;
  }

  while (g_signalled == 0 && !server.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.drain();

  const auto stats = server.stats();
  std::cout << "flips_serve drained: " << stats.frames << " frames, "
            << stats.sessions_opened << " sessions, " << stats.steps
            << " steps, " << stats.rejected << " rejected, "
            << stats.bad_frames << " bad frames\n";
  return 0;
}
