// Serving plane: frame decoding on hostile byte streams (truncated /
// oversized / garbage — reject, never crash or over-read), payload
// codec round trips, and end-to-end UDS serving through a real
// Server: multi-tenant bit-identity against in-process runs, session
// lifecycle statuses, admission control under a flooding tenant, and
// session builds that run off the scheduler thread.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fl/observer.h"
#include "net/codec.h"
#include "scenario/spec.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace {

using flips::net::Frame;
using flips::net::FrameDecodeResult;
using flips::net::FrameDecoder;
using flips::net::FrameStatus;
using flips::net::FrameType;

// ---------------------------------------------------------------------
// Framing layer.

std::vector<std::uint8_t> wire_image(const Frame& frame) {
  std::vector<std::uint8_t> out;
  flips::net::encode_frame(frame, out);
  return out;
}

TEST(FrameDecoder, RoundTripsFramesFedByteByByte) {
  Frame a;
  a.type = FrameType::kOpenSession;
  a.payload = {1, 2, 3, 4, 5};
  Frame b;
  b.type = FrameType::kStep;
  b.status = FrameStatus::kRejected;  // statuses survive the wire
  auto stream = wire_image(a);
  const auto second = wire_image(b);
  stream.insert(stream.end(), second.begin(), second.end());

  FrameDecoder decoder;
  std::vector<Frame> decoded;
  Frame frame;
  for (const std::uint8_t byte : stream) {
    decoder.feed(&byte, 1);  // worst-case fragmentation
    while (decoder.next(frame) == FrameDecodeResult::kFrame) {
      decoded.push_back(frame);
    }
  }
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].type, FrameType::kOpenSession);
  EXPECT_EQ(decoded[0].payload, a.payload);
  EXPECT_EQ(decoded[1].type, FrameType::kStep);
  EXPECT_EQ(decoded[1].status, FrameStatus::kRejected);
  EXPECT_TRUE(decoded[1].payload.empty());
}

TEST(FrameDecoder, TruncatedStreamsNeedMoreAndNeverProduceAFrame) {
  Frame full;
  full.type = FrameType::kResult;
  full.payload.assign(100, 0xAB);
  const auto stream = wire_image(full);
  // Every proper prefix — header cut short AND payload cut short —
  // parks the decoder at kNeedMore.
  for (std::size_t cut = 0; cut < stream.size(); ++cut) {
    FrameDecoder decoder;
    decoder.feed(stream.data(), cut);
    Frame frame;
    EXPECT_EQ(decoder.next(frame), FrameDecodeResult::kNeedMore);
  }
}

TEST(FrameDecoder, GarbageMagicIsRejectedAndStays) {
  std::vector<std::uint8_t> garbage(64, 0x5A);
  FrameDecoder decoder;
  decoder.feed(garbage.data(), garbage.size());
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecodeResult::kError);
  EXPECT_NE(decoder.error().find("magic"), std::string::npos);
  // The verdict is sticky: framing has no resync point, so even a
  // subsequent well-formed frame must not be produced.
  const auto good = wire_image(Frame{});
  decoder.feed(good.data(), good.size());
  EXPECT_EQ(decoder.next(frame), FrameDecodeResult::kError);
}

TEST(FrameDecoder, BadVersionAndBadTypeAreRejected) {
  auto stream = wire_image(Frame{});
  stream[4] = 9;  // version byte
  FrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecodeResult::kError);

  stream = wire_image(Frame{});
  stream[5] = 0;  // type byte below the valid 1..5 range
  FrameDecoder type_decoder;
  type_decoder.feed(stream.data(), stream.size());
  EXPECT_EQ(type_decoder.next(frame), FrameDecodeResult::kError);
}

TEST(FrameDecoder, OversizedLengthIsRejectedFromTheHeaderAlone) {
  // A hostile length field must be refused BEFORE any payload arrives
  // — the decoder may never buffer toward a 2^32-scale promise.
  auto stream = wire_image(Frame{});
  const std::uint32_t huge =
      static_cast<std::uint32_t>(flips::net::kMaxFramePayload) + 1;
  std::memcpy(stream.data() + 8, &huge, sizeof huge);
  FrameDecoder decoder;
  decoder.feed(stream.data(), flips::net::kFrameHeaderBytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecodeResult::kError);
  EXPECT_NE(decoder.error().find("payload"), std::string::npos);
}

TEST(FrameEncode, OversizedPayloadThrows) {
  Frame frame;
  frame.payload.resize(flips::net::kMaxFramePayload + 1);
  std::vector<std::uint8_t> out;
  EXPECT_THROW(flips::net::encode_frame(frame, out),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// Payload codecs.

TEST(ServePayloads, KvRoundTripAndMalformedLines) {
  const flips::serve::KvPairs kv = {
      {"dataset", "ecg"}, {"rounds", "12"}, {"note", ""}};
  flips::serve::KvPairs decoded;
  std::string error;
  ASSERT_TRUE(
      flips::serve::decode_kv(flips::serve::encode_kv(kv), decoded, error));
  EXPECT_EQ(decoded, kv);

  const std::string bad = "no_equals_sign\n";
  EXPECT_FALSE(flips::serve::decode_kv(
      flips::serve::Bytes(bad.begin(), bad.end()), decoded, error));
  EXPECT_NE(error.find("no_equals_sign"), std::string::npos);
}

TEST(ServePayloads, StepReplyFullAndIdOnlyForms) {
  flips::serve::StepReply reply{42, 7, true};
  flips::serve::StepReply decoded;
  ASSERT_TRUE(flips::serve::decode_step_reply(
      flips::serve::encode_step_reply(reply), decoded));
  EXPECT_EQ(decoded.request_id, 42u);
  EXPECT_EQ(decoded.round, 7u);
  EXPECT_TRUE(decoded.finished);

  // Rejections echo just the id (queued out-of-band by the I/O
  // thread) — the short form must decode, not error.
  ASSERT_TRUE(flips::serve::decode_step_reply(
      flips::serve::encode_step_request(42), decoded));
  EXPECT_EQ(decoded.request_id, 42u);
  EXPECT_FALSE(decoded.finished);

  // Truncated and trailing-garbage payloads are rejected.
  flips::serve::Bytes truncated = {1, 2, 3};
  EXPECT_FALSE(flips::serve::decode_step_reply(truncated, decoded));
  auto padded = flips::serve::encode_step_reply(reply);
  padded.push_back(0);
  EXPECT_FALSE(flips::serve::decode_step_reply(padded, decoded));
}

TEST(ServePayloads, ResultReplyRejectsLyingDimension) {
  const std::vector<double> params = {1.0, -2.5, 3.25};
  auto payload = flips::serve::encode_result_reply(params);
  std::vector<double> decoded;
  ASSERT_TRUE(flips::serve::decode_result_reply(payload, decoded));
  EXPECT_EQ(decoded, params);

  // Inflate the dim header without the bytes to back it: the decoder
  // must refuse rather than allocate or read past the payload.
  payload[0] = 0xFF;
  payload[1] = 0xFF;
  EXPECT_FALSE(flips::serve::decode_result_reply(payload, decoded));
  EXPECT_FALSE(flips::serve::decode_result_reply({1, 2}, decoded));
}

// ---------------------------------------------------------------------
// End-to-end serving over a unix-domain socket.

flips::ScenarioSpec small_spec(std::size_t rounds, std::uint64_t seed) {
  auto spec = flips::scenario_preset("ecg-fedavg");
  spec.parties = 20;
  spec.samples_per_party = 30;
  spec.rounds = rounds;
  spec.threads = 2;
  spec.seed = seed;
  return spec;
}

std::vector<double> solo_parameters(const flips::ScenarioSpec& spec) {
  auto session = flips::make_session(flips::to_experiment_config(spec),
                                     flips::selector_kind(spec), spec.seed);
  while (!session->done()) session->advance();
  return session->result().final_parameters;
}

std::unique_ptr<flips::fl::FederationSession> test_factory(
    const flips::serve::KvPairs& kv, flips::common::ThreadPool* workers,
    std::string* banner) {
  const auto spec = flips::ScenarioSpec::from_key_values(kv);
  *banner = "scenario " + spec.name;
  return flips::make_session(flips::to_experiment_config(spec),
                             flips::selector_kind(spec), spec.seed, workers);
}

std::string test_socket_path(const char* tag) {
  return "/tmp/flips_test_serve_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// Sends one step and blocks for ITS reply (skipping none — the serial
/// window-1 discipline means replies arrive in order).
FrameStatus step_once(flips::serve::Client& client, std::uint64_t id,
                      flips::serve::StepReply& reply) {
  Frame request;
  request.type = FrameType::kStep;
  request.payload = flips::serve::encode_step_request(id);
  const Frame response = client.call(request);
  EXPECT_EQ(response.type, FrameType::kStep);
  EXPECT_TRUE(flips::serve::decode_step_reply(response.payload, reply));
  EXPECT_EQ(reply.request_id, id);
  return response.status;
}

std::vector<double> fetch_result(flips::serve::Client& client) {
  Frame request;
  request.type = FrameType::kResult;
  const Frame response = client.call(request);
  EXPECT_EQ(response.status, FrameStatus::kOk);
  std::vector<double> parameters;
  EXPECT_TRUE(
      flips::serve::decode_result_reply(response.payload, parameters));
  return parameters;
}

TEST(ServeEndToEnd, UnequalTenantsAreBitIdenticalAndLifecycleIsClean) {
  const std::string socket = test_socket_path("e2e");
  flips::serve::ServerConfig config;
  config.uds_path = socket;
  config.worker_threads = 2;
  flips::serve::Server server(config, test_factory);
  server.start();

  const auto brief_spec = small_spec(3, 77);
  const auto long_spec = small_spec(8, 2077);

  flips::serve::Client brief;
  brief.connect_uds(socket);
  EXPECT_NE(brief.hello("brief").find("brief"), std::string::npos);
  brief.open_session(brief_spec.to_key_values());

  flips::serve::Client survivor;
  survivor.connect_uds(socket);
  survivor.hello("survivor");
  survivor.open_session(long_spec.to_key_values());

  // A result fetch before the last round is refused.
  Frame early;
  early.type = FrameType::kResult;
  EXPECT_EQ(survivor.call(early).status, FrameStatus::kNotFinished);

  // Interleave the two tenants; "brief" finishes at round 3 and every
  // further step is kSessionDone — which must not perturb "survivor".
  flips::serve::StepReply reply;
  std::size_t brief_refusals = 0;
  for (std::uint64_t round = 1; round <= 8; ++round) {
    const FrameStatus brief_status = step_once(brief, round, reply);
    if (brief_status == FrameStatus::kSessionDone) {
      ++brief_refusals;
    } else {
      EXPECT_EQ(brief_status, FrameStatus::kOk);
      EXPECT_EQ(reply.round, round);
      EXPECT_EQ(reply.finished, round == 3);
    }
    EXPECT_EQ(step_once(survivor, round, reply), FrameStatus::kOk);
    EXPECT_EQ(reply.finished, round == 8);
  }
  EXPECT_EQ(brief_refusals, 5u);

  // Served results match in-process runs of the same specs bitwise.
  const auto brief_served = fetch_result(brief);
  const auto survivor_served = fetch_result(survivor);
  EXPECT_EQ(brief_served, solo_parameters(brief_spec));
  EXPECT_EQ(survivor_served, solo_parameters(long_spec));

  // A second connection may not reuse a registered tenant name.
  flips::serve::Client dup;
  dup.connect_uds(socket);
  EXPECT_THROW(dup.hello("survivor"), std::runtime_error);

  server.drain();
  const auto stats = server.stats();
  EXPECT_EQ(stats.sessions_opened, 2u);
  EXPECT_EQ(stats.steps, 3u + 8u);
  EXPECT_EQ(stats.bad_frames, 0u);
}

TEST(ServeEndToEnd, StepWithoutHelloOrSessionIsRefused) {
  const std::string socket = test_socket_path("refuse");
  flips::serve::ServerConfig config;
  config.uds_path = socket;
  config.worker_threads = 1;
  flips::serve::Server server(config, test_factory);
  server.start();

  flips::serve::Client client;
  client.connect_uds(socket);
  Frame step;
  step.type = FrameType::kStep;
  step.payload = flips::serve::encode_step_request(1);
  EXPECT_EQ(client.call(step).status, FrameStatus::kNoSession);

  client.hello("t");
  flips::serve::StepReply reply;
  EXPECT_EQ(step_once(client, 2, reply), FrameStatus::kNoSession);

  // A scenario that fails validation is kBadScenario, not a session.
  Frame open;
  open.type = FrameType::kOpenSession;
  open.payload = flips::serve::encode_kv({{"selector", "best"}});
  EXPECT_EQ(client.call(open).status, FrameStatus::kBadScenario);

  // Raw garbage bytes (bad magic) elicit a kBadFrame reply followed by
  // a close — and the server keeps serving other connections.
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket.c_str(),
                 sizeof addr.sun_path - 1);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
        0);
    const std::vector<std::uint8_t> garbage(32, 0x77);
    ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
              static_cast<ssize_t>(garbage.size()));
    // Read until EOF: expect exactly one well-formed kBadFrame frame.
    FrameDecoder decoder;
    std::uint8_t chunk[512];
    std::vector<Frame> replies;
    for (;;) {
      const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
      if (got <= 0) break;
      decoder.feed(chunk, static_cast<std::size_t>(got));
      Frame frame;
      while (decoder.next(frame) == FrameDecodeResult::kFrame) {
        replies.push_back(frame);
      }
    }
    ::close(fd);
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].status, FrameStatus::kBadFrame);
  }

  // The original, well-formed connection still works after the vandal.
  EXPECT_EQ(step_once(client, 3, reply), FrameStatus::kNoSession);

  server.drain();
  EXPECT_EQ(server.stats().bad_frames, 1u);
  EXPECT_GE(server.stats().frames, 4u);
}

/// Holds a session's first step until `released` is ready (or the
/// timeout passes, which fails the test instead of hanging it).
class HoldFirstStep final : public flips::fl::RoundObserver {
 public:
  explicit HoldFirstStep(std::shared_future<void> released)
      : released_(std::move(released)) {}

  void on_round_begin(std::size_t round) override {
    if (round != 1) return;
    if (released_.wait_for(std::chrono::seconds(30)) !=
        std::future_status::ready) {
      ADD_FAILURE() << "the flooder never received a kRejected";
    }
  }

 private:
  std::shared_future<void> released_;
};

TEST(ServeEndToEnd, FloodingTenantIsRejectedWhileVictimStaysBounded) {
  const std::string socket = test_socket_path("flood");
  const auto flood_spec = small_spec(6, 11);
  const auto victim_spec = small_spec(6, 9011);

  // The flooder's first step waits until the flooder has received a
  // kRejected. That step stays in flight meanwhile, so with
  // max_inflight_per_tenant = 2 the burst's third frame is refused
  // however the scheduler and the I/O thread interleave.
  std::promise<void> rejected;
  const std::shared_future<void> rejected_seen = rejected.get_future().share();
  auto factory = [&](const flips::serve::KvPairs& kv,
                     flips::common::ThreadPool* workers,
                     std::string* banner) {
    auto session = test_factory(kv, workers, banner);
    if (flips::ScenarioSpec::from_key_values(kv).seed == flood_spec.seed) {
      session->add_observer(std::make_shared<HoldFirstStep>(rejected_seen));
    }
    return session;
  };
  flips::serve::ServerConfig config;
  config.uds_path = socket;
  config.worker_threads = 2;
  config.max_inflight_per_tenant = 2;
  flips::serve::Server server(config, factory);
  server.start();

  std::size_t flood_rejections = 0;
  std::size_t flood_steps = 0;
  std::thread flooder([&] {
    flips::serve::Client client;
    client.connect_uds(socket);
    client.hello("flooder");
    client.open_session(flood_spec.to_key_values());
    // Fire a burst far past the admission bound, then keep the
    // pressure on until the session completes.
    std::uint64_t next_id = 1;
    std::size_t outstanding = 0;
    bool finished = false;
    auto pump = [&](const Frame& response) {
      flips::serve::StepReply reply;
      ASSERT_TRUE(
          flips::serve::decode_step_reply(response.payload, reply));
      --outstanding;
      if (response.status == FrameStatus::kRejected) {
        if (flood_rejections++ == 0) rejected.set_value();
      } else if (response.status == FrameStatus::kOk) {
        ++flood_steps;
        if (reply.finished) finished = true;
      } else {
        EXPECT_EQ(response.status, FrameStatus::kSessionDone);
        finished = true;
      }
    };
    while (!finished) {
      if (outstanding < 64) {
        Frame request;
        request.type = FrameType::kStep;
        request.payload = flips::serve::encode_step_request(next_id++);
        client.send(request);
        ++outstanding;
        continue;
      }
      pump(client.recv());
    }
    while (outstanding > 0) pump(client.recv());
    EXPECT_EQ(fetch_result(client), solo_parameters(flood_spec));
  });

  // The victim steps serially (window 1) while the flood runs. Its
  // per-step latency stays bounded — generous ceiling, but a starved
  // tenant would block on the flooder's whole 6-round backlog and
  // blow far past it even on a sanitizer build.
  flips::serve::Client victim;
  victim.connect_uds(socket);
  victim.hello("victim");
  victim.open_session(victim_spec.to_key_values());
  double max_latency_s = 0.0;
  flips::serve::StepReply reply;
  for (std::uint64_t round = 1; round <= 6; ++round) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_EQ(step_once(victim, round, reply), FrameStatus::kOk);
    max_latency_s = std::max(
        max_latency_s,
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
  }
  EXPECT_TRUE(reply.finished);
  flooder.join();

  EXPECT_GT(flood_rejections, 0u);
  EXPECT_EQ(flood_steps, 6u);
  EXPECT_LT(max_latency_s, 10.0);
  EXPECT_EQ(fetch_result(victim), solo_parameters(victim_spec));

  server.drain();
  const auto stats = server.stats();
  EXPECT_EQ(stats.rejected, flood_rejections);
  EXPECT_EQ(stats.steps, 12u);
}

// ---------------------------------------------------------------------
// Self-healing lifecycle: mid-frame resets, reconnect-and-replay,
// duplicate names, idle-tenant eviction, and shutdown with a step in
// flight.

std::size_t dir_entry_count(const char* path) {
  DIR* dir = ::opendir(path);
  if (dir == nullptr) return 0;
  std::size_t count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

std::size_t open_fd_count() { return dir_entry_count("/proc/self/fd"); }
std::size_t thread_count() { return dir_entry_count("/proc/self/task"); }

/// Polls `done` until it holds or ten seconds pass; returns its value.
template <typename Pred>
bool wait_until(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

TEST(ServeEndToEnd, MidFrameResetsLeakNoFdsAndServiceContinues) {
  const std::string socket = test_socket_path("reset");
  flips::serve::ServerConfig config;
  config.uds_path = socket;
  config.worker_threads = 1;
  flips::serve::Server server(config, test_factory);
  server.start();

  flips::serve::Client client;
  client.connect_uds(socket);
  client.hello("steady");
  client.open_session(small_spec(2, 404).to_key_values());

  const std::size_t fd_baseline = open_fd_count();
  const std::size_t thread_baseline = thread_count();
  ASSERT_EQ(server.stats().connections_accepted, 1u);
  // A thousand vandals each deliver half a frame, then reset the
  // connection mid-payload. The server must tear each one down
  // completely.
  Frame step;
  step.type = FrameType::kStep;
  step.payload = flips::serve::encode_step_request(99);
  const auto image = wire_image(step);
  for (int vandal = 0; vandal < 1000; ++vandal) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket.c_str(),
                 sizeof addr.sun_path - 1);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
        0);
    ASSERT_GT(::send(fd, image.data(), image.size() / 2, 0), 0);
    ::close(fd);
  }

  // The I/O thread notices each EOF, closes the fd, then counts the
  // close: once the server has accepted and closed them all, their fds
  // are gone.
  ASSERT_TRUE(wait_until([&] {
    const auto stats = server.stats();
    return stats.connections_accepted == 1001 &&
           stats.connections_closed == 1000;
  }));
  EXPECT_EQ(open_fd_count(), fd_baseline);
  // No thread was started for any of them.
  EXPECT_TRUE(wait_until([&] { return thread_count() == thread_baseline; }))
      << thread_count() << " threads against a baseline of "
      << thread_baseline;

  // The well-behaved tenant never noticed.
  flips::serve::StepReply reply;
  EXPECT_EQ(step_once(client, 1, reply), FrameStatus::kOk);
  server.drain();
  EXPECT_EQ(server.stats().steps, 1u);
}

/// A raw, frame-less unix-socket connection (-1 on failure).
int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ServeEndToEnd, ThreadCountIsFlatAcrossConnections) {
  const std::string socket = test_socket_path("flat");
  flips::serve::ServerConfig config;
  config.uds_path = socket;
  config.worker_threads = 1;
  flips::serve::Server server(config, test_factory);
  server.start();

  flips::serve::Client first;
  first.connect_uds(socket);
  first.hello("t0");
  const std::size_t fd_baseline = open_fd_count();
  const std::size_t thread_baseline = thread_count();

  // 32 more live, hello'd connections cost two fds each (client and
  // server end) and no thread.
  std::vector<std::unique_ptr<flips::serve::Client>> clients;
  for (int i = 1; i <= 32; ++i) {
    clients.push_back(std::make_unique<flips::serve::Client>());
    clients.back()->connect_uds(socket);
    clients.back()->hello(std::to_string(i));
  }
  EXPECT_EQ(thread_count(), thread_baseline);
  EXPECT_EQ(open_fd_count(), fd_baseline + 2 * 32);

  clients.clear();
  ASSERT_TRUE(
      wait_until([&] { return server.stats().connections_closed == 32; }));
  EXPECT_EQ(open_fd_count(), fd_baseline);
  EXPECT_EQ(thread_count(), thread_baseline);
  server.drain();
}

TEST(ServeEndToEnd, NonReadingPeerDoesNotStallOtherTenants) {
  const std::string socket = test_socket_path("deaf");
  flips::serve::ServerConfig config;
  config.uds_path = socket;
  config.worker_threads = 1;
  flips::serve::Server server(config, test_factory);
  server.start();

  const auto spec = small_spec(4, 1414);
  flips::serve::Client busy;
  busy.connect_uds(socket);
  busy.hello("busy");
  busy.open_session(spec.to_key_values());

  // A peer asks for 200 metrics snapshots and never reads one: its
  // replies outgrow its socket buffer and stop making progress.
  const int deaf = raw_connect(socket);
  ASSERT_GE(deaf, 0);
  Frame metrics;
  metrics.type = FrameType::kMetrics;
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < 200; ++i) flips::net::encode_frame(metrics, burst);
  ASSERT_EQ(::send(deaf, burst.data(), burst.size(), 0),
            static_cast<ssize_t>(burst.size()));
  ASSERT_TRUE(wait_until([&] { return server.stats().frames >= 2 + 10; }));

  // The other tenant is served throughout.
  flips::serve::StepReply reply;
  for (std::uint64_t round = 1; round <= 4; ++round) {
    ASSERT_EQ(step_once(busy, round, reply), FrameStatus::kOk);
  }
  EXPECT_TRUE(reply.finished);
  EXPECT_EQ(fetch_result(busy), solo_parameters(spec));

  // drain() returns with the deaf peer still connected: its unsent
  // replies close it once they stall.
  server.drain();
  const auto stats = server.stats();
  EXPECT_EQ(stats.connections_closed, stats.connections_accepted);
  ::close(deaf);
}

TEST(ServeEndToEnd, ReconnectAndReplayIsBitIdenticalUnderFaults) {
  const std::string socket = test_socket_path("phoenix");
  flips::serve::ServerConfig config;
  config.uds_path = socket;
  config.worker_threads = 2;
  flips::serve::Server server(config, test_factory);
  server.start();

  // A nonzero fault plan rides the wire with the rest of the scenario:
  // the served run below must still match the in-process run bitwise
  // even though the client's connection dies repeatedly.
  auto spec = small_spec(6, 313);
  spec.churn = 1.0;
  spec.fault_rate = 0.10;
  spec.min_quorum = 0.25;

  flips::serve::Client client;
  client.set_retry_policy(
      {.max_attempts = 40, .backoff_base_s = 0.01, .backoff_mult = 1.5});
  client.connect_uds(socket);
  client.hello("phoenix");
  client.open_session(spec.to_key_values());

  // Drive to completion, killing the connection every other success —
  // alternating a clean between-steps close with an in-flight kill
  // (request sent, reply never read: the replayed id may step again
  // server-side, which the fixed round count makes idempotent).
  std::uint64_t next_id = 1;
  std::size_t successes = 0;
  std::size_t kills = 0;
  bool finished = false;
  while (!finished) {
    Frame request;
    request.type = FrameType::kStep;
    request.payload = flips::serve::encode_step_request(next_id++);
    if (successes > 0 && successes % 2 == 0) {
      ++kills;
      if (kills % 2 == 0) {
        try {
          client.send(request);  // in-flight kill: reply is lost
        } catch (const std::runtime_error&) {
        }
      }
      client.close();
    }
    const Frame response = client.call_with_retry(request);
    if (response.status == FrameStatus::kOk) {
      ++successes;
      flips::serve::StepReply reply;
      ASSERT_TRUE(
          flips::serve::decode_step_reply(response.payload, reply));
      finished = reply.finished;
    } else {
      ASSERT_EQ(response.status, FrameStatus::kSessionDone);
      finished = true;
    }
  }
  EXPECT_GE(kills, 2u);

  Frame result;
  result.type = FrameType::kResult;
  const Frame response = client.call_with_retry(result);
  ASSERT_EQ(response.status, FrameStatus::kOk);
  std::vector<double> parameters;
  ASSERT_TRUE(
      flips::serve::decode_result_reply(response.payload, parameters));
  EXPECT_EQ(parameters, solo_parameters(spec));
  server.drain();
}

TEST(ServeEndToEnd, LiveDuplicateTenantIsRefusedThenRebinds) {
  const std::string socket = test_socket_path("twin");
  flips::serve::ServerConfig config;
  config.uds_path = socket;
  config.worker_threads = 1;
  flips::serve::Server server(config, test_factory);
  server.start();

  const auto spec = small_spec(4, 909);
  flips::serve::Client first;
  first.connect_uds(socket);
  first.hello("twin");
  first.open_session(spec.to_key_values());
  flips::serve::StepReply reply;
  ASSERT_EQ(step_once(first, 1, reply), FrameStatus::kOk);

  // While the first connection lives, its name is taken.
  flips::serve::Client second;
  second.connect_uds(socket);
  Frame hello;
  hello.type = FrameType::kHello;
  hello.payload = flips::serve::encode_text("twin");
  const Frame refused = second.call(hello);
  EXPECT_EQ(refused.type, FrameType::kHello);
  EXPECT_EQ(refused.status, FrameStatus::kDuplicateTenant);

  // Once the first client hangs up, the name rebinds to the second
  // connection, which resumes the session where the first left off.
  first.close();
  ASSERT_TRUE(
      wait_until([&] { return server.stats().connections_closed == 1; }));
  EXPECT_NE(second.hello("twin").find("(rebound)"), std::string::npos);
  for (std::uint64_t round = 2; round <= 4; ++round) {
    ASSERT_EQ(step_once(second, round, reply), FrameStatus::kOk);
    EXPECT_EQ(reply.round, round);
  }
  EXPECT_TRUE(reply.finished);
  EXPECT_EQ(fetch_result(second), solo_parameters(spec));

  server.drain();
  const auto stats = server.stats();
  EXPECT_EQ(stats.sessions_opened, 1u);
  EXPECT_EQ(stats.steps, 4u);
  EXPECT_EQ(stats.tenants, 1u);
}

TEST(ServeEndToEnd, IdleTenantIsEvictedAndTheNameIsReusable) {
  const std::string socket = test_socket_path("evict");
  flips::serve::ServerConfig config;
  config.uds_path = socket;
  config.worker_threads = 1;
  config.tenant_idle_timeout_s = 0.2;
  flips::serve::Server server(config, test_factory);
  server.start();

  const auto spec = small_spec(3, 505);
  const std::uint64_t tenants_before = server.stats().tenants;
  {
    flips::serve::Client ghost;
    ghost.connect_uds(socket);
    ghost.hello("ghost");
    ghost.open_session(spec.to_key_values());
    flips::serve::StepReply reply;
    EXPECT_EQ(step_once(ghost, 1, reply), FrameStatus::kOk);
  }  // connection dies with the session mid-run

  // The sweep fires once the tenant sits idle past the timeout.
  flips::serve::Client watcher;
  watcher.connect_uds(socket);
  const std::string want = "flips_serve_evictions_total{tenant=\"ghost\"} 1";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (watcher.metrics().find(want) == std::string::npos) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "tenant was never evicted";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // The evicted tenant left the server: the sweep erases it under the
  // same lock that counts the eviction.
  EXPECT_EQ(server.stats().tenants, tenants_before);

  // The name re-registers as a fresh tenant whose brand-new session
  // runs to a result.
  flips::serve::Client reborn;
  reborn.connect_uds(socket);
  EXPECT_NE(reborn.hello("ghost").find("ghost"), std::string::npos);
  EXPECT_EQ(server.stats().tenants, 1u);
  reborn.open_session(spec.to_key_values());
  flips::serve::StepReply reply;
  for (std::uint64_t round = 1; round <= 3; ++round) {
    ASSERT_EQ(step_once(reborn, round, reply), FrameStatus::kOk);
  }
  EXPECT_TRUE(reply.finished);
  EXPECT_EQ(fetch_result(reborn), solo_parameters(spec));
  server.drain();
  EXPECT_EQ(server.stats().sessions_opened, 2u);
}

TEST(ServeEndToEnd, ShutdownWithStepInFlightDrainsCleanly) {
  const std::string socket = test_socket_path("drain");
  flips::serve::ServerConfig config;
  config.uds_path = socket;
  config.worker_threads = 1;
  flips::serve::Server server(config, test_factory);
  server.start();

  flips::serve::Client client;
  client.connect_uds(socket);
  client.hello("t");
  client.open_session(small_spec(3, 606).to_key_values());

  // Queue a step, then request shutdown before reading its reply. The
  // shutdown ack is queued by the I/O thread, so it may overtake the
  // step reply — classify the two frames by type.
  Frame step;
  step.type = FrameType::kStep;
  step.payload = flips::serve::encode_step_request(1);
  client.send(step);
  Frame down;
  down.type = FrameType::kShutdown;
  client.send(down);

  bool saw_step = false;
  bool saw_ack = false;
  for (int i = 0; i < 2; ++i) {
    const Frame frame = client.recv();
    if (frame.type == FrameType::kStep) {
      EXPECT_EQ(frame.status, FrameStatus::kOk);
      flips::serve::StepReply reply;
      ASSERT_TRUE(flips::serve::decode_step_reply(frame.payload, reply));
      EXPECT_EQ(reply.round, 1u);
      saw_step = true;
    } else {
      EXPECT_EQ(frame.type, FrameType::kShutdown);
      EXPECT_EQ(frame.status, FrameStatus::kOk);
      saw_ack = true;
    }
  }
  EXPECT_TRUE(saw_step);
  EXPECT_TRUE(saw_ack);
  EXPECT_TRUE(server.shutdown_requested());
  server.drain();  // the queued step finished; nothing is stranded
  EXPECT_EQ(server.stats().steps, 1u);
}

// ---------------------------------------------------------------------
// Session builds run on the builder thread, off the scheduler.

Frame open_frame(const flips::ScenarioSpec& spec) {
  Frame open;
  open.type = FrameType::kOpenSession;
  open.payload = flips::serve::encode_kv(spec.to_key_values());
  return open;
}

/// Parks a factory call until the test opens the gate. The 10 s
/// wait_for is only a safety exit; `timed_out` records that it was
/// taken.
struct BuildGate {
  std::promise<void> release;
  std::shared_future<void> opened = release.get_future().share();
  std::atomic<bool> waiting{false};
  std::atomic<bool> timed_out{false};

  void pass() {
    waiting = true;
    if (opened.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
      timed_out = true;
    }
  }
};

TEST(ServeEndToEnd, SecondOpenIsRefusedWithoutABuild) {
  const std::string socket = test_socket_path("reopen");
  flips::serve::ServerConfig config;
  config.uds_path = socket;
  config.worker_threads = 1;
  std::atomic<int> builds{0};
  flips::serve::Server server(
      config, [&](const flips::serve::KvPairs& kv,
                  flips::common::ThreadPool* workers, std::string* banner) {
        ++builds;
        return test_factory(kv, workers, banner);
      });
  server.start();

  flips::serve::Client client;
  client.connect_uds(socket);
  client.hello("t");
  // A bad scenario claims no session: the next open builds one.
  Frame bad;
  bad.type = FrameType::kOpenSession;
  bad.payload = flips::serve::encode_kv({{"selector", "best"}});
  EXPECT_EQ(client.call(bad).status, FrameStatus::kBadScenario);
  const auto spec = small_spec(2, 808);
  client.open_session(spec.to_key_values());

  const Frame refused = client.call(open_frame(spec));
  EXPECT_EQ(refused.type, FrameType::kOpenSession);
  EXPECT_EQ(refused.status, FrameStatus::kBadFrame);
  EXPECT_EQ(flips::serve::decode_text(refused.payload),
            "tenant already has a session");
  // The bad scenario and the first good open; the duplicate never
  // reached the factory.
  EXPECT_EQ(builds.load(), 2);

  // The refusal left the session alone.
  flips::serve::StepReply reply;
  for (std::uint64_t round = 1; round <= 2; ++round) {
    ASSERT_EQ(step_once(client, round, reply), FrameStatus::kOk);
  }
  EXPECT_TRUE(reply.finished);
  EXPECT_EQ(fetch_result(client), solo_parameters(spec));
  server.drain();
  EXPECT_EQ(server.stats().sessions_opened, 1u);
}

TEST(ServeEndToEnd, OpenInProgressDoesNotBlockOtherTenantsSteps) {
  const std::string socket = test_socket_path("gate");
  flips::serve::ServerConfig config;
  config.uds_path = socket;
  config.worker_threads = 2;
  const auto steady_spec = small_spec(5, 1201);
  const auto gated_spec = small_spec(3, 1202);
  // A server that builds in front of other tenants' steps makes the
  // steady tenant's first step wait out the gate's safety exit.
  BuildGate gate;
  flips::serve::Server server(
      config, [&](const flips::serve::KvPairs& kv,
                  flips::common::ThreadPool* workers, std::string* banner) {
        if (flips::ScenarioSpec::from_key_values(kv).seed ==
            gated_spec.seed) {
          gate.pass();
        }
        return test_factory(kv, workers, banner);
      });
  server.start();

  flips::serve::Client steady;
  steady.connect_uds(socket);
  steady.hello("steady");
  steady.open_session(steady_spec.to_key_values());

  flips::serve::Client gated;
  gated.connect_uds(socket);
  gated.hello("gated");
  FrameStatus gated_open_status = FrameStatus::kRejected;
  std::thread opener(
      [&] { gated_open_status = gated.call(open_frame(gated_spec)).status; });
  EXPECT_TRUE(wait_until([&] { return gate.waiting.load(); }));

  // The steady tenant runs its whole session while the gated build is
  // still parked in the factory.
  flips::serve::StepReply reply;
  for (std::uint64_t round = 1; round <= 5; ++round) {
    EXPECT_EQ(step_once(steady, round, reply), FrameStatus::kOk);
    EXPECT_EQ(reply.round, round);
  }
  EXPECT_TRUE(reply.finished);
  EXPECT_FALSE(gate.timed_out.load())
      << "the steady tenant's steps waited behind the gated build";

  gate.release.set_value();
  opener.join();
  EXPECT_FALSE(gate.timed_out.load());
  ASSERT_EQ(gated_open_status, FrameStatus::kOk);
  for (std::uint64_t round = 1; round <= 3; ++round) {
    ASSERT_EQ(step_once(gated, round, reply), FrameStatus::kOk);
  }
  EXPECT_TRUE(reply.finished);
  EXPECT_EQ(fetch_result(gated), solo_parameters(gated_spec));
  EXPECT_EQ(fetch_result(steady), solo_parameters(steady_spec));
  server.drain();
  EXPECT_EQ(server.stats().sessions_opened, 2u);
}

TEST(ServeEndToEnd, BuildFinishingDuringDrainIsDropped) {
  const std::string socket = test_socket_path("latebuild");
  flips::serve::ServerConfig config;
  config.uds_path = socket;
  config.worker_threads = 1;
  BuildGate gate;
  flips::serve::Server server(
      config, [&](const flips::serve::KvPairs& kv,
                  flips::common::ThreadPool* workers, std::string* banner) {
        gate.pass();
        return test_factory(kv, workers, banner);
      });
  server.start();

  flips::serve::Client client;
  client.connect_uds(socket);
  client.hello("late");
  client.send(open_frame(small_spec(2, 1303)));
  ASSERT_TRUE(wait_until([&] { return gate.waiting.load(); }));

  // drain() sets its flag before it waits on anything, so once
  // shutdown_requested() reads true the build is sure to finish late.
  std::thread drainer([&] { server.drain(); });
  EXPECT_TRUE(wait_until([&] { return server.shutdown_requested(); }));
  gate.release.set_value();
  drainer.join();
  EXPECT_FALSE(gate.timed_out.load());

  // The open is answered kShuttingDown, or the drain closed the socket
  // first; either way the built session was never installed.
  try {
    const Frame reply = client.recv();
    EXPECT_EQ(reply.type, FrameType::kOpenSession);
    EXPECT_EQ(reply.status, FrameStatus::kShuttingDown);
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(server.stats().sessions_opened, 0u);
}

TEST(ServeEndToEnd, PipelinedOpenAndStepAreAnsweredInOrder) {
  const std::string socket = test_socket_path("pipeline");
  flips::serve::ServerConfig config;
  config.uds_path = socket;
  config.worker_threads = 1;
  flips::serve::Server server(config, test_factory);
  server.start();

  // Open and step go out back to back, before any reply is read: the
  // step must run against the session the open built.
  flips::serve::Client client;
  client.connect_uds(socket);
  client.hello("pipe");
  client.send(open_frame(small_spec(2, 707)));
  Frame step;
  step.type = FrameType::kStep;
  step.payload = flips::serve::encode_step_request(1);
  client.send(step);

  const Frame opened = client.recv();
  EXPECT_EQ(opened.type, FrameType::kOpenSession);
  EXPECT_EQ(opened.status, FrameStatus::kOk);
  const Frame stepped = client.recv();
  EXPECT_EQ(stepped.type, FrameType::kStep);
  EXPECT_EQ(stepped.status, FrameStatus::kOk);
  flips::serve::StepReply reply;
  ASSERT_TRUE(flips::serve::decode_step_reply(stepped.payload, reply));
  EXPECT_EQ(reply.request_id, 1u);
  EXPECT_EQ(reply.round, 1u);
  server.drain();
}

TEST(ServeEndToEnd, FinishedSessionIsFreedAndStillAnswers) {
  const std::string socket = test_socket_path("retire");
  flips::serve::ServerConfig config;
  config.uds_path = socket;
  config.worker_threads = 1;  // idle eviction stays off
  // Each build hands the test a weak handle on an observer only the
  // session owns: it expires when the server frees the session.
  std::promise<std::weak_ptr<flips::fl::RoundObserver>> built;
  auto probe_future = built.get_future();
  std::atomic<bool> first_build{true};
  flips::serve::Server server(
      config, [&](const flips::serve::KvPairs& kv,
                  flips::common::ThreadPool* workers, std::string* banner) {
        auto session = test_factory(kv, workers, banner);
        if (first_build.exchange(false)) {
          auto observer = std::make_shared<flips::fl::RoundObserver>();
          session->add_observer(observer);
          built.set_value(observer);
        }
        return session;
      });
  server.start();

  const auto spec = small_spec(3, 313);
  flips::serve::Client client;
  client.connect_uds(socket);
  client.hello("done");
  client.open_session(spec.to_key_values());
  const auto probe = probe_future.get();
  flips::serve::StepReply reply;
  for (std::uint64_t round = 1; round <= 3; ++round) {
    ASSERT_EQ(step_once(client, round, reply), FrameStatus::kOk);
    EXPECT_EQ(reply.finished, round == 3);
    if (round < 3) {
      EXPECT_FALSE(probe.expired());
    }
  }
  // The fetch runs after the last step on the scheduler thread, so
  // the session was freed before this reply, with the connection
  // still open and the tenant registered.
  const auto expected = solo_parameters(spec);
  EXPECT_EQ(fetch_result(client), expected);
  EXPECT_TRUE(probe.expired());
  EXPECT_EQ(step_once(client, 4, reply), FrameStatus::kSessionDone);
  EXPECT_EQ(fetch_result(client), expected);

  // A zero-round session is finished as soon as it is installed.
  const auto empty_spec = small_spec(0, 314);
  flips::serve::Client empty;
  empty.connect_uds(socket);
  empty.hello("empty");
  empty.open_session(empty_spec.to_key_values());
  EXPECT_EQ(step_once(empty, 1, reply), FrameStatus::kSessionDone);
  EXPECT_EQ(fetch_result(empty), solo_parameters(empty_spec));

  server.drain();
  const auto stats = server.stats();
  EXPECT_EQ(stats.sessions_opened, 2u);
  EXPECT_EQ(stats.steps, 3u);
  EXPECT_EQ(stats.tenants, 2u);
}

}  // namespace
