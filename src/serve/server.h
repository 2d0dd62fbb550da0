// The multi-tenant serving front end: a TCP/UDS stream server that
// hosts one fl::FederationSession per tenant and steps them from
// length-prefixed frames (net/codec.h) submitted by remote drivers —
// the first place bytes actually cross a socket instead of an
// accounting ledger.
//
// Threading model (all shared state under one server mutex; sessions
// are stepped by the scheduler thread only). The server runs three
// threads of its own however many connections are open:
//
//   I/O thread          owns every socket: poll()s the listen socket, a
//                       wake eventfd and every connection; accepts,
//                       reads and writes without blocking; decodes
//                       frames and answers protocol errors, admission
//                       rejections, hellos and metrics itself; posts an
//                       open's build to the builder; writes out every
//                       reply, whichever thread queued it
//   builder thread      runs the SessionFactory for one open at a
//                       time, so a ~40 ms federation build never sits
//                       in front of other tenants' queued steps, then
//                       queues the built session or answers the open
//   scheduler thread    pops per-tenant queues round-robin, installs
//                       built sessions, steps the tenant's session,
//                       queues open/step/result replies, frees a
//                       session once its last round ran (keeping only
//                       its final parameters for kResult), and erases
//                       idle tenants
//   worker pool         ONE common::ThreadPool every tenant's local
//                       training contends for
//
// Build hold: once an open's build is posted, the I/O thread decodes
// none of that connection's frames until the builder has queued or
// answered the open, so a connection's frames still run in the order
// sent: a step pipelined behind an open steps the session that open
// built.
//
// Isolation properties:
//   admission control   a tenant may have at most
//                       max_inflight_per_tenant step frames queued or
//                       executing; frames beyond it are rejected
//                       immediately with FrameStatus::kRejected
//   backpressure        the per-tenant queue bound means a flooding
//                       tenant occupies one scheduler slot per
//                       round-robin pass, never the whole queue — a
//                       slow or hostile tenant cannot stall others
//   fairness            the scheduler services tenants with pending
//                       work in cyclic order, one request per turn
//   no wedge            a connection's replies wait in its outbox; one
//                       holding more than kOutboxLimit bytes is not read
//                       until it drains, and one whose replies make no
//                       write progress for kStallTimeoutNs is closed
//   graceful drain      drain() stops accepting work (late frames get
//                       kShuttingDown), finishes everything already
//                       queued and built, flushes every outbox, then
//                       closes every socket and joins threads
//
// Because sessions are stepped by one thread over seed-derived RNG
// streams, a served session's final_parameters are bit-identical to
// stepping the same ScenarioSpec in-process (the loadgen's
// perf,serving line gates on exactly that).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "fl/session.h"
#include "net/codec.h"
#include "obs/metrics.h"
#include "serve/protocol.h"

namespace flips::serve {

/// Builds a tenant's session from wire-submitted key=value pairs,
/// writing a resolved-config echo into `banner`. Throws
/// std::invalid_argument on a bad scenario (the message becomes the
/// kBadScenario reply payload). Called only from the server's builder
/// thread, one call at a time and never concurrently with itself, so
/// a factory needs no locking of its own. The session borrows
/// `workers` for its later steps; the factory must not run work on it,
/// because the scheduler may be stepping other sessions on it meanwhile.
using SessionFactory =
    std::function<std::unique_ptr<fl::FederationSession>(
        const KvPairs& kv, common::ThreadPool* workers,
        std::string* banner)>;

struct ServerConfig {
  /// Non-empty = bind a unix-domain socket at this path (unlinking any
  /// stale one); empty = TCP on 127.0.0.1:tcp_port (0 = ephemeral,
  /// read the resolved port back with port()).
  std::string uds_path;
  std::uint16_t tcp_port = 0;
  /// Shared local-training pool size (0 = hardware concurrency).
  std::size_t worker_threads = 0;
  /// Admission bound: max step frames queued or executing per tenant.
  std::size_t max_inflight_per_tenant = 8;
  /// Idle eviction: a tenant whose connection is dead and that has been
  /// inactive (no frames, no queued work) this long has its session
  /// destroyed and leaves the server, which releases its name
  /// (flips_serve_evictions_total).
  /// 0 = never evict.
  double tenant_idle_timeout_s = 0.0;
};

class Server {
 public:
  Server(ServerConfig config, SessionFactory factory);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the I/O, builder and scheduler threads.
  /// Throws std::runtime_error on socket errors.
  void start();

  /// Resolved TCP port (after start(); 0 for UDS servers).
  std::uint16_t port() const { return port_; }

  /// Blocks until a client's kShutdown frame lands (or drain() is
  /// called from another thread).
  void wait_for_shutdown();

  /// Non-blocking query: has a kShutdown frame (or drain()) been seen?
  /// Safe to poll from a loop that also watches a signal flag.
  [[nodiscard]] bool shutdown_requested() const {
    std::lock_guard<std::mutex> lock(mu_);
    return shutdown_requested_;
  }

  /// Graceful stop: refuse new work, finish queued requests, flush
  /// replies, join every thread, close every socket. Idempotent.
  void drain();

  struct Stats {
    std::uint64_t frames = 0;             ///< well-formed frames seen
    std::uint64_t bad_frames = 0;         ///< malformed streams dropped
    std::uint64_t steps = 0;              ///< rounds actually stepped
    std::uint64_t rejected = 0;           ///< admission-control refusals
    std::uint64_t sessions_opened = 0;
    std::uint64_t sessions_finished = 0;
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_closed = 0;
    std::uint64_t tenants = 0;  ///< registered tenants (evicted ones leave)
  };
  Stats stats() const;

 private:
  struct Tenant;

  /// Replies a connection may hold unsent before it is no longer read.
  static constexpr std::size_t kOutboxLimit = std::size_t{1} << 20;
  /// Unsent replies that make no write progress this long close the
  /// connection, so a peer that stops reading never wedges the server.
  static constexpr std::uint64_t kStallTimeoutNs = 5'000'000'000;

  /// One client socket. `fd`, `decoder`, `wire` and `last_write_ns`
  /// belong to the I/O thread; the rest is under mu_.
  struct Connection {
    int fd = -1;
    net::FrameDecoder decoder;
    std::vector<std::uint8_t> wire;  ///< replies being written
    std::uint64_t last_write_ns = 0;  ///< last write progress
    std::vector<std::uint8_t> outbox;  ///< replies queued by any thread
    /// Set by the I/O thread: nothing more is read or queued, and the
    /// fd closes once `wire` is flushed. Lets a later hello rebind the
    /// tenant and the idle sweep evict it.
    bool dead = false;
    /// Build hold: set when the I/O thread posts an open's build,
    /// cleared by the builder once the open is queued or answered.
    bool building = false;
    /// Set once by the hello handler. Shared, so a connection whose
    /// tenant was evicted still sees `evicted` after the tenant leaves
    /// tenants_.
    std::shared_ptr<Tenant> tenant;
  };

  /// One unit of builder or scheduler work for a tenant.
  struct Pending {
    net::FrameType type = net::FrameType::kStep;
    std::uint64_t request_id = 0;  ///< kStep only
    // kOpenSession only: the scenario the builder builds, then the
    // built session and the reply payload the scheduler installs.
    KvPairs kv;
    std::unique_ptr<fl::FederationSession> session;
    std::string banner;
    std::shared_ptr<Connection> conn;
    std::uint64_t enqueued_ns = 0;  ///< reply-latency clock start
  };

  struct Tenant {
    std::string name;
    /// Null until the scheduler installs the session a kOpenSession
    /// built, and again once its last round ran: the scheduler then
    /// keeps only `final_parameters` and frees the session, so a
    /// finished tenant waiting out the idle window holds no training
    /// state. Both touched by the scheduler thread only.
    std::unique_ptr<fl::FederationSession> session;
    std::optional<std::vector<double>> final_parameters;
    /// Set when the tenant's one session is claimed, before its build
    /// is posted; cleared if the scenario is rejected. A second open is
    /// refused on this flag, without a build.
    bool session_requested = false;
    std::size_t inflight_steps = 0;  ///< queued + executing step frames
    std::deque<Pending> queue;
    /// The connection currently bound to this tenant. A hello for an
    /// already-registered name is accepted (rebind) when this
    /// connection is dead — the client reconnect-and-replay path.
    std::weak_ptr<Connection> conn;
    std::uint64_t last_activity_ns = 0;  ///< idle-eviction clock
    bool evicted = false;  ///< erased from tenants_; name may register anew
    // Per-tenant instruments (tenant="<name>"), registered at hello.
    obs::Counter* rejections = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* inflight = nullptr;
    obs::Histogram* reply_seconds = nullptr;  ///< enqueue -> reply queued
  };

  void io_loop();
  /// I/O thread: unless `stopping`, runs the connection's buffered
  /// frames until the decoder needs input (returns POLLIN), its unsent
  /// replies pass kOutboxLimit (POLLOUT), or it holds for a build or
  /// dies (0); then moves its outbox to `wire`.
  short pump(const std::shared_ptr<Connection>& conn, bool stopping);
  /// I/O thread: sends what the socket takes of `wire`; false on a
  /// socket error.
  bool write_out(Connection& conn, std::uint64_t now_ns);
  /// I/O thread: marks the connection dead and closes its fd.
  void close_connection(Connection& conn);
  /// Runs posted builds one at a time until drain() stops it.
  void builder_loop();
  void scheduler_loop();
  /// Idle sweep (scheduler thread, mu_ held): destroys the session of
  /// every tenant whose connection died and whose inactivity exceeds
  /// the timeout, and erases the tenant from tenants_.
  void evict_idle_tenants_locked(std::uint64_t now_ns);
  /// I/O-thread dispatch (`lock` holds mu_): answers protocol errors /
  /// rejections inline, posts opens to the builder, queues other work
  /// for the scheduler.
  void handle_frame(const std::shared_ptr<Connection>& conn,
                    net::Frame frame, std::unique_lock<std::mutex>& lock);
  /// mu_ held: queues `work` (moved from) on its tenant for the
  /// scheduler, unless it is refused or, for a step, over the
  /// admission bound.
  void admit_locked(Pending& work);
  /// mu_ held: answers a tenant-scoped frame that may no longer run
  /// (server draining, tenant evicted) and returns true.
  bool refuse_locked(Connection& conn, net::FrameType type);
  void execute(Tenant& tenant, Pending work);
  /// Scheduler thread: once the tenant's session has run its last
  /// round, keeps its final parameters and frees the session.
  void retire_if_finished(Tenant& tenant);
  /// mu_ held: appends a reply to the connection's outbox (dropped if
  /// the connection is dead) and wakes the I/O thread.
  void reply_locked(Connection& conn, const net::Frame& frame);
  /// mu_ held: makes the I/O thread's poll() return.
  void wake_io_locked();

  ServerConfig config_;
  SessionFactory factory_;
  /// Every session borrows this pool, so it is declared before
  /// tenants_ (and the connections that share tenants) to outlive them.
  common::ThreadPool workers_;

  int listen_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd the I/O thread polls
  std::uint16_t port_ = 0;
  bool started_ = false;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable shutdown_cv_;
  /// Registered tenants in registration order (the round-robin order).
  std::vector<std::shared_ptr<Tenant>> tenants_;
  std::size_t rr_cursor_ = 0;       ///< round-robin tenant cursor
  std::size_t pending_total_ = 0;   ///< queued work across tenants
  /// Refuse new work; the scheduler and builder exit once their queues
  /// are empty.
  bool draining_ = false;
  bool stop_io_ = false;  ///< flush every outbox, close every fd, exit
  bool wake_pending_ = false;  ///< wake_fd_ written since the I/O gather
  bool shutdown_requested_ = false;

  /// Opens posted by the I/O thread, built in order by builder_. One
  /// thread is enough: opens are rare next to steps, and one build at a
  /// time bounds the memory that builds in flight hold.
  std::deque<Pending> builds_;
  std::condition_variable build_cv_;

  std::thread io_;
  std::thread builder_;
  std::thread scheduler_;

  std::atomic<std::uint64_t> stat_frames_{0};
  std::atomic<std::uint64_t> stat_bad_frames_{0};
  std::atomic<std::uint64_t> stat_steps_{0};
  std::atomic<std::uint64_t> stat_rejected_{0};
  std::atomic<std::uint64_t> stat_sessions_opened_{0};
  std::atomic<std::uint64_t> stat_sessions_finished_{0};
  std::atomic<std::uint64_t> stat_connections_accepted_{0};
  std::atomic<std::uint64_t> stat_connections_closed_{0};

  // Registry-backed mirrors of the stats above plus per-frame-type and
  // per-reply-status counters — what the kMetrics snapshot exposes.
  // Registered in the constructor; hot paths touch cached pointers
  // only. Indexed by FrameType (1-based) / FrameStatus value.
  std::array<obs::Counter*, 7> frames_by_type_{};
  std::array<obs::Counter*, 9> replies_by_status_{};
  obs::Counter* obs_bad_frames_ = nullptr;
  obs::Counter* obs_steps_ = nullptr;
  obs::Counter* obs_sessions_opened_ = nullptr;
  obs::Counter* obs_sessions_finished_ = nullptr;
};

}  // namespace flips::serve
