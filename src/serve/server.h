// The multi-tenant serving front end: a TCP/UDS stream server that
// hosts one fl::FederationSession per tenant and steps them from
// length-prefixed frames (net/codec.h) submitted by remote drivers —
// the first place bytes actually cross a socket instead of an
// accounting ledger.
//
// Threading model (all shared state under one server mutex; sessions
// are stepped by the scheduler thread only):
//
//   acceptor thread     accept() loop; spawns one reader per conn and
//                       joins readers that have exited since the last
//                       accept
//   reader threads      parse frames; enqueue work; answer protocol
//                       errors and admission rejections immediately;
//                       on kOpenSession, post the build to the builder
//                       and block until it is done, then answer a bad
//                       scenario itself or queue the built session;
//                       on EOF or a bad frame, close the conn's fd and
//                       exit (drain() waits until no reader is live,
//                       then joins the rest)
//   builder thread      runs the SessionFactory for one open at a
//                       time, so a ~40 ms federation build never sits
//                       in front of other tenants' queued steps
//   scheduler thread    pops per-tenant queues round-robin, installs
//                       built sessions, steps the tenant's session,
//                       writes open/step/result replies, frees a
//                       session once its last round ran (keeping only
//                       its final parameters for kResult), and erases
//                       idle tenants
//   worker pool         ONE common::ThreadPool every tenant's local
//                       training contends for
//
// A reader handles its connection's frames one at a time, and an open
// is queued only once its build is done, so a connection's frames
// still run in the order sent: a step pipelined behind an open steps
// the session that open built.
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
//   graceful drain      drain() stops accepting work (late frames get
//                       kShuttingDown), finishes everything already
//                       queued, flushes replies, then joins threads
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
#include <future>
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
/// factories may use non-thread-safe caches. The session borrows
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
  /// Socket send timeout (seconds) — a peer that stops reading is
  /// declared dead instead of wedging the scheduler on write().
  double send_timeout_s = 5.0;
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

  /// Binds, listens, and spawns the acceptor, builder and scheduler
  /// threads.
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
    std::uint64_t connections_accepted = 0;  ///< readers spawned
    std::uint64_t connections_closed = 0;    ///< fds closed by readers
    std::uint64_t tenants = 0;  ///< registered tenants (evicted ones leave)
  };
  Stats stats() const;

 private:
  struct Tenant;

  struct Connection {
    /// Closed and set to -1 by the reader, under write_mu, when it
    /// exits; writers skip a closed connection.
    int fd = -1;
    std::mutex write_mu;
    std::atomic<bool> dead{false};
    /// Set once by the hello handler (the connection's own reader
    /// thread) before any use. Shared, so a connection whose tenant was
    /// evicted still sees `evicted` after the tenant leaves tenants_.
    std::shared_ptr<Tenant> tenant;
    /// Started under mu_, so it is set before the reader can exit;
    /// joined by reap_exited_readers().
    std::thread reader;
  };

  /// What the builder hands back to a waiting reader.
  struct Build {
    std::unique_ptr<fl::FederationSession> session;
    std::string banner;  ///< the kOpenSession reply payload
  };

  /// One queued unit of scheduler work for a tenant.
  struct Pending {
    net::FrameType type = net::FrameType::kStep;
    std::uint64_t request_id = 0;  ///< kStep only
    Build built;  ///< kOpenSession only: the session to install
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
    /// Set by the reader that claims the tenant's one session, before
    /// it posts the build; cleared if the build throws. A second open
    /// is refused on this flag, without a build.
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
    obs::Histogram* reply_seconds = nullptr;  ///< enqueue -> reply sent
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<Connection> conn);
  /// Runs posted builds one at a time until drain() stops it.
  void builder_loop();
  /// Joins the readers that have exited (acceptor thread, or drain()).
  void reap_exited_readers();
  void scheduler_loop();
  /// Idle sweep (scheduler thread, mu_ held): destroys the session of
  /// every tenant whose connection died and whose inactivity exceeds
  /// the timeout, and erases the tenant from tenants_.
  void evict_idle_tenants_locked(std::uint64_t now_ns);
  /// Reader-side dispatch: answers protocol errors / rejections
  /// inline, enqueues real work for the scheduler.
  void handle_frame(const std::shared_ptr<Connection>& conn,
                    net::Frame frame);
  /// Reader side of kOpenSession: claims the tenant's session, posts
  /// the build to the builder thread and waits for it. Returns true
  /// with the session in `work`; otherwise the open is answered.
  bool build_session(const std::shared_ptr<Connection>& conn, KvPairs kv,
                     Pending& work);
  /// mu_ held: answers a tenant-scoped frame that may no longer run
  /// (server draining, tenant evicted) and returns true.
  bool refuse_locked(const std::shared_ptr<Connection>& conn,
                     net::FrameType type);
  void execute(Tenant& tenant, Pending work);
  /// Scheduler thread: once the tenant's session has run its last
  /// round, keeps its final parameters and frees the session.
  void retire_if_finished(Tenant& tenant);
  bool send_frame(Connection& conn, const net::Frame& frame);
  void send_status(const std::shared_ptr<Connection>& conn,
                   net::FrameType type, net::FrameStatus status,
                   std::string_view message);

  ServerConfig config_;
  SessionFactory factory_;
  /// Every session borrows this pool, so it is declared before
  /// tenants_ (and the connections that share tenants) to outlive them.
  common::ThreadPool workers_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool started_ = false;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable shutdown_cv_;
  std::condition_variable readers_cv_;  ///< a reader exited
  /// Registered tenants in registration order (the round-robin order).
  std::vector<std::shared_ptr<Tenant>> tenants_;
  /// Connections whose reader is live; a reader moves its connection
  /// to exited_ as its last step.
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::shared_ptr<Connection>> exited_;  ///< awaiting join
  std::size_t rr_cursor_ = 0;       ///< round-robin tenant cursor
  std::size_t pending_total_ = 0;   ///< queued work across tenants
  bool draining_ = false;           ///< refuse new work
  bool stop_scheduler_ = false;     ///< exit once queues drain
  bool shutdown_requested_ = false;

  /// Builds posted by readers, run in order by builder_. One thread is
  /// enough: builds serialize on the federation cache's mutex anyway.
  std::deque<std::packaged_task<Build()>> builds_;
  std::condition_variable build_cv_;
  /// Set by drain() once no reader is left to wait on a build.
  bool stop_builder_ = false;

  std::thread acceptor_;
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
