#include "serve/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/clock.h"
#include "fl/metrics_observer.h"

namespace flips::serve {

namespace {

const char* frame_type_label(net::FrameType type) {
  switch (type) {
    case net::FrameType::kHello: return "hello";
    case net::FrameType::kOpenSession: return "open_session";
    case net::FrameType::kStep: return "step";
    case net::FrameType::kResult: return "result";
    case net::FrameType::kShutdown: return "shutdown";
    case net::FrameType::kMetrics: return "metrics";
  }
  return "unknown";
}

const char* frame_status_label(net::FrameStatus status) {
  switch (status) {
    case net::FrameStatus::kOk: return "ok";
    case net::FrameStatus::kRejected: return "rejected";
    case net::FrameStatus::kBadFrame: return "bad_frame";
    case net::FrameStatus::kBadScenario: return "bad_scenario";
    case net::FrameStatus::kNoSession: return "no_session";
    case net::FrameStatus::kSessionDone: return "session_done";
    case net::FrameStatus::kShuttingDown: return "shutting_down";
    case net::FrameStatus::kDuplicateTenant: return "duplicate_tenant";
    case net::FrameStatus::kNotFinished: return "not_finished";
  }
  return "unknown";
}

void set_send_timeout(int fd, double seconds) {
  if (seconds <= 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

/// Writes the whole buffer or reports failure (short write after the
/// send timeout, or a closed peer). MSG_NOSIGNAL: a dead peer must
/// surface as EPIPE, not kill the process.
bool send_all(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t sent = ::send(fd, data, size, MSG_NOSIGNAL);
    if (sent <= 0) {
      if (sent < 0 && errno == EINTR) continue;
      return false;
    }
    data += static_cast<std::size_t>(sent);
    size -= static_cast<std::size_t>(sent);
  }
  return true;
}

}  // namespace

Server::Server(ServerConfig config, SessionFactory factory)
    : config_(std::move(config)),
      factory_(std::move(factory)),
      workers_(config_.worker_threads) {
  obs::Registry& reg = obs::Registry::global();
  for (std::uint8_t t = 1; t < frames_by_type_.size(); ++t) {
    frames_by_type_[t] = &reg.counter(
        "flips_serve_frames_total",
        {{"type", frame_type_label(static_cast<net::FrameType>(t))}});
  }
  for (std::uint16_t s = 0; s < replies_by_status_.size(); ++s) {
    replies_by_status_[s] = &reg.counter(
        "flips_serve_replies_total",
        {{"status", frame_status_label(static_cast<net::FrameStatus>(s))}});
  }
  obs_bad_frames_ = &reg.counter("flips_serve_bad_frames_total");
  obs_steps_ = &reg.counter("flips_serve_steps_total");
  obs_sessions_opened_ =
      &reg.counter("flips_serve_sessions_total", {{"state", "opened"}});
  obs_sessions_finished_ =
      &reg.counter("flips_serve_sessions_total", {{"state", "finished"}});
}

Server::~Server() { drain(); }

void Server::start() {
  if (started_) throw std::logic_error("Server::start called twice");
  const bool uds = !config_.uds_path.empty();
  listen_fd_ = ::socket(uds ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") +
                             std::strerror(errno));
  }
  if (uds) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.uds_path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("uds path too long: " + config_.uds_path);
    }
    std::strncpy(addr.sun_path, config_.uds_path.c_str(),
                 sizeof addr.sun_path - 1);
    ::unlink(config_.uds_path.c_str());  // stale socket from a crash
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0) {
      throw std::runtime_error("bind " + config_.uds_path + ": " +
                               std::strerror(errno));
    }
  } else {
    const int yes = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof yes);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(config_.tcp_port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0) {
      throw std::runtime_error("bind port " +
                               std::to_string(config_.tcp_port) + ": " +
                               std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
  }
  if (::listen(listen_fd_, 64) != 0) {
    throw std::runtime_error(std::string("listen: ") +
                             std::strerror(errno));
  }
  started_ = true;
  acceptor_ = std::thread([this] { accept_loop(); });
  builder_ = std::thread([this] { builder_loop(); });
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

void Server::wait_for_shutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock, [&] { return shutdown_requested_; });
}

void Server::drain() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) return;  // idempotent
    draining_ = true;
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
  // Wake the acceptor: shutdown() makes the blocking accept() return
  // (Linux semantics) without racing a close()d-and-reused fd.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // Let the scheduler finish everything already queued, then exit.
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_scheduler_ = true;
  }
  work_cv_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
  // Replies are flushed; unblock the readers and wait until every one
  // has closed its connection and exited.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns = connections_;
  }
  for (const auto& conn : conns) {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    readers_cv_.wait(lock, [&] { return connections_.empty(); });
  }
  reap_exited_readers();
  // Only now: a reader may have been waiting on a build until it exited.
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_builder_ = true;
  }
  build_cv_.notify_all();
  if (builder_.joinable()) builder_.join();
  if (!config_.uds_path.empty()) ::unlink(config_.uds_path.c_str());
}

Server::Stats Server::stats() const {
  Stats out;
  out.frames = stat_frames_.load();
  out.bad_frames = stat_bad_frames_.load();
  out.steps = stat_steps_.load();
  out.rejected = stat_rejected_.load();
  out.sessions_opened = stat_sessions_opened_.load();
  out.sessions_finished = stat_sessions_finished_.load();
  out.connections_accepted = stat_connections_accepted_.load();
  out.connections_closed = stat_connections_closed_.load();
  std::lock_guard<std::mutex> lock(mu_);
  out.tenants = tenants_.size();
  return out;
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down — we are draining
    }
    set_send_timeout(fd, config_.send_timeout_s);
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    bool late = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      late = draining_;
      if (!late) {
        connections_.push_back(conn);
        stat_connections_accepted_.fetch_add(1);
        conn->reader = std::thread([this, conn] { reader_loop(conn); });
      }
    }
    if (late) {
      ::close(fd);
      continue;
    }
    reap_exited_readers();
  }
}

void Server::reap_exited_readers() {
  std::vector<std::shared_ptr<Connection>> exited;
  {
    std::lock_guard<std::mutex> lock(mu_);
    exited.swap(exited_);
  }
  for (const auto& conn : exited) conn->reader.join();
}

void Server::reader_loop(std::shared_ptr<Connection> conn) {
  net::FrameDecoder decoder;
  std::uint8_t chunk[4096];
  bool open = true;
  while (open) {
    const ssize_t got = ::recv(conn->fd, chunk, sizeof chunk, 0);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      break;  // peer closed, or drain() shut the socket down
    }
    decoder.feed(chunk, static_cast<std::size_t>(got));
    net::Frame frame;
    for (;;) {
      const auto verdict = decoder.next(frame);
      if (verdict == net::FrameDecodeResult::kNeedMore) break;
      if (verdict == net::FrameDecodeResult::kError) {
        stat_bad_frames_.fetch_add(1);
        obs_bad_frames_->inc();
        send_status(conn, net::FrameType::kHello,
                    net::FrameStatus::kBadFrame, decoder.error());
        open = false;  // framing has no resync point
        break;
      }
      stat_frames_.fetch_add(1);
      handle_frame(conn, std::move(frame));
      if (conn->dead.load()) {
        open = false;
        break;
      }
    }
  }
  // Marking the connection dead is what lets a later hello rebind the
  // tenant and the idle sweep evict it. The full shutdown lets the peer
  // see EOF after any error reply (queued data drains first on Linux);
  // fd is cleared under write_mu so no writer can reach a reused number.
  conn->dead.store(true);
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    ::shutdown(conn->fd, SHUT_RDWR);
    ::close(conn->fd);
    conn->fd = -1;
  }
  stat_connections_closed_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  connections_.erase(
      std::find(connections_.begin(), connections_.end(), conn));
  exited_.push_back(std::move(conn));
  readers_cv_.notify_all();
}

void Server::handle_frame(const std::shared_ptr<Connection>& conn,
                          net::Frame frame) {
  frames_by_type_[static_cast<std::uint8_t>(frame.type)]->inc();
  switch (frame.type) {
    case net::FrameType::kHello: {
      const std::string name = decode_text(frame.payload);
      if (name.empty()) {
        send_status(conn, frame.type, net::FrameStatus::kBadFrame,
                    "empty tenant name");
        return;
      }
      std::lock_guard<std::mutex> lock(mu_);
      if (conn->tenant) {
        send_status(conn, frame.type, net::FrameStatus::kBadFrame,
                    "hello already sent on this connection");
        return;
      }
      for (const auto& tenant_ptr : tenants_) {
        Tenant& tenant = *tenant_ptr;
        if (tenant.name != name) continue;
        const auto held = tenant.conn.lock();
        if (held != nullptr && !held->dead.load()) {
          send_status(conn, frame.type,
                      net::FrameStatus::kDuplicateTenant,
                      "tenant already registered: " + name);
          return;
        }
        // The previous connection died: rebind the tenant to this one.
        // Its session (if any) is untouched, so a reconnecting client
        // resumes stepping exactly where it left off.
        tenant.conn = conn;
        tenant.last_activity_ns = common::steady_now_ns();
        conn->tenant = tenant_ptr;
        send_status(conn, frame.type, net::FrameStatus::kOk,
                    "flips_serve v" + std::to_string(net::kFrameVersion) +
                        " tenant " + name + " (rebound)");
        return;
      }
      auto tenant = std::make_shared<Tenant>();
      tenant->name = name;
      // Per-tenant instruments are born with the tenant, so a zero
      // rejection count is still visible in the kMetrics snapshot (the
      // loadgen's client-tally cross-check relies on that).
      obs::Registry& reg = obs::Registry::global();
      const obs::Labels labels{{"tenant", name}};
      tenant->rejections =
          &reg.counter("flips_serve_rejections_total", labels);
      tenant->evictions =
          &reg.counter("flips_serve_evictions_total", labels);
      tenant->queue_depth = &reg.gauge("flips_serve_queue_depth", labels);
      tenant->inflight = &reg.gauge("flips_serve_inflight_steps", labels);
      tenant->reply_seconds = &reg.histogram(
          "flips_serve_reply_seconds", labels, {1e-6, 100.0, 3});
      tenant->conn = conn;
      tenant->last_activity_ns = common::steady_now_ns();
      conn->tenant = tenant;
      tenants_.push_back(std::move(tenant));
      send_status(conn, frame.type, net::FrameStatus::kOk,
                  "flips_serve v" + std::to_string(net::kFrameVersion) +
                      " tenant " + name);
      return;
    }
    case net::FrameType::kShutdown: {
      // Flag and ack in one critical section: a client that has read
      // the ack observes shutdown_requested(), and drain() (which takes
      // mu_ first) cannot shut this connection before the ack is out.
      {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_requested_ = true;
        send_status(conn, frame.type, net::FrameStatus::kOk, "draining");
      }
      shutdown_cv_.notify_all();
      return;
    }
    case net::FrameType::kMetrics: {
      // Live snapshot, answered on the reader thread (never queued
      // behind session work) and tenant-less so operators can poll
      // without a hello. Payload: Prometheus text exposition.
      net::Frame reply;
      reply.type = net::FrameType::kMetrics;
      reply.payload = encode_text(obs::Registry::global().text_exposition());
      send_frame(*conn, reply);
      return;
    }
    case net::FrameType::kOpenSession:
    case net::FrameType::kStep:
    case net::FrameType::kResult:
      break;  // tenant-scoped work, handled below
  }

  if (!conn->tenant) {
    send_status(conn, frame.type, net::FrameStatus::kNoSession,
                "send kHello first");
    return;
  }

  Pending work;
  work.type = frame.type;
  work.conn = conn;
  work.enqueued_ns = common::steady_now_ns();
  if (frame.type == net::FrameType::kOpenSession) {
    KvPairs kv;
    std::string error;
    if (!decode_kv(frame.payload, kv, error)) {
      send_status(conn, frame.type, net::FrameStatus::kBadFrame, error);
      return;
    }
    if (!build_session(conn, std::move(kv), work)) return;
  } else if (frame.type == net::FrameType::kStep) {
    if (!decode_step_request(frame.payload, work.request_id)) {
      send_status(conn, frame.type, net::FrameStatus::kBadFrame,
                  "step payload must be one u64 request id");
      return;
    }
  }

  {
    // A build that finished after drain() began (or after an eviction)
    // is refused here; its session is dropped with `work`.
    std::lock_guard<std::mutex> lock(mu_);
    if (refuse_locked(conn, frame.type)) return;
    Tenant& tenant = *conn->tenant;
    tenant.last_activity_ns = common::steady_now_ns();
    if (frame.type == net::FrameType::kStep) {
      // Admission control: bound the tenant's queued + executing steps.
      if (tenant.inflight_steps >= config_.max_inflight_per_tenant) {
        stat_rejected_.fetch_add(1);
        tenant.rejections->inc();
        net::Frame reply;
        reply.type = net::FrameType::kStep;
        reply.status = net::FrameStatus::kRejected;
        reply.payload = encode_step_request(work.request_id);
        send_frame(*conn, reply);
        return;
      }
      ++tenant.inflight_steps;
      tenant.inflight->set(static_cast<double>(tenant.inflight_steps));
    }
    tenant.queue.push_back(std::move(work));
    tenant.queue_depth->set(static_cast<double>(tenant.queue.size()));
    ++pending_total_;
  }
  work_cv_.notify_one();
}

bool Server::build_session(const std::shared_ptr<Connection>& conn,
                           KvPairs kv, Pending& work) {
  Tenant& tenant = *conn->tenant;
  std::future<Build> built;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (refuse_locked(conn, net::FrameType::kOpenSession)) return false;
    // Refused before building, so repeated opens cannot keep the one
    // builder busy for everyone else's opens.
    if (tenant.session_requested) {
      send_status(conn, net::FrameType::kOpenSession,
                  net::FrameStatus::kBadFrame,
                  "tenant already has a session");
      return false;
    }
    tenant.session_requested = true;
    std::packaged_task<Build()> task(
        [this, kv = std::move(kv), name = tenant.name] {
          Build out;
          // A rejection comes back as text, not as an exception through
          // the future: the builder thread would free the exception
          // object through a reference count TSan cannot see while the
          // reader still reads its message.
          try {
            out.session = factory_(kv, &workers_, &out.banner);
          } catch (const std::invalid_argument& bad) {
            out.bad_scenario = bad.what();
            return out;
          }
          // Every served session reports per-round/per-phase telemetry
          // under its tenant label — the kMetrics snapshot covers the
          // whole session plane, not just the socket front end.
          out.session->add_observer(
              std::make_shared<fl::MetricsObserver>(name));
          return out;
        });
    built = task.get_future();
    builds_.push_back(std::move(task));
  }
  build_cv_.notify_one();
  work.built = built.get();
  if (work.built.session != nullptr) return true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tenant.session_requested = false;
  }
  send_status(conn, net::FrameType::kOpenSession,
              net::FrameStatus::kBadScenario, work.built.bad_scenario);
  return false;
}

bool Server::refuse_locked(const std::shared_ptr<Connection>& conn,
                           net::FrameType type) {
  if (draining_) {
    send_status(conn, type, net::FrameStatus::kShuttingDown,
                "server draining");
    return true;
  }
  if (conn->tenant->evicted) {
    send_status(conn, type, net::FrameStatus::kNoSession,
                "tenant evicted; send kHello again");
    return true;
  }
  return false;
}

void Server::builder_loop() {
  for (;;) {
    std::packaged_task<Build()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      build_cv_.wait(lock, [&] { return !builds_.empty() || stop_builder_; });
      if (builds_.empty()) return;
      task = std::move(builds_.front());
      builds_.pop_front();
    }
    task();  // the build, or its rejection, goes to the reader
  }
}

void Server::scheduler_loop() {
  // With idle eviction on, the scheduler wakes periodically to sweep
  // even when no work arrives (a dead tenant generates no frames).
  const bool evicting = config_.tenant_idle_timeout_s > 0;
  const auto sweep_every = std::chrono::duration<double>(
      std::max(0.01, config_.tenant_idle_timeout_s / 4.0));
  for (;;) {
    Pending work;
    std::shared_ptr<Tenant> tenant;
    {
      std::unique_lock<std::mutex> lock(mu_);
      const auto runnable = [&] {
        return pending_total_ > 0 || stop_scheduler_;
      };
      if (evicting) {
        while (!runnable()) {
          work_cv_.wait_for(lock, sweep_every);
          evict_idle_tenants_locked(common::steady_now_ns());
        }
      } else {
        work_cv_.wait(lock, runnable);
      }
      if (pending_total_ == 0 && stop_scheduler_) return;
      // Fairness: cyclic scan over tenants, one request per turn, so a
      // flooding tenant's backlog cannot starve anyone else's queue.
      const std::size_t n = tenants_.size();
      for (std::size_t probe = 0; probe < n; ++probe) {
        const auto& candidate_ptr = tenants_[(rr_cursor_ + probe) % n];
        Tenant& candidate = *candidate_ptr;
        if (candidate.queue.empty()) continue;
        rr_cursor_ = (rr_cursor_ + probe + 1) % n;
        tenant = candidate_ptr;
        work = std::move(candidate.queue.front());
        candidate.queue.pop_front();
        candidate.queue_depth->set(
            static_cast<double>(candidate.queue.size()));
        --pending_total_;
        break;
      }
    }
    // Session work runs unlocked: local training on the worker pool
    // must not block readers enqueueing (or rejecting) other tenants.
    if (tenant != nullptr) execute(*tenant, std::move(work));
  }
}

void Server::evict_idle_tenants_locked(std::uint64_t now_ns) {
  const auto timeout_ns = static_cast<std::uint64_t>(
      config_.tenant_idle_timeout_s * 1e9);
  for (std::size_t i = 0; i < tenants_.size();) {
    Tenant& tenant = *tenants_[i];
    // Only a tenant with nothing queued or executing AND a dead (or
    // gone) connection can be idle — a live client just between
    // requests is never evicted.
    const auto held = tenant.conn.lock();
    const bool idle = tenant.queue.empty() && tenant.inflight_steps == 0 &&
                      (held == nullptr || held->dead.load()) &&
                      now_ns - tenant.last_activity_ns >= timeout_ns;
    if (!idle) {
      ++i;
      continue;
    }
    // The session's memory is freed here on the scheduler thread — the
    // only thread that ever steps sessions. A zombie reader may still
    // hold the Tenant; it sees `evicted` and answers kNoSession.
    tenant.session.reset();
    tenant.evicted = true;
    tenant.evictions->inc();
    tenants_.erase(tenants_.begin() + static_cast<std::ptrdiff_t>(i));
    if (rr_cursor_ > i) --rr_cursor_;
  }
  if (rr_cursor_ >= tenants_.size()) rr_cursor_ = 0;
}

void Server::execute(Tenant& tenant, Pending work) {
  const auto& conn = work.conn;
  switch (work.type) {
    case net::FrameType::kOpenSession: {
      // Built on the builder thread; installed here, so only this
      // thread ever steps a session.
      tenant.session = std::move(work.built.session);
      stat_sessions_opened_.fetch_add(1);
      obs_sessions_opened_->inc();
      net::Frame reply;
      reply.type = work.type;
      reply.payload = encode_text(work.built.banner);
      send_frame(*conn, reply);
      retire_if_finished(tenant);  // a zero-round session
      return;
    }
    case net::FrameType::kStep: {
      net::Frame reply;
      reply.type = work.type;
      fl::FederationSession* session = tenant.session.get();
      if (tenant.final_parameters) {
        reply.status = net::FrameStatus::kSessionDone;
        reply.payload = encode_step_request(work.request_id);
      } else if (session == nullptr) {
        reply.status = net::FrameStatus::kNoSession;
        reply.payload = encode_step_request(work.request_id);
      } else {
        session->advance();
        stat_steps_.fetch_add(1);
        obs_steps_->inc();
        StepReply body;
        body.request_id = work.request_id;
        body.round = static_cast<std::uint32_t>(session->rounds_completed());
        body.finished = session->done();
        if (body.finished) {
          stat_sessions_finished_.fetch_add(1);
          obs_sessions_finished_->inc();
        }
        reply.payload = encode_step_reply(body);
      }
      send_frame(*conn, reply);
      tenant.reply_seconds->record(
          static_cast<double>(common::steady_now_ns() - work.enqueued_ns) *
          1e-9);
      retire_if_finished(tenant);
      std::lock_guard<std::mutex> lock(mu_);
      --tenant.inflight_steps;
      tenant.inflight->set(static_cast<double>(tenant.inflight_steps));
      return;
    }
    case net::FrameType::kResult: {
      if (tenant.final_parameters) {
        net::Frame reply;
        reply.type = work.type;
        reply.payload = encode_result_reply(*tenant.final_parameters);
        send_frame(*conn, reply);
      } else if (tenant.session == nullptr) {
        send_status(conn, work.type, net::FrameStatus::kNoSession,
                    "open a session first");
      } else {
        send_status(conn, work.type, net::FrameStatus::kNotFinished,
                    "session still has rounds left");
      }
      return;
    }
    default:
      return;  // kHello/kShutdown never reach the queue
  }
}

void Server::retire_if_finished(Tenant& tenant) {
  if (tenant.session == nullptr || !tenant.session->done()) return;
  tenant.final_parameters = tenant.session->result().final_parameters;
  tenant.session.reset();
}

bool Server::send_frame(Connection& conn, const net::Frame& frame) {
  const auto status = static_cast<std::uint16_t>(frame.status);
  if (status < replies_by_status_.size()) replies_by_status_[status]->inc();
  if (conn.dead.load()) return false;
  std::vector<std::uint8_t> wire;
  net::encode_frame(frame, wire);
  std::lock_guard<std::mutex> lock(conn.write_mu);
  if (conn.fd < 0 || !send_all(conn.fd, wire.data(), wire.size())) {
    conn.dead.store(true);
    return false;
  }
  return true;
}

void Server::send_status(const std::shared_ptr<Connection>& conn,
                         net::FrameType type, net::FrameStatus status,
                         std::string_view message) {
  net::Frame reply;
  reply.type = type;
  reply.status = status;
  reply.payload = encode_text(message);
  send_frame(*conn, reply);
}

}  // namespace flips::serve
