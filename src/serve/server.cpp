#include "serve/server.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
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

net::Frame status_frame(net::FrameType type, net::FrameStatus status,
                        std::string_view message) {
  return {type, status, encode_text(message)};
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
  listen_fd_ =
      ::socket(uds ? AF_UNIX : AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
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
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    throw std::runtime_error(std::string("eventfd: ") +
                             std::strerror(errno));
  }
  started_ = true;
  io_ = std::thread([this] { io_loop(); });
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
  // Nothing is queued or posted once draining_ is set, so the scheduler
  // and the builder each finish their queue and exit; a build that
  // finishes now is answered kShuttingDown.
  work_cv_.notify_all();
  scheduler_.join();
  build_cv_.notify_all();
  builder_.join();
  // Every reply is queued: the I/O thread flushes them, then closes.
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_io_ = true;
    wake_io_locked();
  }
  io_.join();
  ::close(listen_fd_);
  ::close(wake_fd_);
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

void Server::io_loop() {
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<pollfd> fds;
  for (;;) {
    const std::uint64_t now = common::steady_now_ns();
    bool accepting = false;
    bool stopping = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      wake_pending_ = false;
      accepting = !draining_;
      stopping = stop_io_;
    }
    // Per connection: run its buffered frames, write its replies, and
    // close it once it is done.
    fds.assign({{wake_fd_, POLLIN, 0},
                {accepting ? listen_fd_ : -1, POLLIN, 0}});
    int timeout_ms = -1;
    for (std::size_t i = 0; i < conns.size();) {
      Connection& conn = *conns[i];
      if (conn.wire.empty()) conn.last_write_ns = now;
      const short events = pump(conns[i], stopping);
      const bool failed = !write_out(conn, now);
      const bool stalled =
          !conn.wire.empty() && now - conn.last_write_ns >= kStallTimeoutNs;
      if (failed || stalled ||
          ((conn.dead || stopping) && conn.wire.empty())) {
        close_connection(conn);
        conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      pollfd& entry = fds.emplace_back(pollfd{conn.fd, events, 0});
      if (!conn.wire.empty()) {
        entry.events |= POLLOUT;
        const std::uint64_t left_ns =
            conn.last_write_ns + kStallTimeoutNs - now;
        const int ms = static_cast<int>(left_ns / 1'000'000 + 1);
        timeout_ms = timeout_ms < 0 ? ms : std::min(timeout_ms, ms);
      }
      // A connection neither read nor written is not polled at all: its
      // hang-up would otherwise make every poll() return at once.
      if (entry.events == 0) entry.fd = -1;
      ++i;
    }
    if (stopping && conns.empty()) return;

    if (::poll(fds.data(), fds.size(), timeout_ms) < 0) continue;  // EINTR
    if ((fds[0].revents & POLLIN) != 0) {
      std::uint64_t wakes = 0;
      [[maybe_unused]] const ssize_t got =
          ::read(wake_fd_, &wakes, sizeof wakes);
    }
    // Read one chunk from every readable connection; the next pass
    // decodes it. A peer's EOF or error closes the connection at once.
    for (std::size_t i = conns.size(); i-- > 0;) {
      Connection& conn = *conns[i];
      if ((fds[i + 2].events & POLLIN) == 0 ||
          (fds[i + 2].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      std::uint8_t chunk[4096];
      const ssize_t got = ::recv(conn.fd, chunk, sizeof chunk, 0);
      if (got > 0) {
        conn.decoder.feed(chunk, static_cast<std::size_t>(got));
      } else if (got == 0 || (errno != EAGAIN && errno != EINTR)) {
        close_connection(conn);
        conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    if ((fds[1].revents & POLLIN) == 0) continue;
    // Until EAGAIN: the backlog is empty.
    for (int fd; (fd = ::accept4(listen_fd_, nullptr, nullptr,
                                 SOCK_NONBLOCK)) >= 0;) {
      conns.push_back(std::make_shared<Connection>());
      conns.back()->fd = fd;
      stat_connections_accepted_.fetch_add(1);
    }
  }
}

short Server::pump(const std::shared_ptr<Connection>& conn, bool stopping) {
  std::unique_lock<std::mutex> lock(mu_);
  short events = 0;
  net::Frame frame;
  while (!stopping && !conn->dead && !conn->building) {
    if (conn->wire.size() + conn->outbox.size() > kOutboxLimit) {
      // Resume once the socket takes more, or next pass if it took all.
      events = POLLOUT;
      break;
    }
    const auto verdict = conn->decoder.next(frame);
    if (verdict == net::FrameDecodeResult::kNeedMore) {
      events = POLLIN;
      break;
    }
    if (verdict == net::FrameDecodeResult::kError) {
      // Framing has no resync point: answer, then close once the answer
      // is written.
      stat_bad_frames_.fetch_add(1);
      obs_bad_frames_->inc();
      reply_locked(*conn, status_frame(net::FrameType::kHello,
                                       net::FrameStatus::kBadFrame,
                                       conn->decoder.error()));
      conn->dead = true;
    } else {
      stat_frames_.fetch_add(1);
      handle_frame(conn, std::move(frame), lock);
    }
  }
  conn->wire.insert(conn->wire.end(), conn->outbox.begin(),
                    conn->outbox.end());
  conn->outbox.clear();
  return events;
}

bool Server::write_out(Connection& conn, std::uint64_t now_ns) {
  while (!conn.wire.empty()) {
    const ssize_t sent =
        ::send(conn.fd, conn.wire.data(), conn.wire.size(), MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN;
    }
    conn.wire.erase(conn.wire.begin(), conn.wire.begin() + sent);
    conn.last_write_ns = now_ns;
  }
  return true;
}

void Server::close_connection(Connection& conn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    conn.dead = true;
    conn.outbox.clear();
  }
  // The full shutdown lets the peer see EOF after any error reply.
  ::shutdown(conn.fd, SHUT_RDWR);
  ::close(conn.fd);
  conn.fd = -1;
  stat_connections_closed_.fetch_add(1);
}

void Server::handle_frame(const std::shared_ptr<Connection>& conn,
                          net::Frame frame,
                          std::unique_lock<std::mutex>& lock) {
  frames_by_type_[static_cast<std::uint8_t>(frame.type)]->inc();
  switch (frame.type) {
    case net::FrameType::kHello: {
      const std::string name = decode_text(frame.payload);
      const std::string banner = "flips_serve v" +
                                 std::to_string(net::kFrameVersion) +
                                 " tenant " + name;
      if (name.empty() || conn->tenant) {
        reply_locked(*conn, status_frame(frame.type,
                                         net::FrameStatus::kBadFrame,
                                         name.empty()
                                             ? "empty tenant name"
                                             : "hello already sent on this "
                                               "connection"));
        return;
      }
      for (const auto& tenant_ptr : tenants_) {
        Tenant& tenant = *tenant_ptr;
        if (tenant.name != name) continue;
        const auto held = tenant.conn.lock();
        if (held != nullptr && !held->dead) {
          reply_locked(*conn,
                       status_frame(frame.type,
                                    net::FrameStatus::kDuplicateTenant,
                                    "tenant already registered: " + name));
          return;
        }
        // The previous connection died: rebind the tenant to this one.
        // Its session (if any) is untouched, so a reconnecting client
        // resumes stepping exactly where it left off.
        tenant.conn = conn;
        tenant.last_activity_ns = common::steady_now_ns();
        conn->tenant = tenant_ptr;
        reply_locked(*conn, status_frame(frame.type, net::FrameStatus::kOk,
                                         banner + " (rebound)"));
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
      reply_locked(*conn,
                   status_frame(frame.type, net::FrameStatus::kOk, banner));
      return;
    }
    case net::FrameType::kShutdown:
      // Flag and ack in one critical section: a client that has read
      // the ack observes shutdown_requested().
      shutdown_requested_ = true;
      reply_locked(*conn,
                   status_frame(frame.type, net::FrameStatus::kOk, "draining"));
      shutdown_cv_.notify_all();
      return;
    case net::FrameType::kMetrics: {
      // Live snapshot, answered on the I/O thread (never queued behind
      // session work) and tenant-less so operators can poll without a
      // hello. Payload: Prometheus text exposition, rendered unlocked
      // so a flood of requests never holds up the scheduler's replies.
      lock.unlock();
      std::string text = obs::Registry::global().text_exposition();
      lock.lock();
      reply_locked(*conn,
                   {frame.type, net::FrameStatus::kOk, encode_text(text)});
      return;
    }
    case net::FrameType::kOpenSession:
    case net::FrameType::kStep:
    case net::FrameType::kResult:
      break;  // tenant-scoped work, handled below
  }

  if (!conn->tenant) {
    reply_locked(*conn, status_frame(frame.type, net::FrameStatus::kNoSession,
                                     "send kHello first"));
    return;
  }
  Pending work;
  work.type = frame.type;
  work.conn = conn;
  work.enqueued_ns = common::steady_now_ns();
  std::string error;
  if (frame.type == net::FrameType::kOpenSession &&
      !decode_kv(frame.payload, work.kv, error)) {
    reply_locked(*conn,
                 status_frame(frame.type, net::FrameStatus::kBadFrame, error));
    return;
  }
  if (frame.type == net::FrameType::kStep &&
      !decode_step_request(frame.payload, work.request_id)) {
    reply_locked(*conn,
                 status_frame(frame.type, net::FrameStatus::kBadFrame,
                              "step payload must be one u64 request id"));
    return;
  }
  if (frame.type != net::FrameType::kOpenSession) {
    admit_locked(work);
  } else if (!refuse_locked(*conn, frame.type)) {
    // Refused before building, so repeated opens cannot keep the one
    // builder busy for everyone else's opens.
    if (conn->tenant->session_requested) {
      reply_locked(*conn, status_frame(frame.type, net::FrameStatus::kBadFrame,
                                       "tenant already has a session"));
      return;
    }
    conn->tenant->session_requested = true;
    conn->building = true;
    builds_.push_back(std::move(work));
    build_cv_.notify_one();
  }
}

void Server::admit_locked(Pending& work) {
  Connection& conn = *work.conn;
  if (refuse_locked(conn, work.type)) return;
  Tenant& tenant = *conn.tenant;
  tenant.last_activity_ns = common::steady_now_ns();
  if (work.type == net::FrameType::kStep) {
    // Admission control: bound the tenant's queued + executing steps.
    if (tenant.inflight_steps >= config_.max_inflight_per_tenant) {
      stat_rejected_.fetch_add(1);
      tenant.rejections->inc();
      reply_locked(conn, {net::FrameType::kStep, net::FrameStatus::kRejected,
                          encode_step_request(work.request_id)});
      return;
    }
    ++tenant.inflight_steps;
    tenant.inflight->set(static_cast<double>(tenant.inflight_steps));
  }
  tenant.queue.push_back(std::move(work));
  tenant.queue_depth->set(static_cast<double>(tenant.queue.size()));
  ++pending_total_;
  work_cv_.notify_one();
}

bool Server::refuse_locked(Connection& conn, net::FrameType type) {
  if (draining_) {
    reply_locked(conn, status_frame(type, net::FrameStatus::kShuttingDown,
                                    "server draining"));
    return true;
  }
  if (conn.tenant->evicted) {
    reply_locked(conn, status_frame(type, net::FrameStatus::kNoSession,
                                    "tenant evicted; send kHello again"));
    return true;
  }
  return false;
}

void Server::builder_loop() {
  for (;;) {
    Pending work;
    {
      std::unique_lock<std::mutex> lock(mu_);
      build_cv_.wait(lock, [&] { return !builds_.empty() || draining_; });
      if (builds_.empty()) return;
      work = std::move(builds_.front());
      builds_.pop_front();
    }
    const std::shared_ptr<Connection> conn = work.conn;
    std::string bad_scenario;
    try {
      work.session = factory_(work.kv, &workers_, &work.banner);
      // Every served session reports per-round/per-phase telemetry
      // under its tenant label — the kMetrics snapshot covers the whole
      // session plane, not just the socket front end.
      work.session->add_observer(
          std::make_shared<fl::MetricsObserver>(conn->tenant->name));
    } catch (const std::invalid_argument& bad) {
      bad_scenario = bad.what();
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (work.session != nullptr) {
      // A build that finished after drain() began (or after an
      // eviction) is refused here; its session is freed with `work`,
      // after the lock.
      admit_locked(work);
    } else {
      conn->tenant->session_requested = false;
      reply_locked(*conn, status_frame(net::FrameType::kOpenSession,
                                       net::FrameStatus::kBadScenario,
                                       bad_scenario));
    }
    // Only now may the I/O thread run the connection's next frame.
    conn->building = false;
    wake_io_locked();
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
      const auto runnable = [&] { return pending_total_ > 0 || draining_; };
      if (evicting) {
        while (!runnable()) {
          work_cv_.wait_for(lock, sweep_every);
          evict_idle_tenants_locked(common::steady_now_ns());
        }
      } else {
        work_cv_.wait(lock, runnable);
      }
      if (pending_total_ == 0 && draining_) return;
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
    // must not block the I/O thread queueing (or rejecting) frames.
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
                      (held == nullptr || held->dead) &&
                      now_ns - tenant.last_activity_ns >= timeout_ns;
    if (!idle) {
      ++i;
      continue;
    }
    // The session's memory is freed here on the scheduler thread — the
    // only thread that ever steps sessions. A connection may still hold
    // the Tenant; its frames see `evicted` and are answered kNoSession.
    tenant.session.reset();
    tenant.evicted = true;
    tenant.evictions->inc();
    tenants_.erase(tenants_.begin() + static_cast<std::ptrdiff_t>(i));
    if (rr_cursor_ > i) --rr_cursor_;
  }
  if (rr_cursor_ >= tenants_.size()) rr_cursor_ = 0;
}

void Server::execute(Tenant& tenant, Pending work) {
  net::Frame reply;
  reply.type = work.type;
  switch (work.type) {
    case net::FrameType::kOpenSession:
      // Built on the builder thread; installed here, so only this
      // thread ever steps a session.
      tenant.session = std::move(work.session);
      stat_sessions_opened_.fetch_add(1);
      obs_sessions_opened_->inc();
      reply.payload = encode_text(work.banner);
      break;
    case net::FrameType::kStep: {
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
      break;
    }
    case net::FrameType::kResult:
      if (tenant.final_parameters) {
        reply.payload = encode_result_reply(*tenant.final_parameters);
      } else if (tenant.session == nullptr) {
        reply = status_frame(work.type, net::FrameStatus::kNoSession,
                             "open a session first");
      } else {
        reply = status_frame(work.type, net::FrameStatus::kNotFinished,
                             "session still has rounds left");
      }
      break;
    default:
      return;  // kHello/kShutdown never reach the queue
  }
  retire_if_finished(tenant);  // a last round, or a zero-round session
  // A step's reply is queued and counted out of the admission bound in
  // one critical section, so the client's next step never finds this
  // one still in flight.
  std::lock_guard<std::mutex> lock(mu_);
  reply_locked(*work.conn, reply);
  if (work.type != net::FrameType::kStep) return;
  tenant.reply_seconds->record(
      static_cast<double>(common::steady_now_ns() - work.enqueued_ns) * 1e-9);
  --tenant.inflight_steps;
  tenant.inflight->set(static_cast<double>(tenant.inflight_steps));
}

void Server::retire_if_finished(Tenant& tenant) {
  if (tenant.session == nullptr || !tenant.session->done()) return;
  tenant.final_parameters = tenant.session->result().final_parameters;
  tenant.session.reset();
}

void Server::reply_locked(Connection& conn, const net::Frame& frame) {
  const auto status = static_cast<std::uint16_t>(frame.status);
  if (status < replies_by_status_.size()) replies_by_status_[status]->inc();
  if (conn.dead) return;
  net::encode_frame(frame, conn.outbox);
  wake_io_locked();
}

void Server::wake_io_locked() {
  // One write per I/O pass: the pass clears the flag before it takes
  // any outbox, so a reply queued later is seen by the next pass.
  if (wake_pending_) return;
  wake_pending_ = true;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t wrote = ::write(wake_fd_, &one, sizeof one);
}

}  // namespace flips::serve
