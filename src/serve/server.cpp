#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <ostream>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/contract.hpp"
#include "common/shutdown.hpp"
#include "common/strings.hpp"
#include "serve/fault_inject.hpp"

namespace mphpc::serve {

namespace {

/// A request line larger than this is rejected outright — the protocol's
/// objects are a few hundred bytes; a megabyte of "line" is a bug or an
/// attack, not a request.
constexpr std::size_t kMaxLineBytes = 1U << 20U;

}  // namespace

int listen_unix(const std::string& path) {
  sockaddr_un addr = {};
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve: socket path too long: " + path);
  }
  ::unlink(path.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("serve: socket() failed: ") +
                             std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::copy(path.begin(), path.end(), addr.sun_path);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("serve: cannot listen on " + path + ": " + err);
  }
  return fd;
}

IntakeQueue::IntakeQueue(std::size_t capacity) : capacity_(capacity) {
  MPHPC_EXPECTS(capacity >= 1);
}

std::optional<Pending> IntakeQueue::push(Pending pending) {
  std::optional<Pending> victim;
  if (size() >= capacity_) {
    // Shed the OLDEST request from the lowest-priority non-empty lane: a
    // dropped feedback costs a little model freshness, a dropped predict
    // stalls a scheduler decision, and in either lane the oldest entry
    // is the one most likely past its deadline already. The client
    // learns immediately via the overload reply instead of waiting on a
    // queue that cannot keep up.
    std::deque<Pending>& lane = feedback_.empty() ? predict_ : feedback_;
    victim = std::move(lane.front());
    lane.pop_front();
  }
  if (pending.request.op == Op::kFeedback) {
    feedback_.push_back(std::move(pending));
  } else {
    predict_.push_back(std::move(pending));
  }
  return victim;
}

std::size_t IntakeQueue::pop_batch(std::size_t max, std::vector<Pending>& out) {
  std::size_t taken = 0;
  // Priority lane drains first. Feedback can only starve while the
  // predict lane stays saturated — exactly the overload regime in which
  // feedback is the designated sacrifice.
  for (std::deque<Pending>* lane : {&predict_, &feedback_}) {
    while (taken < max && !lane->empty()) {
      out.push_back(std::move(lane->front()));
      lane->pop_front();
      ++taken;
    }
  }
  return taken;
}

Server::Server(ServeCore& core, ServerOptions options, std::ostream* log)
    : core_(core),
      options_(std::move(options)),
      log_(log),
      pool_(options_.pool_threads),
      queue_(options_.queue_cap) {
  MPHPC_EXPECTS(options_.queue_cap >= 1 && options_.batch_max >= 1);
  MPHPC_EXPECTS(options_.deadline_ms >= 0 && options_.store_poll_s >= 0.0);
}

void Server::log_line(const std::string& message) {
  if (log_ == nullptr) return;
  *log_ << "[" << options_.log_tag << "] " << message << '\n';
  log_->flush();
}

void Server::retain_fd(int fd) {
  if (fd <= 2) return;
  const std::lock_guard lock(fd_mutex_);
  ++fd_refs_[fd];
}

void Server::release_fd(int fd, std::size_t count) {
  if (fd <= 2) return;
  const std::lock_guard lock(fd_mutex_);
  const auto it = fd_refs_.find(fd);
  MPHPC_EXPECTS(count > 0 && it != fd_refs_.end() && it->second >= count);
  it->second -= count;
  if (it->second > 0) return;
  fd_refs_.erase(it);
  if (fd_dead_.erase(fd) > 0) ::close(fd);
}

void Server::retire_fd(int fd) {
  if (fd <= 2) return;
  const std::lock_guard lock(fd_mutex_);
  if (fd_refs_.find(fd) == fd_refs_.end()) {
    ::close(fd);
    return;
  }
  fd_dead_.insert(fd);
}

int Server::setup_listener() { return listen_unix(options_.socket_path); }

int Server::run() {
  ShutdownLatch::instance().install();
  // A client that disconnects mid-reply must not kill the daemon.
  struct sigaction ignore_pipe = {};
  ignore_pipe.sa_handler = SIG_IGN;
  ::sigaction(SIGPIPE, &ignore_pipe, nullptr);

  // A borrowed listener is shared with sibling workers: accept() must
  // not block when a sibling wins the race for a connection poll() saw,
  // so the shared open file description goes nonblocking. Heartbeats
  // must never wedge the intake loop on a slow supervisor either.
  const bool borrowed_listener = options_.listen_fd >= 0;
  int listen_fd = options_.listen_fd;
  if (borrowed_listener) {
    (void)::fcntl(listen_fd, F_SETFL,
                  ::fcntl(listen_fd, F_GETFL, 0) | O_NONBLOCK);
  } else if (!options_.socket_path.empty()) {
    listen_fd = setup_listener();
  }
  if (options_.heartbeat_fd >= 0) {
    (void)::fcntl(options_.heartbeat_fd, F_SETFL,
                  ::fcntl(options_.heartbeat_fd, F_GETFL, 0) | O_NONBLOCK);
  }
  log_line(listen_fd < 0 ? "listening on stdin (stdio mode)"
           : borrowed_listener
               ? "listening on inherited fd " + std::to_string(listen_fd)
               : "listening on " + options_.socket_path);
  if (!core_.bootstrap_note().empty()) log_line(core_.bootstrap_note());
  log_line("serving generation " + std::to_string(core_.generation()) +
           " fingerprint " + core_.fingerprint());

  std::thread batcher([this] { batcher_loop(); });
  std::thread refitter([this] { refit_loop(); });

  intake_loop(listen_fd);

  // Intake has stopped; let the batcher drain everything already queued,
  // then stop both workers and persist the final model.
  {
    const std::lock_guard lock(queue_mutex_);
    stop_batcher_ = true;
  }
  queue_cv_.notify_all();
  batcher.join();
  {
    const std::lock_guard lock(refit_mutex_);
    stop_refit_ = true;
  }
  refit_cv_.notify_all();
  refitter.join();

  core_.flush();
  for (Connection& conn : connections_) {
    if (conn.fd > 2) ::close(conn.fd);  // never close stdio fds
  }
  connections_.clear();
  {
    // The drained batcher released every queued reply, so deferred-close
    // fds should all be gone; sweep whatever is left regardless.
    const std::lock_guard lock(fd_mutex_);
    for (const int fd : fd_dead_) ::close(fd);
    fd_dead_.clear();
    fd_refs_.clear();
  }
  if (listen_fd >= 0 && !borrowed_listener) {
    // An inherited listener belongs to the supervisor (and to sibling
    // workers still accepting on it); only a listener we created gets
    // closed and its socket path unlinked.
    ::close(listen_fd);
    ::unlink(options_.socket_path.c_str());
  }
  log_line("drained; model generation " + std::to_string(core_.generation()) +
           " flushed");
  const ShutdownLatch& latch = ShutdownLatch::instance();
  return latch.requested() ? latch.exit_code() : 0;
}

void Server::intake_loop(int listen_fd) {
  ShutdownLatch& latch = ShutdownLatch::instance();
  if (listen_fd < 0) {
    connections_.push_back(Connection{0, std::string(), false});
  }
  for (;;) {
    if (latch.requested()) {
      begin_drain("signal");
      return;
    }
    {
      const std::lock_guard lock(queue_mutex_);
      if (draining_) return;
    }

    std::vector<pollfd> fds;
    fds.push_back(pollfd{latch.wake_fd(), POLLIN, 0});
    std::size_t listen_index = 0;
    const bool has_listener = listen_fd >= 0;
    if (has_listener) {
      listen_index = fds.size();
      fds.push_back(pollfd{listen_fd, POLLIN, 0});
    }
    const std::size_t conn_base = fds.size();
    for (const Connection& conn : connections_) {
      fds.push_back(pollfd{conn.fd, POLLIN, 0});
    }

    // The 500 ms tick is a safety net for the (pipe-less) install failure
    // path (signals normally wake the poll via the latch fd immediately)
    // and doubles as the heartbeat cadence toward the supervisor.
    const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 500);
    if (ready < 0) {
      if (errno == EINTR) continue;
      log_line(std::string("poll failed: ") + std::strerror(errno));
      begin_drain("poll failure");
      return;
    }
    maybe_heartbeat();
    if (ready == 0) continue;

    if (has_listener && (fds[listen_index].revents & POLLIN) != 0) {
      const int client = ::accept(listen_fd, nullptr, nullptr);
      if (client >= 0) {
        // Fault point: a crash/hang here models a worker dying while
        // admitting a connection — the client sees a reset, never a
        // half-served request.
        fault_point(FaultSite::kAccept);
        connections_.push_back(Connection{client, std::string(), false});
        continue;  // pollfd set changed; rebuild before reading
      }
    }

    for (std::size_t i = connections_.size(); i > 0; --i) {
      const std::size_t idx = i - 1;
      const short revents = fds[conn_base + idx].revents;
      if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!read_connection(connections_[idx])) {
        if (connections_[idx].fd == 0) {
          // EOF on stdin IS the shutdown request in stdio mode.
          begin_drain("stdin EOF");
          return;
        }
        // Closes now unless queued requests still hold this fd, in which
        // case the last reply release closes it (an immediate close would
        // let accept() recycle the number for a different client).
        retire_fd(connections_[idx].fd);
        connections_.erase(connections_.begin() +
                           static_cast<std::ptrdiff_t>(idx));
      }
    }
    {
      const std::lock_guard lock(queue_mutex_);
      if (draining_) return;
    }
  }
}

void Server::maybe_heartbeat() {
  if (options_.heartbeat_fd < 0) return;
  // A heartbeat asserts "this worker is serving", not just "the intake
  // thread is scheduled": beat only while the queue is empty (nothing to
  // prove) or the batcher finished a batch since the last beat. A worker
  // wedged mid-reply under load stops beating even though intake still
  // polls, and the supervisor's watchdog takes it out.
  bool queue_empty = false;
  {
    const std::lock_guard lock(queue_mutex_);
    queue_empty = queue_.empty();
  }
  const unsigned long long steps = batcher_steps_.load(std::memory_order_relaxed);
  if (!queue_empty && steps == last_batcher_steps_) return;
  last_batcher_steps_ = steps;
  const char beat = '.';
  ssize_t n = 0;
  do {
    n = ::write(options_.heartbeat_fd, &beat, 1);
  } while (n < 0 && errno == EINTR);
  // EAGAIN (supervisor slow to drain) and EPIPE (supervisor gone) are
  // both fine: the pipe's only job is edge-triggered liveness.
}

bool Server::read_connection(Connection& conn) {
  char buf[65536];
  const ssize_t n = ::read(conn.fd, buf, sizeof buf);
  if (n == 0) return false;
  if (n < 0) return errno == EINTR || errno == EAGAIN;
  // The bytes already buffered are one partial line, so the newline scan
  // starts at the new ones. Lines are handed out as views into the
  // buffer, and the consumed prefix is erased once per read.
  std::size_t scan = conn.buffer.size();
  conn.buffer.append(buf, static_cast<std::size_t>(n));
  std::size_t start = 0;
  std::size_t pos = 0;
  while ((pos = conn.buffer.find('\n', scan)) != std::string::npos) {
    const std::string_view line(conn.buffer.data() + start, pos - start);
    start = scan = pos + 1;
    if (conn.discarding) {
      conn.discarding = false;  // the oversized line finally ended
      continue;
    }
    handle_input_line(conn.fd, line);
  }
  conn.buffer.erase(0, start);
  if (conn.discarding) {
    conn.buffer.clear();  // more of the oversized line: drop it as it comes
  } else if (conn.buffer.size() > kMaxLineBytes) {
    write_reply(conn.fd == 0 ? 1 : conn.fd,
                error_reply("", "bad_request", "request line exceeds 1 MiB"));
    conn.buffer.clear();
    conn.discarding = true;
  }
  return true;
}

void Server::handle_input_line(int fd, std::string_view line) {
  if (trim(line).empty()) return;
  const int reply_fd = fd == 0 ? 1 : fd;  // stdio mode replies on stdout
  {
    const std::lock_guard lock(queue_mutex_);
    if (draining_) {
      write_reply(reply_fd,
                  error_reply("", "shutting_down", "daemon is draining"));
      return;
    }
  }
  Pending pending;
  try {
    pending.request = parse_request(line);
  } catch (const std::exception& e) {
    write_reply(reply_fd, error_reply("", "bad_request", e.what()));
    return;
  }
  if (pending.request.op == Op::kShutdown) {
    write_reply(reply_fd, core_.handle_request(pending.request));
    begin_drain("shutdown request");
    return;
  }
  pending.fd = reply_fd;
  pending.arrival = Clock::now();
  retain_fd(reply_fd);  // released when the reply (or shed/expiry) is written
  enqueue(std::move(pending));
}

void Server::enqueue(Pending pending) {
  std::optional<Pending> victim;
  {
    const std::lock_guard lock(queue_mutex_);
    victim = queue_.push(std::move(pending));
    core_.note_lane_depths(queue_.predict_depth(), queue_.feedback_depth());
  }
  queue_cv_.notify_one();
  if (victim.has_value()) {
    const bool was_feedback = victim->request.op == Op::kFeedback;
    core_.note_shed(victim->request.op);
    write_reply(victim->fd,
                error_reply(victim->request.id, "overloaded",
                            was_feedback
                                ? "queue full: oldest feedback shed"
                                : "queue full: oldest predict shed"));
    release_fd(victim->fd);
  }
}

void Server::batcher_loop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stop_batcher_ || !queue_.empty(); });
      if (queue_.empty() && stop_batcher_) return;
      batch.reserve(std::min(options_.batch_max, queue_.size()));
      (void)queue_.pop_batch(options_.batch_max, batch);
      core_.note_lane_depths(queue_.predict_depth(), queue_.feedback_depth());
    }
    serve_batch(batch);
    batcher_steps_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::serve_batch(std::vector<Pending>& batch) {
  const Clock::time_point now = Clock::now();
  Outbox outbox;
  std::vector<Request> live;
  std::vector<std::size_t> live_index;
  bool saw_feedback = false;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Pending& p = batch[i];
    if (options_.deadline_ms > 0 &&
        now - p.arrival > std::chrono::milliseconds(options_.deadline_ms)) {
      core_.note_deadline_expired();
      outbox.add(p.fd, error_reply(p.request.id, "deadline_exceeded",
                                   "request exceeded its serve deadline"));
      continue;
    }
    if (p.request.op == Op::kFeedback) saw_feedback = true;
    live_index.push_back(i);
    live.push_back(std::move(p.request));
  }
  if (!live.empty()) {
    // Inline: a batch is at most batch_max rows, which the compiled kernel
    // serves in less CPU on this thread than a pool handoff costs. The
    // pool is left to the refit.
    const std::vector<std::string> replies = core_.handle_requests(live, nullptr);
    for (std::size_t k = 0; k < replies.size(); ++k) {
      outbox.add(batch[live_index[k]].fd, replies[k]);
    }
  }
  send(outbox);
  // Every request of the batch got exactly one reply, so each fd drops
  // one reference per reply it was sent.
  for (const Outbox::Stream& stream : outbox.streams) {
    release_fd(stream.fd, stream.replies);
  }
  if (saw_feedback && core_.refit_pending()) {
    {
      const std::lock_guard lock(refit_mutex_);
      refit_kick_ = true;
    }
    refit_cv_.notify_one();
  }
}

void Server::refit_loop() {
  const bool polling = options_.store_poll_s > 0.0;
  const auto poll_tick = std::chrono::duration<double>(options_.store_poll_s);
  for (;;) {
    {
      std::unique_lock lock(refit_mutex_);
      const auto woken = [this] { return stop_refit_ || refit_kick_; };
      if (polling) {
        // Wake on the poll tick even without a kick: a pure follower
        // (all its feedback shed, or a sibling holds the lease) must
        // still notice the leader's publishes.
        (void)refit_cv_.wait_for(lock, poll_tick, woken);
      } else {
        refit_cv_.wait(lock, woken);
      }
      refit_kick_ = false;
      if (stop_refit_) return;
    }
    try {
      if (polling && core_.follow_store()) {
        log_line("follow: loaded generation " +
                 std::to_string(core_.generation()) + " fingerprint " +
                 core_.fingerprint());
      }
      if (core_.run_refit(&pool_)) {
        log_line("refit: published generation " +
                 std::to_string(core_.generation()) + " fingerprint " +
                 core_.fingerprint());
      }
    } catch (const std::exception& e) {
      // A refit failure (e.g. disk full during persist) must not take the
      // serving path down: the old generation keeps serving.
      log_line(std::string("refit failed (serving continues): ") + e.what());
    }
  }
}

void Server::Outbox::add(int fd, std::string_view reply) {
  Stream* stream = nullptr;
  for (Stream& s : streams) {
    if (s.fd == fd) {
      stream = &s;
      break;
    }
  }
  if (stream == nullptr) stream = &streams.emplace_back(Stream{fd, 0, {}});
  ++stream->replies;
  // Fault point, once per reply: kShortWrite truncates this reply's line
  // to half its bytes (a torn line the client's JSONL parser must
  // reject), crash/hang model a worker dying with the reply in flight.
  const FaultAction fault = FaultInjector::instance().at(FaultSite::kMidReply);
  FaultInjector::execute(fault);
  if (fault == FaultAction::kShortWrite) {
    stream->bytes.append(reply.substr(0, (reply.size() + 1) / 2));
    return;
  }
  stream->bytes.append(reply);
  stream->bytes += '\n';
}

void Server::send(const Outbox& outbox) {
  const std::lock_guard lock(write_mutex_);
  for (const Outbox::Stream& stream : outbox.streams) {
    const std::string& bytes = stream.bytes;
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::write(stream.fd, bytes.data() + off, bytes.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // client gone (EPIPE et al.) — drop its replies, not the daemon
      }
      off += static_cast<std::size_t>(n);
    }
  }
}

void Server::write_reply(int fd, std::string_view reply) {
  Outbox outbox;
  outbox.add(fd, reply);
  send(outbox);
}

void Server::begin_drain(const char* why) {
  {
    const std::lock_guard lock(queue_mutex_);
    if (draining_) return;
    draining_ = true;
  }
  log_line(std::string("draining (") + why + ")");
}

}  // namespace mphpc::serve
