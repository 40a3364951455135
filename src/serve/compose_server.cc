#include "src/serve/compose_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "src/common/cancel.h"
#include "src/common/fault.h"
#include "src/serve/wire_status.h"

namespace mapcomp {
namespace serve {

namespace {

constexpr int kListenBacklog = 128;
/// Max requests one dispatcher pops per round; the whole batch is
/// Submitted before the first Wait, so independent problems overlap in
/// the pool even with one dispatcher.
constexpr size_t kBatchSize = 16;
/// Stop() drain budget: after dispatchers finish answering admitted work,
/// the I/O thread keeps flushing staged reply bytes for at most this long
/// before the sockets are torn down. Bounds a stop against a client that
/// never reads.
constexpr std::chrono::milliseconds kDrainTimeout{2000};

std::string ErrorFrame(uint64_t request_id, WireStatus status,
                       std::string message) {
  std::string body;
  ServeReply::ErrorReply(request_id, status, std::move(message))
      .SerializeTo(&body);
  std::string frame;
  EncodeFrame(FrameType::kReply, body, &frame);
  return frame;
}

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

std::string ServerStats::ToString() const {
  std::string out = "compose-server: ";
  out += std::to_string(connections_accepted) + " conns, " +
         std::to_string(requests_parsed) + " requests, " +
         std::to_string(replies_sent) + " replies, " +
         std::to_string(cache_bypass) + " cache-bypassed, " +
         std::to_string(sheds) + " shed, " + std::to_string(timeouts) +
         " timed out, " + std::to_string(protocol_errors) +
         " protocol errors, queue watermark " +
         std::to_string(queue_depth_watermark) + ", " +
         std::to_string(bytes_read) + "B in / " +
         std::to_string(bytes_written) + "B out\n";
  return out;
}

ComposeServer::ComposeServer(runtime::ComposeService* service,
                             ServerOptions options)
    : service_(service), options_(std::move(options)) {}

ComposeServer::~ComposeServer() { Stop(); }

Status ComposeServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::Internal("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("bind(port " + std::to_string(options_.port) +
                            ") failed: " + strerror(errno));
  }
  if (::listen(listen_fd_, kListenBacklog) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  SetNonBlocking(listen_fd_);

  if (::pipe(wake_fds_) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("pipe() failed");
  }
  SetNonBlocking(wake_fds_[0]);
  SetNonBlocking(wake_fds_[1]);

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) {
    Stop();
    return Status::Internal("epoll_create1() failed");
  }
  epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fds_[0];
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fds_[0], &ev);

  running_.store(true);
  io_thread_ = std::thread([this] { IoLoop(); });
  int n = std::max(1, options_.dispatch_threads);
  dispatchers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    dispatchers_.emplace_back([this] { DispatchLoop(); });
  }
  return Status::OK();
}

void ComposeServer::Stop() {
  if (!running_.load()) {
    // Start may have failed half-way: release whatever exists.
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
    if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    listen_fd_ = wake_fds_[0] = wake_fds_[1] = epoll_fd_ = -1;
    return;
  }
  // Drain, then tear down. `running_` stays true through the drain so the
  // I/O thread keeps flushing the replies dispatchers stage.
  //
  // Phase 1 — answer what was admitted: draining_ stops new accepts and
  // admissions (fresh frames shed kOverloaded); dispatchers empty the
  // queue (ignoring the test gate) and exit. Setting it under the queue
  // lock keeps a dispatcher from missing the wakeup between check and wait.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    draining_.store(true);
  }
  queue_cv_.notify_all();
  for (std::thread& t : dispatchers_) t.join();
  dispatchers_.clear();
  // A frame admitted concurrently with the dispatchers' final empty-check
  // could be stranded in the queue — shed it explicitly, so every
  // accepted request gets *some* reply.
  {
    std::deque<Admitted> stranded;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      stranded.swap(queue_);
    }
    for (const Admitted& a : stranded) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.sheds;
      }
      PostReply(a.conn_id, ErrorFrame(a.request_id, WireStatus::kOverloaded,
                                      "server draining"));
    }
  }
  // Phase 2 — flush: wait for every staged reply byte to reach a socket,
  // bounded by the drain budget (a client that never reads must not wedge
  // Stop).
  auto flush_deadline = std::chrono::steady_clock::now() + kDrainTimeout;
  while (pending_write_bytes_.load(std::memory_order_acquire) > 0 &&
         std::chrono::steady_clock::now() < flush_deadline) {
    char b = 'x';
    ssize_t ignored = ::write(wake_fds_[1], &b, 1);
    (void)ignored;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Phase 3 — tear down the I/O thread and every socket.
  running_.store(false);
  if (wake_fds_[1] >= 0) {
    char b = 'x';
    ssize_t ignored = ::write(wake_fds_[1], &b, 1);
    (void)ignored;
  }
  if (io_thread_.joinable()) io_thread_.join();
  for (auto& [fd, conn] : conns_) {
    (void)conn;
    ::close(fd);
  }
  conns_.clear();
  conn_fd_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  listen_fd_ = wake_fds_[0] = wake_fds_[1] = epoll_fd_ = -1;
}

ServerStats ComposeServer::Stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void ComposeServer::IoLoop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (running_.load()) {
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, /*timeout_ms=*/100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        // During drain, pending connects stay in the backlog and die with
        // the listen socket — the server owes replies only to requests it
        // actually accepted.
        if (!draining_.load(std::memory_order_relaxed)) AcceptNew();
        continue;
      }
      if (fd == wake_fds_[0]) {
        char buf[256];
        while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
        }
        std::vector<std::pair<uint64_t, std::string>> staged;
        {
          std::lock_guard<std::mutex> lock(inbox_mu_);
          staged.swap(reply_inbox_);
        }
        for (auto& [conn_id, frame] : staged) {
          auto it = conn_fd_.find(conn_id);
          if (it == conn_fd_.end()) {
            // Connection died meanwhile: its bytes will never be written.
            pending_write_bytes_.fetch_sub(
                static_cast<int64_t>(frame.size()), std::memory_order_acq_rel);
            continue;
          }
          Connection& conn = *conns_.at(it->second);
          conn.outbox.append(frame);
          {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.replies_sent;
          }
          HandleWritable(conn);
        }
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // already closed this round
      Connection& conn = *it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(fd);
        continue;
      }
      if (events[i].events & EPOLLIN) HandleReadable(conn);
      // HandleReadable may close; re-check before writing.
      if (conns_.count(fd) && (events[i].events & EPOLLOUT)) {
        HandleWritable(*conns_.at(fd));
      }
    }
  }
}

void ComposeServer::AcceptNew() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN / EMFILE: retry on next event
    SetNonBlocking(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>(options_.max_frame_bytes);
    conn->fd = fd;
    conn->id = ++next_conn_id_;
    conn_fd_[conn->id] = fd;
    epoll_event ev;
    memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_.emplace(fd, std::move(conn));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.connections_accepted;
  }
}

void ComposeServer::HandleReadable(Connection& conn) {
  char buf[65536];
  for (;;) {
    ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.bytes_read += static_cast<uint64_t>(n);
      }
      conn.decoder.Feed(reinterpret_cast<const uint8_t*>(buf),
                        static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {  // orderly EOF
      CloseConnection(conn.fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn.fd);
    return;
  }

  FrameType type;
  std::string body;
  for (;;) {
    FrameDecoder::Next next = conn.decoder.Poll(&type, &body);
    if (next == FrameDecoder::Next::kNeedMore) break;
    if (next == FrameDecoder::Next::kError || type != FrameType::kRequest) {
      // The stream is desynced (or speaks the wrong direction) and cannot
      // be re-trusted: one best-effort diagnostic, then close once it
      // flushed.
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.protocol_errors;
      }
      conn.close_after_flush = true;
      QueueError(conn, 0, WireStatus::kInvalidArgument,
                 next == FrameDecoder::Next::kError
                     ? conn.decoder.error()
                     : "server expects request frames");
      break;
    }
    OnFrame(conn, std::move(body));
  }
  // Write this read's replies now; EPOLLOUT only if the socket refuses.
  HandleWritable(conn);
}

void ComposeServer::OnFrame(Connection& conn, std::string body) {
  RequestEnvelope envelope = RequestEnvelope::Walk(
      reinterpret_cast<const uint8_t*>(body.data()), body.size(),
      service_->default_options());
  const uint64_t request_id = envelope.request_id;
  if (!envelope.status.ok()) {
    // Well-framed but malformed: the length prefix kept the stream in
    // sync, so refuse this request (naming the salvaged request_id) and
    // keep the connection usable.
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.protocol_errors;
    }
    QueueError(conn, request_id, WireStatusFrom(envelope.status.code()),
               envelope.status.message());
    return;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.requests_parsed;
  }

  // A frame that lands during drain finds the dispatchers already gone:
  // shed it (the cache probe below would be fine, but one uniform answer
  // keeps drain behavior predictable).
  if (draining_.load(std::memory_order_relaxed)) {
    QueueError(conn, request_id, WireStatus::kOverloaded, "server draining");
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.sheds;
    return;
  }

  // Cache-aware admission on the raw key bytes: a hit is answered here with
  // stored reply bytes — hot traffic is never parsed and never queued.
  if (!envelope.key.empty()) {
    runtime::ServedOutcome hit = service_->ProbeKey(envelope.key, /*raw=*/true);
    if (hit.ok()) {
      const size_t before = conn.outbox.size();
      ServeReply::AppendOkFrame(request_id, /*cache_hit=*/true,
                                hit.reply_bytes(), &conn.outbox);
      pending_write_bytes_.fetch_add(
          static_cast<int64_t>(conn.outbox.size() - before),
          std::memory_order_acq_rel);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.replies_sent;
      ++stats_.cache_bypass;
      return;
    }
  }

  // A miss admits the raw body; its dispatcher parses it.
  bool shed = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.size() >= options_.admission_capacity) {
      shed = true;
    } else {
      Admitted a;
      a.conn_id = conn.id;
      a.request_id = request_id;
      a.body = std::move(body);
      a.enqueued = std::chrono::steady_clock::now();
      queue_.push_back(std::move(a));
      size_t depth = queue_.size();
      std::lock_guard<std::mutex> slock(stats_mu_);
      if (depth > stats_.queue_depth_watermark) {
        stats_.queue_depth_watermark = depth;
      }
    }
  }
  if (shed) {
    // Backpressure is a reply, not a dropped connection: the client learns
    // immediately and can back off.
    QueueError(conn, request_id, WireStatus::kOverloaded,
               "admission queue full");
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.sheds;
    return;
  }
  queue_cv_.notify_one();
}

void ComposeServer::QueueError(Connection& conn, uint64_t request_id,
                               WireStatus status, const std::string& message) {
  std::string frame = ErrorFrame(request_id, status, message);
  conn.outbox.append(frame);
  pending_write_bytes_.fetch_add(static_cast<int64_t>(frame.size()),
                                 std::memory_order_acq_rel);
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.replies_sent;
}

void ComposeServer::PostReply(uint64_t conn_id, std::string frame) {
  pending_write_bytes_.fetch_add(static_cast<int64_t>(frame.size()),
                                 std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    reply_inbox_.emplace_back(conn_id, std::move(frame));
  }
  char b = 'x';
  ssize_t ignored = ::write(wake_fds_[1], &b, 1);
  (void)ignored;
}

void ComposeServer::HandleWritable(Connection& conn) {
  while (conn.out_pos < conn.outbox.size()) {
    size_t len = conn.outbox.size() - conn.out_pos;
    // Fault point: kill the connection with a hard RST after exactly
    // Arg() reply bytes, so a reset lands mid-reply at a reproducible
    // offset — the client must surface a transport error, never a
    // half-parsed frame.
    using common::fault::FaultPoint;
    if (common::fault::Armed(FaultPoint::kSocketResetAfterNBytes)) {
      uint64_t budget = common::fault::Arg(FaultPoint::kSocketResetAfterNBytes);
      if (faulted_bytes_ >= budget) {
        (void)common::fault::Hit(FaultPoint::kSocketResetAfterNBytes);
        struct linger hard_reset;
        hard_reset.l_onoff = 1;
        hard_reset.l_linger = 0;
        ::setsockopt(conn.fd, SOL_SOCKET, SO_LINGER, &hard_reset,
                     sizeof(hard_reset));
        CloseConnection(conn.fd);
        return;
      }
      len = std::min<size_t>(len, budget - faulted_bytes_);
    }
    ssize_t n = ::write(conn.fd, conn.outbox.data() + conn.out_pos, len);
    if (n > 0) {
      conn.out_pos += static_cast<size_t>(n);
      if (common::fault::Armed(FaultPoint::kSocketResetAfterNBytes)) {
        faulted_bytes_ += static_cast<uint64_t>(n);
      }
      pending_write_bytes_.fetch_sub(n, std::memory_order_acq_rel);
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.bytes_written += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      UpdateEpollOut(conn);
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(conn.fd);
    return;
  }
  conn.outbox.clear();
  conn.out_pos = 0;
  if (conn.close_after_flush) {
    CloseConnection(conn.fd);
    return;
  }
  UpdateEpollOut(conn);
}

void ComposeServer::UpdateEpollOut(Connection& conn) {
  const bool want_out = conn.out_pos < conn.outbox.size();
  if (want_out == conn.epoll_out) return;
  conn.epoll_out = want_out;
  epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  if (want_out) ev.events |= EPOLLOUT;
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void ComposeServer::CloseConnection(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  // Unwritten outbox bytes die with the socket.
  pending_write_bytes_.fetch_sub(
      static_cast<int64_t>(it->second->outbox.size() - it->second->out_pos),
      std::memory_order_acq_rel);
  conn_fd_.erase(it->second->id);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(it);
}

void ComposeServer::DispatchLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return draining_.load() || !queue_.empty();
      });
      if (queue_.empty() && draining_.load()) return;
    }
    // Test gate: hold admitted work unpopped so a test can observe a
    // provably full queue. Ignored once the server is draining.
    if (const auto& gate = options_.admission_gate) {
      while (!draining_.load() && !gate->load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    std::vector<Admitted> batch;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      while (!queue_.empty() && batch.size() < kBatchSize) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    if (batch.empty()) {
      if (draining_.load()) return;
      continue;
    }

    // Parse here, not on the I/O thread, then submit the whole batch
    // before the first Wait: independent problems overlap in the compose
    // pool even with one dispatcher thread. Every entry runs under the
    // earlier of its queue-aging bound and the request's own end-to-end
    // deadline; Submit short-circuits entries that are already dead (stale
    // work is refused, not amplified — and costs a counter bump, not a
    // composition).
    struct Submitted {
      uint64_t conn_id;
      uint64_t request_id;
      runtime::ComposeService::Handle handle;
      common::Deadline deadline;
    };
    std::vector<Submitted> submitted;
    submitted.reserve(batch.size());
    for (Admitted& a : batch) {
      Result<ServeRequest> request = ServeRequest::Parse(
          reinterpret_cast<const uint8_t*>(a.body.data()), a.body.size());
      if (!request.ok()) {
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.protocol_errors;
        }
        PostReply(a.conn_id, ErrorFrame(a.request_id,
                                        WireStatusFrom(request.status().code()),
                                        request.status().message()));
        continue;
      }
      common::Deadline deadline;
      if (options_.queue_timeout_ms > 0) {
        deadline = common::Deadline::At(
            a.enqueued + std::chrono::milliseconds(options_.queue_timeout_ms));
      }
      if (request->deadline_ms > 0) {
        deadline = common::Deadline::Min(
            deadline,
            common::Deadline::At(a.enqueued + std::chrono::milliseconds(
                                                  request->deadline_ms)));
      }
      submitted.push_back(
          Submitted{a.conn_id, a.request_id,
                    service_->Submit(std::move(*request), deadline), deadline});
    }
    for (const Submitted& s : submitted) {
      std::string frame;
      // A false WaitUntil means the budget ran out mid-composition:
      // withdraw interest (the computation is cancelled once nobody else
      // wants it) and answer kTimeout now — the lane moves on instead of
      // babysitting a zombie. A Cancel that loses the race against
      // completion cancelled nothing, so the landed result is served
      // instead; that keeps `ServiceStats::cancelled >= timeouts` exact.
      if (!s.handle.WaitUntil(s.deadline) && s.handle.Cancel()) {
        frame = ErrorFrame(s.request_id, WireStatus::kTimeout,
                           "deadline exceeded before composition finished");
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.timeouts;
      } else {
        runtime::ServedOutcome outcome = s.handle.Wait();
        if (outcome.ok()) {
          ServeReply::AppendOkFrame(s.request_id, s.handle.cache_hit(),
                                    outcome.reply_bytes(), &frame);
        } else {
          frame = ErrorFrame(s.request_id,
                             WireStatusFrom(outcome.status().code()),
                             outcome.status().message());
          if (outcome.status().IsInterrupt()) {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.timeouts;
          }
        }
      }
      PostReply(s.conn_id, std::move(frame));
    }
  }
}

}  // namespace serve
}  // namespace mapcomp
