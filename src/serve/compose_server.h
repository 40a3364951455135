#ifndef MAPCOMP_SERVE_COMPOSE_SERVER_H_
#define MAPCOMP_SERVE_COMPOSE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/runtime/compose_service.h"
#include "src/serve/protocol.h"
#include "src/serve/serve_types.h"

namespace mapcomp {
namespace serve {

struct ServerOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (read it back via
  /// port() after Start).
  int port = 0;
  /// Per-connection frame size bound (both directions).
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Bounded admission queue: request bodies waiting for a dispatcher.
  /// When full, new requests are shed with an immediate kOverloaded reply —
  /// never silently dropped, never queued unboundedly.
  size_t admission_capacity = 256;
  /// Threads that pop admitted requests, parse them, Submit them to the
  /// service, and Wait for results. They are service *clients* (allowed
  /// to block), so
  /// they must stay distinct from the GlobalPool that computes.
  int dispatch_threads = 2;
  /// When > 0, a request that waited in the admission queue longer than
  /// this is answered kTimeout instead of being composed — stale work is
  /// refused, not amplified. The bound keeps following admitted work: a
  /// request whose composition is still running when the bound passes is
  /// cancelled (Handle::Cancel) and answered kTimeout immediately — the
  /// dispatcher lane is freed and the abandoned computation unwinds
  /// cooperatively instead of running as a zombie.
  int queue_timeout_ms = 0;
  /// Test hook: when set, dispatchers refuse to pop while *admission_gate
  /// is false. Lets a test hold the queue provably full (overload
  /// behavior) without racing against dispatch speed.
  std::shared_ptr<std::atomic<bool>> admission_gate;
};

/// Point-in-time counters of a ComposeServer.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t requests_parsed = 0;   ///< requests accepted, hit or miss
  uint64_t replies_sent = 0;      ///< reply frames fully written
  uint64_t sheds = 0;             ///< kOverloaded replies (queue full)
  uint64_t timeouts = 0;          ///< kTimeout replies (aged out in the
                                  ///< queue or budget exhausted
                                  ///< mid-composition)
  uint64_t cache_bypass = 0;      ///< requests served by the admission
                                  ///< probe without entering the queue
  uint64_t protocol_errors = 0;   ///< framing/parse violations
  uint64_t queue_depth_watermark = 0;  ///< max admission-queue depth seen
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  std::string ToString() const;
};

/// Network front end for a runtime::ComposeService: one epoll I/O thread
/// owns every socket (accept, read, frame-decode, reply-write) and never
/// parses: it probes the service cache on the body's raw key bytes
/// (RequestEnvelope) and answers a hit with the entry's stored reply
/// bytes — hot traffic never queues. A miss enqueues the raw body into a
/// bounded queue drained by dispatcher threads, which parse and batch
/// Submits into the service. Backpressure is explicit: a full queue sheds
/// with an immediate kOverloaded reply.
///
/// Framing errors (bad magic/version/length) poison the stream and close
/// the connection after a best-effort error reply; a well-framed but
/// malformed body is answered kInvalidArgument and the connection stays
/// usable — the length prefix keeps the stream in sync.
class ComposeServer {
 public:
  ComposeServer(runtime::ComposeService* service, ServerOptions options);
  ~ComposeServer();

  ComposeServer(const ComposeServer&) = delete;
  ComposeServer& operator=(const ComposeServer&) = delete;

  /// Binds, listens, and starts the I/O + dispatcher threads.
  Status Start();
  /// Stops accepting, joins all threads, closes every connection. Safe to
  /// call twice; called by the destructor.
  void Stop();

  /// The bound port (after Start); useful with options.port == 0.
  int port() const { return port_; }

  ServerStats Stats() const;

 private:
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    FrameDecoder decoder;
    std::string outbox;
    size_t out_pos = 0;
    bool close_after_flush = false;
    bool epoll_out = false;  ///< EPOLLOUT currently registered
    explicit Connection(size_t max_frame) : decoder(max_frame) {}
  };

  struct Admitted {
    uint64_t conn_id = 0;
    uint64_t request_id = 0;
    std::string body;  ///< unparsed; the dispatcher runs ServeRequest::Parse
    std::chrono::steady_clock::time_point enqueued;
  };

  void IoLoop();
  void DispatchLoop();
  void AcceptNew();
  void HandleReadable(Connection& conn);
  void HandleWritable(Connection& conn);
  /// Queues this body's reply or admits it; never writes or closes.
  void OnFrame(Connection& conn, std::string body);
  void QueueError(Connection& conn, uint64_t request_id, WireStatus status,
                  const std::string& message);
  /// Cross-thread reply path: dispatchers stage bytes here and poke the
  /// wake pipe; the I/O thread moves them into the connection outbox.
  void PostReply(uint64_t conn_id, std::string frame);
  void CloseConnection(int fd);
  /// Calls epoll_ctl only when the EPOLLOUT interest changes.
  void UpdateEpollOut(Connection& conn);

  runtime::ComposeService* const service_;
  const ServerOptions options_;
  int port_ = 0;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // [0] read end (epoll), [1] write end

  std::atomic<bool> running_{false};
  /// Drain phase of Stop(): no new connections or admissions (fresh frames
  /// are shed kOverloaded), while dispatchers answer what was already
  /// admitted and the I/O thread keeps flushing replies. `running_` stays
  /// true until the drain completes, so no accepted request is silently
  /// dropped between admission and reply.
  std::atomic<bool> draining_{false};
  /// Reply bytes staged (inbox + outboxes) but not yet written to a
  /// socket; Stop() polls this to zero (or the drain deadline) before
  /// closing.
  std::atomic<int64_t> pending_write_bytes_{0};
  /// Reply bytes written while the kSocketResetAfterNBytes fault is armed
  /// (I/O-thread only).
  uint64_t faulted_bytes_ = 0;
  std::thread io_thread_;
  std::vector<std::thread> dispatchers_;

  // I/O-thread-only state (no lock needed).
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  std::unordered_map<uint64_t, int> conn_fd_;
  uint64_t next_conn_id_ = 0;

  // Admission queue (I/O thread pushes, dispatchers pop).
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Admitted> queue_;

  // Replies staged by dispatchers for the I/O thread.
  std::mutex inbox_mu_;
  std::vector<std::pair<uint64_t, std::string>> reply_inbox_;

  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace serve
}  // namespace mapcomp

#endif  // MAPCOMP_SERVE_COMPOSE_SERVER_H_
