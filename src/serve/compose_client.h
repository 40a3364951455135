#ifndef MAPCOMP_SERVE_COMPOSE_CLIENT_H_
#define MAPCOMP_SERVE_COMPOSE_CLIENT_H_

#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/serve/protocol.h"
#include "src/serve/serve_types.h"

namespace mapcomp {
namespace serve {

/// How CallWithRetry paces itself. Backoff is exponential with
/// deterministic multiplicative jitter (an xorshift stream, seedable for
/// reproducible tests): attempt n sleeps 50–100% of
/// min(initial_backoff_ms << n, max_backoff_ms), so a herd of clients
/// shed by the same overloaded server decorrelates instead of
/// re-stampeding in lockstep. Both the attempt count and the total sleep
/// budget cap the loop — whichever runs out first ends it.
struct RetryPolicy {
  int max_attempts = 4;        ///< total tries, including the first
  int initial_backoff_ms = 5;  ///< nominal first backoff
  int max_backoff_ms = 200;    ///< nominal backoff ceiling
  int total_budget_ms = 2000;  ///< hard cap on cumulative sleep
  uint64_t jitter_seed = 0;    ///< 0 = seed from the monotonic clock
};

/// Blocking client for one ComposeServer connection. Send/Recv are split
/// so callers can pipeline: many Sends first, then collect replies — the
/// request_id correlates them (the server may interleave shed replies
/// ahead of composed ones). Call() is the one-shot convenience.
///
/// Not thread-safe; one client per thread (connections are cheap).
class ComposeClient {
 public:
  ~ComposeClient();
  ComposeClient(const ComposeClient&) = delete;
  ComposeClient& operator=(const ComposeClient&) = delete;

  /// Connects to host:port. Retries ECONNREFUSED with jittered
  /// exponential backoff until `retry_ms` elapses in total (covers the
  /// race of a client starting before the server's listen — the CI
  /// loopback smoke depends on this — without hammering a struggling
  /// endpoint at a fixed cadence). host may be a dotted quad or
  /// "localhost"; a port outside [1, 65535] is kInvalidArgument before
  /// any socket is opened.
  static Result<std::unique_ptr<ComposeClient>> Connect(
      const std::string& host, int port, int retry_ms = 2000);

  /// Serializes and writes one request frame.
  Status Send(const ServeRequest& request);
  /// Blocks until one complete reply frame arrives and parses it.
  Result<ServeReply> Recv();
  /// Send + Recv.
  Result<ServeReply> Call(const ServeRequest& request);
  /// Call, retrying ONLY kOverloaded replies under `policy`. kOverloaded
  /// is the one verdict that promises "never admitted, safe to resend";
  /// kTimeout means the deadline budget is already spent, kCancelled that
  /// someone upstream gave up, and transport errors leave the stream in
  /// an unknown state (this client is connection-oriented; reconnect to
  /// retry those) — all surface to the caller unchanged, after zero
  /// resends. The wire-status append that split kOverloaded from
  /// kResourceExhausted/kTimeout is precisely what makes this policy
  /// implementable client-side.
  Result<ServeReply> CallWithRetry(const ServeRequest& request,
                                   const RetryPolicy& policy = {});

  /// Writes raw bytes as-is — test/bench hook for speaking garbage at the
  /// server.
  Status SendRaw(const std::string& bytes);

  void Close();
  int fd() const { return fd_; }

 private:
  ComposeClient(int fd, size_t max_frame_bytes)
      : fd_(fd), decoder_(max_frame_bytes) {}

  int fd_ = -1;
  FrameDecoder decoder_;
};

}  // namespace serve
}  // namespace mapcomp

#endif  // MAPCOMP_SERVE_COMPOSE_CLIENT_H_
