#include "src/serve/compose_client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>

namespace mapcomp {
namespace serve {

namespace {

/// Deterministic jitter stream (xorshift64*): cheap, seedable, and good
/// enough to decorrelate backoff — this is pacing, not cryptography.
uint64_t NextJitter(uint64_t* state) {
  uint64_t x = *state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *state = x;
  return x * 0x2545F4914F6CDD1Dull;
}

/// 50–100% of `nominal_ms`, by jitter.
int64_t JitteredMs(int64_t nominal_ms, uint64_t* state) {
  if (nominal_ms <= 1) return nominal_ms;
  int64_t half = nominal_ms / 2;
  return half + static_cast<int64_t>(NextJitter(state) %
                                     static_cast<uint64_t>(nominal_ms - half + 1));
}

uint64_t ClockSeed() {
  return static_cast<uint64_t>(
             std::chrono::steady_clock::now().time_since_epoch().count()) |
         1;  // xorshift must not start at 0
}

}  // namespace

ComposeClient::~ComposeClient() { Close(); }

void ComposeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::unique_ptr<ComposeClient>> ComposeClient::Connect(
    const std::string& host, int port, int retry_ms) {
  if (port < 1 || port > 65535) {
    return Status::InvalidArgument("port out of range [1, 65535]: " +
                                   std::to_string(port));
  }
  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  const std::string ip = (host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparseable host address: " + host);
  }

  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(retry_ms);
  uint64_t jitter = ClockSeed();
  int64_t backoff_ms = 2;
  for (;;) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Status::Internal("socket() failed");
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return std::unique_ptr<ComposeClient>(
          new ComposeClient(fd, kDefaultMaxFrameBytes));
    }
    int err = errno;
    ::close(fd);
    if (err != ECONNREFUSED ||
        std::chrono::steady_clock::now() >= deadline) {
      return Status::Internal("connect(" + ip + ":" + std::to_string(port) +
                              ") failed: " + strerror(err));
    }
    // Jittered exponential backoff, clamped to the remaining budget: a
    // fleet of clients racing one slow server start spreads out instead
    // of knocking in unison every 10ms.
    int64_t remaining_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now())
            .count();
    int64_t sleep_ms =
        std::min(JitteredMs(backoff_ms, &jitter), std::max<int64_t>(
                                                      remaining_ms, 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    backoff_ms = std::min<int64_t>(backoff_ms * 2, 200);
  }
}

Status ComposeClient::SendRaw(const std::string& bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("client is closed");
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::write(fd_, bytes.data() + sent, bytes.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("write failed: ") +
                              strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ComposeClient::Send(const ServeRequest& request) {
  std::string body;
  MAPCOMP_RETURN_IF_ERROR(request.SerializeTo(&body));
  std::string frame;
  EncodeFrame(FrameType::kRequest, body, &frame);
  return SendRaw(frame);
}

Result<ServeReply> ComposeClient::Recv() {
  if (fd_ < 0) return Status::FailedPrecondition("client is closed");
  FrameType type;
  std::string body;
  for (;;) {
    FrameDecoder::Next next = decoder_.Poll(&type, &body);
    if (next == FrameDecoder::Next::kError) {
      return Status::Internal("reply stream desynced: " + decoder_.error());
    }
    if (next == FrameDecoder::Next::kFrame) {
      if (type != FrameType::kReply) {
        return Status::Internal("unexpected non-reply frame from server");
      }
      return ServeReply::Parse(reinterpret_cast<const uint8_t*>(body.data()),
                               body.size());
    }
    char buf[65536];
    ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n == 0) {
      return Status::Internal("server closed the connection mid-reply");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("read failed: ") +
                              strerror(errno));
    }
    decoder_.Feed(reinterpret_cast<const uint8_t*>(buf),
                  static_cast<size_t>(n));
  }
}

Result<ServeReply> ComposeClient::Call(const ServeRequest& request) {
  MAPCOMP_RETURN_IF_ERROR(Send(request));
  return Recv();
}

Result<ServeReply> ComposeClient::CallWithRetry(const ServeRequest& request,
                                                const RetryPolicy& policy) {
  uint64_t jitter =
      policy.jitter_seed != 0 ? policy.jitter_seed : ClockSeed();
  int64_t slept_ms = 0;
  int64_t backoff_ms = std::max(1, policy.initial_backoff_ms);
  Result<ServeReply> reply = Call(request);
  for (int attempt = 1; attempt < policy.max_attempts; ++attempt) {
    // Only a shed reply is worth a resend; everything else (success,
    // deterministic refusals, spent deadlines, transport faults) goes
    // straight back to the caller.
    if (!reply.ok() || reply->status != WireStatus::kOverloaded) return reply;
    int64_t sleep_ms = JitteredMs(backoff_ms, &jitter);
    if (slept_ms + sleep_ms > policy.total_budget_ms) return reply;
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    slept_ms += sleep_ms;
    backoff_ms = std::min<int64_t>(backoff_ms * 2,
                                   std::max(1, policy.max_backoff_ms));
    reply = Call(request);
  }
  return reply;
}

}  // namespace serve
}  // namespace mapcomp
