#ifndef MAPCOMP_SERVE_PROTOCOL_H_
#define MAPCOMP_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace mapcomp {
namespace serve {

/// Frame layout (little-endian):
///
///   u32 payload_len               -- bytes after this field, >= 4
///   u8  magic0 = 'M'
///   u8  magic1 = 'C'
///   u8  version = kWireVersion
///   u8  type    = FrameType
///   [payload_len - 4 bytes]       -- ServeRequest / ServeReply body
///
/// The length prefix is what makes the stream recoverable without
/// lookahead; the magic+version header is what makes a mis-speaking peer
/// (wrong port, wrong protocol, wrong build) a clean one-frame error
/// instead of a silent desync. payload_len is bounded by the decoder's
/// max_frame_bytes — an oversized claim is rejected *before* any
/// allocation, so a 4-byte header cannot demand a 4 GiB buffer.

inline constexpr uint8_t kWireMagic0 = 'M';
inline constexpr uint8_t kWireMagic1 = 'C';
inline constexpr uint8_t kWireVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 4;  // magic+version+type
inline constexpr size_t kDefaultMaxFrameBytes = 16u << 20;

enum class FrameType : uint8_t {
  kRequest = 1,
  kReply = 2,
};

/// Appends one complete frame (length prefix + header + body) to `out`.
void EncodeFrame(FrameType type, const std::string& body, std::string* out);

/// Appends the length prefix and header of a frame whose `body_len` body
/// bytes the caller appends next.
void AppendFrameHeader(FrameType type, size_t body_len, std::string* out);

/// Incremental stream decoder: feed whatever bytes arrived, poll for
/// complete frames. Tolerates arbitrary fragmentation (byte-by-byte feeds
/// included). On any protocol violation — oversized length claim, bad
/// magic, unknown version or frame type, undersized payload — it latches
/// into an error state and stays there: a desynced stream cannot be
/// re-trusted, the connection must be closed.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Feed(const uint8_t* data, size_t len) {
    buf_.append(reinterpret_cast<const char*>(data), len);
  }
  void Feed(const std::string& data) {
    buf_.append(data);
  }

  enum class Next {
    kFrame,     ///< *type/*body hold one complete frame
    kNeedMore,  ///< no complete frame buffered yet
    kError,     ///< protocol violation; error() says what
  };

  Next Poll(FrameType* type, std::string* body);

  bool errored() const { return errored_; }
  const std::string& error() const { return error_; }

  /// Bytes buffered but not yet consumed as frames.
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  Next Fail(const std::string& what) {
    errored_ = true;
    error_ = what;
    return Next::kError;
  }

  const size_t max_frame_bytes_;
  std::string buf_;
  size_t pos_ = 0;
  bool errored_ = false;
  std::string error_;
};

}  // namespace serve
}  // namespace mapcomp

#endif  // MAPCOMP_SERVE_PROTOCOL_H_
