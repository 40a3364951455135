#include "src/serve/protocol.h"

#include "src/common/wire_format.h"

namespace mapcomp {
namespace serve {

void EncodeFrame(FrameType type, const std::string& body, std::string* out) {
  AppendFrameHeader(type, body.size(), out);
  out->append(body);
}

void AppendFrameHeader(FrameType type, size_t body_len, std::string* out) {
  common::PutU32(out, static_cast<uint32_t>(kFrameHeaderBytes + body_len));
  common::PutU8(out, kWireMagic0);
  common::PutU8(out, kWireMagic1);
  common::PutU8(out, kWireVersion);
  common::PutU8(out, static_cast<uint8_t>(type));
}

FrameDecoder::Next FrameDecoder::Poll(FrameType* type, std::string* body) {
  if (errored_) return Next::kError;
  if (buf_.size() - pos_ < 4) return Next::kNeedMore;
  const uint8_t* base = reinterpret_cast<const uint8_t*>(buf_.data()) + pos_;
  uint32_t payload_len = 0;
  for (int i = 0; i < 4; ++i) {
    payload_len |= static_cast<uint32_t>(base[i]) << (8 * i);
  }
  if (payload_len < kFrameHeaderBytes) {
    return Fail("frame shorter than its header");
  }
  if (payload_len > max_frame_bytes_) {
    return Fail("frame exceeds max_frame_bytes (" +
                std::to_string(payload_len) + " > " +
                std::to_string(max_frame_bytes_) + ")");
  }
  if (buf_.size() - pos_ < 4 + static_cast<size_t>(payload_len)) {
    return Next::kNeedMore;
  }
  const uint8_t* payload = base + 4;
  if (payload[0] != kWireMagic0 || payload[1] != kWireMagic1) {
    return Fail("bad frame magic");
  }
  if (payload[2] != kWireVersion) {
    return Fail("unsupported wire version " + std::to_string(payload[2]));
  }
  if (payload[3] != static_cast<uint8_t>(FrameType::kRequest) &&
      payload[3] != static_cast<uint8_t>(FrameType::kReply)) {
    return Fail("unknown frame type " + std::to_string(payload[3]));
  }
  *type = static_cast<FrameType>(payload[3]);
  body->assign(reinterpret_cast<const char*>(payload + kFrameHeaderBytes),
               payload_len - kFrameHeaderBytes);
  pos_ += 4 + static_cast<size_t>(payload_len);
  // Compact once the consumed prefix dominates, so a long-lived
  // connection's buffer stays proportional to its unread tail.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return Next::kFrame;
}

}  // namespace serve
}  // namespace mapcomp
