#ifndef MAPCOMP_COMMON_WIRE_FORMAT_H_
#define MAPCOMP_COMMON_WIRE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mapcomp {
namespace common {

/// Byte-level primitives of the wire format, which is also the canonical
/// encoding behind every request-side Fingerprint() (Signature,
/// ComposeOptions, CompositionProblem, Mapping). Everything is little-endian,
/// strings and lists are length-prefixed (u32 count). Writing is
/// append-only into a std::string; reading is bounds-checked: every Read*
/// returns false instead of touching a byte past `len`, so a truncated or
/// hostile payload can never cause an out-of-bounds read (the ASan-gated
/// property tests feed these readers arbitrary garbage).

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

inline void PutStringList(std::string* out,
                          const std::vector<std::string>& v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  for (const std::string& s : v) PutString(out, s);
}

/// Bounds-checked sequential reader over one payload. Never throws, never
/// reads past the end; a failed read leaves the cursor unspecified and the
/// caller must abandon the payload.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  size_t remaining() const { return len_ - pos_; }
  bool AtEnd() const { return pos_ == len_; }
  /// Bytes consumed so far.
  size_t pos() const { return pos_; }

  bool Skip(size_t n) {
    if (remaining() < n) return false;
    pos_ += n;
    return true;
  }

  /// Steps over one length-prefixed string.
  bool SkipString() {
    uint32_t n = 0;
    return ReadU32(&n) && Skip(n);
  }

  bool ReadU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = data_[pos_++];
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (remaining() < 4) return false;
    uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<uint32_t>(data_[pos_ + static_cast<size_t>(i)])
             << (8 * i);
    }
    pos_ += 4;
    *v = out;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (remaining() < 8) return false;
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)])
             << (8 * i);
    }
    pos_ += 8;
    *v = out;
    return true;
  }

  bool ReadString(std::string* s) {
    uint32_t n = 0;
    if (!ReadU32(&n)) return false;
    if (remaining() < n) return false;
    s->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }

  /// List length guarded against allocation bombs: a 4-byte payload can
  /// claim 2^32 elements, so reserve only what the remaining bytes could
  /// possibly hold (each element costs at least its 4-byte length prefix).
  bool ReadStringList(std::vector<std::string>* v) {
    uint32_t n = 0;
    if (!ReadU32(&n)) return false;
    if (static_cast<size_t>(n) > remaining() / 4 + 1) return false;
    v->clear();
    v->reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      std::string s;
      if (!ReadString(&s)) return false;
      v->push_back(std::move(s));
    }
    return true;
  }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace common
}  // namespace mapcomp

#endif  // MAPCOMP_COMMON_WIRE_FORMAT_H_
