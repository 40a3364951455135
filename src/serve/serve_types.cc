#include "src/serve/serve_types.h"

#include <utility>

#include "src/common/wire_format.h"
#include "src/parser/parser.h"
#include "src/serve/protocol.h"

namespace mapcomp {
namespace serve {

namespace {

bool ReadBool(common::WireReader* r, bool* v) {
  uint8_t b = 0;
  if (!r->ReadU8(&b) || b > 1) return false;
  *v = (b == 1);
  return true;
}

Status Invalid(const char* what) {
  return Status::InvalidArgument(std::string("wire parse: ") + what);
}

/// Reads what precedes the problem section: request_id, options, name.
Status ReadHead(common::WireReader* r, ServeRequest* out) {
  if (!r->ReadU64(&out->request_id)) return Invalid("truncated request id");
  if (!ReadBool(r, &out->has_options)) return Invalid("bad options flag");
  if (out->has_options) {
    ComposeOptions& options = out->options;
    if (!ReadBool(r, &options.eliminate.enable_unfold) ||
        !ReadBool(r, &options.eliminate.enable_left_compose) ||
        !ReadBool(r, &options.eliminate.enable_right_compose)) {
      return Invalid("bad eliminate switches");
    }
    uint32_t blowup = 0;
    if (!r->ReadU32(&blowup) || blowup == 0 || blowup > (1u << 20)) {
      return Invalid("bad blowup factor");
    }
    options.eliminate.max_blowup_factor = static_cast<int>(blowup);
    uint8_t has_keys = 0;
    if (!r->ReadU8(&has_keys) || has_keys > 1) return Invalid("bad keys flag");
    if (has_keys) {
      Signature keys;
      if (!Signature::ReadFrom(r, &keys)) return Invalid("bad keys signature");
      out->owned_keys = std::make_shared<const Signature>(std::move(keys));
      options.eliminate.keys = out->owned_keys.get();
    }
    if (!r->ReadStringList(&options.order)) {
      return Invalid("bad elimination order option");
    }
    if (!ReadBool(r, &options.simplify_output)) {
      return Invalid("bad simplify flag");
    }
    uint32_t rounds = 0;
    if (!r->ReadU32(&rounds) || rounds == 0 || rounds > (1u << 16)) {
      return Invalid("bad max_rounds");
    }
    options.max_rounds = static_cast<int>(rounds);
  }
  if (!r->ReadString(&out->problem.name)) return Invalid("bad problem name");
  return Status::OK();
}

}  // namespace

Status ServeRequest::SerializeTo(std::string* out) const {
  if (has_options) {
    if (options.eliminate.registry != &op::Registry::Default()) {
      return Status::Unsupported(
          "a non-default operator registry is process-local and cannot "
          "cross the wire");
    }
    if (options.eliminate.blowup_baseline_ops != 0) {
      return Status::Unsupported(
          "blowup_baseline_ops is set by Compose for each elimination and "
          "is not a wire option");
    }
  }
  common::PutU64(out, request_id);
  common::PutU8(out, has_options ? 1 : 0);
  if (has_options) options.AppendWireFieldsTo(out);
  common::PutString(out, problem.name);
  problem.AppendTo(out);
  // Optional trailing field: written only when set, so a deadline-less
  // request ends with its problem.
  if (deadline_ms > 0) common::PutU32(out, deadline_ms);
  return Status::OK();
}

std::string ServeRequest::CacheKey(const ComposeOptions& resolved) const {
  std::string key;
  resolved.AppendTo(&key);
  problem.AppendTo(&key);
  return key;
}

Result<ServeRequest> ServeRequest::Parse(const uint8_t* data, size_t len) {
  common::WireReader r(data, len);
  ServeRequest out;
  MAPCOMP_RETURN_IF_ERROR(ReadHead(&r, &out));
  if (!Signature::ReadFrom(&r, &out.problem.sigma1) ||
      !Signature::ReadFrom(&r, &out.problem.sigma2) ||
      !Signature::ReadFrom(&r, &out.problem.sigma3)) {
    return Invalid("bad signature");
  }
  std::string sigma12_text, sigma23_text;
  if (!r.ReadString(&sigma12_text) || !r.ReadString(&sigma23_text)) {
    return Invalid("truncated constraint text");
  }
  Result<Signature> sig12 =
      Signature::Merge(out.problem.sigma1, out.problem.sigma2);
  if (!sig12.ok()) return Invalid("sigma1/sigma2 merge conflict");
  Result<Signature> sig23 =
      Signature::Merge(out.problem.sigma2, out.problem.sigma3);
  if (!sig23.ok()) return Invalid("sigma2/sigma3 merge conflict");
  // The parser rejects empty text, but an empty Σ is a legal (vacuous)
  // constraint set and must round-trip.
  Parser parser;
  if (!sigma12_text.empty()) {
    Result<ConstraintSet> cs12 = parser.ParseConstraints(sigma12_text, *sig12);
    if (!cs12.ok()) {
      return Invalid("unparseable sigma12 constraints");
    }
    out.problem.sigma12 = std::move(*cs12);
  }
  if (!sigma23_text.empty()) {
    Result<ConstraintSet> cs23 = parser.ParseConstraints(sigma23_text, *sig23);
    if (!cs23.ok()) {
      return Invalid("unparseable sigma23 constraints");
    }
    out.problem.sigma23 = std::move(*cs23);
  }
  if (!r.ReadStringList(&out.problem.elimination_order)) {
    return Invalid("bad elimination order");
  }
  if (!r.AtEnd()) {
    // Optional trailing deadline. Zero must travel as absence — one
    // canonical byte image per value — so a present zero is hostile input.
    if (!r.ReadU32(&out.deadline_ms) || out.deadline_ms == 0) {
      return Invalid("bad deadline field");
    }
    if (!r.AtEnd()) return Invalid("trailing bytes after request");
  }
  out.parsed_ = true;
  return out;
}

RequestEnvelope RequestEnvelope::Walk(const uint8_t* data, size_t len,
                                      const ComposeOptions& defaults) {
  common::WireReader r(data, len);
  ServeRequest head;
  RequestEnvelope out;
  out.status = ReadHead(&r, &head);
  out.request_id = head.request_id;
  const size_t begin = r.pos();
  std::vector<std::string> order;
  uint32_t deadline_ms = 0;
  if (!out.status.ok() || !Signature::SkipOver(&r) ||
      !Signature::SkipOver(&r) || !Signature::SkipOver(&r) ||
      !r.SkipString() || !r.SkipString() || !r.ReadStringList(&order)) {
    return out;
  }
  const size_t end = r.pos();
  if (!r.AtEnd() && (r.remaining() != 4 || !r.ReadU32(&deadline_ms) ||
                     deadline_ms == 0)) {
    return out;  // the deadline as Parse checks it
  }
  out.key.reserve(64 + (end - begin));  // the options key is ~40 bytes
  (head.has_options ? head.options : defaults).AppendTo(&out.key);
  out.key.append(reinterpret_cast<const char*>(data) + begin, end - begin);
  return out;
}

void ServeReply::SerializeTo(std::string* out) const {
  common::PutU64(out, request_id);
  common::PutU8(out, static_cast<uint8_t>(status));
  common::PutString(out, message);
  common::PutU8(out, cache_hit ? 1 : 0);
  if (status == WireStatus::kOk) SerializeResultTo(result, out);
}

void ServeReply::SerializeResultTo(const runtime::ServedResult& result,
                                   std::string* out) {
  result.sigma.AppendTo(out);
  common::PutStringList(out, result.residual_sigma2);
  common::PutString(out, ConstraintSetToString(result.constraints));
  common::PutStringList(out, result.warnings);
  common::PutU32(out, static_cast<uint32_t>(result.eliminated_count));
  common::PutU32(out, static_cast<uint32_t>(result.total_count));
  common::PutString(out, result.fingerprint);
}

void ServeReply::AppendOkFrame(uint64_t request_id, bool cache_hit,
                               const std::string& result_bytes,
                               std::string* out) {
  // request_id, status, empty message, cache_hit — SerializeTo's head.
  constexpr size_t kHeadBytes = 8 + 1 + 4 + 1;
  AppendFrameHeader(FrameType::kReply, kHeadBytes + result_bytes.size(), out);
  common::PutU64(out, request_id);
  common::PutU8(out, static_cast<uint8_t>(WireStatus::kOk));
  common::PutU32(out, 0);
  common::PutU8(out, cache_hit ? 1 : 0);
  out->append(result_bytes);
}

Result<ServeReply> ServeReply::Parse(const uint8_t* data, size_t len) {
  common::WireReader r(data, len);
  ServeReply out;
  if (!r.ReadU64(&out.request_id)) return Invalid("truncated reply id");
  uint8_t raw_status = 0;
  if (!r.ReadU8(&raw_status) || !IsValidWireStatus(raw_status)) {
    return Invalid("unknown wire status");
  }
  out.status = static_cast<WireStatus>(raw_status);
  if (!r.ReadString(&out.message)) return Invalid("bad reply message");
  if (!ReadBool(&r, &out.cache_hit)) return Invalid("bad cache-hit flag");
  if (out.status != WireStatus::kOk) {
    if (!r.AtEnd()) return Invalid("trailing bytes after error reply");
    return out;
  }
  if (!Signature::ReadFrom(&r, &out.result.sigma)) return Invalid("bad sigma");
  if (!r.ReadStringList(&out.result.residual_sigma2)) {
    return Invalid("bad residual list");
  }
  std::string constraints_text;
  if (!r.ReadString(&constraints_text)) {
    return Invalid("truncated constraint text");
  }
  if (!constraints_text.empty()) {
    Parser parser;
    Result<ConstraintSet> cs =
        parser.ParseConstraints(constraints_text, out.result.sigma);
    if (!cs.ok()) return Invalid("unparseable result constraints");
    out.result.constraints = std::move(*cs);
  }
  if (!r.ReadStringList(&out.result.warnings)) return Invalid("bad warnings");
  uint32_t eliminated = 0, total = 0;
  if (!r.ReadU32(&eliminated) || !r.ReadU32(&total)) {
    return Invalid("truncated counters");
  }
  out.result.eliminated_count = static_cast<int>(eliminated);
  out.result.total_count = static_cast<int>(total);
  if (!r.ReadString(&out.result.fingerprint)) return Invalid("bad fingerprint");
  if (!r.AtEnd()) return Invalid("trailing bytes after reply");
  return out;
}

}  // namespace serve
}  // namespace mapcomp
