#ifndef MAPCOMP_SERVE_SERVE_TYPES_H_
#define MAPCOMP_SERVE_SERVE_TYPES_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/compose/compose.h"
#include "src/runtime/served_result.h"
#include "src/serve/wire_status.h"

namespace mapcomp {
namespace serve {

/// One composition request, as a value. This is the single submission
/// currency of the serving path: runtime::ComposeService::Submit takes a
/// ServeRequest, and the wire protocol carries exactly this type's
/// canonical byte serialization — the in-process path and the network path
/// serve the same value, so they cannot drift apart.
///
/// Serialization (SerializeTo/Parse) is canonical and versioned at the
/// frame layer: parse(serialize(r)) reproduces r byte-identically
/// (serialize(parse(bytes)) == bytes), which the ASan-gated property tests
/// pin. The options and problem sections are ComposeOptions::
/// AppendWireFieldsTo and CompositionProblem::AppendTo — the same bytes as
/// their Fingerprint()s. Constraint sets travel in the parser's text syntax
/// (the printer is canonical — print∘parse is identity, pinned by
/// roundtrip_fuzz_test), so relation names that contain expression syntax
/// don't survive the text leg and are rejected at parse time.
struct ServeRequest {
  /// Client-chosen correlation id, echoed verbatim in the reply. Replies
  /// on one connection may arrive out of submission order (cache bypass
  /// overtakes queued work); this id is how a pipelining client matches
  /// them. Not part of any cache key.
  uint64_t request_id = 0;

  CompositionProblem problem;

  /// When false the service composes under its own default options.
  bool has_options = false;
  /// Read only when has_options. On the wire this carries the wire-safe
  /// subset: the eliminate switches and blowup budget, a keys signature by
  /// content, the order, simplify_output and max_rounds. Not serialized:
  /// blowup_baseline_ops (Compose sets it for each elimination) and a
  /// non-default registry (process-local identity; SerializeTo
  /// rejects it with kUnsupported).
  ComposeOptions options;

  /// Backing storage for options.eliminate.keys after Parse (the library
  /// type holds a borrowed pointer; a parsed request must own its keys).
  /// Shared, so copying a ServeRequest keeps the pointer valid.
  std::shared_ptr<const Signature> owned_keys;

  /// End-to-end budget in milliseconds, measured by the server from the
  /// request's arrival; 0 = unbounded. The server submits the composition
  /// under min(arrival + deadline_ms, queue-aging bound), so an expired
  /// budget answers kTimeout instead of burning pool time. On the wire
  /// this is an OPTIONAL trailing u32: a request without one ends with its
  /// problem, and a present-but-zero field is rejected at parse
  /// time so every value has exactly one canonical serialization. Not part
  /// of any cache key — it names urgency, not the computation.
  uint32_t deadline_ms = 0;

  static ServeRequest Of(CompositionProblem p, uint64_t id = 0) {
    ServeRequest out;
    out.request_id = id;
    out.problem = std::move(p);
    return out;
  }

  static ServeRequest WithOptions(CompositionProblem p, ComposeOptions opts,
                                  uint64_t id = 0) {
    ServeRequest out;
    out.request_id = id;
    out.problem = std::move(p);
    out.has_options = true;
    out.options = std::move(opts);
    return out;
  }

  /// Appends the canonical body bytes. Fails with kUnsupported when the
  /// carried options cannot cross a process boundary (non-default
  /// registry, preset blowup baseline) — in-process submission still works
  /// for such requests, they just cannot be shipped.
  Status SerializeTo(std::string* out) const;

  /// The result-cache key under `resolved` options:
  /// resolved.Fingerprint() + problem.Fingerprint().
  std::string CacheKey(const ComposeOptions& resolved) const;

  /// Parses one body. Hostile input is safe: every read is bounds-checked,
  /// structural invariants (bool bytes ∈ {0,1}, max_rounds ≥ 1, valid
  /// signatures, parseable constraint text, no trailing bytes) are
  /// enforced, and any violation is a clean kInvalidArgument.
  static Result<ServeRequest> Parse(const uint8_t* data, size_t len);

  /// True only on a value built by Parse: its cache entry is `wire_ok`.
  bool parsed() const { return parsed_; }

 private:
  bool parsed_ = false;
};

/// A raw request body as the server's I/O thread sees it. Walk checks
/// request_id, the options and the name exactly as Parse does; the problem
/// section is skipped, never parsed — a cache entry's `wire_ok` mark
/// vouches for those bytes, as Parse depends on nothing else.
struct RequestEnvelope {
  uint64_t request_id = 0;  ///< 0 when the body is shorter than the id
  Status status;            ///< Parse's refusal of the head, if any
  /// Parse(body)->CacheKey(resolved options) for a canonical body; empty
  /// when the bytes after the problem section are malformed.
  std::string key;

  /// `defaults` stand in for the options of an options-less body.
  static RequestEnvelope Walk(const uint8_t* data, size_t len,
                              const ComposeOptions& defaults);
};

/// One composition reply, as a value — the wire image of a served
/// computation. `status` is the only field a client needs to branch on;
/// `result` is meaningful only when status == kOk.
struct ServeReply {
  uint64_t request_id = 0;
  WireStatus status = WireStatus::kOk;
  /// Human-readable error detail; empty on kOk. Diagnostic only — the
  /// classification a client acts on is `status` (no stringly-typed
  /// errors cross the wire).
  std::string message;
  /// True when the serving tier answered from the result cache (probe
  /// bypass or in-flight join) rather than a fresh composition.
  bool cache_hit = false;
  runtime::ServedResult result;

  static ServeReply OkReply(uint64_t id, runtime::ServedResult res,
                            bool hit) {
    ServeReply out;
    out.request_id = id;
    out.cache_hit = hit;
    out.result = std::move(res);
    return out;
  }

  static ServeReply ErrorReply(uint64_t id, WireStatus status,
                               std::string msg) {
    ServeReply out;
    out.request_id = id;
    out.status = status;
    out.message = std::move(msg);
    return out;
  }

  /// Appends the canonical body bytes (total — replies always serialize).
  void SerializeTo(std::string* out) const;

  /// Appends the part of a kOk body after cache_hit (the result image).
  static void SerializeResultTo(const runtime::ServedResult& result,
                                std::string* out);
  /// Appends the kOk reply frame whose body ends in `result_bytes`.
  static void AppendOkFrame(uint64_t request_id, bool cache_hit,
                            const std::string& result_bytes,
                            std::string* out);

  /// Same hostile-input guarantees as ServeRequest::Parse.
  static Result<ServeReply> Parse(const uint8_t* data, size_t len);
};

}  // namespace serve
}  // namespace mapcomp

#endif  // MAPCOMP_SERVE_SERVE_TYPES_H_
