// Wire-protocol pinning tests: canonical byte round trips for
// ServeRequest/ServeReply (serialize→parse→serialize is byte-identical),
// the pinned WireStatus numeric values and total StatusCode mapping,
// FrameDecoder behavior under fragmentation and hostile input,
// hostile-body parsing (every violation a clean kInvalidArgument, never an
// out-of-bounds read), and the raw-byte cache key: the envelope walk's key
// equals the parsed request's, and a server that probes raw bytes first
// answers every body exactly as parse-then-probe does. The cache key is
// the options' and problem's Fingerprint() bytes, and a signature reads
// back from its own. The ASan, TSan and UBSan CI jobs execute this file.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/algebra/builders.h"
#include "src/common/wire_format.h"
#include "src/parser/parser.h"
#include "src/runtime/compose_service.h"
#include "src/serve/compose_client.h"
#include "src/serve/compose_server.h"
#include "src/serve/protocol.h"
#include "src/serve/serve_types.h"
#include "src/serve/wire_status.h"
#include "src/simulator/scenarios.h"
#include "src/testdata/literature_suite.h"

namespace mapcomp {
namespace serve {
namespace {

// ---------------------------------------------------------------------------
// WireStatus: the numeric values ARE the protocol.

TEST(WireStatusTest, NumericValuesArePinned) {
  // Renumbering any of these is a wire break; only appending is legal.
  EXPECT_EQ(static_cast<uint8_t>(WireStatus::kOk), 0);
  EXPECT_EQ(static_cast<uint8_t>(WireStatus::kInvalidArgument), 1);
  EXPECT_EQ(static_cast<uint8_t>(WireStatus::kNotFound), 2);
  EXPECT_EQ(static_cast<uint8_t>(WireStatus::kUnsupported), 3);
  EXPECT_EQ(static_cast<uint8_t>(WireStatus::kFailedPrecondition), 4);
  EXPECT_EQ(static_cast<uint8_t>(WireStatus::kOverloaded), 5);
  EXPECT_EQ(static_cast<uint8_t>(WireStatus::kTimeout), 6);
  EXPECT_EQ(static_cast<uint8_t>(WireStatus::kInternal), 7);
  EXPECT_EQ(static_cast<uint8_t>(WireStatus::kResourceExhausted), 8);
  EXPECT_EQ(static_cast<uint8_t>(WireStatus::kCancelled), 9);
}

TEST(WireStatusTest, MappingFromStatusCodeIsTotalAndPinned) {
  EXPECT_EQ(WireStatusFrom(StatusCode::kOk), WireStatus::kOk);
  EXPECT_EQ(WireStatusFrom(StatusCode::kInvalidArgument),
            WireStatus::kInvalidArgument);
  EXPECT_EQ(WireStatusFrom(StatusCode::kNotFound), WireStatus::kNotFound);
  EXPECT_EQ(WireStatusFrom(StatusCode::kUnsupported),
            WireStatus::kUnsupported);
  EXPECT_EQ(WireStatusFrom(StatusCode::kFailedPrecondition),
            WireStatus::kFailedPrecondition);
  EXPECT_EQ(WireStatusFrom(StatusCode::kResourceExhausted),
            WireStatus::kResourceExhausted);
  EXPECT_EQ(WireStatusFrom(StatusCode::kInternal), WireStatus::kInternal);
  EXPECT_EQ(WireStatusFrom(StatusCode::kOverloaded), WireStatus::kOverloaded);
  EXPECT_EQ(WireStatusFrom(StatusCode::kDeadlineExceeded),
            WireStatus::kTimeout);
  EXPECT_EQ(WireStatusFrom(StatusCode::kCancelled), WireStatus::kCancelled);
}

TEST(WireStatusTest, InverseIsIdentityForEveryCode) {
  // Since the append of kResourceExhausted/kCancelled nothing collapses
  // any more: a client reconstructs exactly the StatusCode the server
  // classified (kTimeout ↔ kDeadlineExceeded is a renaming, not a merge),
  // which is what makes a retry-on-kOverloaded-only policy possible.
  for (uint8_t raw = 0; raw <= 9; ++raw) {
    ASSERT_TRUE(IsValidWireStatus(raw));
    WireStatus ws = static_cast<WireStatus>(raw);
    EXPECT_EQ(WireStatusFrom(StatusCodeFrom(ws)), ws);
  }
  EXPECT_FALSE(IsValidWireStatus(10));
  EXPECT_FALSE(IsValidWireStatus(255));
}

TEST(WireStatusTest, EveryValueHasAName) {
  for (uint8_t raw = 0; raw <= 9; ++raw) {
    EXPECT_STRNE(WireStatusName(static_cast<WireStatus>(raw)), "");
  }
}

// ---------------------------------------------------------------------------
// Canonical round trips.

std::vector<ServeRequest> SampleRequests() {
  std::vector<ServeRequest> out;
  out.push_back(ServeRequest::Of(sim::BuildFanoutProblem(3), 1));
  out.push_back(
      ServeRequest::Of(sim::BuildFanoutProblem(6, /*chain_overlap=*/true),
                       0xFFFFFFFFFFFFFFFFull));

  ComposeOptions opts;
  opts.simplify_output = false;
  opts.eliminate.max_blowup_factor = 7;
  out.push_back(
      ServeRequest::WithOptions(sim::BuildFanoutProblem(4), opts, 42));

  // An elimination order plus non-default rounds.
  CompositionProblem ordered = sim::BuildFanoutProblem(3);
  ordered.elimination_order = {"S3", "S1", "S2"};
  ComposeOptions opts2;
  opts2.max_rounds = 5;
  opts2.eliminate.enable_unfold = false;
  out.push_back(ServeRequest::WithOptions(std::move(ordered), opts2, 7));

  // Options carrying a keys signature by content.
  ComposeOptions keyed;
  Signature keys;
  keys.AddOrReplaceRelation("S1", 2);
  keys.SetKey("S1", {0});
  auto owned = std::make_shared<Signature>(std::move(keys));
  keyed.eliminate.keys = owned.get();
  ServeRequest with_keys =
      ServeRequest::WithOptions(sim::BuildFanoutProblem(3), keyed, 9);
  with_keys.owned_keys = owned;  // keep the borrowed pointer alive
  out.push_back(std::move(with_keys));

  // An end-to-end deadline rides along as the optional trailing field.
  ServeRequest bounded = ServeRequest::Of(sim::BuildFanoutProblem(3), 11);
  bounded.deadline_ms = 250;
  out.push_back(std::move(bounded));

  // The literature suite exercises real constraint shapes.
  Parser parser;
  for (const testdata::LiteratureProblem& prob :
       testdata::LiteratureSuite()) {
    Result<CompositionProblem> parsed = parser.ParseProblem(prob.text);
    if (parsed.ok()) {
      out.push_back(ServeRequest::Of(std::move(*parsed), out.size()));
    }
  }
  return out;
}

TEST(ServeRequestRoundTripTest, SerializeParseSerializeIsByteIdentical) {
  for (const ServeRequest& req : SampleRequests()) {
    std::string bytes;
    ASSERT_TRUE(req.SerializeTo(&bytes).ok()) << req.problem.name;

    Result<ServeRequest> parsed = ServeRequest::Parse(
        reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

    std::string again;
    ASSERT_TRUE(parsed->SerializeTo(&again).ok());
    // Canonical: the parsed value re-serializes to the same bytes, so a
    // proxy or cache may treat the body as the value's identity.
    EXPECT_EQ(bytes, again) << req.problem.name;

    EXPECT_EQ(parsed->request_id, req.request_id);
    EXPECT_EQ(parsed->has_options, req.has_options);
    EXPECT_EQ(parsed->deadline_ms, req.deadline_ms);
    EXPECT_EQ(parsed->problem.Fingerprint(), req.problem.Fingerprint());
  }
}

TEST(ServeRequestRoundTripTest, DeadlineFieldIsOptionalAndCanonical) {
  // A deadline-less request serializes without the trailing field: its
  // bytes are a bounded request's bytes minus the last four.
  ServeRequest plain = ServeRequest::Of(sim::BuildFanoutProblem(3), 5);
  std::string plain_bytes;
  ASSERT_TRUE(plain.SerializeTo(&plain_bytes).ok());

  ServeRequest bounded = plain;
  bounded.deadline_ms = 100;
  std::string bounded_bytes;
  ASSERT_TRUE(bounded.SerializeTo(&bounded_bytes).ok());
  ASSERT_EQ(bounded_bytes.size(), plain_bytes.size() + 4);
  EXPECT_EQ(bounded_bytes.compare(0, plain_bytes.size(), plain_bytes), 0);

  Result<ServeRequest> parsed = ServeRequest::Parse(
      reinterpret_cast<const uint8_t*>(bounded_bytes.data()),
      bounded_bytes.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->deadline_ms, 100u);

  // Zero must travel as absence: a present-but-zero trailing field would
  // give one value two byte images, so it is rejected as hostile input.
  std::string zero_bytes = plain_bytes + std::string(4, '\0');
  EXPECT_FALSE(ServeRequest::Parse(
                   reinterpret_cast<const uint8_t*>(zero_bytes.data()),
                   zero_bytes.size())
                   .ok());
}

TEST(ServeRequestRoundTripTest, NonDefaultRegistryIsRejectedNotShipped) {
  op::Registry registry = op::Registry::Empty();
  ComposeOptions opts;
  opts.eliminate.registry = &registry;
  ServeRequest req =
      ServeRequest::WithOptions(sim::BuildFanoutProblem(3), opts);
  std::string bytes;
  Status s = req.SerializeTo(&bytes);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnsupported);
}

TEST(ServeReplyRoundTripTest, OkAndErrorRepliesRoundTripByteIdentically) {
  runtime::ServedResult res;
  res.sigma.AddOrReplaceRelation("R", 2);
  res.residual_sigma2 = {"S2"};
  res.warnings = {"w1", "w2"};
  res.eliminated_count = 3;
  res.total_count = 4;
  res.fingerprint = "fp-bytes\x01\x02";

  std::vector<ServeReply> samples;
  samples.push_back(ServeReply::OkReply(11, res, /*hit=*/true));
  samples.push_back(ServeReply::OkReply(12, runtime::ServedResult{},
                                        /*hit=*/false));
  samples.push_back(
      ServeReply::ErrorReply(13, WireStatus::kOverloaded, "queue full"));
  samples.push_back(ServeReply::ErrorReply(0, WireStatus::kInvalidArgument,
                                           "bad frame"));

  for (const ServeReply& reply : samples) {
    std::string bytes;
    reply.SerializeTo(&bytes);
    Result<ServeReply> parsed = ServeReply::Parse(
        reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    std::string again;
    parsed->SerializeTo(&again);
    EXPECT_EQ(bytes, again);
    EXPECT_EQ(parsed->request_id, reply.request_id);
    EXPECT_EQ(parsed->status, reply.status);
    EXPECT_EQ(parsed->message, reply.message);
    EXPECT_EQ(parsed->cache_hit, reply.cache_hit);
  }
}

TEST(ServeReplyRoundTripTest, ComposedResultSurvivesTheWire) {
  CompositionProblem problem = sim::BuildFanoutProblem(4);
  runtime::ServedResult res =
      runtime::ServedResult::FromResult(Compose(problem, ComposeOptions()));
  ServeReply reply = ServeReply::OkReply(5, res, false);

  std::string bytes;
  reply.SerializeTo(&bytes);
  Result<ServeReply> parsed = ServeReply::Parse(
      reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  ASSERT_TRUE(parsed.ok());
  // The fingerprint is the cross-process equality witness.
  EXPECT_EQ(parsed->result.Fingerprint(), res.Fingerprint());
  EXPECT_EQ(parsed->result.eliminated_count, res.eliminated_count);
  EXPECT_EQ(ConstraintSetToString(parsed->result.constraints),
            ConstraintSetToString(res.constraints));
}

// ---------------------------------------------------------------------------
// Hostile bodies: clean errors, no OOB (ASan-gated).

TEST(HostileBodyTest, TruncationsOfAValidBodyNeverCrash) {
  ServeRequest req = ServeRequest::Of(sim::BuildFanoutProblem(4), 99);
  std::string bytes;
  ASSERT_TRUE(req.SerializeTo(&bytes).ok());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Result<ServeRequest> parsed = ServeRequest::Parse(
        reinterpret_cast<const uint8_t*>(bytes.data()), cut);
    // Every strict prefix must fail (the full body must parse): trailing
    // data is part of the canonical encoding, not optional padding.
    EXPECT_FALSE(parsed.ok()) << "prefix length " << cut;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(HostileBodyTest, BitFlippedBodiesFailCleanly) {
  ServeRequest req = ServeRequest::Of(sim::BuildFanoutProblem(3), 5);
  std::string bytes;
  ASSERT_TRUE(req.SerializeTo(&bytes).ok());
  std::mt19937 rng(20260808);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = bytes;
    size_t pos = rng() % mutated.size();
    mutated[pos] = static_cast<char>(static_cast<uint8_t>(mutated[pos]) ^
                                     (1u << (rng() % 8)));
    Result<ServeRequest> parsed = ServeRequest::Parse(
        reinterpret_cast<const uint8_t*>(mutated.data()), mutated.size());
    if (parsed.ok()) {
      // A flip in a free byte (e.g. the request_id) can still parse —
      // but then it must re-serialize canonically.
      std::string again;
      ASSERT_TRUE(parsed->SerializeTo(&again).ok());
      EXPECT_EQ(again, mutated);
    } else {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(HostileBodyTest, RandomGarbageFailsCleanly) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    std::string garbage(rng() % 256, '\0');
    for (char& c : garbage) c = static_cast<char>(rng() & 0xff);
    Result<ServeRequest> req = ServeRequest::Parse(
        reinterpret_cast<const uint8_t*>(garbage.data()), garbage.size());
    if (!req.ok()) {
      EXPECT_EQ(req.status().code(), StatusCode::kInvalidArgument);
    }
    Result<ServeReply> rep = ServeReply::Parse(
        reinterpret_cast<const uint8_t*>(garbage.data()), garbage.size());
    if (!rep.ok()) {
      EXPECT_EQ(rep.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(HostileBodyTest, LengthClaimsCannotForceAllocations) {
  // A tiny body claiming a huge string/list count must fail before any
  // proportional allocation (the WireReader's remaining-bytes guard).
  std::string evil;
  for (int i = 0; i < 8; ++i) evil.push_back('\0');  // request_id
  evil.push_back('\0');                              // has_options = false
  evil += std::string(4, '\xff');                    // name len = 0xffffffff
  Result<ServeRequest> parsed = ServeRequest::Parse(
      reinterpret_cast<const uint8_t*>(evil.data()), evil.size());
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// The raw-byte cache key and the raw-probe-first server path.

using runtime::ComposeService;
using runtime::ServedOutcome;

const uint8_t* Bytes(const std::string& s) {
  return reinterpret_cast<const uint8_t*>(s.data());
}

std::string Body(const ServeRequest& request) {
  std::string body;
  EXPECT_TRUE(request.SerializeTo(&body).ok());
  return body;
}

/// Every literature-suite problem plus two reconciliation tasks at each of
/// three schema sizes.
std::vector<CompositionProblem> KeyCorpus() {
  std::vector<CompositionProblem> out;
  Parser parser;
  for (const testdata::LiteratureProblem& prob :
       testdata::LiteratureSuite()) {
    Result<CompositionProblem> parsed = parser.ParseProblem(prob.text);
    if (parsed.ok()) out.push_back(std::move(*parsed));
  }
  for (int size : {6, 8, 10}) {
    for (uint64_t seed : {1, 2}) {
      sim::ReconciliationScenarioOptions opts;
      opts.schema_size = size;
      opts.num_edits = 8;
      opts.seed = seed;
      opts.max_branch_attempts = 2;
      out.push_back(sim::BuildReconciliationProblem(opts));
    }
  }
  return out;
}

TEST(RawCacheKeyTest, WalkedKeyEqualsTheParsedRequestsKey) {
  ComposeService service;
  ComposeOptions opts;
  opts.simplify_output = false;
  opts.max_rounds = 2;
  opts.eliminate.max_blowup_factor = 7;
  int checked = 0;
  for (const CompositionProblem& problem : KeyCorpus()) {
    for (bool with_options : {false, true}) {
      for (uint32_t deadline_ms : {0u, 250u}) {
        ServeRequest req =
            with_options ? ServeRequest::WithOptions(problem, opts, 17)
                         : ServeRequest::Of(problem, 17);
        req.deadline_ms = deadline_ms;
        std::string body = Body(req);
        Result<ServeRequest> parsed = ServeRequest::Parse(Bytes(body),
                                                          body.size());
        ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
        RequestEnvelope walked = RequestEnvelope::Walk(
            Bytes(body), body.size(), service.default_options());
        ASSERT_TRUE(walked.status.ok()) << walked.status.ToString();
        EXPECT_EQ(walked.request_id, 17u);
        EXPECT_EQ(walked.key, service.CacheKey(*parsed)) << problem.name;
        // The in-process value keys identically: one encoder.
        EXPECT_EQ(walked.key, service.CacheKey(req)) << problem.name;
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 4 * 28);
}

/// `sig` read back from its own Fingerprint() bytes, consuming all of them.
void ExpectSignatureReadsBack(const Signature& sig) {
  const std::string bytes = sig.Fingerprint();
  common::WireReader r(Bytes(bytes), bytes.size());
  Signature back;
  ASSERT_TRUE(Signature::ReadFrom(&r, &back)) << sig.ToString();
  EXPECT_TRUE(r.AtEnd()) << sig.ToString();
  EXPECT_EQ(back.ToString(), sig.ToString());
  EXPECT_EQ(back.Fingerprint(), bytes);
}

TEST(OneEncodingTest, CacheKeyIsTheOptionsThenProblemFingerprint) {
  ComposeService service;
  int checked = 0;
  for (const CompositionProblem& problem : KeyCorpus()) {
    // Preset keys on the first σ1 relation, and σ2 eliminated in reverse.
    Signature keys;
    const std::string& keyed = problem.sigma1.names().front();
    ASSERT_TRUE(keys.AddRelation(keyed, problem.sigma1.ArityOf(keyed)).ok());
    ASSERT_TRUE(keys.SetKey(keyed, {1}).ok());
    ComposeOptions opts;
    opts.eliminate.keys = &keys;
    opts.order.assign(problem.sigma2.names().rbegin(),
                      problem.sigma2.names().rend());

    for (bool with_options : {false, true}) {
      ServeRequest req = with_options
                             ? ServeRequest::WithOptions(problem, opts, 3)
                             : ServeRequest::Of(problem, 3);
      const ComposeOptions& resolved =
          with_options ? req.options : service.default_options();
      EXPECT_EQ(service.CacheKey(req),
                resolved.Fingerprint() + req.problem.Fingerprint())
          << problem.name;
      ++checked;
    }
    for (const Signature* sig :
         {&problem.sigma1, &problem.sigma2, &problem.sigma3,
          static_cast<const Signature*>(&keys)}) {
      ExpectSignatureReadsBack(*sig);
    }
  }
  EXPECT_GE(checked, 2 * 28);
}

TEST(RawCacheKeyTest, OptionlessAndExplicitDefaultsShareOneEntry) {
  ComposeService service;
  CompositionProblem problem = sim::BuildFanoutProblem(4);
  ServeRequest plain = ServeRequest::Of(problem, 1);
  ServeRequest explicit_defaults =
      ServeRequest::WithOptions(problem, service.default_options(), 2);

  std::string plain_body = Body(plain);
  std::string explicit_body = Body(explicit_defaults);
  ASSERT_NE(plain_body, explicit_body);
  RequestEnvelope a = RequestEnvelope::Walk(
      Bytes(plain_body), plain_body.size(), service.default_options());
  RequestEnvelope b = RequestEnvelope::Walk(
      Bytes(explicit_body), explicit_body.size(),
      service.default_options());
  ASSERT_FALSE(a.key.empty());
  EXPECT_EQ(a.key, b.key);

  service.Submit(plain).Wait();
  EXPECT_TRUE(service.Submit(explicit_defaults).cache_hit());
  EXPECT_EQ(service.Stats().cache_entries, 1u);
}

/// A value SerializeTo accepts but Parse refuses: the relation name "S-T"
/// prints as the expression `S - T`.
CompositionProblem ProblemWithExpressionName() {
  CompositionProblem p;
  p.name = "expression-shaped-name";
  EXPECT_TRUE(p.sigma1.AddRelation("R", 1).ok());
  EXPECT_TRUE(p.sigma2.AddRelation("S-T", 1).ok());
  EXPECT_TRUE(p.sigma3.AddRelation("U", 1).ok());
  p.sigma12 = {Constraint::Contain(Rel("R", 1), Rel("S-T", 1))};
  p.sigma23 = {Constraint::Contain(Rel("S-T", 1), Rel("U", 1))};
  return p;
}

TEST(RawCacheKeyTest, InProcessEntriesAreNeverServedRaw) {
  ComposeService service;

  // max_rounds = 0 crosses SerializeTo, but the walk refuses it exactly as
  // Parse does, so a raw probe never even runs.
  ComposeOptions zero_rounds;
  zero_rounds.max_rounds = 0;
  ServeRequest rounds_req =
      ServeRequest::WithOptions(sim::BuildFanoutProblem(3), zero_rounds, 4);
  service.Submit(rounds_req).Wait();
  std::string rounds_body = Body(rounds_req);
  RequestEnvelope refused = RequestEnvelope::Walk(
      Bytes(rounds_body), rounds_body.size(), service.default_options());
  ASSERT_FALSE(refused.status.ok());
  EXPECT_TRUE(refused.key.empty());
  EXPECT_EQ(refused.status.message(),
            ServeRequest::Parse(Bytes(rounds_body), rounds_body.size())
                .status()
                .message());
  EXPECT_FALSE(service.ProbeKey(service.CacheKey(rounds_req), /*raw=*/true)
                   .ok());

  // An expression-shaped name passes the walk — its problem section is
  // never parsed — and its key finds the completed in-process entry, which
  // is not wire_ok: the raw probe misses while a value probe hits.
  ServeRequest named = ServeRequest::Of(ProblemWithExpressionName(), 5);
  ASSERT_TRUE(service.Submit(named).Wait().ok());
  std::string named_body = Body(named);
  ASSERT_FALSE(ServeRequest::Parse(Bytes(named_body), named_body.size()).ok());
  RequestEnvelope walked = RequestEnvelope::Walk(
      Bytes(named_body), named_body.size(), service.default_options());
  ASSERT_TRUE(walked.status.ok());
  ASSERT_EQ(walked.key, service.CacheKey(named));
  EXPECT_TRUE(service.ProbeKey(walked.key, /*raw=*/false).ok());
  EXPECT_FALSE(service.ProbeKey(walked.key, /*raw=*/true).ok());

  // Over the wire the body is therefore parsed — and refused.
  ComposeServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Result<std::unique_ptr<ComposeClient>> client =
      ComposeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::string frame;
  EncodeFrame(FrameType::kRequest, named_body, &frame);
  ASSERT_TRUE((*client)->SendRaw(frame).ok());
  Result<ServeReply> reply = (*client)->Recv();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->status, WireStatus::kInvalidArgument);
  EXPECT_EQ(reply->request_id, 5u);
  EXPECT_EQ(server.Stats().cache_bypass, 0u);
}

/// The reply the server gave before the raw-byte path existed: Parse, then
/// the value probe, then Submit — serialized through ServeReply.
std::string ParseThenProbe(ComposeService* service, const std::string& body) {
  Result<ServeRequest> req = ServeRequest::Parse(Bytes(body), body.size());
  ServeReply reply;
  if (!req.ok()) {
    uint64_t id = 0;
    for (size_t i = 0; body.size() >= 8 && i < 8; ++i) {
      id |= static_cast<uint64_t>(static_cast<uint8_t>(body[i])) << (8 * i);
    }
    reply = ServeReply::ErrorReply(id, WireStatusFrom(req.status().code()),
                                   req.status().message());
  } else if (ComposeService::ResultPtr hit = service->TryServeCached(*req)) {
    reply = ServeReply::OkReply(req->request_id, *hit, /*hit=*/true);
  } else {
    ComposeService::Handle handle = service->Submit(*req);
    ServedOutcome outcome = handle.Wait();
    reply = outcome.ok()
                ? ServeReply::OkReply(req->request_id, *outcome,
                                      handle.cache_hit())
                : ServeReply::ErrorReply(
                      req->request_id,
                      WireStatusFrom(outcome.status().code()),
                      outcome.status().message());
  }
  std::string bytes;
  reply.SerializeTo(&bytes);
  return bytes;
}

TEST(RawProbeDifferentialTest, HostileCorporaAnswerAsParseThenProbe) {
  std::string flip_base =
      Body(ServeRequest::Of(sim::BuildFanoutProblem(3), 5));
  std::string cut_base =
      Body(ServeRequest::Of(sim::BuildFanoutProblem(4), 99));
  std::vector<std::string> corpus = {flip_base, cut_base};
  std::mt19937 rng(20260808);  // the bit-flip corpus above
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = flip_base;
    size_t pos = rng() % mutated.size();
    mutated[pos] = static_cast<char>(static_cast<uint8_t>(mutated[pos]) ^
                                     (1u << (rng() % 8)));
    corpus.push_back(std::move(mutated));
  }
  for (size_t cut = 0; cut < cut_base.size(); ++cut) {
    corpus.push_back(cut_base.substr(0, cut));
  }
  // Tails after an intact problem section: the walk must not vouch for
  // them (a zero or oversized deadline, trailing bytes) — or must accept
  // exactly what Parse accepts (a 1 ms deadline).
  for (size_t extra = 1; extra <= 8; ++extra) {
    corpus.push_back(flip_base + std::string(extra, '\0'));
  }
  corpus.push_back(flip_base + std::string("\x01\0\0\0", 4));

  // Two services see the same body sequence (the base bodies first, so
  // both start warm): one behind a raw-probe-first server, one answering
  // parse-then-probe in process.
  ComposeService served;
  ComposeService reference;
  ComposeServer server(&served, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Result<std::unique_ptr<ComposeClient>> client =
      ComposeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  for (size_t i = 0; i < corpus.size(); ++i) {
    std::string frame;
    EncodeFrame(FrameType::kRequest, corpus[i], &frame);
    ASSERT_TRUE((*client)->SendRaw(frame).ok());
    Result<ServeReply> reply = (*client)->Recv();
    ASSERT_TRUE(reply.ok()) << "body " << i << ": "
                            << reply.status().ToString();
    std::string got;
    reply->SerializeTo(&got);
    std::string want = ParseThenProbe(&reference, corpus[i]);
    ASSERT_EQ(got[8], want[8]) << "WireStatus differs on body " << i;
    EXPECT_EQ(got, want) << "reply bytes differ on body " << i;
  }
  // The warm, unmutated bodies were answered on the raw path.
  EXPECT_GE(server.Stats().cache_bypass, 2u);
  EXPECT_EQ(server.Stats().protocol_errors,
            static_cast<uint64_t>(std::count_if(
                corpus.begin(), corpus.end(), [](const std::string& b) {
                  return !ServeRequest::Parse(Bytes(b), b.size()).ok();
                })));
}

TEST(RawProbeDifferentialTest, StoredReplyFrameEqualsTheSerializedReply) {
  runtime::ServedResult res = runtime::ServedResult::FromResult(
      Compose(sim::BuildFanoutProblem(4), ComposeOptions()));
  std::string result_bytes;
  ServeReply::SerializeResultTo(res, &result_bytes);
  for (bool hit : {false, true}) {
    std::string body, want;
    ServeReply::OkReply(0xABCDEF, res, hit).SerializeTo(&body);
    EncodeFrame(FrameType::kReply, body, &want);
    std::string got;
    ServeReply::AppendOkFrame(0xABCDEF, hit, result_bytes, &got);
    EXPECT_EQ(got, want);
  }
}

// ---------------------------------------------------------------------------
// FrameDecoder.

TEST(FrameDecoderTest, ByteByByteFeedYieldsTheSameFrames) {
  std::string stream;
  EncodeFrame(FrameType::kRequest, "alpha", &stream);
  EncodeFrame(FrameType::kReply, "", &stream);
  EncodeFrame(FrameType::kRequest, std::string(1000, 'x'), &stream);

  FrameDecoder decoder;
  std::vector<std::pair<FrameType, std::string>> frames;
  FrameType type;
  std::string body;
  for (char c : stream) {
    decoder.Feed(reinterpret_cast<const uint8_t*>(&c), 1);
    while (decoder.Poll(&type, &body) == FrameDecoder::Next::kFrame) {
      frames.emplace_back(type, body);
    }
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].first, FrameType::kRequest);
  EXPECT_EQ(frames[0].second, "alpha");
  EXPECT_EQ(frames[1].first, FrameType::kReply);
  EXPECT_EQ(frames[1].second, "");
  EXPECT_EQ(frames[2].second, std::string(1000, 'x'));
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameDecoderTest, TruncatedFrameIsNeedMoreNotError) {
  std::string stream;
  EncodeFrame(FrameType::kRequest, "body-bytes", &stream);
  FrameDecoder decoder;
  decoder.Feed(stream.substr(0, stream.size() - 1));
  FrameType type;
  std::string body;
  EXPECT_EQ(decoder.Poll(&type, &body), FrameDecoder::Next::kNeedMore);
  decoder.Feed(stream.substr(stream.size() - 1));
  EXPECT_EQ(decoder.Poll(&type, &body), FrameDecoder::Next::kFrame);
  EXPECT_EQ(body, "body-bytes");
}

TEST(FrameDecoderTest, OversizedLengthClaimErrorsBeforeBuffering) {
  FrameDecoder decoder(/*max_frame_bytes=*/1024);
  // Claim 1 GiB with only 4 header bytes on the wire.
  std::string claim;
  uint32_t huge = 1u << 30;
  for (int i = 0; i < 4; ++i) {
    claim.push_back(static_cast<char>((huge >> (8 * i)) & 0xff));
  }
  decoder.Feed(claim);
  FrameType type;
  std::string body;
  EXPECT_EQ(decoder.Poll(&type, &body), FrameDecoder::Next::kError);
  EXPECT_TRUE(decoder.errored());
  EXPECT_NE(decoder.error().find("max_frame_bytes"), std::string::npos);
}

TEST(FrameDecoderTest, BadMagicAndVersionLatchTheErrorState) {
  {
    FrameDecoder decoder;
    std::string frame;
    EncodeFrame(FrameType::kRequest, "x", &frame);
    frame[4] = 'Z';  // corrupt magic0
    decoder.Feed(frame);
    FrameType type;
    std::string body;
    EXPECT_EQ(decoder.Poll(&type, &body), FrameDecoder::Next::kError);
    // Latched: even after feeding a pristine frame the decoder refuses —
    // a desynced stream cannot be re-trusted.
    std::string good;
    EncodeFrame(FrameType::kRequest, "y", &good);
    decoder.Feed(good);
    EXPECT_EQ(decoder.Poll(&type, &body), FrameDecoder::Next::kError);
  }
  {
    FrameDecoder decoder;
    std::string frame;
    EncodeFrame(FrameType::kRequest, "x", &frame);
    frame[6] = 9;  // unsupported version
    decoder.Feed(frame);
    FrameType type;
    std::string body;
    EXPECT_EQ(decoder.Poll(&type, &body), FrameDecoder::Next::kError);
  }
  {
    // Version 1 carried an options byte that version 2 dropped: an old
    // peer's frame is refused whole rather than misparsed.
    FrameDecoder decoder;
    std::string frame;
    EncodeFrame(FrameType::kRequest, "x", &frame);
    ASSERT_EQ(frame[6], 2);
    frame[6] = 1;
    decoder.Feed(frame);
    FrameType type;
    std::string body;
    EXPECT_EQ(decoder.Poll(&type, &body), FrameDecoder::Next::kError);
    EXPECT_NE(decoder.error().find("unsupported wire version 1"),
              std::string::npos)
        << decoder.error();
  }
  {
    FrameDecoder decoder;
    std::string frame;
    EncodeFrame(FrameType::kRequest, "x", &frame);
    frame[7] = 0x7f;  // unknown frame type
    decoder.Feed(frame);
    FrameType type;
    std::string body;
    EXPECT_EQ(decoder.Poll(&type, &body), FrameDecoder::Next::kError);
  }
  {
    FrameDecoder decoder;
    // payload_len < header size: a frame cannot be shorter than its own
    // magic+version+type.
    std::string runt = std::string("\x02\x00\x00\x00", 4) + "MC";
    decoder.Feed(runt);
    FrameType type;
    std::string body;
    EXPECT_EQ(decoder.Poll(&type, &body), FrameDecoder::Next::kError);
  }
}

TEST(FrameDecoderTest, RandomGarbageStreamsNeverCrash) {
  std::mt19937 rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    FrameDecoder decoder(/*max_frame_bytes=*/4096);
    size_t len = rng() % 512;
    std::string garbage(len, '\0');
    for (char& c : garbage) c = static_cast<char>(rng() & 0xff);
    decoder.Feed(garbage);
    FrameType type;
    std::string body;
    // Drain until the decoder settles; it must terminate (consume or
    // error), never loop or read out of bounds.
    for (int polls = 0; polls < 1000; ++polls) {
      FrameDecoder::Next next = decoder.Poll(&type, &body);
      if (next != FrameDecoder::Next::kFrame) break;
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace mapcomp
