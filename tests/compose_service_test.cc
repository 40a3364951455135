// Tests for the long-lived ComposeService: fingerprint-keyed result cache
// (hits, misses, eviction, in-flight dedup), async handles, stats
// aggregation, and a concurrent multi-client stress run (executed under
// ThreadSanitizer in CI).

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/parser/parser.h"
#include "src/runtime/compose_service.h"
#include "src/simulator/scenarios.h"
#include "src/testdata/literature_suite.h"

namespace mapcomp {
namespace runtime {
namespace {

using serve::ServeRequest;

/// A default-options request for the fan-out problem of `width`.
ServeRequest FanoutRequest(int width) {
  return ServeRequest::Of(sim::BuildFanoutProblem(width));
}

std::vector<CompositionProblem> ParsedLiteratureSuite() {
  Parser parser;
  std::vector<CompositionProblem> problems;
  for (const testdata::LiteratureProblem& prob :
       testdata::LiteratureSuite()) {
    Result<CompositionProblem> parsed = parser.ParseProblem(prob.text);
    EXPECT_TRUE(parsed.ok()) << prob.name;
    if (parsed.ok()) problems.push_back(std::move(*parsed));
  }
  return problems;
}

TEST(ProblemFingerprintTest, IdentifiesTheProblemNotItsName) {
  CompositionProblem a = sim::BuildFanoutProblem(3);
  CompositionProblem b = sim::BuildFanoutProblem(3);
  b.name = "same-problem-different-label";
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());

  CompositionProblem c = sim::BuildFanoutProblem(4);
  EXPECT_NE(a.Fingerprint(), c.Fingerprint());

  CompositionProblem d = sim::BuildFanoutProblem(3);
  d.elimination_order = {"S3", "S2", "S1"};
  EXPECT_NE(a.Fingerprint(), d.Fingerprint());
}

TEST(ComposeServiceTest, SecondSubmitIsACacheHit) {
  ComposeService service;
  ComposeService::Handle h1 = service.Submit(FanoutRequest(4));
  ComposeService::ResultPtr first = h1.Result();
  EXPECT_FALSE(h1.cache_hit());

  ComposeService::Handle h2 = service.Submit(FanoutRequest(4));
  EXPECT_TRUE(h2.cache_hit());
  // Same object, not an equal recomputation.
  EXPECT_EQ(h2.Result(), first);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.in_flight, 0);
  EXPECT_EQ(stats.cache_entries, 1u);
}

TEST(ComposeServiceTest, ConcurrentSubmitsOfOneProblemShareComputation) {
  ComposeService service;
  std::vector<ComposeService::Handle> handles;
  for (int i = 0; i < 16; ++i) {
    handles.push_back(service.Submit(FanoutRequest(6)));
  }
  const ServedResult* result = &*handles[0].Wait();
  for (ComposeService::Handle& h : handles) {
    EXPECT_EQ(&*h.Wait(), result);
  }
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.misses, 1u);  // one computation, 15 joins
  EXPECT_EQ(stats.hits, 15u);
}

TEST(ComposeServiceTest, LruEvictionDropsOldestAndRecounts) {
  ComposeServiceOptions options;
  options.cache_capacity = 2;
  ComposeService service(options);

  service.Submit(FanoutRequest(2)).Wait();
  service.Submit(FanoutRequest(3)).Wait();
  // Touch problem 2 so problem 3 is the LRU victim.
  EXPECT_TRUE(service.Submit(FanoutRequest(2)).cache_hit());
  service.Submit(FanoutRequest(4)).Wait();  // evicts problem 3

  EXPECT_EQ(service.Stats().evictions, 1u);
  EXPECT_TRUE(service.Submit(FanoutRequest(2)).cache_hit());
  EXPECT_TRUE(service.Submit(FanoutRequest(4)).cache_hit());
  // Hold the miss handle until it completes: dropping it mid-flight would
  // now count as abandonment and cancel the recomputation.
  ComposeService::Handle recomputed =
      service.Submit(FanoutRequest(3));
  EXPECT_FALSE(recomputed.cache_hit());
  recomputed.Wait();
  EXPECT_EQ(service.Stats().cache_entries, 2u);
}

TEST(ComposeServiceTest, ZeroCapacityDisablesCaching) {
  ComposeServiceOptions options;
  options.cache_capacity = 0;
  ComposeService service(options);
  service.Submit(FanoutRequest(3)).Wait();
  service.Submit(FanoutRequest(3)).Wait();
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(ComposeOptionsFingerprintTest, SeparatesResultChangingKnobs) {
  ComposeOptions a;
  ComposeOptions b;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  b.simplify_output = false;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  ComposeOptions c;
  c.max_rounds = 1;
  EXPECT_NE(a.Fingerprint(), c.Fingerprint());
  ComposeOptions d;
  d.order = {"S2", "S1"};
  EXPECT_NE(a.Fingerprint(), d.Fingerprint());
  ComposeOptions e;
  e.eliminate.enable_right_compose = false;
  EXPECT_NE(a.Fingerprint(), e.Fingerprint());
  // Preset key signatures are serialized by content, so two different key
  // sets never collide on one cache key.
  Signature k1, k2;
  ASSERT_TRUE(k1.AddRelation("R", 2).ok());
  ASSERT_TRUE(k1.SetKey("R", {1}).ok());
  ASSERT_TRUE(k2.AddRelation("R", 2).ok());
  ASSERT_TRUE(k2.SetKey("R", {2}).ok());
  ComposeOptions f, g;
  f.eliminate.keys = &k1;
  g.eliminate.keys = &k2;
  EXPECT_NE(f.Fingerprint(), a.Fingerprint());
  EXPECT_NE(f.Fingerprint(), g.Fingerprint());
  // A non-default registry is distinguished by identity.
  op::Registry custom = op::Registry::Empty();
  ComposeOptions h;
  h.eliminate.registry = &custom;
  EXPECT_NE(h.Fingerprint(), a.Fingerprint());
}

TEST(ComposeServiceTest, MixedOptionsTrafficNeverServesStaleVariants) {
  // One service, one problem, two option sets that produce different
  // results: each variant must be computed and cached separately, and
  // resubmitting a variant must hit its own entry.
  ComposeService service;
  CompositionProblem problem = sim::BuildFanoutProblem(4);
  ComposeOptions simplified;  // the default
  ComposeOptions raw;  // every ELIMINATE step disabled: nothing eliminates
  raw.eliminate.enable_unfold = false;
  raw.eliminate.enable_left_compose = false;
  raw.eliminate.enable_right_compose = false;

  ComposeService::Handle h1 =
      service.Submit(ServeRequest::WithOptions(problem, simplified));
  ComposeService::Handle h2 =
      service.Submit(ServeRequest::WithOptions(problem, raw));
  EXPECT_FALSE(h1.cache_hit());
  EXPECT_FALSE(h2.cache_hit());  // different options ⇒ its own computation
  EXPECT_EQ(h1.Wait()->Fingerprint(),
            Compose(problem, simplified).Fingerprint());
  EXPECT_EQ(h2.Wait()->Fingerprint(), Compose(problem, raw).Fingerprint());
  EXPECT_NE(h1.Wait()->Fingerprint(), h2.Wait()->Fingerprint());

  ComposeService::Handle h3 =
      service.Submit(ServeRequest::WithOptions(problem, simplified));
  ComposeService::Handle h4 =
      service.Submit(ServeRequest::WithOptions(problem, raw));
  EXPECT_TRUE(h3.cache_hit());
  EXPECT_TRUE(h4.cache_hit());
  EXPECT_EQ(&*h3.Wait(), &*h1.Wait());
  EXPECT_EQ(&*h4.Wait(), &*h2.Wait());

  // The plain Submit uses the service default options and shares their
  // cache entry.
  ComposeService::Handle h5 = service.Submit(ServeRequest::Of(problem));
  EXPECT_TRUE(h5.cache_hit());

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 3u);
}

TEST(ComposeServiceTest, ResultsMatchDirectComposition) {
  ComposeServiceOptions options;
  ComposeService service(options);
  for (const CompositionProblem& p : ParsedLiteratureSuite()) {
    CompositionResult direct = Compose(p, options.compose);
    EXPECT_EQ(service.Submit(ServeRequest::Of(p)).Wait()->Fingerprint(),
              direct.Fingerprint())
        << p.name;
  }
}

TEST(ComposeServiceTest, ConcurrentClientsMixedHitsAndMisses) {
  // >= 8 client threads hammering one service with overlapping problem
  // sets: every result must equal the single-threaded baseline, and the
  // counters must balance. Run under TSan in CI.
  std::vector<CompositionProblem> problems = ParsedLiteratureSuite();
  problems.push_back(sim::BuildFanoutProblem(8));
  problems.push_back(sim::BuildFanoutProblem(8, /*chain_overlap=*/true));

  ComposeServiceOptions options;
  options.cache_capacity = 1024;  // no eviction: misses == distinct problems
  ComposeService service(options);

  std::vector<std::string> baselines;
  baselines.reserve(problems.size());
  for (const CompositionProblem& p : problems) {
    baselines.push_back(Compose(p, options.compose).Fingerprint());
  }

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 3;
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      // Stagger starting offsets so threads race on different keys.
      for (int rep = 0; rep < kRequestsPerClient; ++rep) {
        for (size_t i = 0; i < problems.size(); ++i) {
          size_t slot = (i + static_cast<size_t>(t) * 3) % problems.size();
          ComposeService::ResultPtr res =
              service.Submit(ServeRequest::Of(problems[slot])).Result();
          if (res->Fingerprint() != baselines[slot]) {
            errors[t] = "fingerprint mismatch on problem " +
                        std::to_string(slot);
            return;
          }
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  for (const std::string& e : errors) EXPECT_EQ(e, "");

  ServiceStats stats = service.Stats();
  uint64_t total = static_cast<uint64_t>(kClients) * kRequestsPerClient *
                   problems.size();
  EXPECT_EQ(stats.hits + stats.misses, total);
  EXPECT_EQ(stats.misses, problems.size());  // dedup + no eviction
  EXPECT_EQ(stats.in_flight, 0);
  EXPECT_EQ(stats.completed, stats.misses);
}

TEST(ServedResultTest, SlimEntryKeepsAnswerAndPrecomputedFingerprint) {
  CompositionProblem problem = sim::BuildFanoutProblem(4);
  ComposeOptions options;
  CompositionResult full = Compose(problem, options);
  ServedResult slim = ServedResult::FromResult(full);

  // The answer survives slimming …
  EXPECT_EQ(slim.constraints.size(), full.constraints.size());
  EXPECT_EQ(slim.residual_sigma2, full.residual_sigma2);
  EXPECT_EQ(slim.eliminated_count, full.eliminated_count);
  EXPECT_EQ(slim.total_count, full.total_count);
  // … and so does the full fingerprint, byte for byte, even though the
  // stats/rounds it covers were dropped from the entry.
  EXPECT_EQ(slim.Fingerprint(), full.Fingerprint());
  EXPECT_NE(slim.Report().find("(served)"), std::string::npos);
  EXPECT_GT(slim.ApproxBytes(), sizeof(ServedResult));
}

TEST(ComposeServiceTest, CacheBytesWatermarkTracksCompletedEntries) {
  ComposeService service;
  EXPECT_EQ(service.Stats().cache_bytes, 0u);

  ServedOutcome one = service.Submit(FanoutRequest(3)).Wait();
  uint64_t after_one = service.Stats().cache_bytes;
  // The entry books its key once, plus the slimmed result and its reply.
  EXPECT_EQ(after_one, service.CacheKey(FanoutRequest(3)).size() +
                           one->ApproxBytes() + one.reply_bytes().size());

  service.Submit(FanoutRequest(5)).Wait();
  ServiceStats stats = service.Stats();
  EXPECT_GT(stats.cache_bytes, after_one);
  EXPECT_EQ(stats.cache_bytes_peak, stats.cache_bytes);
  EXPECT_NE(stats.ToString().find("bytes"), std::string::npos);

  // A cache hit adds no bytes.
  EXPECT_TRUE(service.Submit(FanoutRequest(3)).cache_hit());
  EXPECT_EQ(service.Stats().cache_bytes, stats.cache_bytes);
}

TEST(ComposeServiceTest, EntryEvictionReleasesItsBytes) {
  ComposeServiceOptions options;
  options.cache_capacity = 1;
  ComposeService service(options);
  service.Submit(FanoutRequest(3)).Wait();
  uint64_t with_three = service.Stats().cache_bytes;
  service.Submit(FanoutRequest(5)).Wait();  // evicts problem 3
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.cache_entries, 1u);
  // Only problem 5's bytes remain booked; the peak saw at most both.
  EXPECT_NE(stats.cache_bytes, 0u);
  EXPECT_GE(stats.cache_bytes_peak, stats.cache_bytes);
  EXPECT_GE(stats.cache_bytes_peak, with_three);
}

TEST(ComposeServiceTest, ByteCapacityEvictsUntilTheSumFits) {
  // Measure two entries unbounded, then bound the service to fit one but
  // not both: completing the second must evict the first (LRU).
  uint64_t bytes3 = 0, bytes5 = 0;
  {
    ComposeService probe;
    probe.Submit(FanoutRequest(3)).Wait();
    bytes3 = probe.Stats().cache_bytes;
    probe.Submit(FanoutRequest(5)).Wait();
    bytes5 = probe.Stats().cache_bytes - bytes3;
  }
  ASSERT_GT(bytes3, 0u);
  ASSERT_GT(bytes5, 0u);

  ComposeServiceOptions options;
  options.cache_bytes_capacity =
      static_cast<size_t>(bytes3 + bytes5 - 1);  // one fits, two don't
  ComposeService service(options);
  service.Submit(FanoutRequest(3)).Wait();
  service.Submit(FanoutRequest(5)).Wait();
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.cache_entries, 1u);
  EXPECT_LE(stats.cache_bytes, options.cache_bytes_capacity);
  // Check the survivor first: resubmitting the evicted problem starts a
  // new computation whose completion may evict the survivor again.
  EXPECT_TRUE(service.Submit(FanoutRequest(5)).cache_hit());
  EXPECT_FALSE(service.Submit(FanoutRequest(3)).cache_hit());
}

TEST(ComposeServiceTest, DestructorWaitsForInFlightWork) {
  // Submit without waiting, then destroy: the service must block until
  // the pool task finished (TSan would flag a use-after-free otherwise).
  ComposeService::Handle handle;
  {
    ComposeService service;
    handle = service.Submit(FanoutRequest(6));
  }
  EXPECT_TRUE(handle.Ready());
  EXPECT_EQ(handle.Wait()->eliminated_count, 6);
}

TEST(ComposeServiceTest, ServeRequestEntryPointAndAdmissionProbe) {
  ComposeService service;
  ServeRequest req =
      ServeRequest::Of(sim::BuildFanoutProblem(4), /*id=*/77);

  // Absent: the probe never computes.
  EXPECT_EQ(service.TryServeCached(req), nullptr);

  ComposeService::Handle h = service.Submit(req);
  ServedOutcome outcome = h.Wait();
  ASSERT_TRUE(outcome.ok());

  // Present and completed: the probe serves the very same object.
  ComposeService::ResultPtr cached = service.TryServeCached(req);
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached.get(), outcome.shared().get());

  // The request_id names the conversation, not the computation: a new id
  // for the same problem is still a cache hit.
  ServeRequest req2 =
      ServeRequest::Of(sim::BuildFanoutProblem(4), /*id=*/78);
  EXPECT_TRUE(service.Submit(req2).cache_hit());

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.hits, 2u);  // probe hit + resubmit hit
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ComposeServiceTest, RequestCarriedOptionsKeyTheCacheLikeTheShim) {
  ComposeService service;
  ComposeOptions raw;
  raw.simplify_output = false;

  CompositionProblem problem = sim::BuildFanoutProblem(3);
  ComposeService::Handle shim =
      service.Submit(ServeRequest::WithOptions(problem, raw));
  shim.Wait();

  // A wire-shaped request carrying the same options joins the same cache
  // slot — the two submission styles are one API.
  ServeRequest req =
      ServeRequest::WithOptions(sim::BuildFanoutProblem(3), raw);
  ComposeService::Handle wire = service.Submit(req);
  EXPECT_TRUE(wire.cache_hit());
  EXPECT_EQ(&*wire.Wait(), &*shim.Wait());

  // But the probe under default options misses: options are part of the
  // computation's identity.
  ServeRequest plain =
      FanoutRequest(3);
  EXPECT_EQ(service.TryServeCached(plain), nullptr);
}

}  // namespace
}  // namespace runtime
}  // namespace mapcomp
