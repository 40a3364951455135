// Plan-and-run evaluation coverage on wide sibling fan-outs: fingerprints
// and stats must not depend on `jobs` (which one evaluation never reads),
// lazy results must fingerprint without decoding, concurrent callers must
// agree, the first failing node in plan order names the error, and a fired
// token cancels the evaluation.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/algebra/builders.h"
#include "src/common/cancel.h"
#include "src/compose/compose.h"
#include "src/eval/checker.h"
#include "src/eval/evaluator.h"
#include "src/eval/generator.h"
#include "src/parser/parser.h"
#include "src/testdata/literature_suite.h"
#include "tests/oracles/oracle.h"

namespace mapcomp {
namespace {

Tuple T(std::initializer_list<int64_t> vals) {
  Tuple t;
  for (int64_t v : vals) t.push_back(Value(v));
  return t;
}

/// The bench's dag_siblings shape: a balanced union tree over `width`
/// independent join subtrees, each over its own relation pair — so the
/// plan has `width` sibling chains with no shared nodes below the unions.
ExprPtr DagSiblings(int width) {
  std::vector<ExprPtr> legs;
  for (int i = 0; i < width; ++i) {
    std::string suffix = std::to_string(i);
    legs.push_back(Project(
        {1, 4}, Select(Condition::AttrCmp(2, CmpOp::kEq, 3),
                       Product(Rel("R" + suffix, 2), Rel("S" + suffix, 2)))));
  }
  while (legs.size() > 1) {
    std::vector<ExprPtr> next;
    for (size_t i = 0; i + 1 < legs.size(); i += 2) {
      next.push_back(Union(legs[i], legs[i + 1]));
    }
    if (legs.size() % 2 == 1) next.push_back(legs.back());
    legs = std::move(next);
  }
  return legs[0];
}

Instance DagSiblingsInstance(int width, int tuples, int domain,
                             uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> val(0, domain - 1);
  Instance db;
  for (int i = 0; i < width; ++i) {
    std::string suffix = std::to_string(i);
    std::set<Tuple> r, s;
    for (int t = 0; t < tuples; ++t) {
      r.insert(Tuple{Value(val(rng)), Value(val(rng))});
      s.insert(Tuple{Value(val(rng)), Value(val(rng))});
    }
    db.Set("R" + suffix, std::move(r));
    db.Set("S" + suffix, std::move(s));
  }
  return db;
}

TEST(EvalTaskGraphTest, WideFanoutFingerprintAndStatsInvariantAcrossJobs) {
  const ExprPtr e = DagSiblings(16);
  Instance db = DagSiblingsInstance(16, 40, 24, 7);
  EvalResult base = EvaluateFull(e, db).value();
  EXPECT_EQ(base.stats.hash_join_nodes, 16);
  EXPECT_EQ(base.stats.tasks_spawned, base.stats.nodes_evaluated);
  for (int jobs : {2, 4, 8}) {
    EvalOptions opts;
    opts.jobs = jobs;
    EvalResult got = EvaluateFull(e, db, opts).value();
    EXPECT_EQ(got.Fingerprint(), base.Fingerprint()) << "jobs=" << jobs;
    EXPECT_EQ(got.stats.ToString(), base.stats.ToString()) << "jobs=" << jobs;
  }
}

TEST(EvalTaskGraphTest, LiteratureSuiteFingerprintsInvariantAtAllLaneCounts) {
  Parser parser;
  for (const testdata::LiteratureProblem& lit : testdata::LiteratureSuite()) {
    CompositionProblem problem = parser.ParseProblem(lit.text).value();
    CompositionResult composed = Compose(problem);
    ConstraintSet all = problem.sigma12;
    all.insert(all.end(), problem.sigma23.begin(), problem.sigma23.end());
    all.insert(all.end(), composed.constraints.begin(),
               composed.constraints.end());
    std::mt19937_64 rng(lit.name[0] + 3331);
    Instance inst = RepairTowards(
        RandomInstanceOver(
            {&problem.sigma1, &problem.sigma2, &problem.sigma3}, &rng),
        all);
    for (const Constraint& c : all) {
      for (const ExprPtr& side : {c.lhs, c.rhs}) {
        EvalOptions opts;
        opts.skolem_mode = SkolemEvalMode::kInjectiveTerms;
        opts.extra_constants = CollectConstants(all);
        Result<EvalResult> base = EvaluateFull(side, inst, opts);
        for (int jobs : {2, 4, 8}) {
          opts.jobs = jobs;
          Result<EvalResult> got = EvaluateFull(side, inst, opts);
          ASSERT_EQ(base.ok(), got.ok()) << lit.name << " jobs=" << jobs;
          if (!base.ok()) continue;  // same status at every lane count
          EXPECT_EQ(base->Fingerprint(), got->Fingerprint())
              << lit.name << " jobs=" << jobs;
        }
      }
    }
  }
}

TEST(EvalTaskGraphTest, ConcurrentEvaluateManyCallersAgree) {
  const int kThreads = 8;
  Instance db = DagSiblingsInstance(8, 30, 16, 11);
  std::vector<ExprPtr> roots;
  for (int w : {2, 4, 8}) roots.push_back(DagSiblings(w));
  EvalOptions opts;
  opts.jobs = 4;
  std::vector<std::string> baseline;
  {
    std::vector<EvalResult> out = EvaluateMany(roots, db, opts).value();
    for (const EvalResult& r : out) baseline.push_back(r.Fingerprint());
  }
  // Many whole evaluations running concurrently: each must still produce
  // the baseline fingerprints.
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      std::vector<EvalResult> out = EvaluateMany(roots, db, opts).value();
      for (const EvalResult& r : out) got[i].push_back(r.Fingerprint());
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) EXPECT_EQ(got[i], baseline) << i;
}

TEST(EvalTaskGraphTest, FingerprintStreamsWithoutDecodingAndMatchesOracle) {
  Instance db = DagSiblingsInstance(4, 30, 16, 5);
  const ExprPtr e = DagSiblings(4);
  EvalResult oracle = oracle::EvaluateFull(e, db).value();
  EvalResult kernel = EvaluateFull(e, db).value();
  // Fingerprint before any tuples() access (zero-decode streaming), after
  // decode, and from the nested-loop oracle must all be one byte string.
  std::string streamed = kernel.Fingerprint();
  EXPECT_EQ(streamed, oracle.Fingerprint());
  EXPECT_EQ(kernel.tuples(), oracle.tuples());
  EXPECT_EQ(kernel.Fingerprint(), streamed);

  // Minted values (Skolem terms) fall off the zero-decode path but must
  // still agree with the oracle byte for byte.
  ExprPtr sk = SkolemApp("f", {1}, Rel("R0", 2));
  EvalOptions sk_opts;
  sk_opts.skolem_mode = SkolemEvalMode::kInjectiveTerms;
  EvalResult sk_kernel = EvaluateFull(sk, db, sk_opts).value();
  EXPECT_EQ(sk_kernel.Fingerprint(),
            oracle::EvaluateFull(sk, db, sk_opts).value().Fingerprint());
}

TEST(EvalTaskGraphTest, ErrorPrecedenceIsScheduleIndependent) {
  // A ragged relation (execution-time error) in one leg of a wide fan-out:
  // every lane count must surface the same status.
  Instance db = DagSiblingsInstance(8, 20, 12, 9);
  std::set<Tuple> ragged = db.Get("R3");
  ragged.insert(T({7}));
  db.Set("R3", std::move(ragged));
  const ExprPtr e = DagSiblings(8);
  EvalOptions opts;
  Result<EvalResult> base = EvaluateFull(e, db, opts);
  ASSERT_FALSE(base.ok());
  for (int jobs : {2, 8}) {
    opts.jobs = jobs;
    Result<EvalResult> got = EvaluateFull(e, db, opts);
    ASSERT_FALSE(got.ok()) << "jobs=" << jobs;
    EXPECT_EQ(got.status().ToString(), base.status().ToString())
        << "jobs=" << jobs;
  }
  // Plan-time guard errors also match at any lane count.
  EvalOptions tight;
  tight.max_domain_tuples = 10;
  Result<EvalResult> guard1 = EvaluateFull(Dom(3), db, tight);
  ASSERT_FALSE(guard1.ok());
  tight.jobs = 8;
  Result<EvalResult> guard8 = EvaluateFull(Dom(3), db, tight);
  ASSERT_FALSE(guard8.ok());
  EXPECT_EQ(guard1.status().ToString(), guard8.status().ToString());
}

TEST(EvalTaskGraphTest, FiredTokenCancelsInlinePlanAtAnyLaneCount) {
  // A token fired before the call wins, whatever `jobs` says.
  Instance db;
  db.Set("R", {T({1, 2}), T({2, 3}), T({3, 4})});
  db.Set("S", {T({2, 5}), T({3, 5}), T({4, 1}), T({5, 5})});
  const ExprPtr e = Union(Rel("R", 2), Rel("S", 2));
  common::CancelSource source;
  source.Cancel();
  EvalOptions opts;
  opts.jobs = 4;
  opts.cancel = source.token();
  Result<EvalResult> got = EvaluateFull(e, db, opts);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCancelled);
  Result<bool> contained =
      EvaluateContainment(Rel("R", 2), e, false, db, opts);
  ASSERT_FALSE(contained.ok());
  EXPECT_EQ(contained.status().code(), StatusCode::kCancelled);
  opts.cancel = common::CancelToken::WithDeadline(common::Deadline::After(0));
  Result<EvalResult> late = EvaluateFull(e, db, opts);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace mapcomp
