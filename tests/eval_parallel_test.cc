// Determinism, memoization and stress coverage of the evaluator: results,
// fingerprints and stats must not depend on `jobs`, shared DAG subtrees
// must evaluate once, guard exhaustion must surface as an error — never a
// hang — and concurrent callers must agree.

#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <vector>

#include "src/algebra/builders.h"
#include "src/compose/compose.h"
#include "src/eval/checker.h"
#include "src/eval/evaluator.h"
#include "src/eval/generator.h"
#include "src/parser/parser.h"
#include "src/simulator/scenarios.h"
#include "src/testdata/literature_suite.h"
#include "tests/oracles/instance_api.h"

namespace mapcomp {
namespace {

Instance BigInstance(int tuples, int domain, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> val(0, domain - 1);
  Instance db;
  std::set<Tuple> r, s;
  for (int i = 0; i < tuples; ++i) {
    r.insert(Tuple{Value(val(rng)), Value(val(rng))});
    s.insert(Tuple{Value(val(rng)), Value(val(rng))});
  }
  db.Set("R", std::move(r));
  db.Set("S", std::move(s));
  return db;
}

/// Evaluates `e` at several job counts and asserts tuples, fingerprint and
/// stats all match the jobs = 1 evaluation.
void ExpectJobsInvariant(const ExprPtr& e, const Instance& db) {
  EvalOptions sequential;  // jobs = 1
  Result<EvalResult> base = EvaluateFull(e, db, sequential);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  for (int jobs : {1, 2, 8}) {
    EvalOptions opts;
    opts.jobs = jobs;
    Result<EvalResult> got = EvaluateFull(e, db, opts);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->tuples(), base->tuples()) << "jobs=" << jobs;
    EXPECT_EQ(got->Fingerprint(), base->Fingerprint()) << "jobs=" << jobs;
    EXPECT_EQ(got->stats.ToString(), base->stats.ToString())
        << "jobs=" << jobs;
  }
}

TEST(EvalParallelTest, OperatorsMatchAtEveryJobCount) {
  Instance db = BigInstance(300, 40, 1);
  ExprPtr r = Rel("R", 2), s = Rel("S", 2);
  ExpectJobsInvariant(Union(r, s), db);
  ExpectJobsInvariant(Intersect(r, s), db);
  ExpectJobsInvariant(Difference(r, s), db);
  ExpectJobsInvariant(Project({2, 1}, r), db);
  ExpectJobsInvariant(
      Project({1, 4}, Select(Condition::AttrCmp(2, CmpOp::kEq, 3),
                             Product(r, s))),
      db);
  ExpectJobsInvariant(Dom(2), db);
  EvalOptions sk;
  sk.skolem_mode = SkolemEvalMode::kInjectiveTerms;
  sk.jobs = 8;
  Result<EvalResult> skolem_par =
      EvaluateFull(SkolemApp("f", {1}, r), db, sk);
  sk.jobs = 1;
  Result<EvalResult> skolem_seq =
      EvaluateFull(SkolemApp("f", {1}, r), db, sk);
  ASSERT_TRUE(skolem_par.ok());
  ASSERT_TRUE(skolem_seq.ok());
  EXPECT_EQ(skolem_par->Fingerprint(), skolem_seq->Fingerprint());
}

TEST(EvalParallelTest, LiteratureSuiteFingerprintsJobs1EqualsJobs8) {
  Parser parser;
  for (const testdata::LiteratureProblem& lit : testdata::LiteratureSuite()) {
    CompositionProblem problem = parser.ParseProblem(lit.text).value();
    CompositionResult composed = Compose(problem);
    ConstraintSet original = problem.sigma12;
    original.insert(original.end(), problem.sigma23.begin(),
                    problem.sigma23.end());
    std::mt19937_64 rng(lit.name[0] + 977);
    Instance inst = RepairTowards(
        RandomInstanceOver(
            {&problem.sigma1, &problem.sigma2, &problem.sigma3}, &rng),
        original);
    ConstraintSet all = original;
    all.insert(all.end(), composed.constraints.begin(),
               composed.constraints.end());
    for (const Constraint& c : all) {
      for (const ExprPtr& side : {c.lhs, c.rhs}) {
        EvalOptions opts;
        opts.skolem_mode = SkolemEvalMode::kInjectiveTerms;
        opts.extra_constants = CollectConstants(all);
        opts.jobs = 1;
        Result<EvalResult> a = EvaluateFull(side, inst, opts);
        opts.jobs = 8;
        Result<EvalResult> b = EvaluateFull(side, inst, opts);
        ASSERT_EQ(a.ok(), b.ok()) << lit.name;
        if (!a.ok()) continue;  // e.g. D^r guard — same status both ways
        EXPECT_EQ(a->Fingerprint(), b->Fingerprint()) << lit.name;
      }
    }
  }
}

TEST(EvalParallelTest, MemoHitWitnessOnDuplicatedSubtree) {
  Instance db = BigInstance(50, 12, 2);
  // A shared join subtree duplicated 2^6 times in the tree reading: the
  // interner collapses every level to one physical node, and the memo
  // evaluates the join exactly once.
  ExprPtr join = Project(
      {1, 4}, Select(Condition::AttrCmp(2, CmpOp::kEq, 3),
                     Product(Rel("R", 2), Rel("S", 2))));
  ExprPtr e = join;
  for (int i = 0; i < 6; ++i) e = Union(e, e);
  ASSERT_GT(OperatorCount(e), 100);  // the *tree* is huge
  Result<EvalResult> out = EvaluateFull(e, db);
  ASSERT_TRUE(out.ok());
  // Every Union(x, x) visits its child twice: once computed, once memo.
  EXPECT_GE(out->stats.memo_hits, 6);
  // Physical nodes: 4 join nodes + 2 relations + 6 unions.
  EXPECT_LE(out->stats.nodes_evaluated, 12);
  EXPECT_EQ(out->tuples(), Evaluate(join, db).value());
}

TEST(EvalParallelTest, DomainExhaustionIsAnErrorUnderParallelLanes) {
  Instance db = BigInstance(400, 50, 3);  // adom ~50 values
  ASSERT_GE(db.ActiveDomain().size(), 40u);
  for (int jobs : {1, 8}) {
    EvalOptions opts;
    opts.jobs = jobs;
    Result<EvalResult> r = EvaluateFull(Dom(4), db, opts);  // ≥ 40^4 > 2M
    ASSERT_FALSE(r.ok()) << "jobs=" << jobs;
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    opts.max_domain_tuples = 10;
    Result<EvalResult> small = EvaluateFull(Dom(2), db, opts);
    ASSERT_FALSE(small.ok());
    EXPECT_EQ(small.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(EvalParallelTest, ConcurrentEvaluationsStress) {
  // 8 client threads each running an evaluation at once; every result
  // must equal the single-caller baseline.
  Instance db = BigInstance(220, 30, 4);
  ExprPtr e = Union(
      Project({1, 4}, Select(Condition::AttrCmp(2, CmpOp::kEq, 3),
                             Product(Rel("R", 2), Rel("S", 2)))),
      Difference(Rel("R", 2), Rel("S", 2)));
  std::string base = EvaluateFull(e, db).value().Fingerprint();
  constexpr int kThreads = 8;
  std::vector<std::string> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      EvalOptions opts;
      opts.jobs = 2;
      got[t] = EvaluateFull(e, db, opts).value().Fingerprint();
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], base);
}

TEST(EvalParallelTest, FanoutProblemEvalJobsInvariant) {
  // The scheduler extremes from the simulator, checked through the
  // evaluator: composed constraints of a wide fanout evaluate identically
  // at any lane count.
  for (bool overlap : {false, true}) {
    CompositionProblem problem = sim::BuildFanoutProblem(6, overlap);
    CompositionResult composed = Compose(problem);
    std::mt19937_64 rng(overlap ? 11 : 12);
    ConstraintSet original = problem.sigma12;
    original.insert(original.end(), problem.sigma23.begin(),
                    problem.sigma23.end());
    Instance inst = RepairTowards(
        RandomInstanceOver(
            {&problem.sigma1, &problem.sigma2, &problem.sigma3}, &rng),
        original);
    for (const Constraint& c : composed.constraints) {
      EvalOptions opts;
      opts.skolem_mode = SkolemEvalMode::kInjectiveTerms;
      opts.jobs = 1;
      Result<EvalResult> a = EvaluateFull(c.lhs, inst, opts);
      opts.jobs = 8;
      Result<EvalResult> b = EvaluateFull(c.lhs, inst, opts);
      ASSERT_EQ(a.ok(), b.ok());
      if (a.ok()) EXPECT_EQ(a->Fingerprint(), b->Fingerprint());
    }
  }
}

}  // namespace
}  // namespace mapcomp
