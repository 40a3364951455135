// Differential coverage of the columnar tuple kernel: every result must be
// byte-identical to the nested-loop oracle (tests/oracles/oracle.h),
// across the literature suite, adversarial mixed int/string domains that
// stress ValueId order preservation, and generated hash-join-vs-product
// property instances. Also pins the join planner's stats, the constraint-
// driven σ(D^r) enumeration, memo-byte refcount dropping, wide sibling
// fan-outs, and concurrent callers sharing one encoded instance.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/algebra/builders.h"
#include "src/compose/compose.h"
#include "src/eval/checker.h"
#include "src/eval/evaluator.h"
#include "src/eval/generator.h"
#include "src/parser/parser.h"
#include "src/testdata/literature_suite.h"
#include "tests/oracles/instance_api.h"
#include "tests/oracles/oracle.h"

namespace mapcomp {
namespace {

Tuple T(std::initializer_list<int64_t> vals) {
  Tuple t;
  for (int64_t v : vals) t.push_back(Value(v));
  return t;
}

/// Evaluates `e` on the kernel and on the nested-loop oracle, and
/// requires byte-identical fingerprints. The kernel may succeed
/// where the oracle exhausts max_domain_tuples (constraint-driven σ(D^r)
/// enumeration guards only the pruned space); the reverse — the kernel
/// failing where the oracle succeeds — is always a bug.
void ExpectKernelMatchesOracle(const ExprPtr& e, const Instance& db,
                               const EvalOptions& options = {}) {
  Result<EvalResult> oracle = oracle::EvaluateFull(e, db, options);
  Result<EvalResult> kernel = EvaluateFull(e, db, options);
  if (!oracle.ok()) {
    if (kernel.ok()) {
      EXPECT_EQ(oracle.status().code(), StatusCode::kResourceExhausted)
          << "kernel succeeded where the oracle failed with a "
             "non-guard error";
    }
    return;
  }
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  EXPECT_EQ(kernel->Fingerprint(), oracle->Fingerprint());
  EXPECT_EQ(kernel->tuples(), oracle->tuples());
  EXPECT_EQ(kernel->arity, oracle->arity);
}

TEST(EvalKernelTest, LiteratureSuiteMatchesNestedLoopOracle) {
  Parser parser;
  for (const testdata::LiteratureProblem& lit : testdata::LiteratureSuite()) {
    CompositionProblem problem = parser.ParseProblem(lit.text).value();
    CompositionResult composed = Compose(problem);
    ConstraintSet all = problem.sigma12;
    all.insert(all.end(), problem.sigma23.begin(), problem.sigma23.end());
    all.insert(all.end(), composed.constraints.begin(),
               composed.constraints.end());
    std::mt19937_64 rng(lit.name[0] + 4242);
    Instance inst = RepairTowards(
        RandomInstanceOver(
            {&problem.sigma1, &problem.sigma2, &problem.sigma3}, &rng),
        all);
    EvalOptions base;
    base.skolem_mode = SkolemEvalMode::kInjectiveTerms;
    base.extra_constants = CollectConstants(all);
    for (const Constraint& c : all) {
      ExpectKernelMatchesOracle(c.lhs, inst, base);
      ExpectKernelMatchesOracle(c.rhs, inst, base);
    }
  }
}

TEST(EvalKernelTest, SharedEncodedInstanceMatchesFreshEncodings) {
  // One EncodedInstance per problem serves every constraint at every lane
  // count, the way CheckComposition uses it. Skolem terms minted by one
  // evaluation stay in the shared dictionary for the next; results and
  // stats must still equal a fresh encode per call.
  Parser parser;
  bool minted = false;
  for (const testdata::LiteratureProblem& lit : testdata::LiteratureSuite()) {
    CompositionProblem problem = parser.ParseProblem(lit.text).value();
    CompositionResult composed = Compose(problem);
    ConstraintSet all = problem.sigma12;
    all.insert(all.end(), problem.sigma23.begin(), problem.sigma23.end());
    all.insert(all.end(), composed.constraints.begin(),
               composed.constraints.end());
    std::mt19937_64 rng(lit.name[0] + 4242);
    Instance inst = RepairTowards(
        RandomInstanceOver(
            {&problem.sigma1, &problem.sigma2, &problem.sigma3}, &rng),
        all);
    EvalOptions base;
    base.skolem_mode = SkolemEvalMode::kInjectiveTerms;
    base.extra_constants = CollectConstants(all);
    const EncodedInstance encoded(inst, base.extra_constants);
    for (int jobs : {1, 2, 4, 8}) {
      base.jobs = jobs;
      for (const Constraint& c : all) {
        const std::string at =
            std::string(lit.name) + " jobs=" + std::to_string(jobs) + " " + c.ToString();
        Result<std::vector<EvalResult>> want =
            EvaluateMany({c.lhs, c.rhs}, inst, base);
        Result<std::vector<EvalResult>> got =
            EvaluateMany({c.lhs, c.rhs}, encoded, base);
        ASSERT_EQ(got.ok(), want.ok()) << at;
        if (!want.ok()) {
          EXPECT_EQ(got.status().ToString(), want.status().ToString()) << at;
          continue;
        }
        for (size_t side = 0; side < 2; ++side) {
          EXPECT_EQ((*got)[side].Fingerprint(), (*want)[side].Fingerprint())
              << at;
          EXPECT_EQ((*got)[side].stats.ToString(),
                    (*want)[side].stats.ToString())
              << at;
        }
        EvalStats want_stats, got_stats;
        const bool equality = c.kind == ConstraintKind::kEquality;
        Result<bool> want_sat = EvaluateContainment(c.lhs, c.rhs, equality,
                                                    inst, base, &want_stats);
        Result<bool> got_sat = EvaluateContainment(c.lhs, c.rhs, equality,
                                                   encoded, base, &got_stats);
        ASSERT_TRUE(want_sat.ok() && got_sat.ok()) << at;
        EXPECT_EQ(*got_sat, *want_sat) << at;
        EXPECT_EQ(got_stats.ToString(), want_stats.ToString()) << at;
      }
    }
    minted = minted ||
             encoded.dict()->size() > encoded.dict()->ordered_limit();
  }
  // Some Skolem constraint minted terms into a shared dictionary.
  EXPECT_TRUE(minted);
}

TEST(EvalKernelTest, AdversarialMixedIntStringDomains) {
  // Values chosen to punish a dictionary that is not order-preserving:
  // negative/huge ints, the empty string, strings that *look* numeric, and
  // strings differing only by a prefix — all interleaved in one domain.
  Instance db;
  db.Set("R", {Tuple{Value(int64_t{-5}), Value(std::string(""))},
               Tuple{Value(int64_t{0}), Value(std::string("0"))},
               Tuple{Value(int64_t{1'000'000}), Value(std::string("00"))},
               Tuple{Value(int64_t{-5}), Value(std::string("ab"))},
               Tuple{Value(int64_t{7}), Value(std::string("abc"))}});
  db.Set("S", {Tuple{Value(std::string("ab")), Value(int64_t{7})},
               Tuple{Value(std::string("")), Value(int64_t{-5})},
               Tuple{Value(std::string("zz")), Value(int64_t{0})}});
  std::vector<ExprPtr> exprs = {
      Union(Rel("R", 2), Project({2, 1}, Rel("S", 2))),
      Difference(Rel("R", 2), Project({2, 1}, Rel("S", 2))),
      Intersect(Project({2}, Rel("R", 2)), Project({1}, Rel("S", 2))),
      Dom(2),
      // Order atoms across the int/string boundary (< spans both types).
      Select(Condition::AttrCmp(1, CmpOp::kLt, 2), Dom(2)),
      Select(Condition::AttrConst(2, CmpOp::kGe, Value(std::string("0"))),
             Rel("R", 2)),
      // Hash join keyed on a mixed int/string column.
      Select(Condition::AttrCmp(2, CmpOp::kEq, 3),
             Product(Rel("R", 2), Project({2, 1}, Rel("S", 2)))),
      // Skolem terms mint new string values mid-evaluation.
      SkolemApp("f", {2, 1}, Rel("R", 2)),
  };
  EvalOptions base;
  base.skolem_mode = SkolemEvalMode::kInjectiveTerms;
  for (const ExprPtr& e : exprs) ExpectKernelMatchesOracle(e, db, base);
}

TEST(EvalKernelTest, HashJoinVsProductEquivalenceProperty) {
  // Generated instances and join shapes: every select(product) the planner
  // turns into a hash join (or pushed-down nested loop) must equal the
  // product-then-filter oracle, and so must the join-family operators that
  // share its matcher. Threshold 1 shards every probe.
  std::mt19937_64 rng(20260730);
  Signature sig;
  ASSERT_TRUE(sig.AddRelation("A", 2).ok());
  ASSERT_TRUE(sig.AddRelation("B", 3).ok());
  GenOptions gen;
  gen.domain_size = 5;
  gen.max_tuples_per_rel = 9;
  gen.include_strings = true;
  for (int round = 0; round < 40; ++round) {
    Instance inst = RandomInstance(sig, &rng, gen);
    std::uniform_int_distribution<int> left_attr(1, 2), right_attr(3, 5);
    std::uniform_int_distribution<int> coin(0, 1);
    // 1-2 cross equalities + optionally a pushdown conjunct on each side
    // and a cross non-equality residual.
    Condition cond = Condition::AttrCmp(left_attr(rng), CmpOp::kEq,
                                        right_attr(rng));
    if (coin(rng)) {
      cond = Condition::And(
          cond, Condition::AttrCmp(left_attr(rng), CmpOp::kEq,
                                   right_attr(rng)));
    }
    if (coin(rng)) {
      cond = Condition::And(
          cond, Condition::AttrConst(left_attr(rng), CmpOp::kNe,
                                     Value(int64_t{2})));
    }
    if (coin(rng)) {
      cond = Condition::And(
          cond, Condition::AttrConst(right_attr(rng), CmpOp::kNe,
                                     Value(int64_t{3})));
    }
    if (coin(rng)) {
      cond = Condition::And(cond, Condition::AttrCmp(left_attr(rng),
                                                     CmpOp::kLe,
                                                     right_attr(rng)));
    }
    ExprPtr join = Select(cond, Product(Rel("A", 2), Rel("B", 3)));
    ExpectKernelMatchesOracle(join, inst);
    ExpectKernelMatchesOracle(Project({1, 3, 4}, join), inst);
    for (const char* op : {"semijoin", "antijoin", "lojoin"}) {
      ExprPtr user = op::Registry::Default()
                         .MakeOp(op, {Rel("A", 2), Rel("B", 3)}, cond)
                         .value();
      ExpectKernelMatchesOracle(user, inst);
    }
  }
}

TEST(EvalKernelTest, JoinPlannerStatsAndBypassedProduct) {
  Instance db;
  std::set<Tuple> r, s;
  for (int64_t i = 0; i < 30; ++i) {
    r.insert(Tuple{Value(i), Value(i % 7)});
    s.insert(Tuple{Value(i % 7), Value(i)});
  }
  db.Set("R", std::move(r));
  db.Set("S", std::move(s));
  ExprPtr join = Select(Condition::AttrCmp(2, CmpOp::kEq, 3),
                        Product(Rel("R", 2), Rel("S", 2)));
  EvalResult kernel = EvaluateFull(join, db).value();
  EXPECT_EQ(kernel.stats.hash_join_nodes, 1);
  EXPECT_EQ(kernel.stats.nested_product_nodes, 0);
  // The product child is planned around, never materialized: only R, S and
  // the select itself count as evaluated nodes.
  EXPECT_EQ(kernel.stats.nodes_evaluated, 3);

  EvalResult oracle = oracle::EvaluateFull(join, db).value();
  EXPECT_EQ(oracle.stats.hash_join_nodes, 0);
  EXPECT_EQ(oracle.stats.nested_product_nodes, 1);
  EXPECT_EQ(oracle.stats.nodes_evaluated, 4);  // R, S, product, select
  EXPECT_EQ(kernel.Fingerprint(), oracle.Fingerprint());

  // A keyless cross-side condition falls back to a (filtered) nested loop.
  ExprPtr keyless = Select(Condition::AttrCmp(2, CmpOp::kLt, 3),
                           Product(Rel("R", 2), Rel("S", 2)));
  EvalResult fallback = EvaluateFull(keyless, db).value();
  EXPECT_EQ(fallback.stats.hash_join_nodes, 0);
  EXPECT_EQ(fallback.stats.nested_product_nodes, 1);
  EXPECT_EQ(fallback.Fingerprint(),
            oracle::EvaluateFull(keyless, db).value().Fingerprint());
}

TEST(EvalKernelTest, SelectOverAlreadyMaterializedProductFiltersTheMemo) {
  // Union(P, select(P)): the union evaluates the shared product first, so
  // the select must filter the memoized table instead of re-planning a
  // join — the product's children may already be refcount-dropped, and a
  // bypass would re-evaluate them from scratch.
  Instance db;
  std::set<Tuple> r, s;
  for (int64_t i = 0; i < 12; ++i) {
    r.insert(Tuple{Value(i), Value(i % 3)});
    s.insert(Tuple{Value(i % 3), Value(i)});
  }
  db.Set("R", std::move(r));
  db.Set("S", std::move(s));
  ExprPtr prod = Product(Rel("R", 2), Rel("S", 2));
  ExprPtr e = Union(prod, Select(Condition::AttrCmp(2, CmpOp::kEq, 3), prod));
  EvalResult out = EvaluateFull(e, db).value();
  // R, S, product, select, union — nothing evaluated twice.
  EXPECT_EQ(out.stats.nodes_evaluated, 5);
  EXPECT_EQ(out.stats.memo_hits, 1);  // the select's view of the product
  EXPECT_EQ(out.stats.hash_join_nodes, 0);
  EXPECT_EQ(out.Fingerprint(),
            oracle::EvaluateFull(e, db).value().Fingerprint());
}

TEST(EvalKernelTest, RaggedRelationIsACleanError) {
  // The instance API never validates arity; a flat fixed-stride table must
  // reject ragged tuples instead of reading rows out of bounds.
  Instance db;
  db.Set("R", {T({1, 2}), T({7})});
  Result<std::set<Tuple>> out = Evaluate(Rel("R", 2), db);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  // Encoded once, the ragged relation stays a tuple set: a node reading it
  // at either arity fails with the same error, and the rest of the
  // instance evaluates normally.
  db.Set("S", {T({3, 4})});
  const EncodedInstance encoded(db, {});
  for (int arity : {1, 2}) {
    Result<EvalResult> want = EvaluateFull(Rel("R", arity), db);
    Result<EvalResult> got = EvaluateFull(Rel("R", arity), encoded);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
  }
  Result<EvalResult> s = EvaluateFull(Union(Rel("S", 2), Rel("S", 2)),
                                      encoded);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s->tuples(), db.Get("S"));
  // A uniform relation read at the wrong arity is the same clean error.
  Result<EvalResult> wide = EvaluateFull(Rel("S", 3), encoded);
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.status().ToString(),
            EvaluateFull(Rel("S", 3), db).status().ToString());
}

TEST(EvalKernelTest, DomainSelectEnumeratesOnlyTheBoundSpace) {
  // adom has 60 values: D^3 = 216000 tuples. With #1 pinned and #2 = #3 the
  // pruned space is 60 candidates, so a guard of 100 passes on the kernel
  // while the nested-loop oracle exhausts.
  Instance db;
  std::set<Tuple> u;
  for (int64_t i = 0; i < 60; ++i) u.insert(Tuple{Value(i)});
  db.Set("U", std::move(u));
  Condition cond = Condition::And(
      Condition::AttrConst(1, CmpOp::kEq, Value(int64_t{3})),
      Condition::AttrCmp(2, CmpOp::kEq, 3));
  ExprPtr sel = Select(cond, Dom(3));

  EvalOptions tight;
  tight.max_domain_tuples = 100;
  EvalResult pruned = EvaluateFull(sel, db, tight).value();
  EXPECT_EQ(pruned.tuples().size(), 60u);  // (3, v, v) for every domain v

  Result<EvalResult> oracle = oracle::EvaluateFull(sel, db, tight);
  ASSERT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.status().code(), StatusCode::kResourceExhausted);

  // With a generous guard both paths agree bit for bit.
  EXPECT_EQ(EvaluateFull(sel, db).value().Fingerprint(),
            oracle::EvaluateFull(sel, db).value().Fingerprint());

  // A coordinate pinned to a constant outside the domain empties the
  // selection without enumerating anything.
  ExprPtr off_domain = Select(
      Condition::AttrConst(1, CmpOp::kEq, Value(int64_t{777})), Dom(3));
  EXPECT_TRUE(EvaluateFull(off_domain, db, tight).value().tuples().empty());

  // Conflicting pins on one equality class are unsatisfiable outright.
  ExprPtr conflict = Select(
      Condition::And(
          Condition::And(
              Condition::AttrConst(1, CmpOp::kEq, Value(int64_t{1})),
              Condition::AttrConst(2, CmpOp::kEq, Value(int64_t{2}))),
          Condition::AttrCmp(1, CmpOp::kEq, 2)),
      Dom(2));
  EXPECT_TRUE(EvaluateFull(conflict, db, tight).value().tuples().empty());
}

TEST(EvalKernelTest, MemoBytesPeakBelowTotalOnDeepChain) {
  // A 24-deep chain of distinct selects: refcount dropping releases each
  // intermediate table as soon as its single parent consumed it, so the
  // live-memo watermark stays far below the sum of all footprints.
  Instance db;
  std::set<Tuple> r;
  for (int64_t i = 0; i < 200; ++i) r.insert(Tuple{Value(i), Value(i + 1)});
  db.Set("R", std::move(r));
  ExprPtr e = Rel("R", 2);
  for (int64_t i = 0; i < 24; ++i) {
    e = Select(Condition::AttrConst(1, CmpOp::kNe, Value(int64_t{1000 + i})),
               e);
  }
  for (bool force : {false, true}) {
    EvalResult out =
        (force ? oracle::EvaluateFull(e, db) : EvaluateFull(e, db)).value();
    EXPECT_EQ(out.tuples().size(), 200u) << "force=" << force;
    EXPECT_GT(out.stats.memo_bytes_peak, 0) << "force=" << force;
    EXPECT_GT(out.stats.memo_bytes_total, 0) << "force=" << force;
    EXPECT_LT(out.stats.memo_bytes_peak, out.stats.memo_bytes_total)
        << "force=" << force;
    // The chain is 25 nodes of ~equal size; the watermark should hold only
    // a couple of them, not half the chain.
    EXPECT_LT(out.stats.memo_bytes_peak, out.stats.memo_bytes_total / 4)
        << "force=" << force;
  }
}

TEST(EvalKernelTest, SharedSubtreeSurvivesUntilLastParent) {
  // shared feeds both sides of an intersect *and* a later root: dropping
  // must not evict it before the last consumer, and memo hits must agree
  // with the legacy accounting.
  Instance db;
  db.Set("R", {T({1, 2}), T({2, 3}), T({3, 4})});
  ExprPtr shared = Project({1}, Rel("R", 2));
  ExprPtr lhs = Intersect(shared, shared);
  std::vector<EvalResult> out = EvaluateMany({lhs, shared}, db).value();
  EXPECT_EQ(out[0].stats.nodes_evaluated, 3);  // R, project, intersect
  EXPECT_EQ(out[0].stats.memo_hits, 1);        // second intersect edge
  EXPECT_EQ(out[1].stats.nodes_evaluated, 0);
  EXPECT_EQ(out[1].stats.memo_hits, 1);  // still memoized for the 2nd root
  EXPECT_EQ(out[1].tuples(), (std::set<Tuple>{T({1}), T({2}), T({3})}));
}

TEST(EvalKernelTest, PerRootStatsAreExact) {
  // Every memo path in one forest, each root's counters pinned exactly:
  // a duplicated subtree, a product planned around (its children cascade
  // when the join consumes it), a select over a product another parent
  // already evaluated, a shared subtree that is also a root, one root given
  // twice, a pruned σ(D^r) and a transitive closure.
  Instance db;
  db.Set("R", {T({1, 2}), T({2, 3}), T({3, 4}), T({4, 1})});
  db.Set("S", {T({2, 5}), T({3, 5}), T({4, 1}), T({5, 5})});
  db.Set("E", {T({1, 2}), T({2, 3}), T({3, 1}), T({5, 6})});
  const ExprPtr dup = Project({1}, Rel("R", 2));
  const ExprPtr twice = Intersect(dup, Union(dup, Project({2}, Rel("S", 2))));
  const ExprPtr bypassed = Select(Condition::AttrCmp(2, CmpOp::kEq, 3),
                                  Product(Rel("R", 2), Rel("S", 2)));
  const ExprPtr prod = Product(Rel("S", 2), Rel("R", 2));
  const ExprPtr filtered =
      Union(prod, Select(Condition::AttrCmp(2, CmpOp::kEq, 3), prod));
  const ExprPtr pruned = Select(
      Condition::And(Condition::AttrConst(1, CmpOp::kEq, Value(int64_t{3})),
                     Condition::AttrCmp(2, CmpOp::kEq, 3)),
      Dom(3));
  const ExprPtr closure =
      op::Registry::Default().MakeOp("tc", {Rel("E", 2)}).value();
  const std::vector<ExprPtr> roots = {twice,  bypassed, filtered, twice,
                                      pruned, closure,  dup};
  std::vector<EvalResult> out = EvaluateMany(roots, db).value();
  const std::vector<std::string> want = {
      "eval: 6 nodes, 1 memo hits, 23 tuples, 0 hash joins, 0 nested "
      "products, memo 316B peak / 364B total, 6 tasks",
      "eval: 1 nodes, 2 memo hits, 3 tuples, 1 hash joins, 0 nested "
      "products, memo 344B peak / 88B total, 1 tasks",
      "eval: 3 nodes, 3 memo hits, 33 tuples, 0 hash joins, 1 nested "
      "products, memo 760B peak / 648B total, 3 tasks",
      "eval: 0 nodes, 1 memo hits, 0 tuples, 0 hash joins, 0 nested "
      "products, memo 760B peak / 0B total, 0 tasks",
      "eval: 1 nodes, 0 memo hits, 6 tuples, 0 hash joins, 0 nested "
      "products, memo 760B peak / 112B total, 1 tasks",
      "eval: 2 nodes, 0 memo hits, 14 tuples, 0 hash joins, 0 nested "
      "products, memo 760B peak / 192B total, 2 tasks",
      "eval: 0 nodes, 1 memo hits, 0 tuples, 0 hash joins, 0 nested "
      "products, memo 760B peak / 0B total, 0 tasks",
  };
  ASSERT_EQ(out.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(out[i].stats.ToString(), want[i]) << "root " << i;
  }
  // Containment sums its two roots' counters and keeps the watermark.
  EvalStats both;
  ASSERT_TRUE(EvaluateContainment(bypassed, filtered, /*equality=*/false, db,
                                  {}, &both)
                  .ok());
  EXPECT_EQ(both.ToString(),
            "eval: 6 nodes, 3 memo hits, 44 tuples, 1 hash joins, 1 nested "
            "products, memo 648B peak / 880B total, 6 tasks");
}

TEST(EvalKernelTest, ContainmentRunsOnTables) {
  Instance db;
  std::set<Tuple> r;
  for (int64_t i = 0; i < 500; ++i) r.insert(Tuple{Value(i), Value(i % 9)});
  db.Set("R", std::move(r));
  ExprPtr rel = Rel("R", 2);
  ExprPtr wide = Union(rel, Project({2, 1}, rel));
  EvalStats stats;
  EXPECT_TRUE(
      EvaluateContainment(rel, wide, /*equality=*/false, db, {}, &stats)
          .value());
  EXPECT_FALSE(
      EvaluateContainment(wide, rel, /*equality=*/false, db, {}).value());
  EXPECT_FALSE(
      EvaluateContainment(rel, wide, /*equality=*/true, db, {}).value());
  EXPECT_TRUE(
      EvaluateContainment(wide, wide, /*equality=*/true, db, {}).value());
  EXPECT_GT(stats.nodes_evaluated, 0);
  // The oracle agrees.
  EXPECT_TRUE(oracle::EvaluateContainment(rel, wide, false, db).value());
  EXPECT_FALSE(oracle::EvaluateContainment(wide, rel, false, db).value());
}

TEST(EvalKernelTest, MismatchedArityContainmentIsFalseNotUB) {
  // Constraint::Contain/Equal never validate arity; tuples of different
  // arities are never equal, so only an empty lhs is contained — on both
  // paths, with no out-of-bounds row walk.
  Instance db;
  db.Set("R", {T({1, 2, 3})});
  db.Set("S", {T({1, 2})});
  for (bool force : {false, true}) {
    using ContainFn =
        Result<bool> (*)(const ExprPtr&, const ExprPtr&, bool,
                         const Instance&, const EvalOptions&, EvalStats*);
    ContainFn contain = force ? ContainFn{oracle::EvaluateContainment}
                              : ContainFn{EvaluateContainment};
    EXPECT_FALSE(
        contain(Rel("R", 3), Rel("S", 2), false, db, {}, nullptr).value())
        << "force=" << force;
    EXPECT_TRUE(
        contain(Rel("Empty", 3), Rel("S", 2), false, db, {}, nullptr).value())
        << "force=" << force;
  }
}

TEST(EvalKernelTest, InstanceActiveDomainFollowsWrites) {
  Instance db;
  db.Set("R", {T({1, 2})});
  EXPECT_EQ(db.ActiveDomain().size(), 2u);
  db.Add("R", T({3, 4}));
  EXPECT_EQ(db.ActiveDomain().size(), 4u);
  db.Set("S", {T({9})});
  EXPECT_EQ(db.ActiveDomain().size(), 5u);
  db.Clear("S");
  EXPECT_EQ(db.ActiveDomain().size(), 4u);
  Instance copy = db;
  copy.Add("R", T({7, 8}));
  EXPECT_EQ(copy.ActiveDomain().size(), 6u);
  EXPECT_EQ(db.ActiveDomain().size(), 4u);  // the copy is independent
  Instance assigned;
  assigned.Set("X", {T({1})});
  EXPECT_EQ(assigned.ActiveDomain().size(), 1u);
  assigned = db;
  EXPECT_EQ(assigned.ActiveDomain().size(), 4u);
}

// ---- Wide sibling fan-outs.

/// The bench's dag_siblings shape: a balanced union tree over `width`
/// independent join subtrees, each over its own relation pair — so the
/// walk meets `width` sibling chains with no shared nodes below the unions.
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

TEST(EvalKernelTest, WideFanoutRunsEveryLegAsAJoin) {
  const ExprPtr e = DagSiblings(16);
  Instance db = DagSiblingsInstance(16, 40, 24, 7);
  EvalResult out = EvaluateFull(e, db).value();
  EXPECT_EQ(out.stats.hash_join_nodes, 16);
  EXPECT_EQ(out.stats.tasks_spawned, out.stats.nodes_evaluated);
  ExpectKernelMatchesOracle(DagSiblings(4), db);
  // Minted values (Skolem terms) agree with the oracle byte for byte too.
  EvalOptions sk_opts;
  sk_opts.skolem_mode = SkolemEvalMode::kInjectiveTerms;
  ExpectKernelMatchesOracle(SkolemApp("f", {1}, Rel("R0", 2)), db, sk_opts);
}

TEST(EvalKernelTest, RaggedLegFailsTheFanout) {
  // A ragged relation in one leg of a wide fan-out fails the evaluation
  // when the walk reads it; the D^r guard fails before enumerating.
  Instance db = DagSiblingsInstance(8, 20, 12, 9);
  std::set<Tuple> ragged = db.Get("R3");
  ragged.insert(T({7}));
  db.Set("R3", std::move(ragged));
  Result<EvalResult> got = EvaluateFull(DagSiblings(8), db);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument)
      << got.status().ToString();
  EvalOptions tight;
  tight.max_domain_tuples = 10;
  Result<EvalResult> guard = EvaluateFull(Dom(3), db, tight);
  ASSERT_FALSE(guard.ok());
  EXPECT_EQ(guard.status().code(), StatusCode::kResourceExhausted);
}

TEST(EvalKernelTest, ConcurrentCallersShareOneEncodedInstance) {
  // Eight threads evaluate the same roots at once through EvaluateTables
  // against one EncodedInstance, which needs no lock of its own; the
  // Skolem root mints terms into its one dictionary from every thread.
  // Each must decode to the fingerprints of a fresh single-caller
  // encoding.
  constexpr int kThreads = 8;
  Instance db = DagSiblingsInstance(8, 30, 16, 11);
  std::vector<ExprPtr> roots;
  for (int w : {2, 4, 8}) roots.push_back(DagSiblings(w));
  roots.push_back(Union(
      Project({1, 4}, Select(Condition::AttrCmp(2, CmpOp::kEq, 3),
                             Product(Rel("R0", 2), Rel("S0", 2)))),
      Difference(Rel("R1", 2), Rel("S1", 2))));
  roots.push_back(SkolemApp("f", {1, 2}, Rel("R2", 2)));
  EvalOptions opts;
  opts.skolem_mode = SkolemEvalMode::kInjectiveTerms;
  auto fingerprints = [](const std::vector<EvalResult>& results) {
    std::vector<std::string> out;
    for (const EvalResult& r : results) out.push_back(r.Fingerprint());
    return out;
  };
  const std::vector<std::string> baseline =
      fingerprints(EvaluateMany(roots, db, opts).value());
  const EncodedInstance shared(db, {});
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      got[i] = fingerprints(EvaluateMany(roots, shared, opts).value());
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) EXPECT_EQ(got[i], baseline) << i;
}

}  // namespace
}  // namespace mapcomp
