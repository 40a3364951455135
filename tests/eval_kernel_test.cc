// Differential coverage of the columnar tuple kernel: every result must be
// byte-identical to the nested-loop oracle (tests/oracles/oracle.h),
// across the literature suite, adversarial mixed int/string domains that
// stress ValueId order preservation, and generated hash-join-vs-product
// property instances. Also pins the join planner's stats, the constraint-
// driven σ(D^r) enumeration, and memo-byte refcount dropping.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "src/algebra/builders.h"
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

TEST(EvalKernelTest, SharedEncodedInstanceMatchesInstanceOverload) {
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

TEST(EvalKernelTest, InstanceActiveDomainCacheInvalidation) {
  Instance db;
  db.Set("R", {T({1, 2})});
  EXPECT_EQ(db.ActiveDomain().size(), 2u);
  db.Add("R", T({3, 4}));
  EXPECT_EQ(db.ActiveDomain().size(), 4u);  // Add invalidates
  db.Set("S", {T({9})});
  EXPECT_EQ(db.ActiveDomain().size(), 5u);  // Set invalidates
  db.Clear("S");
  EXPECT_EQ(db.ActiveDomain().size(), 4u);  // Clear invalidates
  Instance copy = db;
  copy.Add("R", T({7, 8}));
  EXPECT_EQ(copy.ActiveDomain().size(), 6u);
  EXPECT_EQ(db.ActiveDomain().size(), 4u);  // copies don't share the cache

  // MergedWith / RestrictedTo mutate their copy's relations directly: a
  // warm source cache must not leak into the derived instance.
  Instance other;
  other.Set("Q", {T({100})});
  EXPECT_EQ(db.MergedWith(other).ActiveDomain().size(), 5u);
  Instance assigned;
  assigned.Set("X", {T({1})});
  EXPECT_EQ(assigned.ActiveDomain().size(), 1u);  // warm the target cache
  assigned = db;
  EXPECT_EQ(assigned.ActiveDomain().size(), 4u);
}

}  // namespace
}  // namespace mapcomp
