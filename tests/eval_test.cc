#include "src/eval/evaluator.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/algebra/builders.h"
#include "src/algebra/simplify.h"
#include "src/algebra/substitute.h"
#include "src/compose/compose.h"
#include "src/common/cancel.h"
#include "src/compose/monotone.h"
#include "src/eval/checker.h"
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

/// R and S of `tuples` random pairs each over `domain` values.
Instance RandomPairs(int tuples, int domain, uint64_t seed) {
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

class EvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.Set("R", {T({1, 2}), T({2, 3})});
    db_.Set("S", {T({2, 3}), T({4, 5})});
    db_.Set("U", {T({1}), T({4})});
  }
  Instance db_;
};

TEST_F(EvalTest, BaseRelationAndEmpty) {
  EXPECT_EQ(Evaluate(Rel("R", 2), db_).value().size(), 2u);
  EXPECT_TRUE(Evaluate(Rel("Z", 2), db_).value().empty());
  EXPECT_TRUE(Evaluate(EmptyRel(2), db_).value().empty());
}

TEST_F(EvalTest, Literal) {
  auto out = Evaluate(Lit(1, {T({7}), T({8})}), db_).value();
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(out.count(T({7})) > 0);
}

TEST_F(EvalTest, UnionIntersectDifference) {
  EXPECT_EQ(Evaluate(Union(Rel("R", 2), Rel("S", 2)), db_).value().size(), 3u);
  auto inter = Evaluate(Intersect(Rel("R", 2), Rel("S", 2)), db_).value();
  EXPECT_EQ(inter, (std::set<Tuple>{T({2, 3})}));
  auto diff = Evaluate(Difference(Rel("R", 2), Rel("S", 2)), db_).value();
  EXPECT_EQ(diff, (std::set<Tuple>{T({1, 2})}));
}

TEST_F(EvalTest, ProductSelectProject) {
  auto prod = Evaluate(Product(Rel("U", 1), Rel("U", 1)), db_).value();
  EXPECT_EQ(prod.size(), 4u);
  auto sel = Evaluate(Select(Condition::AttrCmp(1, CmpOp::kEq, 2),
                             Product(Rel("U", 1), Rel("U", 1))),
                      db_)
                 .value();
  EXPECT_EQ(sel.size(), 2u);
  auto proj = Evaluate(Project({2}, Rel("R", 2)), db_).value();
  EXPECT_EQ(proj, (std::set<Tuple>{T({2}), T({3})}));
  auto dup = Evaluate(Project({1, 1}, Rel("U", 1)), db_).value();
  EXPECT_EQ(dup, (std::set<Tuple>{T({1, 1}), T({4, 4})}));
}

TEST_F(EvalTest, ActiveDomain) {
  // adom = {1,2,3,4,5}.
  auto d1 = Evaluate(Dom(1), db_).value();
  EXPECT_EQ(d1.size(), 5u);
  auto d2 = Evaluate(Dom(2), db_).value();
  EXPECT_EQ(d2.size(), 25u);
}

TEST_F(EvalTest, DomainIncludesExtraConstants) {
  EvalOptions opts;
  opts.extra_constants.insert(Value(int64_t{99}));
  auto d1 = Evaluate(Dom(1), db_, opts).value();
  EXPECT_EQ(d1.size(), 6u);
  EXPECT_TRUE(d1.count(T({99})) > 0);
}

TEST_F(EvalTest, DomainBlowupGuard) {
  EvalOptions opts;
  opts.max_domain_tuples = 10;
  Result<std::set<Tuple>> r = Evaluate(Dom(2), db_, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(EvalTest, SkolemModes) {
  ExprPtr sk = SkolemApp("f", {1}, Rel("U", 1));
  EXPECT_FALSE(Evaluate(sk, db_).ok());
  EvalOptions opts;
  opts.skolem_mode = SkolemEvalMode::kInjectiveTerms;
  auto out = Evaluate(sk, db_, opts).value();
  EXPECT_EQ(out.size(), 2u);
  // Injective: distinct inputs get distinct terms.
  std::set<Value> skolem_values;
  for (const Tuple& t : out) skolem_values.insert(t[1]);
  EXPECT_EQ(skolem_values.size(), 2u);
}

TEST_F(EvalTest, UserOpEval) {
  // semijoin[#1=#3](R, S): R tuples whose first column appears as S's first.
  const op::Registry& reg = op::Registry::Default();
  ExprPtr sj = reg.MakeOp("semijoin", {Rel("R", 2), Rel("S", 2)},
                          Condition::AttrCmp(1, CmpOp::kEq, 3))
                   .value();
  auto out = Evaluate(sj, db_).value();
  EXPECT_EQ(out, (std::set<Tuple>{T({2, 3})}));
}

TEST_F(EvalTest, SatisfiesContainmentAndEquality) {
  // R ⊆ R ∪ S holds; R = S does not.
  EXPECT_TRUE(Satisfies(db_, Constraint::Contain(
                                 Rel("R", 2), Union(Rel("R", 2), Rel("S", 2))))
                  .value());
  EXPECT_FALSE(Satisfies(db_, Constraint::Equal(Rel("R", 2), Rel("S", 2)))
                   .value());
}

TEST_F(EvalTest, SatisfiesAllCollectsConstants) {
  // Constraint references constant 7, absent from db. {(7)} ⊆ D^1 must hold
  // because checking adds the constraint's own constants to the domain.
  ConstraintSet cs{Constraint::Contain(Lit(1, {T({7})}), Dom(1))};
  EXPECT_TRUE(SatisfiesAll(db_, cs).value());
}

TEST_F(EvalTest, KeyConstraintSemantics) {
  // Key constraint from Example 2: first column of a binary relation is a
  // key.
  ConstraintSet key = KeyConstraintsFor("K", 2, {1});
  Instance good;
  good.Set("K", {T({1, 2}), T({2, 2})});
  EXPECT_TRUE(SatisfiesAll(good, key).value());
  Instance bad;
  bad.Set("K", {T({1, 2}), T({1, 3})});
  EXPECT_FALSE(SatisfiesAll(bad, key).value());
}

TEST_F(EvalTest, EvaluateFullStatsAndFingerprint) {
  ExprPtr e = Union(Rel("R", 2), Rel("S", 2));
  EvalResult out = EvaluateFull(e, db_).value();
  EXPECT_EQ(out.arity, 2);
  EXPECT_EQ(out.tuples().size(), 3u);
  EXPECT_EQ(out.stats.nodes_evaluated, 3);  // R, S, the union
  EXPECT_EQ(out.stats.memo_hits, 0);
  // Deterministic across runs and byte-equal to the same evaluation again.
  EXPECT_EQ(out.Fingerprint(), EvaluateFull(e, db_).value().Fingerprint());
  EXPECT_NE(out.Fingerprint().find("arity=2"), std::string::npos);
  // A different result set fingerprints differently.
  EXPECT_NE(out.Fingerprint(),
            EvaluateFull(Rel("R", 2), db_).value().Fingerprint());
}

TEST_F(EvalTest, EvaluateManySharesTheMemoAcrossRoots) {
  // The shape the checker sees: two constraint sides reusing one subtree.
  ExprPtr shared = Project({1}, Rel("R", 2));
  ExprPtr lhs = Intersect(shared, Rel("U", 1));
  ExprPtr rhs = shared;
  std::vector<EvalResult> sides = EvaluateMany({lhs, rhs}, db_).value();
  ASSERT_EQ(sides.size(), 2u);
  // Root 2's whole tree was computed while evaluating root 1.
  EXPECT_EQ(sides[1].stats.nodes_evaluated, 0);
  EXPECT_EQ(sides[1].stats.memo_hits, 1);
  EXPECT_EQ(sides[1].tuples(),
            Evaluate(Project({1}, Rel("R", 2)), db_).value());

  // A forest of several hundred distinct nodes, most of them shared by
  // several parents and several roots, with one root given twice: the
  // walk's node table grows many times over. Results and per-root counters
  // equal the nested-loop oracle's and the values pinned below.
  Instance db;
  std::vector<ExprPtr> nodes;
  for (int64_t rel = 0; rel < 6; ++rel) {
    std::set<Tuple> tuples;
    for (int64_t i = 0; i < 6; ++i) tuples.insert(T({(rel * 5 + i * 7) % 16}));
    const std::string name = "L" + std::to_string(rel);
    db.Set(name, std::move(tuples));
    nodes.push_back(Rel(name, 1));
  }
  for (size_t k = 0; nodes.size() < 600; ++k) {
    const ExprPtr& a = nodes[(k * 7) % nodes.size()];
    const ExprPtr& b = nodes[(k * 13 + 5) % nodes.size()];
    nodes.push_back(k % 3 == 0   ? Union(a, b)
                    : k % 3 == 1 ? Intersect(a, b)
                                 : Difference(a, b));
  }
  const std::vector<ExprPtr> roots = {nodes[599], nodes[420], nodes[599],
                                      nodes[598], nodes[300], nodes[597],
                                      nodes[511], nodes[596]};
  std::vector<EvalResult> got = EvaluateMany(roots, db).value();
  std::vector<EvalResult> want = oracle::EvaluateMany(roots, db).value();
  ASSERT_EQ(got.size(), roots.size());
  ASSERT_EQ(want.size(), roots.size());
  // The oracle counts nodes, memo hits and tuples the kernel's way; its
  // memo bytes measure value sets, so those are pinned below instead.
  auto counters = [](const EvalStats& st) {
    return std::to_string(st.nodes_evaluated) + " nodes, " +
           std::to_string(st.memo_hits) + " hits, " +
           std::to_string(st.tuples_produced) + " tuples";
  };
  int64_t computed = 0;
  for (size_t i = 0; i < roots.size(); ++i) {
    EXPECT_EQ(got[i].Fingerprint(), want[i].Fingerprint()) << "root " << i;
    EXPECT_EQ(counters(got[i].stats), counters(want[i].stats)) << "root " << i;
    computed += got[i].stats.nodes_evaluated;
  }
  EXPECT_GE(computed, 300);
  const std::string empty = "eval{arity=1;n=0;}";
  const std::vector<std::string> pinned_fingerprints = {
      empty,
      "eval{arity=1;n=12;t1:i0;t1:i1;t1:i3;t1:i5;t1:i6;t1:i7;t1:i8;t1:i10;"
      "t1:i12;t1:i13;t1:i14;t1:i15;}",
      empty,
      empty,
      "eval{arity=1;n=10;t1:i0;t1:i2;t1:i3;t1:i4;t1:i5;t1:i7;t1:i9;t1:i11;"
      "t1:i12;t1:i14;}",
      "eval{arity=1;n=14;t1:i1;t1:i2;t1:i3;t1:i4;t1:i5;t1:i6;t1:i8;t1:i9;"
      "t1:i10;t1:i11;t1:i12;t1:i13;t1:i14;t1:i15;}",
      empty,
      empty,
  };
  const std::vector<std::string> pinned_stats = {
      "eval: 91 nodes, 80 memo hits, 319 tuples, 0 hash joins, 0 nested "
      "products, memo 2340B peak / 4916B total, 91 tasks",
      "eval: 10 nodes, 11 memo hits, 120 tuples, 0 hash joins, 0 nested "
      "products, memo 2440B peak / 880B total, 10 tasks",
      "eval: 0 nodes, 1 memo hits, 0 tuples, 0 hash joins, 0 nested "
      "products, memo 2440B peak / 0B total, 0 tasks",
      "eval: 71 nodes, 72 memo hits, 347 tuples, 0 hash joins, 0 nested "
      "products, memo 3056B peak / 4228B total, 71 tasks",
      "eval: 21 nodes, 22 memo hits, 124 tuples, 0 hash joins, 0 nested "
      "products, memo 3056B peak / 1336B total, 21 tasks",
      "eval: 36 nodes, 37 memo hits, 236 tuples, 0 hash joins, 0 nested "
      "products, memo 3056B peak / 2384B total, 36 tasks",
      "eval: 38 nodes, 39 memo hits, 187 tuples, 0 hash joins, 0 nested "
      "products, memo 3056B peak / 2268B total, 38 tasks",
      "eval: 43 nodes, 44 memo hits, 160 tuples, 0 hash joins, 0 nested "
      "products, memo 3056B peak / 2360B total, 43 tasks",
  };
  for (size_t i = 0; i < roots.size(); ++i) {
    EXPECT_EQ(got[i].Fingerprint(), pinned_fingerprints[i]) << "root " << i;
    EXPECT_EQ(got[i].stats.ToString(), pinned_stats[i]) << "root " << i;
  }
  EXPECT_EQ(got.back().stats.memo_bytes_peak, 3056);
  EvalStats both, both_oracle;
  ASSERT_TRUE(EvaluateContainment(roots[0], roots[1], /*equality=*/false, db,
                                  {}, &both)
                  .ok());
  ASSERT_TRUE(oracle::EvaluateContainment(roots[0], roots[1],
                                          /*equality=*/false, db, {},
                                          &both_oracle)
                  .ok());
  EXPECT_EQ(counters(both), counters(both_oracle));
  EXPECT_EQ(both.ToString(),
            "eval: 101 nodes, 91 memo hits, 439 tuples, 0 hash joins, 0 "
            "nested products, memo 1368B peak / 5796B total, 101 tasks");
}

TEST_F(EvalTest, SharedSubtreeEvaluatesOnce) {
  ExprPtr r = Rel("R", 2);
  EvalResult out = EvaluateFull(Intersect(r, r), db_).value();
  EXPECT_EQ(out.stats.nodes_evaluated, 2);  // R once + the intersect
  EXPECT_EQ(out.stats.memo_hits, 1);
  EXPECT_EQ(out.tuples(), db_.Get("R"));
}

TEST(EvalMemoTest, DuplicatedSubtreeEvaluatesOnce) {
  // A shared join subtree duplicated 2^6 times in the tree reading: the
  // interner collapses every level to one physical node, and the memo
  // evaluates the join exactly once.
  Instance db = RandomPairs(50, 12, 2);
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

TEST(EvalErrorTest, DomainExhaustionIsAnError) {
  // Guard exhaustion surfaces as an error before anything is enumerated,
  // never as a hang.
  Instance db = RandomPairs(400, 50, 3);
  ASSERT_GE(db.ActiveDomain().size(), 40u);
  Result<EvalResult> r = EvaluateFull(Dom(4), db);  // ≥ 40^4 > 2M
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EvalOptions opts;
  opts.max_domain_tuples = 10;
  Result<EvalResult> small = EvaluateFull(Dom(2), db, opts);
  ASSERT_FALSE(small.ok());
  EXPECT_EQ(small.status().code(), StatusCode::kResourceExhausted);
}

TEST(EvalErrorTest, FirstFailingNodeInVisitOrderNamesTheError) {
  // A ragged relation fails when its table is read, the D^3 guard before
  // anything is enumerated; whichever leg the walk reaches first names the
  // error, as in the nested-loop oracle's recursion.
  Instance db;
  db.Set("R", {T({1, 2}), T({7})});
  const ExprPtr ragged = Rel("R", 2);
  const ExprPtr oversized = Project({1, 2}, Dom(3));
  EvalOptions tight;
  tight.max_domain_tuples = 10;
  Result<EvalResult> ragged_first =
      EvaluateFull(Union(ragged, oversized), db, tight);
  ASSERT_FALSE(ragged_first.ok());
  EXPECT_EQ(ragged_first.status().code(), StatusCode::kInvalidArgument)
      << ragged_first.status().ToString();
  Result<EvalResult> guard_first =
      EvaluateFull(Union(oversized, ragged), db, tight);
  ASSERT_FALSE(guard_first.ok());
  EXPECT_EQ(guard_first.status().code(), StatusCode::kResourceExhausted)
      << guard_first.status().ToString();
}

TEST(EvalErrorTest, FiredTokenCancelsTheEvaluation) {
  // A token fired before the call wins.
  Instance db;
  db.Set("R", {T({1, 2}), T({2, 3}), T({3, 4})});
  db.Set("S", {T({2, 5}), T({3, 5}), T({4, 1}), T({5, 5})});
  const ExprPtr e = Union(Rel("R", 2), Rel("S", 2));
  common::CancelSource source;
  source.Cancel();
  EvalOptions opts;
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

TEST(GeneratorTest, RandomInstanceOverSpansSignatures) {
  Signature s1, s2;
  ASSERT_TRUE(s1.AddRelation("A", 1).ok());
  ASSERT_TRUE(s2.AddRelation("B", 2).ok());
  std::mt19937_64 rng(5);
  GenOptions gen;
  gen.max_tuples_per_rel = 4;
  Instance inst = RandomInstanceOver({&s1, &s2}, &rng, gen);
  for (const Tuple& t : inst.Get("A")) EXPECT_EQ(t.size(), 1u);
  for (const Tuple& t : inst.Get("B")) EXPECT_EQ(t.size(), 2u);
}

TEST(GeneratorTest, RepairTowardsSatisfiesMonotonePipeline) {
  // A ⊆ B, B ⊆ C: whatever the random start, chase repair must land on a
  // satisfying instance (the feeds are monotone).
  Signature sig;
  ASSERT_TRUE(sig.AddRelation("A", 1).ok());
  ASSERT_TRUE(sig.AddRelation("B", 1).ok());
  ASSERT_TRUE(sig.AddRelation("C", 1).ok());
  ConstraintSet cs{Constraint::Contain(Rel("A", 1), Rel("B", 1)),
                   Constraint::Contain(Rel("B", 1), Rel("C", 1))};
  std::mt19937_64 rng(9);
  for (int i = 0; i < 10; ++i) {
    Instance repaired = RepairTowards(RandomInstance(sig, &rng), cs);
    EXPECT_TRUE(SatisfiesAll(repaired, cs).value());
  }
}

TEST(InstanceTest, RestrictActiveDomain) {
  Instance a;
  a.Set("R", {T({1})});
  a.Set("S", {T({2})});
  Signature sig;
  ASSERT_TRUE(sig.AddRelation("R", 1).ok());
  Instance restricted = a.RestrictedTo(sig);
  EXPECT_TRUE(restricted.Has("R"));
  EXPECT_FALSE(restricted.Has("S"));
  EXPECT_EQ(a.ActiveDomain().size(), 2u);
}

TEST(GeneratorTest, RandomInstanceRespectsSignature) {
  Signature sig;
  ASSERT_TRUE(sig.AddRelation("A", 2).ok());
  ASSERT_TRUE(sig.AddRelation("B", 3).ok());
  std::mt19937_64 rng(42);
  Instance inst = RandomInstance(sig, &rng);
  for (const Tuple& t : inst.Get("A")) EXPECT_EQ(t.size(), 2u);
  for (const Tuple& t : inst.Get("B")) EXPECT_EQ(t.size(), 3u);
}

TEST(GeneratorTest, RandomInstanceSatisfying) {
  Signature sig;
  ASSERT_TRUE(sig.AddRelation("A", 1).ok());
  ASSERT_TRUE(sig.AddRelation("B", 1).ok());
  ConstraintSet cs{Constraint::Contain(Rel("A", 1), Rel("B", 1))};
  std::mt19937_64 rng(7);
  Result<Instance> inst = RandomInstanceSatisfying(sig, cs, &rng, 200);
  ASSERT_TRUE(inst.ok());
  EXPECT_TRUE(SatisfiesAll(*inst, cs).value());
}

/// The values of an encoded instance's D, ascending.
std::vector<Value> DomainValues(const EncodedInstance& encoded) {
  std::vector<Value> out;
  for (ValueId id : encoded.domain_ids()) {
    out.push_back(encoded.dict()->ValueOf(id));
  }
  return out;
}

/// Expects InstanceGenerator, from each of `rounds` consecutive draws of one
/// seed, to encode exactly RandomInstanceOver's instance — the same
/// relations, each table of the arity EncodedInstance gives it, and the
/// same D — and to leave the rng in the same state.
void ExpectDrawsMatchRandomInstanceOver(
    const std::vector<const Signature*>& sigs, const GenOptions& gen,
    uint64_t seed, int rounds = 20) {
  const std::set<Value> extra = {Value(int64_t{1}), Value(int64_t{7}),
                                 Value(std::string("b")),
                                 Value(std::string("z"))};
  const InstanceGenerator generator(sigs, gen, extra);
  std::mt19937_64 want_rng(seed), got_rng(seed);
  for (int i = 0; i < rounds; ++i) {
    const Instance want = RandomInstanceOver(sigs, &want_rng, gen);
    const InstanceDraw draw = generator.Draw(&got_rng);
    EXPECT_TRUE(got_rng == want_rng) << "draw " << i;
    const EncodedInstance got = generator.Encode(draw);
    EXPECT_EQ(got.Decode(), want)
        << "draw " << i << "\ngot:\n" << got.Decode().ToString()
        << "want:\n" << want.ToString();
    const EncodedInstance ref(want, extra);
    EXPECT_EQ(DomainValues(got), DomainValues(ref)) << "draw " << i;
    for (const auto& [name, _] : want.relations()) {
      const EncodedInstance::Relation* got_rel =
          got.Find(got.schema()->Find(name));
      ASSERT_NE(got_rel, nullptr) << name;
      EXPECT_EQ(got_rel->table->arity(),
                ref.Find(ref.schema()->Find(name))->table->arity())
          << name;
    }
  }
}

TEST(GeneratorTest, DrawEncodesRandomInstanceOverWithAndWithoutStrings) {
  Signature s1, s2, s3;
  ASSERT_TRUE(s1.AddRelation("A", 1).ok());
  ASSERT_TRUE(s2.AddRelation("B", 2).ok());
  ASSERT_TRUE(s2.AddRelation("C", 3).ok());
  ASSERT_TRUE(s3.AddRelation("D", 2).ok());
  GenOptions gen;
  gen.domain_size = 3;
  gen.max_tuples_per_rel = 6;
  for (bool strings : {false, true}) {
    gen.include_strings = strings;
    ExpectDrawsMatchRandomInstanceOver({&s1, &s2, &s3}, gen, 11);
    ExpectDrawsMatchRandomInstanceOver({&s1, nullptr, &s3}, gen, 12);
  }
}

TEST(GeneratorTest, DrawOfNoTuplesEncodesEmptyRelations) {
  Signature sig;
  ASSERT_TRUE(sig.AddRelation("A", 2).ok());
  ASSERT_TRUE(sig.AddRelation("B", 1).ok());
  GenOptions gen;
  gen.max_tuples_per_rel = 0;
  ExpectDrawsMatchRandomInstanceOver({&sig}, gen, 3, /*rounds=*/3);
}

TEST(GeneratorTest, DrawOfArityZeroRelation) {
  Signature sig;
  sig.AddOrReplaceRelation("Z", 0);
  sig.AddOrReplaceRelation("A", 1);
  GenOptions gen;
  gen.max_tuples_per_rel = 2;
  ExpectDrawsMatchRandomInstanceOver({&sig}, gen, 4);
}

TEST(GeneratorTest, DrawOfSharedNameKeepsTheLaterDraw) {
  Signature s1, s2;
  ASSERT_TRUE(s1.AddRelation("A", 1).ok());
  ASSERT_TRUE(s1.AddRelation("B", 2).ok());
  ASSERT_TRUE(s2.AddRelation("A", 2).ok());
  GenOptions gen;
  gen.domain_size = 5;
  gen.include_strings = true;
  ExpectDrawsMatchRandomInstanceOver({&s1, &s2}, gen, 5);
  ExpectDrawsMatchRandomInstanceOver({&s2, &s1}, gen, 6);
}

// ---- Relations addressed by id.

TEST(RelationIdTest, SchemaNumbersEachNameOnceAndExtendKeepsIds) {
  const auto base = std::make_shared<const RelationSchema>(
      std::vector<std::string>{"B", "A", "B"},
      std::vector<ExprPtr>{Rel("C", 1), Union(Rel("A", 2), Rel("C", 2))});
  ASSERT_EQ(base->size(), 3);
  EXPECT_EQ(base->Find("B"), 0);
  EXPECT_EQ(base->Find("A"), 1);
  EXPECT_EQ(base->Find("C"), 2);
  EXPECT_EQ(base->Find("Z"), -1);
  EXPECT_EQ(base->name(2), "C");
  // Two leaves of one name (arities differ) share its id.
  EXPECT_EQ(base->IdOf(*Rel("C", 1)), 2);
  EXPECT_EQ(base->IdOf(*Rel("C", 2)), 2);
  EXPECT_EQ(base->IdOf(*Rel("Z", 1)), -1);

  EXPECT_EQ(RelationSchema::Extend(base, {"A", "C"}), base);
  const auto more = RelationSchema::Extend(base, {"D", "A"});
  ASSERT_NE(more, base);
  EXPECT_EQ(more->size(), 4);
  EXPECT_EQ(more->Find("D"), 3);
  EXPECT_EQ(more->IdOf(*Rel("C", 1)), 2);
  EXPECT_TRUE(more->Extends(*base));
  EXPECT_TRUE(base->Extends(*base));
  EXPECT_FALSE(base->Extends(*more));
  EXPECT_FALSE(RelationSchema({"A", "B"}).Extends(*base));
}

TEST(RelationIdTest, AbsentRelationReadsAsEmptyTableOfTheLeafsArity) {
  Instance db;
  db.Set("R", {T({1, 2})});
  // S has an id but no relation; Q has neither.
  const auto schema = std::make_shared<const RelationSchema>(
      std::vector<std::string>{}, std::vector<ExprPtr>{Rel("S", 3)});
  const EncodedInstance encoded(db, {}, schema);
  ASSERT_GE(encoded.schema()->Find("S"), 0);
  EXPECT_EQ(encoded.Find(encoded.schema()->Find("S")), nullptr);
  EXPECT_EQ(encoded.Find(encoded.schema()->Find("Q")), nullptr);
  for (const ExprPtr& leaf : {Rel("S", 3), Rel("Q", 2)}) {
    const auto tables = EvaluateTables({leaf}, encoded).value();
    EXPECT_EQ(tables[0]->arity(), leaf->arity()) << leaf->name();
    EXPECT_TRUE(tables[0]->empty()) << leaf->name();
  }
}

TEST(RelationIdTest, RaggedRelationReportsTheEncodingError) {
  Instance db;
  db.Set("R", {T({1}), T({1, 2})});
  const EncodedInstance encoded(db, {});
  const auto got = EvaluateTables({Rel("R", 2)}, encoded);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().ToString(),
            "InvalidArgument: cannot encode a 1-tuple into an arity-2 "
            "relation");
}

TEST(RelationIdTest, UnresolvedLeafFallsBackToItsNameForTheSameTable) {
  Instance db;
  db.Set("R", {T({1, 2}), T({3, 4})});
  db.Set("S", {T({5})});
  // R's leaf is resolved; S is numbered by name only.
  const auto schema = std::make_shared<const RelationSchema>(
      std::vector<std::string>{"S"}, std::vector<ExprPtr>{Rel("R", 2)});
  const EncodedInstance encoded(db, {}, schema);
  ASSERT_EQ(encoded.schema(), schema);
  for (const ExprPtr& leaf : {Rel("R", 2), Rel("S", 1)}) {
    const auto tables = EvaluateTables({leaf}, encoded).value();
    // The instance's own table, shared.
    EXPECT_EQ(tables[0],
              encoded.Find(encoded.schema()->Find(leaf->name()))->table)
        << leaf->name();
  }
  // An instance whose schema resolves neither gives the same tuples.
  const EncodedInstance by_name(db, {});
  const ExprPtr e = Union(Rel("R", 2), Product(Rel("S", 1), Rel("S", 1)));
  const auto a = EvaluateTables({e}, encoded).value();
  const auto b = EvaluateTables({e}, by_name).value();
  EXPECT_EQ(a[0]->ToSet(*encoded.dict()), b[0]->ToSet(*by_name.dict()));
}

TEST(RelationIdTest, DecodeRoundTrips) {
  Instance db;
  db.Set("R", {T({1, 2}), T({3, 4})});
  db.Set("S", {Tuple{Value(std::string("a"))}, T({5})});
  db.Set("E", {});
  db.Set("G", {T({1}), T({1, 2})});  // ragged
  // Relations the schema numbers but the instance lacks stay absent.
  const auto schema = std::make_shared<const RelationSchema>(
      std::vector<std::string>{"Z"}, std::vector<ExprPtr>{Rel("Y", 2)});
  const EncodedInstance encoded(db, {Value(int64_t{9})}, schema);
  EXPECT_EQ(encoded.Decode(), db);
  EXPECT_EQ(EncodedInstance(encoded.Decode(), {}).Decode(), db);
  for (const auto& [name, tuples] : db.relations()) {
    EXPECT_EQ(encoded.Decode(encoded.schema()->Find(name)), tuples) << name;
  }
  EXPECT_TRUE(encoded.Decode(encoded.schema()->Find("Z")).empty());
}

/// CollectConstants as a plain tree walk: the reference for the DAG walk.
void TreeConstants(const ExprPtr& e, std::set<Value>* out) {
  std::vector<Condition> conditions = {e->condition()};
  while (!conditions.empty()) {
    Condition c = conditions.back();
    conditions.pop_back();
    if (c.kind() == Condition::Kind::kAtom) {
      if (!c.lhs().is_attr) out->insert(c.lhs().constant);
      if (!c.rhs().is_attr) out->insert(c.rhs().constant);
    }
    for (const Condition& child : c.children()) conditions.push_back(child);
  }
  for (const Tuple& t : e->tuples()) out->insert(t.begin(), t.end());
  for (const ExprPtr& child : e->children()) TreeConstants(child, out);
}

TEST(CheckerTest, CollectConstantsWalksSharedSubtreesOnce) {
  // E_{k+1} = E_k ∪ (E_k ∩ S): 40 levels are 2^40 paths from the root but
  // only 85 distinct nodes, so a pass that walked the tree would never
  // return. Every pass here walks each distinct node once.
  ExprPtr e = Union(Select(Condition::AttrConst(1, CmpOp::kEq,
                                                Value(int64_t{3})),
                           Rel("R", 1)),
                    Lit(1, {T({5})}));
  for (int k = 0; k < 40; ++k) e = Union(e, Intersect(e, Rel("S", 1)));
  const ConstraintSet cs{Constraint::Contain(e, Rel("T", 1))};
  EXPECT_EQ(CollectConstants(cs),
            (std::set<Value>{Value(int64_t{3}), Value(int64_t{5})}));
  std::set<std::string> relations;
  CollectRelations(e, &relations);
  EXPECT_EQ(relations, (std::set<std::string>{"R", "S"}));

  EXPECT_TRUE(ValidateExpr(e).ok());
  Mapping m;
  ASSERT_TRUE(m.input.AddRelation("R", 1).ok());
  ASSERT_TRUE(m.input.AddRelation("S", 1).ok());
  ASSERT_TRUE(m.output.AddRelation("T", 1).ok());
  m.constraints = cs;
  EXPECT_TRUE(m.Validate().ok());
  m.constraints = {Constraint::Contain(Union(e, Rel("U", 1)), Rel("T", 1))};
  EXPECT_EQ(m.Validate().message(), "relation U not declared");

  EXPECT_EQ(SimplifyExpr(e), e);  // no rule applies anywhere
  EXPECT_EQ(CheckMonotone(e, "S"), Mono::kMonotone);
  EXPECT_EQ(CheckMonotone(Difference(Rel("T", 1), e), "S"), Mono::kAnti);
  ExprPtr renamed = RenameRelation(e, "S", "S2");
  EXPECT_EQ(renamed->op_count(), e->op_count());
  EXPECT_FALSE(ContainsRelation(renamed, "S"));
  EXPECT_TRUE(ContainsRelation(renamed, "S2"));
  EXPECT_EQ(SubstituteRelation(renamed, "S2", Rel("S", 1)), e);
}

TEST(CheckerTest, CollectConstantsMatchesTreeWalkOnLiteratureSuite) {
  Parser parser;
  for (const testdata::LiteratureProblem& lit : testdata::LiteratureSuite()) {
    const CompositionProblem problem = parser.ParseProblem(lit.text).value();
    ConstraintSet original = problem.sigma12;
    original.insert(original.end(), problem.sigma23.begin(),
                    problem.sigma23.end());
    for (const ConstraintSet& cs : {original, Compose(problem).constraints}) {
      std::set<Value> want;
      for (const Constraint& c : cs) {
        TreeConstants(c.lhs, &want);
        TreeConstants(c.rhs, &want);
      }
      EXPECT_EQ(CollectConstants(cs), want) << lit.name;
    }
  }
}

TEST(CheckerTest, FindExtensionWitness) {
  // base: A = {1}. Extra relation B (unary) must satisfy A ⊆ B.
  Instance base;
  base.Set("A", {T({1})});
  Signature extra;
  ASSERT_TRUE(extra.AddRelation("B", 1).ok());
  ConstraintSet cs{Constraint::Contain(Rel("A", 1), Rel("B", 1))};
  Result<Instance> witness = FindExtension(base, extra, cs);
  ASSERT_TRUE(witness.ok());
  EXPECT_TRUE(SatisfiesAll(*witness, cs).value());
  EXPECT_TRUE(witness->Get("B").count(T({1})) > 0);
}

TEST(CheckerTest, FindExtensionUnsatisfiable) {
  // B ⊆ ∅ and A ⊆ B with nonempty A: no extension exists.
  Instance base;
  base.Set("A", {T({1})});
  Signature extra;
  ASSERT_TRUE(extra.AddRelation("B", 1).ok());
  ConstraintSet cs{Constraint::Contain(Rel("A", 1), Rel("B", 1)),
                   Constraint::Contain(Rel("B", 1), EmptyRel(1))};
  Result<Instance> witness = FindExtension(base, extra, cs);
  ASSERT_FALSE(witness.ok());
  EXPECT_EQ(witness.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace mapcomp
