// Columnar user-operator kernel coverage: every extension op's columnar
// kernel must be fingerprint-identical to its set-based reference body,
// run through the nested-loop oracle, at any lane count; pad-value minting
// must not perturb determinism; and a wrong-arity kernel output must
// surface as a clean InvalidArgument.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/algebra/builders.h"
#include "src/eval/evaluator.h"
#include "src/eval/instance.h"
#include "src/eval/tuple_table.h"
#include "src/op/extra_ops.h"
#include "src/op/registry.h"
#include "tests/oracles/oracle.h"

namespace mapcomp {
namespace {

Tuple T(std::initializer_list<int64_t> vals) {
  Tuple t;
  for (int64_t v : vals) t.push_back(Value(v));
  return t;
}

EvalOptions Opts(const op::Registry& reg) {
  EvalOptions opts;
  opts.registry = &reg;
  opts.skolem_mode = SkolemEvalMode::kInjectiveTerms;
  return opts;
}

EvalResult RunEval(const ExprPtr& e, const Instance& db,
                   const op::Registry& reg) {
  return EvaluateFull(e, db, Opts(reg)).value();
}

/// Requires the columnar kernels (Registry::Default) to agree with the
/// set-based reference bodies, run through the nested-loop oracle.
void ExpectColumnarMatchesOracle(const ExprPtr& e, const Instance& db) {
  const op::Registry& reg = op::Registry::Default();
  EvalResult oracle = oracle::EvaluateFull(e, db, Opts(reg)).value();
  EvalResult columnar = RunEval(e, db, reg);
  EXPECT_EQ(columnar.Fingerprint(), oracle.Fingerprint());
  EXPECT_EQ(columnar.tuples(), oracle.tuples());
}

Instance JoinDb() {
  Instance db;
  db.Set("R", {T({1, 2}), T({2, 3}), T({3, 4}), T({7, 1})});
  db.Set("S", {T({2, 10}), T({3, 1}), T({5, 5})});
  return db;
}

TEST(EvalUserOpTest, SemijoinColumnarMatchesLegacy) {
  Instance db = JoinDb();
  const op::Registry& reg = op::Registry::Default();
  // Equality key alone; key + single-side filter; pure cross-side order
  // atom (no key — probe degrades to a filtered scan); constant atom.
  std::vector<ExprPtr> exprs = {
      reg.MakeOp("semijoin", {Rel("R", 2), Rel("S", 2)},
                 Condition::AttrCmp(1, CmpOp::kEq, 3))
          .value(),
      reg.MakeOp("semijoin", {Rel("R", 2), Rel("S", 2)},
                 Condition::And(Condition::AttrCmp(2, CmpOp::kEq, 3),
                                Condition::AttrConst(1, CmpOp::kGt,
                                                     Value(int64_t{1}))))
          .value(),
      reg.MakeOp("semijoin", {Rel("R", 2), Rel("S", 2)},
                 Condition::AttrCmp(1, CmpOp::kLt, 4))
          .value(),
      reg.MakeOp("semijoin", {Rel("R", 2), Rel("S", 2)},
                 Condition::AttrConst(4, CmpOp::kGe, Value(int64_t{5})))
          .value(),
  };
  for (const ExprPtr& e : exprs) ExpectColumnarMatchesOracle(e, db);
}

TEST(EvalUserOpTest, AntijoinColumnarMatchesLegacy) {
  Instance db = JoinDb();
  const op::Registry& reg = op::Registry::Default();
  std::vector<ExprPtr> exprs = {
      reg.MakeOp("antijoin", {Rel("R", 2), Rel("S", 2)},
                 Condition::AttrCmp(1, CmpOp::kEq, 3))
          .value(),
      // Left-filter atom false for some left rows: those rows match
      // nothing and MUST survive the anti-join (the pushed-down filter is
      // a conjunct of the match condition, not a pre-selection).
      reg.MakeOp("antijoin", {Rel("R", 2), Rel("S", 2)},
                 Condition::And(Condition::AttrCmp(1, CmpOp::kEq, 3),
                                Condition::AttrConst(2, CmpOp::kLt,
                                                     Value(int64_t{3}))))
          .value(),
      reg.MakeOp("antijoin", {Rel("R", 2), Rel("S", 2)},
                 Condition::AttrCmp(2, CmpOp::kGt, 4))
          .value(),
  };
  for (const ExprPtr& e : exprs) ExpectColumnarMatchesOracle(e, db);
  // Sanity beyond differential: semijoin ∪ antijoin partitions the left
  // side under any fixed condition.
  ExprPtr sj = reg.MakeOp("semijoin", {Rel("R", 2), Rel("S", 2)},
                          Condition::AttrCmp(1, CmpOp::kEq, 3))
                   .value();
  ExprPtr aj = reg.MakeOp("antijoin", {Rel("R", 2), Rel("S", 2)},
                          Condition::AttrCmp(1, CmpOp::kEq, 3))
                   .value();
  EvalResult both = RunEval(Union(sj, aj), db, reg);
  EvalResult left = RunEval(Rel("R", 2), db, reg);
  EXPECT_EQ(both.Fingerprint(), left.Fingerprint());
}

TEST(EvalUserOpTest, LojoinPadMintingOrderIsDeterministic) {
  Instance db = JoinDb();
  const op::Registry& reg = op::Registry::Default();
  ExprPtr lj = reg.MakeOp("lojoin", {Rel("R", 2), Rel("S", 2)},
                          Condition::AttrCmp(2, CmpOp::kEq, 3))
                   .value();
  ExpectColumnarMatchesOracle(lj, db);
  // The pad value "<null>" and Skolem terms both mint ids mid-evaluation;
  // interleaving them across lanes (lojoin's pad vs. an independent branch
  // minting terms concurrently) must not perturb the canonical result.
  ExprPtr mixed =
      Union(SkolemApp("h", {1}, lj),
            SkolemApp("g", {2}, Product(Rel("R", 2), Rel("S", 2))));
  ExpectColumnarMatchesOracle(mixed, db);
  // Pad rows really appear: (7,1) matches no S row on #2=#3.
  EvalResult out = RunEval(lj, db, reg);
  bool padded = false;
  for (const Tuple& t : out.tuples()) {
    if (t.size() == 4 && CompareValues(t[2], op::NullValue()) == 0) {
      padded = true;
    }
  }
  EXPECT_TRUE(padded);
}

TEST(EvalUserOpTest, TransitiveClosureShapes) {
  const op::Registry& reg = op::Registry::Default();
  // Cycle (closure saturates), self-loops, a chain feeding the cycle, an
  // isolated edge — and the empty relation.
  Instance db;
  db.Set("E", {T({1, 2}), T({2, 3}), T({3, 1}), T({4, 4}), T({5, 6}),
               T({6, 1})});
  db.Set("Z", std::set<Tuple>{});
  ExpectColumnarMatchesOracle(reg.MakeOp("tc", {Rel("E", 2)}).value(), db);
  ExpectColumnarMatchesOracle(reg.MakeOp("tc", {Rel("Z", 2)}).value(), db);
  // Like the set-based oracle, tc ignores the node's condition.
  ExpectColumnarMatchesOracle(
      reg.MakeOp("tc", {Rel("E", 2)}, Condition::AttrCmp(1, CmpOp::kEq, 2))
          .value(),
      db);
  // Composed downstream of the closure: select + join over tc output.
  ExprPtr closure = reg.MakeOp("tc", {Rel("E", 2)}).value();
  ExpectColumnarMatchesOracle(
      Select(Condition::AttrCmp(1, CmpOp::kEq, 2), closure), db);
}

TEST(EvalUserOpTest, AllFourOpsInOneExpression) {
  Instance db = JoinDb();
  db.Set("E", {T({1, 2}), T({2, 3}), T({3, 1})});
  const op::Registry& reg = op::Registry::Default();
  ExprPtr sj = reg.MakeOp("semijoin", {Rel("R", 2), Rel("S", 2)},
                          Condition::AttrCmp(1, CmpOp::kEq, 3))
                   .value();
  ExprPtr aj = reg.MakeOp("antijoin", {Rel("R", 2), Rel("S", 2)},
                          Condition::AttrCmp(1, CmpOp::kEq, 3))
                   .value();
  ExprPtr lj = reg.MakeOp("lojoin", {sj, aj},
                          Condition::AttrCmp(2, CmpOp::kEq, 3))
                   .value();
  ExprPtr tc = reg.MakeOp("tc", {Rel("E", 2)}).value();
  ExprPtr e = Union(Project({1, 2}, lj), tc);
  ExpectColumnarMatchesOracle(e, db);
}

TEST(EvalUserOpTest, WrongArityColumnarOutputIsInvalidArgument) {
  // A kernel emitting the wrong row width must surface as a clean
  // InvalidArgument — never a crash in a downstream slot.
  Instance db = JoinDb();
  op::Registry reg = op::Registry::Empty();
  op::OperatorDef bad;
  bad.name = "badwidth";
  bad.num_args = 1;
  bad.arity = [](const std::vector<int>& a) -> Result<int> { return a[0]; };
  bad.polarity = {op::Polarity::kMonotone};
  bad.eval_columnar =
      [](const Expr&, const std::vector<const TupleTable*>& kids,
         const op::ColumnarContext&) -> Result<TupleTable> {
    return TupleTable(kids[0]->arity() + 1);  // one column too wide
  };
  ASSERT_TRUE(reg.Register(std::move(bad)).ok());
  ExprPtr e = reg.MakeOp("badwidth", {Rel("R", 2)}).value();
  EvalOptions opts;
  opts.registry = &reg;
  Result<EvalResult> r = EvaluateFull(e, db, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // The oracle has no reference body for an operator it does not know.
  Result<EvalResult> nested = oracle::EvaluateFull(e, db, opts);
  ASSERT_FALSE(nested.ok());
  EXPECT_EQ(nested.status().code(), StatusCode::kUnsupported);
}

TEST(EvalUserOpTest, StatsCountEachNodeOnce) {
  Instance db = JoinDb();
  db.Set("E", {T({1, 2}), T({2, 3}), T({3, 1}), T({5, 6})});
  const op::Registry& reg = op::Registry::Default();
  const ExprPtr sj = reg.MakeOp("semijoin", {Rel("R", 2), Rel("S", 2)},
                                Condition::AttrCmp(1, CmpOp::kEq, 3))
                         .value();
  const ExprPtr tc = reg.MakeOp("tc", {Rel("E", 2)}).value();
  const EvalResult got = RunEval(Union(sj, tc), db, reg);
  // Six distinct nodes (R, S, E, the semijoin, tc and the union), each
  // computed once, and every output counted once.
  EXPECT_EQ(got.stats.nodes_evaluated, 6);
  EXPECT_EQ(got.stats.tasks_spawned, 6);
  EXPECT_EQ(got.stats.memo_hits, 0);
  int64_t tuples = 0;
  for (const ExprPtr& e : {Rel("R", 2), Rel("S", 2), Rel("E", 2), sj, tc}) {
    tuples += static_cast<int64_t>(RunEval(e, db, reg).tuples().size());
  }
  tuples += static_cast<int64_t>(got.tuples().size());
  EXPECT_EQ(got.stats.tuples_produced, tuples);
}

}  // namespace
}  // namespace mapcomp
