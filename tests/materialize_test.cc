#include "src/eval/materialize.h"

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/algebra/builders.h"
#include "src/compose/compose.h"
#include "src/eval/checker.h"
#include "src/eval/generator.h"
#include "src/op/extra_ops.h"
#include "src/op/registry.h"
#include "src/parser/parser.h"
#include "src/simulator/scenarios.h"
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

TEST(MaterializeTest, SimpleLowerBoundPopulation) {
  // R ⊆ S: minimal S is exactly R.
  ConstraintSet cs{Constraint::Contain(Rel("R", 1), Rel("S", 1))};
  Instance input;
  input.Set("R", {T({1}), T({2})});
  MaterializeResult res = PopulateResiduals(input, cs, {"S"}).value();
  EXPECT_TRUE(res.satisfied);
  EXPECT_EQ(res.instance.Get("S"), input.Get("R"));
}

TEST(MaterializeTest, ResidualsAbsentFromTheInputAreWritten) {
  // The input holds R only: S and U get ids from the constraints' schema,
  // are written by id and decoded by name at the end.
  ConstraintSet cs{Constraint::Contain(Rel("R", 1), Rel("S", 1)),
                   Constraint::Contain(Rel("S", 1), Rel("U", 1))};
  Instance input;
  input.Set("R", {T({1}), T({2})});
  MaterializeResult res = PopulateResiduals(input, cs, {"S", "U"}).value();
  EXPECT_TRUE(res.satisfied);
  EXPECT_EQ(res.instance.Get("S"), input.Get("R"));
  EXPECT_EQ(res.instance.Get("U"), input.Get("R"));
  EXPECT_EQ(res.instance.relations().size(), 3u);
}

TEST(MaterializeTest, EqualityDefinitionPopulated) {
  // S = π1(R): evaluated directly.
  ConstraintSet cs{
      Constraint::Equal(Rel("S", 1), Project({1}, Rel("R", 2)))};
  Instance input;
  input.Set("R", {T({1, 5}), T({2, 6})});
  MaterializeResult res = PopulateResiduals(input, cs, {"S"}).value();
  EXPECT_TRUE(res.satisfied);
  EXPECT_EQ(res.instance.Get("S"), (std::set<Tuple>{T({1}), T({2})}));
}

TEST(MaterializeTest, PaperTransitiveClosureExample) {
  // §1.3: R ⊆ S, S = tc(S), S ⊆ T — S cannot be eliminated, but is
  // "definable as a recursive view on R": populate S as tc(R) and check
  // which T satisfy the composed mapping.
  const op::Registry& reg = op::Registry::Default();
  ExprPtr tc_s = reg.MakeOp("tc", {Rel("S", 2)}).value();
  ConstraintSet cs{Constraint::Contain(Rel("R", 2), Rel("S", 2)),
                   Constraint::Equal(Rel("S", 2), tc_s),
                   Constraint::Contain(Rel("S", 2), Rel("T", 2))};
  Instance input;
  input.Set("R", {T({1, 2}), T({2, 3})});
  // T contains the closure: satisfiable.
  input.Set("T", {T({1, 2}), T({2, 3}), T({1, 3})});
  MaterializeResult res = PopulateResiduals(input, cs, {"S"}).value();
  EXPECT_TRUE(res.satisfied);
  EXPECT_EQ(res.instance.Get("S"),
            (std::set<Tuple>{T({1, 2}), T({2, 3}), T({1, 3})}));
  EXPECT_GT(res.iterations, 1);  // the fixpoint actually iterated

  // T missing the transitive edge: correctly reported unsatisfied.
  Instance bad = input;
  bad.Set("T", {T({1, 2}), T({2, 3})});
  MaterializeResult res_bad = PopulateResiduals(bad, cs, {"S"}).value();
  EXPECT_FALSE(res_bad.satisfied);
}

TEST(MaterializeTest, ChainedResiduals) {
  // R ⊆ S1, S1 ⊆ S2: populations propagate through residuals.
  ConstraintSet cs{Constraint::Contain(Rel("R", 1), Rel("S1", 1)),
                   Constraint::Contain(Rel("S1", 1), Rel("S2", 1))};
  Instance input;
  input.Set("R", {T({7})});
  MaterializeResult res =
      PopulateResiduals(input, cs, {"S1", "S2"}).value();
  EXPECT_TRUE(res.satisfied);
  EXPECT_EQ(res.instance.Get("S2"), (std::set<Tuple>{T({7})}));
}

TEST(MaterializeTest, EndToEndWithCompose) {
  // Compose a problem where one symbol survives, then make the composed
  // mapping usable by populating the survivor (the paper's recipe).
  CompositionProblem p;
  ASSERT_TRUE(p.sigma1.AddRelation("R", 2).ok());
  ASSERT_TRUE(p.sigma2.AddRelation("S", 2).ok());
  ASSERT_TRUE(p.sigma3.AddRelation("T", 2).ok());
  const op::Registry& reg = op::Registry::Default();
  ExprPtr tc_s = reg.MakeOp("tc", {Rel("S", 2)}).value();
  p.sigma12 = {Constraint::Contain(Rel("R", 2), Rel("S", 2))};
  p.sigma23 = {Constraint::Equal(Rel("S", 2), tc_s),
               Constraint::Contain(Rel("S", 2), Rel("T", 2))};
  CompositionResult res = Compose(p);
  ASSERT_EQ(res.residual_sigma2, (std::vector<std::string>{"S"}));

  Instance db;
  db.Set("R", {T({1, 2})});
  db.Set("T", {T({1, 2})});
  MaterializeResult mat =
      PopulateResiduals(db, res.constraints, res.residual_sigma2).value();
  EXPECT_TRUE(mat.satisfied);
}

TEST(MaterializeTest, NoResidualsIsIdentity) {
  ConstraintSet cs{Constraint::Contain(Rel("R", 1), Rel("T", 1))};
  Instance input;
  input.Set("R", {T({1})});
  input.Set("T", {T({1})});
  MaterializeResult res = PopulateResiduals(input, cs, {}).value();
  EXPECT_TRUE(res.satisfied);
  EXPECT_TRUE(res.instance == input);
}

// ---- The change-driven fixpoint against the every-feed-every-pass oracle.

/// PopulateResiduals's default pass budget (RepairTowards's is
/// kRepairPasses).
constexpr int kPopulatePasses = 64;

/// Counters of a differential run, summed over a corpus.
struct FixpointTally {
  int64_t runs = 0;
  int64_t nodes = 0;         ///< nodes the change-driven loop evaluated
  int64_t oracle_nodes = 0;  ///< nodes the oracle loop evaluated
};

/// Runs `feeds` from `start` on both loops and expects byte-identical
/// instances and equal pass counts; the change-driven loop may only skip
/// evaluations, never add any.
void ExpectFixpointMatchesOracle(const Instance& start,
                                 const std::vector<RelationFeed>& feeds,
                                 const EvalOptions& options,
                                 int max_iterations, const std::string& label,
                                 FixpointTally* tally = nullptr) {
  Instance got = start, want = start;
  EvalStats got_stats, want_stats;
  int got_iters =
      RunFeedFixpoint(&got, feeds, options, max_iterations, &got_stats);
  int want_iters = oracle::RunFeedFixpoint(&want, feeds, options,
                                           max_iterations, &want_stats);
  EXPECT_EQ(got.ToString(), want.ToString()) << label;
  EXPECT_EQ(got_iters, want_iters) << label;
  EXPECT_LE(got_stats.nodes_evaluated, want_stats.nodes_evaluated) << label;
  if (tally != nullptr) {
    ++tally->runs;
    tally->nodes += got_stats.nodes_evaluated;
    tally->oracle_nodes += want_stats.nodes_evaluated;
  }
}

/// RepairTowards against the oracle loop on the feeds it collects: the
/// repaired instance, and (through the shared feed list) the pass count.
void ExpectRepairMatchesOracle(const Instance& start, const ConstraintSet& cs,
                               const EvalOptions& options,
                               const std::string& label,
                               FixpointTally* tally = nullptr) {
  std::vector<RelationFeed> feeds =
      CollectFeeds(cs, /*keep=*/nullptr, /*assign_equalities=*/true);
  EvalOptions opts = options;
  std::set<Value> consts = CollectConstants(cs);
  opts.extra_constants.insert(consts.begin(), consts.end());
  Instance want = start;
  oracle::RunFeedFixpoint(&want, feeds, opts, kRepairPasses, nullptr);
  EXPECT_EQ(RepairTowards(start, cs, options).ToString(), want.ToString())
      << label;
  ExpectFixpointMatchesOracle(start, feeds, opts, kRepairPasses,
                              label + " (feeds)", tally);
}

/// PopulateResiduals against the oracle loop: instance, pass count and
/// satisfaction verdict.
void ExpectPopulateMatchesOracle(const Instance& start,
                                 const ConstraintSet& cs,
                                 const std::vector<std::string>& residuals,
                                 const EvalOptions& options,
                                 const std::string& label,
                                 FixpointTally* tally = nullptr) {
  std::set<std::string> residual_set(residuals.begin(), residuals.end());
  std::vector<RelationFeed> feeds = CollectFeeds(
      cs,
      [&residual_set](const std::string& name) {
        return residual_set.count(name) > 0;
      },
      /*assign_equalities=*/false);
  EvalOptions opts = options;
  std::set<Value> consts = CollectConstants(cs);
  opts.extra_constants.insert(consts.begin(), consts.end());
  Instance want = start;
  int want_iters =
      oracle::RunFeedFixpoint(&want, feeds, opts, kPopulatePasses, nullptr);
  Result<MaterializeResult> got =
      PopulateResiduals(start, cs, residuals, options);
  ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
  EXPECT_EQ(got->instance.ToString(), want.ToString()) << label;
  EXPECT_EQ(got->iterations, want_iters) << label;
  Result<bool> want_sat = SatisfiesAll(want, cs, opts);
  ASSERT_TRUE(want_sat.ok()) << label;
  EXPECT_EQ(got->satisfied, *want_sat) << label;
  ExpectFixpointMatchesOracle(start, feeds, opts, kPopulatePasses,
                              label + " (feeds)", tally);
}

/// Both fixpoint callers on generated instances of `problem`, repaired
/// towards Σ12 ∪ Σ23 and populated from σ1 ∪ σ3, the way the soundness
/// harness generates them.
void ExpectProblemMatchesOracle(const CompositionProblem& problem,
                                const GenOptions& gen, int instances,
                                uint64_t seed, const std::string& label,
                                FixpointTally* tally) {
  ConstraintSet original = problem.sigma12;
  original.insert(original.end(), problem.sigma23.begin(),
                  problem.sigma23.end());
  CompositionResult composed = Compose(problem);
  Result<Signature> outer = Signature::Merge(problem.sigma1, problem.sigma3);
  ASSERT_TRUE(outer.ok()) << label;
  std::mt19937_64 rng(seed);
  for (int i = 0; i < instances; ++i) {
    std::string at = label + " #" + std::to_string(i);
    Instance inst = RandomInstanceOver(
        {&problem.sigma1, &problem.sigma2, &problem.sigma3}, &rng, gen);
    ExpectRepairMatchesOracle(inst, original, {}, at + " repair", tally);
    Instance outer_inst = inst.RestrictedTo(*outer);
    // Every σ2 symbol as a residual: the whole pipeline materialized.
    ExpectPopulateMatchesOracle(outer_inst, original, problem.sigma2.names(),
                                {}, at + " populate", tally);
    if (!composed.residual_sigma2.empty()) {
      EvalOptions skolem;
      skolem.skolem_mode = SkolemEvalMode::kInjectiveTerms;
      ExpectPopulateMatchesOracle(outer_inst, composed.constraints,
                                  composed.residual_sigma2, skolem,
                                  at + " residuals", tally);
    }
  }
}

TEST(FeedFixpointOracleTest, LiteratureSuiteMatchesEveryFeedLoop) {
  Parser parser;
  FixpointTally tally;
  for (const testdata::LiteratureProblem& lit : testdata::LiteratureSuite()) {
    CompositionProblem problem = parser.ParseProblem(lit.text).value();
    ExpectProblemMatchesOracle(problem, GenOptions{}, 6, lit.name[0] + 17,
                               lit.name, &tally);
  }
  EXPECT_GT(tally.runs, 0);
  // The skip is not vacuous on the suite.
  EXPECT_LT(tally.nodes, tally.oracle_nodes);
}

TEST(FeedFixpointOracleTest, VerifyBatchShapedProblemsMatchEveryFeedLoop) {
  // The soundness workload's shape: size-10 reconciliation problems with 2
  // edits per branch and arity at most 5, checked on 8 instances each over
  // a 2-value domain with at most 3 tuples per relation.
  GenOptions gen;
  gen.domain_size = 2;
  gen.max_tuples_per_rel = 3;
  FixpointTally tally;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    sim::ReconciliationScenarioOptions opts;
    opts.schema_size = 10;
    opts.num_edits = 2;
    opts.simulator.primitives.max_arity = 5;
    opts.seed = seed;
    opts.max_branch_attempts = 2;
    CompositionProblem problem = sim::BuildReconciliationProblem(opts);
    ExpectProblemMatchesOracle(problem, gen, 8, seed * 31,
                               "recon-" + std::to_string(seed), &tally);
  }
  EXPECT_GT(tally.runs, 0);
  EXPECT_LT(tally.nodes, tally.oracle_nodes);
}

TEST(FeedFixpointOracleTest, SelfFeedingClosureReadsDomain) {
  // S = tc(S) is a user operator, so the feed reads D and must re-run after
  // its own write; R ⊆ S seeds it, S ⊆ T is a plain growth.
  const op::Registry& reg = op::Registry::Default();
  ExprPtr tc_s = reg.MakeOp("tc", {Rel("S", 2)}).value();
  ConstraintSet cs{Constraint::Contain(Rel("R", 2), Rel("S", 2)),
                   Constraint::Equal(Rel("S", 2), tc_s),
                   Constraint::Contain(Rel("S", 2), Rel("T", 2))};
  Instance input;
  input.Set("R", {T({1, 2}), T({2, 3}), T({3, 4}), T({4, 5})});
  ExpectPopulateMatchesOracle(input, cs, {"S", "T"}, {}, "populate");
  ExpectRepairMatchesOracle(input, cs, {}, "repair");
  // With the closure feed first, the seed lands after it on pass 1.
  std::vector<RelationFeed> feeds{{"S", tc_s, false},
                                  {"S", Rel("R", 2), false}};
  ExpectFixpointMatchesOracle(input, feeds, {}, 64, "closure first");
}

TEST(FeedFixpointOracleTest, SelfFeedingJoinReRunsAfterOwnWrite) {
  // S ⊇ π1,4 σ#2=#3 (S × S) doubles path lengths once per evaluation, so
  // unlike the idempotent tc it must see its own write to reach the
  // closure; R ⊆ S seeds it after it on pass 1.
  ExprPtr step = Project(
      {1, 4}, Select(Condition::AttrCmp(2, CmpOp::kEq, 3),
                     Product(Rel("S", 2), Rel("S", 2))));
  std::vector<RelationFeed> feeds{{"S", step, false},
                                  {"S", Rel("R", 2), false}};
  Instance input;
  std::set<Tuple> chain;
  for (int64_t i = 1; i < 10; ++i) chain.insert(T({i, i + 1}));
  input.Set("R", chain);
  ExpectFixpointMatchesOracle(input, feeds, {}, 64, "path doubling");
  Instance got = input;
  RunFeedFixpoint(&got, feeds, {}, 64, nullptr);
  EXPECT_EQ(got.Get("S").count(T({1, 10})), 1u);
}

TEST(FeedFixpointOracleTest, DomainFeedSeesEveryWrite) {
  // The diagonal of D^2 feeds S before a later feed adds a fresh value to
  // U: the D feed does not read U, yet its result grows with the active
  // domain, so it must re-run on the next pass.
  ExprPtr diag = Select(Condition::AttrCmp(1, CmpOp::kEq, 2), Dom(2));
  std::vector<RelationFeed> feeds{
      {"S", diag, false},
      {"U", Lit(1, {T({9})}), false},
      {"V", Project({1}, Rel("S", 2)), false}};
  Instance input;
  input.Set("R", {T({1})});
  ExpectFixpointMatchesOracle(input, feeds, {}, 16, "diagonal");
  Instance got = input;
  RunFeedFixpoint(&got, feeds, {}, 16, nullptr);
  EXPECT_EQ(got.Get("S").count(T({9, 9})), 1u);
  EXPECT_EQ(got.Get("V").count(T({9})), 1u);
  // A D feed's own write can grow D: D × {9} must see the 9 it wrote.
  ExpectFixpointMatchesOracle(
      input, {{"S", Product(Dom(1), Lit(1, {T({9})})), false}}, {}, 16,
      "own write grows D");
  // The pruned select over D has the same dependency.
  ExprPtr pinned =
      Select(Condition::AttrConst(1, CmpOp::kEq, Value(int64_t{9})), Dom(2));
  ExpectFixpointMatchesOracle(
      input, {{"S", pinned, false}, {"U", Lit(1, {T({9})}), false}}, {}, 16,
      "pinned");
  // So has any user operator: its kernel is handed the active domain. This
  // one ignores its argument and returns the domain.
  op::Registry reg = op::Registry::Empty();
  op::OperatorDef adom;
  adom.name = "adom";
  adom.num_args = 1;
  adom.arity = [](const std::vector<int>&) -> Result<int> { return 1; };
  adom.polarity = {op::Polarity::kUnknown};
  adom.eval_columnar = [](const Expr&, const std::vector<const TupleTable*>&,
                          const op::ColumnarContext& ctx)
      -> Result<TupleTable> {
    TupleTable out(1);
    for (ValueId id : *ctx.domain_ids) out.AppendRow(&id);
    return out;
  };
  ASSERT_TRUE(reg.Register(std::move(adom)).ok());
  EvalOptions with_adom;
  with_adom.registry = &reg;
  ExprPtr domain_of = reg.MakeOp("adom", {Rel("R", 1)}).value();
  ExpectFixpointMatchesOracle(
      input, {{"S", domain_of, false}, {"U", Lit(1, {T({9})}), false}},
      with_adom, 16, "user op");
}

TEST(FeedFixpointOracleTest, AssignmentAndGrowthOnOneTarget) {
  // RepairTowards assigns S = π1(R) while U ⊆ S grows it: each pass the
  // growth breaks the assignment and the assignment undoes the growth, so
  // both loops run out of passes with the same instance.
  ConstraintSet cs{Constraint::Equal(Rel("S", 1), Project({1}, Rel("R", 2))),
                   Constraint::Contain(Rel("U", 1), Rel("S", 1))};
  Instance input;
  input.Set("R", {T({1, 5}), T({2, 6})});
  input.Set("U", {T({7})});
  ExpectRepairMatchesOracle(input, cs, {}, "fight");
  // Neither feed reads S, so only the other's write makes either stale.
  std::vector<RelationFeed> feeds{{"S", Project({1}, Rel("R", 2)), true},
                                  {"S", Rel("U", 1), false}};
  ExpectFixpointMatchesOracle(input, feeds, {}, 5, "fight, 5 passes");
  // A growth that agrees with the assignment settles after one quiet pass.
  input.Set("U", {T({1})});
  ExpectRepairMatchesOracle(input, cs, {}, "agree");
}

TEST(FeedFixpointOracleTest, FeedThatFailsContributesNothing) {
  // The Skolem feed fails under SkolemEvalMode::kError on every pass, in
  // both loops; the feeds around it still reach their fixpoint.
  ExprPtr skolem = SkolemApp("f", {1}, Rel("R", 1));
  std::vector<RelationFeed> feeds{{"S", skolem, false},
                                  {"V", Rel("R", 1), false},
                                  {"W", Rel("V", 1), false}};
  Instance input;
  input.Set("R", {T({1}), T({2})});
  ExpectFixpointMatchesOracle(input, feeds, {}, 16, "skolem kError");
  Instance got = input;
  RunFeedFixpoint(&got, feeds, {}, 16, nullptr);
  EXPECT_TRUE(got.Get("S").empty());
  EXPECT_EQ(got.Get("W"), input.Get("R"));
  EvalOptions injective;
  injective.skolem_mode = SkolemEvalMode::kInjectiveTerms;
  ExpectFixpointMatchesOracle(input, feeds, injective, 16, "skolem terms");
}

TEST(FeedFixpointOracleTest, AssignmentThatShrinksTheDomain) {
  // S := R drops 5, whose only occurrence was in S; the D feed after it
  // must enumerate the smaller domain.
  Instance input;
  input.Set("R", {T({1}), T({2})});
  input.Set("S", {T({5})});
  std::vector<RelationFeed> feeds{{"S", Rel("R", 1), true},
                                  {"V", Dom(1), false}};
  ExpectFixpointMatchesOracle(input, feeds, {}, 16, "shrink");
  Instance got = input;
  RunFeedFixpoint(&got, feeds, {}, 16, nullptr);
  EXPECT_EQ(got.Get("V"), (std::set<Tuple>{T({1}), T({2})}));
  // An extra constant stays in D without any occurrence.
  EvalOptions pinned;
  pinned.extra_constants = {Value(int64_t{5})};
  ExpectFixpointMatchesOracle(input, feeds, pinned, 16, "shrink, pinned");
}

TEST(FeedFixpointOracleTest, GrowthThroughAMintingUserOperator) {
  // lojoin pads R's unmatched row with a null value that is in neither the
  // instance nor the constants: the fixpoint mints it, writes it into P,
  // and the D feed after it must see it.
  const op::Registry& reg = op::Registry::Default();
  ExprPtr pad = reg.MakeOp("lojoin", {Rel("R", 1), Rel("S", 1)},
                           Condition::AttrCmp(1, CmpOp::kEq, 2))
                    .value();
  Instance input;
  input.Set("R", {T({1}), T({2})});
  input.Set("S", {T({1})});
  std::vector<RelationFeed> feeds{{"P", pad, false},
                                  {"W", Dom(1), false},
                                  {"Q", Project({2}, Rel("P", 2)), false}};
  ExpectFixpointMatchesOracle(input, feeds, {}, 16, "lojoin pad");
  Instance got = input;
  RunFeedFixpoint(&got, feeds, {}, 16, nullptr);
  EXPECT_EQ(got.Get("W").count(Tuple{op::NullValue()}), 1u);
  EXPECT_EQ(got.Get("Q"), (std::set<Tuple>{T({1}), Tuple{op::NullValue()}}));
}

TEST(FeedFixpointOracleTest, SharedResultTableIsNeverAliased) {
  // S := R and U ⊇ R take R's own table; the growths of S and of R after
  // them must each leave the other relation as it was.
  Instance input;
  input.Set("R", {T({1}), T({2})});
  std::vector<RelationFeed> feeds{{"S", Rel("R", 1), true},
                                  {"U", Rel("R", 1), false},
                                  {"S", Lit(1, {T({7})}), false},
                                  {"R", Lit(1, {T({9})}), false}};
  Instance got = input;
  EXPECT_EQ(RunFeedFixpoint(&got, feeds, {}, 1, nullptr), 1);
  EXPECT_EQ(got.Get("S"), (std::set<Tuple>{T({1}), T({2}), T({7})}));
  EXPECT_EQ(got.Get("U"), (std::set<Tuple>{T({1}), T({2})}));
  EXPECT_EQ(got.Get("R"), (std::set<Tuple>{T({1}), T({2}), T({9})}));
  for (int passes : {1, 2, 5}) {
    ExpectFixpointMatchesOracle(input, feeds, {}, passes,
                                "shared, " + std::to_string(passes));
  }
}

TEST(FeedFixpointOracleTest, RaggedRelationsMatchEveryFeedLoop) {
  // A growth of another width makes S ragged, a ragged R is assigned a
  // clean table, and the feed reading ragged S fails every time; D, read
  // by the last feed, spans every tuple either way.
  Instance input;
  input.Set("R", {T({1, 2}), T({7})});
  input.Set("S", {T({1, 2})});
  input.Set("T", {T({3})});
  std::vector<RelationFeed> feeds{{"S", Rel("T", 1), false},
                                  {"U", Rel("S", 2), false},
                                  {"S", Lit(1, {T({4})}), false},
                                  {"R", Rel("T", 1), true},
                                  {"V", Dom(1), false}};
  ExpectFixpointMatchesOracle(input, feeds, {}, 16, "ragged");
  Instance got = input;
  RunFeedFixpoint(&got, feeds, {}, 16, nullptr);
  EXPECT_EQ(got.Get("S"), (std::set<Tuple>{T({1, 2}), T({3}), T({4})}));
  EXPECT_FALSE(got.Has("U"));
  EXPECT_EQ(got.Get("R"), input.Get("T"));
  EXPECT_EQ(got.Get("V").size(), 4u);  // 1, 2, 3, 4; 7 left with R
}

TEST(FeedFixpointOracleTest, OneFeedPlanServesManyInstances) {
  // Each fixture's feeds are analysed once; the plan then runs on 20
  // random instances, through the Instance wrapper and in place on an
  // encoding, and on 20 generator-built encodings, and must match the
  // oracle loop on each.
  const op::Registry& reg = op::Registry::Default();
  ExprPtr pad = reg.MakeOp("lojoin", {Rel("R", 1), Rel("S", 1)},
                           Condition::AttrCmp(1, CmpOp::kEq, 2))
                    .value();
  struct Fixture {
    std::string name;
    std::vector<std::pair<std::string, int>> relations;
    std::vector<RelationFeed> feeds;
    std::set<Value> constants;
  };
  const std::vector<Fixture> fixtures = {
      {"shrink",
       {{"R", 1}, {"S", 1}},
       {{"S", Rel("R", 1), true}, {"V", Dom(1), false}},
       {}},
      {"shrink, pinned",
       {{"R", 1}, {"S", 1}},
       {{"S", Rel("R", 1), true}, {"V", Dom(1), false}},
       {Value(int64_t{5})}},
      {"lojoin pad",
       {{"R", 1}, {"S", 1}},
       {{"P", pad, false},
        {"W", Dom(1), false},
        {"Q", Project({2}, Rel("P", 2)), false}},
       {}},
      {"ragged",
       {{"R", 2}, {"S", 2}, {"T", 1}},
       {{"S", Rel("T", 1), false},
        {"U", Rel("S", 2), false},
        {"S", Lit(1, {T({4})}), false},
        {"R", Rel("T", 1), true},
        {"V", Dom(1), false}},
       {}},
  };
  GenOptions gen;
  gen.domain_size = 6;
  gen.max_tuples_per_rel = 4;
  for (const Fixture& fx : fixtures) {
    Signature sig;
    for (const auto& [name, arity] : fx.relations) {
      ASSERT_TRUE(sig.AddRelation(name, arity).ok());
    }
    const FeedPlan plan(fx.feeds, fx.constants);
    // D, decoded, and the D the oracle's instance implies.
    auto domain_of = [](const EncodedInstance& encoded) {
      std::set<Value> out;
      for (ValueId id : encoded.domain_ids()) {
        out.insert(encoded.dict()->ValueOf(id));
      }
      return out;
    };
    auto want_domain_of = [&fx](const Instance& want) {
      std::set<Value> out = want.ActiveDomain();
      out.insert(fx.constants.begin(), fx.constants.end());
      return out;
    };
    EvalOptions oracle_options;
    oracle_options.extra_constants = fx.constants;
    std::mt19937_64 rng(fx.name.size());
    for (int i = 0; i < 20; ++i) {
      const std::string at = fx.name + " #" + std::to_string(i);
      const Instance start = RandomInstance(sig, &rng, gen);
      Instance want = start;
      int want_iters =
          oracle::RunFeedFixpoint(&want, fx.feeds, oracle_options, 16, nullptr);
      Instance got = start;
      EXPECT_EQ(RunFeedFixpoint(&got, plan, {}, 16, nullptr), want_iters)
          << at;
      EXPECT_EQ(got.ToString(), want.ToString()) << at;

      EncodedInstance encoded(start, fx.constants, plan.schema());
      std::set<int> written;
      EXPECT_EQ(RunFeedFixpoint(&encoded, plan, {}, 16, nullptr, &written),
                want_iters)
          << at;
      for (int id = 0; id < plan.schema()->size(); ++id) {
        const std::string& name = plan.schema()->name(id);
        if (written.count(id) > 0) {
          EXPECT_EQ(encoded.Decode(id), want.Get(name)) << at << " " << name;
        } else {
          // Not written: as it started.
          EXPECT_EQ(start.Get(name), want.Get(name)) << at << " " << name;
        }
      }
      EXPECT_EQ(domain_of(encoded), want_domain_of(want)) << at;
    }

    // The same feeds in place on generator-built encodings, whose
    // dictionaries share the generator's seed, planned in the generator's
    // ids (its schema numbers every relation a feed writes or reads):
    // every relation and D end as the oracle loop leaves them, through the
    // shrinking assignments and the minted pad value too.
    std::vector<ExprPtr> fed;
    for (const RelationFeed& feed : fx.feeds) {
      fed.push_back(Rel(feed.target, feed.source->arity()));
      fed.push_back(feed.source);
    }
    const InstanceGenerator generator({&sig}, gen, fx.constants, fed);
    const FeedPlan generated_plan(fx.feeds, fx.constants, generator.schema());
    ASSERT_EQ(generated_plan.schema(), generator.schema()) << fx.name;
    std::mt19937_64 draw_rng(fx.name.size() + 100);
    for (int i = 0; i < 20; ++i) {
      const std::string at = fx.name + " generated #" + std::to_string(i);
      EncodedInstance encoded = generator.Encode(generator.Draw(&draw_rng));
      Instance want = encoded.Decode();
      int want_iters =
          oracle::RunFeedFixpoint(&want, fx.feeds, oracle_options, 16, nullptr);
      EXPECT_EQ(RunFeedFixpoint(&encoded, generated_plan, {}, 16, nullptr,
                                nullptr),
                want_iters)
          << at;
      for (int id = 0; id < generated_plan.schema()->size(); ++id) {
        const std::string& name = generated_plan.schema()->name(id);
        EXPECT_EQ(encoded.Decode(id), want.Get(name)) << at << " " << name;
      }
      EXPECT_EQ(domain_of(encoded), want_domain_of(want)) << at;
    }
  }
}

TEST(FeedPlanDeathTest, SchemaLackingAFeedRelationDies) {
  // Forked death tests and the eval lanes' pool threads do not mix.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const auto schema =
      std::make_shared<const RelationSchema>(std::vector<std::string>{"S"});
  EXPECT_DEATH(FeedPlan({{"S", Rel("R", 1), false}}, {}, schema),
               "FeedPlan: the schema does not number relation R");
  EXPECT_DEATH(FeedPlan({{"V", Rel("S", 1), false}}, {}, schema),
               "FeedPlan: the schema does not number relation V");
}

}  // namespace
}  // namespace mapcomp
