#include "src/compose/compose.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "src/algebra/builders.h"
#include "src/algebra/print.h"
#include "src/compose/simplify_constraints.h"
#include "src/eval/checker.h"
#include "src/eval/generator.h"
#include "src/parser/parser.h"
#include "src/simulator/scenarios.h"
#include "src/testdata/literature_suite.h"
#include "tests/oracles/instance_api.h"

namespace mapcomp {
namespace {

/// Semantic equivalence of two constraint sets over the same signature,
/// spot-checked on random instances.
void ExpectEquivalent(const ConstraintSet& a, const ConstraintSet& b,
                      const Signature& sig, uint64_t seed, int rounds = 80) {
  std::mt19937_64 rng(seed);
  GenOptions gen;
  gen.domain_size = 3;
  gen.max_tuples_per_rel = 4;
  for (int round = 0; round < rounds; ++round) {
    Instance db = RandomInstance(sig, &rng, gen);
    auto sat_a = SatisfiesAll(db, a);
    auto sat_b = SatisfiesAll(db, b);
    ASSERT_TRUE(sat_a.ok());
    ASSERT_TRUE(sat_b.ok());
    EXPECT_EQ(*sat_a, *sat_b)
        << "disagreement on instance:\n" << db.ToString()
        << "a:\n" << ConstraintSetToString(a)
        << "b:\n" << ConstraintSetToString(b);
  }
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

std::vector<std::string> SortedText(const ConstraintSet& cs) {
  std::vector<std::string> out;
  for (const Constraint& c : cs) out.push_back(c.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

struct ReferenceResult {
  int eliminated = 0;
  std::vector<std::string> residual;
  ConstraintSet constraints;
};

/// The paper's plain COMPOSE loop (§3.1) under Compose's default options:
/// each pending symbol in order is eliminated from the full Σ, and every
/// failed symbol is tried again in the next round as long as the previous
/// round eliminated something.
ReferenceResult ReferenceCompose(const CompositionProblem& p) {
  const ComposeOptions defaults;
  ConstraintSet sigma = p.sigma12;
  sigma.insert(sigma.end(), p.sigma23.begin(), p.sigma23.end());
  Signature keys;
  Result<Signature> merged = Signature::Merge(p.sigma1, p.sigma2);
  if (merged.ok()) {
    Result<Signature> merged3 = Signature::Merge(*merged, p.sigma3);
    if (merged3.ok()) keys = *merged3;
  }
  EliminateOptions eliminate = defaults.eliminate;
  eliminate.keys = &keys;
  ReferenceResult out;
  out.residual =
      p.elimination_order.empty() ? p.sigma2.names() : p.elimination_order;
  for (int round = 1; round <= defaults.max_rounds; ++round) {
    std::vector<std::string> failed;
    int before = out.eliminated;
    for (const std::string& s : out.residual) {
      EliminateOutcome outcome =
          Eliminate(sigma, s, p.sigma2.ArityOf(s), eliminate);
      if (outcome.success) {
        sigma = std::move(outcome.constraints);
        ++out.eliminated;
      } else {
        failed.push_back(s);
      }
    }
    out.residual = std::move(failed);
    if (out.eliminated == before) break;
  }
  out.constraints = SimplifyConstraintSet(std::move(sigma), eliminate.registry);
  return out;
}

TEST(ComposeTest, PaperExample3TransitiveContainment) {
  // {R ⊆ S, S ⊆ T} over σ2 = {S} composes to {R ⊆ T}.
  CompositionProblem p;
  ASSERT_TRUE(p.sigma1.AddRelation("R", 1).ok());
  ASSERT_TRUE(p.sigma2.AddRelation("S", 1).ok());
  ASSERT_TRUE(p.sigma3.AddRelation("T", 1).ok());
  p.sigma12 = {Constraint::Contain(Rel("R", 1), Rel("S", 1))};
  p.sigma23 = {Constraint::Contain(Rel("S", 1), Rel("T", 1))};
  CompositionResult res = Compose(p);
  EXPECT_EQ(res.eliminated_count, 1);
  ASSERT_EQ(res.constraints.size(), 1u);
  EXPECT_TRUE(ExprEquals(res.constraints[0].lhs, Rel("R", 1)));
  EXPECT_TRUE(ExprEquals(res.constraints[0].rhs, Rel("T", 1)));
  EXPECT_TRUE(res.residual_sigma2.empty());
}

TEST(ComposeTest, PaperExample1MoviesEndToEnd) {
  // The introduction's schema-editor scenario, parsed from text.
  const char* text = R"(
    schema s1 { Movies(6); }
    schema s2 { FiveStarMovies(3); }
    schema s3 { Names(2); Years(2); }
    map m12 { pi[1,2,3](sel[#4=5](Movies)) <= FiveStarMovies; }
    map m23 {
      pi[1,2](FiveStarMovies) <= Names;
      pi[1,3](FiveStarMovies) <= Years;
    }
  )";
  Parser parser;
  CompositionProblem p = parser.ParseProblem(text).value();
  CompositionResult res = Compose(p);
  EXPECT_EQ(res.eliminated_count, 1);
  EXPECT_TRUE(res.residual_sigma2.empty());

  // The paper's expected composition:
  //   π_{1,2}(σ_{4=5}(Movies)) ⊆ Names, π_{1,3}(σ_{4=5}(Movies)) ⊆ Years.
  Condition five = Condition::AttrConst(4, CmpOp::kEq, int64_t{5});
  ConstraintSet expected{
      Constraint::Contain(Project({1, 2}, Select(five, Rel("Movies", 6))),
                          Rel("Names", 2)),
      Constraint::Contain(Project({1, 3}, Select(five, Rel("Movies", 6))),
                          Rel("Years", 2))};
  Signature sig;
  ASSERT_TRUE(sig.AddRelation("Movies", 6).ok());
  ASSERT_TRUE(sig.AddRelation("Names", 2).ok());
  ASSERT_TRUE(sig.AddRelation("Years", 2).ok());
  ExpectEquivalent(res.constraints, expected, sig, 211);
}

TEST(ComposeTest, ViewUnfoldingChain) {
  // Schema evolution via three renames: composition collapses the chain.
  CompositionProblem p;
  ASSERT_TRUE(p.sigma1.AddRelation("A", 2).ok());
  ASSERT_TRUE(p.sigma2.AddRelation("B", 2).ok());
  ASSERT_TRUE(p.sigma2.AddRelation("C", 2).ok());
  ASSERT_TRUE(p.sigma3.AddRelation("E", 2).ok());
  p.sigma12 = {Constraint::Equal(Rel("A", 2), Rel("B", 2)),
               Constraint::Equal(Rel("B", 2), Rel("C", 2))};
  p.sigma23 = {Constraint::Equal(Rel("C", 2), Rel("E", 2))};
  CompositionResult res = Compose(p);
  EXPECT_EQ(res.eliminated_count, 2);
  ASSERT_EQ(res.constraints.size(), 1u);
  EXPECT_EQ(res.constraints[0].kind, ConstraintKind::kEquality);
}

TEST(ComposeTest, BestEffortKeepsResidualSymbols) {
  // S1 is eliminable; S2 is stuck: it sits inside an intersection on a left
  // side (no left-normalization identity, §3.4.1) and in both operands of a
  // union on a right side (no right-normalization identity either).
  CompositionProblem p;
  ASSERT_TRUE(p.sigma1.AddRelation("R", 2).ok());
  ASSERT_TRUE(p.sigma1.AddRelation("P", 1).ok());
  ASSERT_TRUE(p.sigma1.AddRelation("P2", 1).ok());
  ASSERT_TRUE(p.sigma2.AddRelation("S1", 2).ok());
  ASSERT_TRUE(p.sigma2.AddRelation("S2", 1).ok());
  ASSERT_TRUE(p.sigma3.AddRelation("T", 2).ok());
  ASSERT_TRUE(p.sigma3.AddRelation("Q", 1).ok());
  p.sigma12 = {
      Constraint::Contain(Rel("R", 2), Rel("S1", 2)),
      Constraint::Contain(Intersect(Rel("P", 1), Rel("S2", 1)), Rel("P2", 1))};
  p.sigma23 = {
      Constraint::Contain(Rel("S1", 2), Rel("T", 2)),
      Constraint::Contain(
          Rel("Q", 1),
          Union(Rel("S2", 1),
                Select(Condition::AttrConst(1, CmpOp::kEq, int64_t{1}),
                       Rel("S2", 1))))};
  CompositionResult res = Compose(p);
  EXPECT_EQ(res.total_count, 2);
  EXPECT_EQ(res.eliminated_count, 1);
  ASSERT_EQ(res.residual_sigma2.size(), 1u);
  EXPECT_EQ(res.residual_sigma2[0], "S2");
  EXPECT_TRUE(res.sigma.Contains("S2"));
  // Stats carry one record per attempt. S2 fails *after* S1's elimination,
  // so its constraints cannot have changed since its failure and the
  // multi-round driver proves a retry futile: one attempt each, one round.
  ASSERT_EQ(res.stats.size(), 2u);
  EXPECT_TRUE(res.stats[0].eliminated);
  EXPECT_EQ(res.stats[0].round, 1);
  EXPECT_FALSE(res.stats[1].eliminated);
  EXPECT_FALSE(res.stats[1].failure_reason.empty());
  EXPECT_EQ(res.stats[1].round, 1);
  ASSERT_EQ(res.rounds.size(), 1u);
  EXPECT_EQ(res.rounds[0].attempted, 2);
  EXPECT_EQ(res.rounds[0].eliminated, 1);
}

TEST(ComposeTest, EliminationOrderMatters) {
  // The paper's footnote 1: with the Theorem-1 constraints duplicated for
  // S1, S2, exactly one of them can be eliminated — which one depends on
  // the order. Emulate with a pair where eliminating one blocks the other:
  //   R ⊆ S1, S1 ⊆ S2, S2 ⊆ S1 ∩ T  (cyclic dependency between S1 and S2).
  CompositionProblem p;
  ASSERT_TRUE(p.sigma1.AddRelation("R", 1).ok());
  ASSERT_TRUE(p.sigma2.AddRelation("S1", 1).ok());
  ASSERT_TRUE(p.sigma2.AddRelation("S2", 1).ok());
  ASSERT_TRUE(p.sigma3.AddRelation("T", 1).ok());
  p.sigma12 = {Constraint::Contain(Rel("R", 1), Rel("S1", 1))};
  p.sigma23 = {Constraint::Contain(Rel("S1", 1), Rel("S2", 1)),
               Constraint::Contain(Rel("S2", 1),
                                   Intersect(Rel("S1", 1), Rel("T", 1)))};
  ComposeOptions forward;
  forward.order = {"S1", "S2"};
  CompositionResult res_fwd = Compose(p, forward);
  ComposeOptions backward;
  backward.order = {"S2", "S1"};
  CompositionResult res_bwd = Compose(p, backward);
  // Both orders are best-effort; results may differ in which symbols
  // survive, but each must eliminate at least one.
  EXPECT_GE(res_fwd.eliminated_count, 1);
  EXPECT_GE(res_bwd.eliminated_count, 1);
}

TEST(ComposeTest, GlavStyleInclusionChain) {
  // Composing Sub-style inclusion mappings (§4.1): π_{A−C}(R) = S then
  // S ⊆ T yields π_{A−C}(R) ⊆ T.
  CompositionProblem p;
  ASSERT_TRUE(p.sigma1.AddRelation("R", 3).ok());
  ASSERT_TRUE(p.sigma2.AddRelation("S", 2).ok());
  ASSERT_TRUE(p.sigma3.AddRelation("T", 2).ok());
  p.sigma12 = {Constraint::Equal(Project({1, 2}, Rel("R", 3)), Rel("S", 2))};
  p.sigma23 = {Constraint::Contain(Rel("S", 2), Rel("T", 2))};
  CompositionResult res = Compose(p);
  EXPECT_EQ(res.eliminated_count, 1);
  ConstraintSet expected{
      Constraint::Contain(Project({1, 2}, Rel("R", 3)), Rel("T", 2))};
  Signature sig;
  ASSERT_TRUE(sig.AddRelation("R", 3).ok());
  ASSERT_TRUE(sig.AddRelation("T", 2).ok());
  ExpectEquivalent(res.constraints, expected, sig, 223);
}

TEST(ComposeTest, ReportIsHumanReadable) {
  CompositionProblem p;
  ASSERT_TRUE(p.sigma1.AddRelation("R", 1).ok());
  ASSERT_TRUE(p.sigma2.AddRelation("S", 1).ok());
  ASSERT_TRUE(p.sigma3.AddRelation("T", 1).ok());
  p.sigma12 = {Constraint::Contain(Rel("R", 1), Rel("S", 1))};
  p.sigma23 = {Constraint::Contain(Rel("S", 1), Rel("T", 1))};
  CompositionResult res = Compose(p);
  std::string report = res.Report();
  EXPECT_NE(report.find("eliminated 1/1"), std::string::npos);
  EXPECT_NE(report.find("S"), std::string::npos);
}

TEST(ComposeTest, SoundnessOnRandomizedMovieInstances) {
  // End-to-end soundness of Example 1 composition: every model of
  // Σ12 ∪ Σ23 is a model of Σ13.
  const char* text = R"(
    schema s1 { Movies(4); }
    schema s2 { FSM(2); }
    schema s3 { Names(1); Years(1); }
    map m12 { pi[1,2](sel[#3=1](Movies)) <= FSM; }
    map m23 { pi[1](FSM) <= Names; pi[2](FSM) <= Years; }
  )";
  Parser parser;
  CompositionProblem p = parser.ParseProblem(text).value();
  CompositionResult res = Compose(p);
  ASSERT_EQ(res.eliminated_count, 1);

  Signature all;
  ASSERT_TRUE(all.AddRelation("Movies", 4).ok());
  ASSERT_TRUE(all.AddRelation("FSM", 2).ok());
  ASSERT_TRUE(all.AddRelation("Names", 1).ok());
  ASSERT_TRUE(all.AddRelation("Years", 1).ok());
  ConstraintSet input = p.sigma12;
  input.insert(input.end(), p.sigma23.begin(), p.sigma23.end());
  std::mt19937_64 rng(227);
  GenOptions gen;
  gen.domain_size = 2;
  gen.max_tuples_per_rel = 3;
  int checked = 0;
  for (int round = 0; round < 200 && checked < 20; ++round) {
    Instance db = RandomInstance(all, &rng, gen);
    auto sat_in = SatisfiesAll(db, input);
    ASSERT_TRUE(sat_in.ok());
    if (!*sat_in) continue;
    ++checked;
    auto sat_out = SatisfiesAll(db, res.constraints);
    ASSERT_TRUE(sat_out.ok());
    EXPECT_TRUE(*sat_out) << db.ToString();
  }
  EXPECT_GT(checked, 0);
}

TEST(ComposeTest, CompletenessWitnessOnTinyInstances) {
  // The other half of equivalence (paper §2): a model of Σ13 extends to a
  // model of Σ12 ∪ Σ23 by choosing S. Checked by bounded search.
  CompositionProblem p;
  ASSERT_TRUE(p.sigma1.AddRelation("R", 1).ok());
  ASSERT_TRUE(p.sigma2.AddRelation("S", 1).ok());
  ASSERT_TRUE(p.sigma3.AddRelation("T", 1).ok());
  p.sigma12 = {Constraint::Contain(Rel("R", 1), Rel("S", 1))};
  p.sigma23 = {Constraint::Contain(Rel("S", 1), Rel("T", 1))};
  CompositionResult res = Compose(p);
  ASSERT_EQ(res.eliminated_count, 1);

  ConstraintSet full = p.sigma12;
  full.insert(full.end(), p.sigma23.begin(), p.sigma23.end());
  Signature s13;
  ASSERT_TRUE(s13.AddRelation("R", 1).ok());
  ASSERT_TRUE(s13.AddRelation("T", 1).ok());
  Signature extra;
  ASSERT_TRUE(extra.AddRelation("S", 1).ok());

  std::mt19937_64 rng(229);
  GenOptions gen;
  gen.domain_size = 2;
  gen.max_tuples_per_rel = 2;
  int checked = 0;
  for (int round = 0; round < 100 && checked < 10; ++round) {
    Instance db = RandomInstance(s13, &rng, gen);
    auto sat = SatisfiesAll(db, res.constraints);
    ASSERT_TRUE(sat.ok());
    if (!*sat) continue;
    ++checked;
    Result<Instance> witness = FindExtension(db, extra, full);
    EXPECT_TRUE(witness.ok()) << "no completeness witness for:\n"
                              << db.ToString();
  }
  EXPECT_GT(checked, 0);
}

TEST(ComposeTest, FanoutComposesToRiContainedInTi) {
  // No elimination touches another cluster, so each composes alone.
  CompositionResult res = Compose(sim::BuildFanoutProblem(3));
  EXPECT_TRUE(res.residual_sigma2.empty());
  EXPECT_EQ(SortedText(res.constraints),
            (std::vector<std::string>{"R1 <= T1", "R2 <= T2", "R3 <= T3"}))
      << res.Report();
  ASSERT_EQ(res.rounds.size(), 1u);
  EXPECT_EQ(res.rounds[0].attempted, 3);
}

TEST(ComposeTest, ChainedFanoutEliminatesEverySymbol) {
  // Each elimination rewrites the next symbol's constraints.
  CompositionResult res =
      Compose(sim::BuildFanoutProblem(5, /*chain_overlap=*/true));
  EXPECT_EQ(res.eliminated_count, 5);
  EXPECT_TRUE(res.residual_sigma2.empty());
  int attempted = 0;
  for (const RoundStat& r : res.rounds) attempted += r.attempted;
  EXPECT_EQ(attempted, static_cast<int>(res.stats.size()));
}

TEST(ComposeTest, SpliceKeepsUntouchedConstraintsInPlace) {
  // Each success drops its group from Σ and appends the rewritten group;
  // the constraint that mentions no σ2 symbol keeps its place at the front.
  CompositionProblem p;
  for (const char* r : {"A", "R1", "R2"}) p.sigma1.AddOrReplaceRelation(r, 1);
  for (const char* s : {"S1", "S2"}) p.sigma2.AddOrReplaceRelation(s, 1);
  for (const char* t : {"B", "T1", "T2"}) p.sigma3.AddOrReplaceRelation(t, 1);
  p.sigma12 = {Constraint::Equal(Rel("S1", 1), Rel("R1", 1)),
               Constraint::Contain(Rel("A", 1), Rel("B", 1)),
               Constraint::Equal(Rel("S2", 1), Rel("R2", 1))};
  p.sigma23 = {Constraint::Contain(Rel("S1", 1), Rel("T1", 1)),
               Constraint::Contain(Rel("S2", 1), Rel("T2", 1))};
  ComposeOptions options;
  options.simplify_output = false;
  CompositionResult res = Compose(p, options);
  EXPECT_EQ(res.eliminated_count, 2);
  EXPECT_EQ(ConstraintSetToString(res.constraints),
            "A <= B;\nR1 <= T1;\nR2 <= T2;\n");
  ASSERT_EQ(res.stats.size(), 2u);
  EXPECT_EQ(res.stats[1].size_after, OperatorCount(res.constraints));
}

/// SA = R1 x ... x R10 and SA <= TAj for j = 1..5: unfolding SA copies
/// the product five times. Returns the product.
ExprPtr AddFivefoldUnfold(CompositionProblem* p) {
  ExprPtr big = Rel("R1", 1);
  p->sigma1.AddOrReplaceRelation("R1", 1);
  for (int i = 2; i <= 10; ++i) {
    std::string r = "R" + std::to_string(i);
    p->sigma1.AddOrReplaceRelation(r, 1);
    big = Product(std::move(big), Rel(r, 1));
  }
  p->sigma2.AddOrReplaceRelation("SA", 10);
  p->sigma12.push_back(Constraint::Equal(Rel("SA", 10), big));
  for (int j = 1; j <= 5; ++j) {
    std::string t = "TA" + std::to_string(j);
    p->sigma3.AddOrReplaceRelation(t, 10);
    p->sigma23.push_back(Constraint::Contain(Rel("SA", 10), Rel(t, 10)));
  }
  return big;
}

/// Blowup factor 1 with only unfolding enabled: a symbol fails exactly
/// when its unfolding is larger than Σ.
ComposeOptions UnfoldOnlyNoGrowth() {
  ComposeOptions options;
  options.eliminate.max_blowup_factor = 1;
  options.eliminate.enable_left_compose = false;
  options.eliminate.enable_right_compose = false;
  return options;
}

TEST(ComposeTest, BlowupBudgetIsMeasuredAgainstTheWholeSigma) {
  // SA's unfolding is larger than the constraints that mention SA but
  // smaller than Σ, which six more copies of the product fill out.
  CompositionProblem p;
  ExprPtr big = AddFivefoldUnfold(&p);
  for (int j = 1; j <= 6; ++j) {
    std::string t = "TP" + std::to_string(j);
    p.sigma3.AddOrReplaceRelation(t, 10);
    p.sigma12.push_back(Constraint::Contain(big, Rel(t, 10)));
  }
  CompositionResult res = Compose(p, UnfoldOnlyNoGrowth());
  EXPECT_TRUE(res.residual_sigma2.empty()) << res.Report();
}

TEST(ComposeTest, BlowupLimitedFailureIsRetriedOnceSigmaSizeChanges) {
  // SA unfolds into something larger than the whole Σ, so it fails *only*
  // on the blowup guard; SB is independent and succeeds after it. The
  // guard is measured against Σ's size, which SB's success just changed —
  // so SA's failure is NOT reproducible although its constraints are
  // untouched, and it is attempted again in round 2 (where it fails
  // again: Σ only shrank).
  CompositionProblem p;
  AddFivefoldUnfold(&p);
  p.sigma1.AddOrReplaceRelation("RB", 1);
  p.sigma2.AddOrReplaceRelation("SB", 1);
  p.sigma3.AddOrReplaceRelation("TB", 1);
  p.sigma12.push_back(Constraint::Equal(Rel("SB", 1), Rel("RB", 1)));
  p.sigma23.push_back(Constraint::Contain(Rel("SB", 1), Rel("TB", 1)));

  CompositionResult res = Compose(p, UnfoldOnlyNoGrowth());

  EXPECT_EQ(res.residual_sigma2, std::vector<std::string>{"SA"});
  EXPECT_EQ(res.eliminated_count, 1);
  ASSERT_EQ(res.rounds.size(), 2u) << res.Report();
  EXPECT_EQ(res.rounds[0].attempted, 2);
  EXPECT_EQ(res.rounds[0].eliminated, 1);
  // The retry happened (and failed against a now-smaller Σ for real).
  EXPECT_EQ(res.rounds[1].attempted, 1);
  EXPECT_EQ(res.rounds[1].eliminated, 0);
  ASSERT_EQ(res.stats.size(), 3u);
  EXPECT_NE(res.stats[2].failure_reason.find("blowup"), std::string::npos);
}

TEST(ComposeTest, FailureIsRetriedOnlyWhenItsConstraintsChange) {
  // S sits on both sides of its only constraint, so no step can eliminate
  // it. U is eliminated after it by unfolding U = R2.
  auto problem = [](ExprPtr s_rhs) {
    CompositionProblem p;
    for (const char* r : {"R", "R2"}) p.sigma1.AddOrReplaceRelation(r, 1);
    for (const char* s : {"S", "U"}) p.sigma2.AddOrReplaceRelation(s, 1);
    p.sigma3.AddOrReplaceRelation("T", 1);
    p.sigma12 = {
        Constraint::Contain(Difference(Rel("R", 1), Rel("S", 1)), s_rhs),
        Constraint::Equal(Rel("U", 1), Rel("R2", 1))};
    p.sigma23 = {Constraint::Contain(Rel("U", 1), Rel("T", 1))};
    return p;
  };
  auto attempts_of_s = [](const CompositionResult& res) {
    std::vector<int> rounds;
    for (const SymbolStat& st : res.stats) {
      if (st.symbol == "S") rounds.push_back(st.round);
    }
    return rounds;
  };

  // U's success changes Σ but not S's constraint: no second attempt.
  CompositionResult untouched = Compose(problem(Rel("S", 1)));
  EXPECT_EQ(untouched.residual_sigma2, std::vector<std::string>{"S"});
  EXPECT_EQ(untouched.rounds.size(), 1u) << untouched.Report();
  EXPECT_EQ(attempts_of_s(untouched), std::vector<int>{1});

  // S's constraint also mentions U, so U's unfolding rewrites it: S is
  // attempted again in round 2 (and fails again).
  CompositionResult rewritten =
      Compose(problem(Union(Rel("S", 1), Rel("U", 1))));
  EXPECT_EQ(rewritten.residual_sigma2, std::vector<std::string>{"S"});
  EXPECT_EQ(rewritten.rounds.size(), 2u) << rewritten.Report();
  EXPECT_EQ(attempts_of_s(rewritten), (std::vector<int>{1, 2}));
}

TEST(ComposeTest, AgreesWithPlainFullSigmaLoop) {
  std::vector<CompositionProblem> problems = ParsedLiteratureSuite();
  for (int width = 2; width <= 12; ++width) {
    problems.push_back(sim::BuildFanoutProblem(width));
    problems.push_back(sim::BuildFanoutProblem(width, /*chain_overlap=*/true));
  }
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    sim::ReconciliationScenarioOptions opts;
    opts.schema_size = 10;
    opts.num_edits = 8;
    opts.seed = seed;
    opts.max_branch_attempts = 2;
    problems.push_back(sim::BuildReconciliationProblem(opts));
  }
  for (const CompositionProblem& p : problems) {
    CompositionResult res = Compose(p);
    ReferenceResult ref = ReferenceCompose(p);
    EXPECT_EQ(res.eliminated_count, ref.eliminated) << p.name;
    EXPECT_EQ(res.residual_sigma2, ref.residual) << p.name;
    EXPECT_EQ(SortedText(res.constraints), SortedText(ref.constraints))
        << p.name;
  }
}

}  // namespace
}  // namespace mapcomp
