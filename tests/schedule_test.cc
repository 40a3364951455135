// Tests for the conflict-graph elimination scheduler: occurrence-set
// computation (Bloom fast path + exact confirmation), wave planning
// (disjoint symbols share a wave, overlapping symbols serialize, Bloom
// false positives only ever over-serialize).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/algebra/builders.h"
#include "src/compose/compose.h"
#include "src/compose/schedule.h"
#include "src/parser/parser.h"
#include "src/simulator/scenarios.h"
#include "src/testdata/literature_suite.h"

namespace mapcomp {
namespace {

ConstraintSet FullSigma(const CompositionProblem& p) {
  ConstraintSet sigma = p.sigma12;
  sigma.insert(sigma.end(), p.sigma23.begin(), p.sigma23.end());
  return sigma;
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

TEST(ScheduleTest, OccurrenceSetsAreExact) {
  CompositionProblem p = sim::BuildFanoutProblem(3);
  ConstraintSet sigma = FullSigma(p);
  // Layout: sigma12 = {S1=R1, S2=R2, S3=R3}, sigma23 = {S1<=T1, ...}.
  std::vector<std::vector<int>> occ =
      OccurrenceSets(sigma, {"S1", "S2", "S3"});
  ASSERT_EQ(occ.size(), 3u);
  EXPECT_EQ(occ[0], (std::vector<int>{0, 3}));
  EXPECT_EQ(occ[1], (std::vector<int>{1, 4}));
  EXPECT_EQ(occ[2], (std::vector<int>{2, 5}));
  // A symbol that occurs nowhere has an empty set.
  EXPECT_TRUE(OccurrenceSets(sigma, {"Absent"})[0].empty());
}

TEST(ScheduleTest, DisjointSymbolsLandInOneWave) {
  CompositionProblem p = sim::BuildFanoutProblem(8);
  std::vector<std::vector<int>> waves =
      PlanAllWaves(FullSigma(p), p.sigma2.names());
  ASSERT_EQ(waves.size(), 1u);
  EXPECT_EQ(waves[0].size(), 8u);
  // The single-wave entry point agrees.
  EXPECT_EQ(PlanWave(FullSigma(p), p.sigma2.names()), waves[0]);
}

TEST(ScheduleTest, OverlappingSymbolsSerialize) {
  // Chained clusters: S(i+1)'s defining constraint mentions Si, so every
  // adjacent pair conflicts and must never share a wave.
  CompositionProblem p = sim::BuildFanoutProblem(6, /*chain_overlap=*/true);
  ConstraintSet sigma = FullSigma(p);
  std::vector<std::vector<int>> waves = PlanAllWaves(sigma, p.sigma2.names());
  EXPECT_GE(waves.size(), 2u);
  size_t placed = 0;
  for (const std::vector<int>& wave : waves) {
    std::set<int> members(wave.begin(), wave.end());
    placed += wave.size();
    for (int s : wave) {
      EXPECT_EQ(members.count(s + 1), 0u)
          << "adjacent symbols S" << s + 1 << ",S" << s + 2
          << " share a wave";
    }
  }
  EXPECT_EQ(placed, 6u);  // waves partition the symbol list

  // Two symbols sharing one constraint serialize even when everything
  // else about them is disjoint: the first wave takes only the first.
  EXPECT_EQ(PlanWave(sigma, {"S1", "S2"}), std::vector<int>{0});
  std::vector<std::vector<int>> pair_waves =
      PlanAllWaves(sigma, {"S1", "S2"});
  ASSERT_EQ(pair_waves.size(), 2u);
  EXPECT_EQ(pair_waves[0], std::vector<int>{0});
  EXPECT_EQ(pair_waves[1], std::vector<int>{1});
}

TEST(ScheduleTest, BloomFalsePositivesOnlyOverSerialize) {
  CompositionProblem p = sim::BuildFanoutProblem(2);
  ConstraintSet sigma = FullSigma(p);

  // Engineer a Bloom collision: a symbol that occurs nowhere but whose
  // 64-bit name bit equals that of R1, which does occur. 64 possible bits
  // make a collision certain within a few dozen candidates.
  std::string colliding;
  for (int i = 0; i < 10000 && colliding.empty(); ++i) {
    std::string candidate = "X" + std::to_string(i);
    if (Expr::NameBit(candidate) == Expr::NameBit("R1")) {
      colliding = candidate;
    }
  }
  ASSERT_FALSE(colliding.empty()) << "no NameBit collision in 10000 names";

  // Exact planning proves the ghost symbol absent: one wave.
  std::vector<std::vector<int>> exact =
      PlanAllWaves(sigma, {"S1", colliding}, /*exact=*/true);
  ASSERT_EQ(exact.size(), 1u);

  // Bloom-only planning believes the mask: the ghost appears to occur in
  // S1's defining constraint, adding a conflict edge — over-serialized
  // into two waves.
  std::vector<std::vector<int>> bloom =
      PlanAllWaves(sigma, {"S1", colliding}, /*exact=*/false);
  ASSERT_EQ(bloom.size(), 2u);

  // Never under-serialize: Bloom candidate sets contain the exact sets
  // (a clear mask bit proves absence), so any true conflict survives.
  for (const CompositionProblem& prob : ParsedLiteratureSuite()) {
    ConstraintSet s = FullSigma(prob);
    std::vector<std::string> symbols = prob.sigma2.names();
    std::vector<std::vector<int>> ex = OccurrenceSets(s, symbols, true);
    std::vector<std::vector<int>> bl = OccurrenceSets(s, symbols, false);
    for (size_t i = 0; i < symbols.size(); ++i) {
      std::set<int> bloom_set(bl[i].begin(), bl[i].end());
      for (int c : ex[i]) {
        EXPECT_EQ(bloom_set.count(c), 1u)
            << prob.name << ": Bloom set misses a true occurrence of "
            << symbols[i];
      }
    }
  }
}

TEST(ScheduleTest, WaveWidthsAreRecordedAndSumToAttempts) {
  CompositionResult wide = Compose(sim::BuildFanoutProblem(5));
  ASSERT_EQ(wide.rounds.size(), 1u);
  EXPECT_EQ(wide.rounds[0].wave_widths, std::vector<int>{5});
  EXPECT_EQ(wide.eliminated_count, 5);

  CompositionResult chained =
      Compose(sim::BuildFanoutProblem(5, /*chain_overlap=*/true));
  EXPECT_EQ(chained.eliminated_count, 5);
  for (const RoundStat& r : chained.rounds) {
    int width_sum = 0;
    for (int w : r.wave_widths) {
      EXPECT_GE(w, 1);
      width_sum += w;
    }
    EXPECT_EQ(width_sum, r.attempted);
  }
  // The chain forces at least one multi-wave round.
  ASSERT_FALSE(chained.rounds.empty());
  EXPECT_GE(chained.rounds[0].wave_widths.size(), 2u);
}

TEST(ScheduleTest, BloomOnlyPlanningComposesTheSameSymbols) {
  // Over-serialization must never change *what* gets eliminated, only how
  // the waves are cut.
  std::vector<CompositionProblem> problems = ParsedLiteratureSuite();
  problems.push_back(sim::BuildFanoutProblem(6));
  ComposeOptions exact;
  ComposeOptions bloom;
  bloom.exact_conflicts = false;
  for (const CompositionProblem& p : problems) {
    CompositionResult a = Compose(p, exact);
    CompositionResult b = Compose(p, bloom);
    EXPECT_EQ(a.eliminated_count, b.eliminated_count) << p.name;
    EXPECT_EQ(a.residual_sigma2, b.residual_sigma2) << p.name;
  }
}

TEST(ScheduleTest, BlowupLimitedWaveFailureIsRetriedNextRound) {
  // SA unfolds into something larger than the whole Σ (blowup factor 1,
  // left/right disabled), so it fails *only* on the blowup guard; SB is
  // independent and succeeds in the same wave. The guard is measured
  // against the global snapshot size, which SB's success just changed —
  // so SA's failure is NOT reproducible against the merged Σ and must be
  // attempted again in round 2 (where it fails again: Σ only shrank).
  CompositionProblem p;
  ExprPtr big = Rel("R1", 1);
  p.sigma1.AddOrReplaceRelation("R1", 1);
  for (int i = 2; i <= 10; ++i) {
    std::string r = "R" + std::to_string(i);
    p.sigma1.AddOrReplaceRelation(r, 1);
    big = Product(std::move(big), Rel(r, 1));
  }
  p.sigma2.AddOrReplaceRelation("SA", 10);
  p.sigma12.push_back(Constraint::Equal(Rel("SA", 10), big));
  for (int j = 1; j <= 5; ++j) {
    std::string t = "TA" + std::to_string(j);
    p.sigma3.AddOrReplaceRelation(t, 10);
    p.sigma23.push_back(Constraint::Contain(Rel("SA", 10), Rel(t, 10)));
  }
  p.sigma1.AddOrReplaceRelation("RB", 1);
  p.sigma2.AddOrReplaceRelation("SB", 1);
  p.sigma3.AddOrReplaceRelation("TB", 1);
  p.sigma12.push_back(Constraint::Equal(Rel("SB", 1), Rel("RB", 1)));
  p.sigma23.push_back(Constraint::Contain(Rel("SB", 1), Rel("TB", 1)));

  ComposeOptions options;
  options.eliminate.max_blowup_factor = 1;
  options.eliminate.enable_left_compose = false;
  options.eliminate.enable_right_compose = false;
  CompositionResult res = Compose(p, options);

  EXPECT_EQ(res.residual_sigma2, std::vector<std::string>{"SA"});
  EXPECT_EQ(res.eliminated_count, 1);
  ASSERT_EQ(res.rounds.size(), 2u) << res.Report();
  EXPECT_EQ(res.rounds[0].attempted, 2);
  EXPECT_EQ(res.rounds[0].eliminated, 1);
  EXPECT_EQ(res.rounds[0].wave_widths, std::vector<int>{2});
  // The retry happened (and failed against a now-smaller Σ for real).
  EXPECT_EQ(res.rounds[1].attempted, 1);
  EXPECT_EQ(res.rounds[1].eliminated, 0);
  ASSERT_EQ(res.stats.size(), 3u);
  EXPECT_NE(res.stats[2].failure_reason.find("blowup"), std::string::npos);
}

TEST(ScheduleTest, PartitionedWaveMatchesKnownComposition) {
  // The fan-out problem composes to exactly Ri <= Ti per cluster; check
  // the merged output, not just the counters.
  CompositionResult res = Compose(sim::BuildFanoutProblem(3));
  EXPECT_TRUE(res.residual_sigma2.empty());
  std::string out = ConstraintSetToString(res.constraints);
  EXPECT_NE(out.find("R1 <= T1"), std::string::npos) << out;
  EXPECT_NE(out.find("R2 <= T2"), std::string::npos) << out;
  EXPECT_NE(out.find("R3 <= T3"), std::string::npos) << out;
}

}  // namespace
}  // namespace mapcomp
