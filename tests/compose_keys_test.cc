// End-to-end composition with key constraints: the paper represents keys
// via the active-domain technique (Example 2) and uses declared keys to
// minimize Skolem arguments (§3.5.1). These tests drive both through the
// full COMPOSE pipeline.

#include <gtest/gtest.h>

#include <random>

#include "src/algebra/builders.h"
#include "src/compose/compose.h"
#include "src/eval/checker.h"
#include "src/eval/generator.h"
#include "src/parser/parser.h"
#include "src/simulator/scenarios.h"
#include "tests/oracles/instance_api.h"

namespace mapcomp {
namespace {

Tuple T(std::initializer_list<int64_t> vals) {
  Tuple t;
  for (int64_t v : vals) t.push_back(Value(v));
  return t;
}

TEST(ComposeKeysTest, KeyConstraintsSurviveComposition) {
  // σ2 relation S carries a key constraint; after eliminating S the key
  // must be re-expressed over the σ1 relation it mirrors.
  CompositionProblem p;
  ASSERT_TRUE(p.sigma1.AddRelation("R", 2).ok());
  ASSERT_TRUE(p.sigma2.AddRelation("S", 2).ok());
  ASSERT_TRUE(p.sigma2.SetKey("S", {1}).ok());
  ASSERT_TRUE(p.sigma3.AddRelation("U", 2).ok());
  p.sigma12 = {Constraint::Equal(Rel("R", 2), Rel("S", 2))};
  ConstraintSet key_cs = KeyConstraintsFor("S", 2, {1});
  p.sigma23 = {Constraint::Contain(Rel("S", 2), Rel("U", 2))};
  p.sigma23.insert(p.sigma23.end(), key_cs.begin(), key_cs.end());

  CompositionResult res = Compose(p);
  EXPECT_EQ(res.eliminated_count, 1);

  // The composed set must force R's first column to stay a key.
  Instance violating;
  violating.Set("R", {T({1, 2}), T({1, 3})});
  violating.Set("U", {T({1, 2}), T({1, 3})});
  EXPECT_FALSE(SatisfiesAll(violating, res.constraints).value());
  Instance fine;
  fine.Set("R", {T({1, 2}), T({2, 3})});
  fine.Set("U", {T({1, 2}), T({2, 3})});
  EXPECT_TRUE(SatisfiesAll(fine, res.constraints).value());
}

TEST(ComposeKeysTest, KeyedSkolemComposition) {
  // R(2) key(1) mapped into a wider S, then S into V: the Skolem function
  // introduced for S's third column depends only on R's key, and
  // deskolemization succeeds.
  Parser parser;
  CompositionProblem p = parser.ParseProblem(R"(
    schema s1 { R(2) key(1); }
    schema s2 { S(3); }
    schema s3 { V(3); W(1); }
    map m12 { R <= pi[1,2](S); }
    map m23 { S <= V; pi[3](S) <= W; }
  )")
                             .value();
  CompositionResult res = Compose(p);
  EXPECT_EQ(res.eliminated_count, 1) << res.Report();
  for (const Constraint& c : res.constraints) {
    EXPECT_FALSE(ContainsSkolem(c.lhs) || ContainsSkolem(c.rhs));
  }

  // Soundness: sampled models of the input satisfy the output.
  Signature all;
  for (const Signature* s : {&p.sigma1, &p.sigma2, &p.sigma3}) {
    for (const std::string& n : s->names()) {
      ASSERT_TRUE(all.AddRelation(n, s->ArityOf(n)).ok());
    }
  }
  ConstraintSet input = p.sigma12;
  input.insert(input.end(), p.sigma23.begin(), p.sigma23.end());
  std::mt19937_64 rng(31337);
  GenOptions gen;
  gen.domain_size = 2;
  gen.max_tuples_per_rel = 2;
  int checked = 0;
  for (int round = 0; round < 150 && checked < 10; ++round) {
    Instance db = round == 0 ? Instance() : RandomInstance(all, &rng, gen);
    if (!SatisfiesAll(db, input).value()) continue;
    ++checked;
    EXPECT_TRUE(SatisfiesAll(db, res.constraints).value()) << db.ToString();
  }
  EXPECT_GT(checked, 0);
}

TEST(ComposeKeysTest, VerticalPartitionRoundTrip) {
  // The V primitive's three constraints compose away when the partitions
  // are re-merged downstream: R -> (S,T) -> M with M = S ⋈ T.
  Parser parser;
  CompositionProblem p = parser.ParseProblem(R"(
    schema s1 { R(3) key(1); }
    schema s2 { S(2) key(1); T(2) key(1); }
    schema s3 { M(3); }
    map m12 {
      pi[1,2](R) = S;
      pi[1,3](R) = T;
      R = pi[1,2,4](sel[#1=#3](S * T));
    }
    map m23 { pi[1,2,4](sel[#1=#3](S * T)) <= M; }
  )")
                             .value();
  CompositionResult res = Compose(p);
  EXPECT_EQ(res.eliminated_count, 2) << res.Report();
  // Expected semantics: R ⊆ M.
  Instance db;
  db.Set("R", {T({1, 2, 3})});
  db.Set("M", {T({1, 2, 3})});
  EXPECT_TRUE(SatisfiesAll(db, res.constraints).value());
  db.Clear("M");
  EXPECT_FALSE(SatisfiesAll(db, res.constraints).value());
}

TEST(ComposeKeysTest, SimulatedKeyedEditingSoundness) {
  // Integration: a keyed editing run produces a valid final mapping whose
  // constraints hold on the all-empty instance (sanity of the whole chain).
  sim::EditingScenarioOptions opts;
  opts.schema_size = 5;
  opts.num_edits = 10;
  opts.seed = 77;
  opts.simulator.primitives.enable_keys = true;
  sim::EditingScenarioResult res = sim::RunEditingScenario(opts);
  EXPECT_TRUE(res.final_mapping.Validate().ok());
  Instance empty;
  EXPECT_TRUE(
      SatisfiesAll(empty, res.final_mapping.constraints).value());
}

}  // namespace
}  // namespace mapcomp
