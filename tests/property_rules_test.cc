// Randomized equivalence testing of the ELIMINATE machinery: random small
// constraint sets over {R, T, U, S} are run through Eliminate(S); whenever
// elimination succeeds, the output must be equivalent to the input —
// soundness checked directly, completeness via bounded witness search.

#include <gtest/gtest.h>

#include <random>

#include "src/algebra/builders.h"
#include "src/algebra/print.h"
#include "src/compose/eliminate.h"
#include "src/eval/checker.h"
#include "src/eval/generator.h"
#include "tests/oracles/instance_api.h"

namespace mapcomp {
namespace {

/// Random expression over unary relations from `pool`, depth-bounded.
ExprPtr RandomUnaryExpr(std::mt19937_64* rng,
                        const std::vector<std::string>& pool, int depth) {
  std::uniform_int_distribution<int> pick(0,
                                          static_cast<int>(pool.size()) - 1);
  if (depth == 0) return Rel(pool[pick(*rng)], 1);
  std::uniform_int_distribution<int> op(0, 5);
  switch (op(*rng)) {
    case 0:
      return Union(RandomUnaryExpr(rng, pool, depth - 1),
                   RandomUnaryExpr(rng, pool, depth - 1));
    case 1:
      return Intersect(RandomUnaryExpr(rng, pool, depth - 1),
                       RandomUnaryExpr(rng, pool, depth - 1));
    case 2:
      return Difference(RandomUnaryExpr(rng, pool, depth - 1),
                        RandomUnaryExpr(rng, pool, depth - 1));
    case 3:
      return Select(Condition::AttrConst(1, CmpOp::kLe, int64_t{1}),
                    RandomUnaryExpr(rng, pool, depth - 1));
    case 4:
      return Project({1}, Product(RandomUnaryExpr(rng, pool, depth - 1),
                                  RandomUnaryExpr(rng, pool, depth - 1)));
    default:
      return Rel(pool[pick(*rng)], 1);
  }
}

class EliminateEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EliminateEquivalenceTest, SuccessImpliesEquivalence) {
  std::mt19937_64 rng(GetParam());
  const std::vector<std::string> pool{"R", "T", "U", "S"};
  Signature sig;
  for (const std::string& n : pool) ASSERT_TRUE(sig.AddRelation(n, 1).ok());
  Signature extra;
  ASSERT_TRUE(extra.AddRelation("S", 1).ok());
  Signature without_s;
  for (const char* n : {"R", "T", "U"}) {
    ASSERT_TRUE(without_s.AddRelation(n, 1).ok());
  }

  std::uniform_int_distribution<int> n_constraints(1, 3);
  std::uniform_int_distribution<int> kind(0, 4);
  GenOptions gen;
  gen.domain_size = 2;
  gen.max_tuples_per_rel = 2;

  int successes = 0;
  for (int round = 0; round < 40; ++round) {
    ConstraintSet cs;
    int n = n_constraints(rng);
    for (int i = 0; i < n; ++i) {
      ExprPtr lhs = RandomUnaryExpr(&rng, pool, 2);
      ExprPtr rhs = RandomUnaryExpr(&rng, pool, 2);
      cs.push_back(kind(rng) == 0 ? Constraint::Equal(lhs, rhs)
                                  : Constraint::Contain(lhs, rhs));
    }
    EliminateOutcome out = Eliminate(cs, "S", 1);
    if (!out.success) continue;
    ++successes;
    for (const Constraint& c : out.constraints) {
      ASSERT_FALSE(ConstraintContainsRelation(c, "S")) << c.ToString();
    }
    // Soundness + completeness sampling.
    for (int inst = 0; inst < 12; ++inst) {
      Instance db = RandomInstance(sig, &rng, gen);
      Result<bool> sat_in = SatisfiesAll(db, cs);
      ASSERT_TRUE(sat_in.ok());
      if (*sat_in) {
        Result<bool> sat_out = SatisfiesAll(db, out.constraints);
        ASSERT_TRUE(sat_out.ok());
        EXPECT_TRUE(*sat_out)
            << "soundness violation\ninput:\n" << ConstraintSetToString(cs)
            << "output:\n" << ConstraintSetToString(out.constraints)
            << "instance:\n" << db.ToString();
      }
      Instance reduced = db.RestrictedTo(without_s);
      Result<bool> sat_red = SatisfiesAll(reduced, out.constraints);
      ASSERT_TRUE(sat_red.ok());
      if (*sat_red) {
        Result<Instance> witness = FindExtension(reduced, extra, cs);
        if (!witness.ok() &&
            witness.status().code() == StatusCode::kResourceExhausted) {
          continue;
        }
        EXPECT_TRUE(witness.ok())
            << "completeness violation\ninput:\n"
            << ConstraintSetToString(cs) << "output:\n"
            << ConstraintSetToString(out.constraints) << "instance:\n"
            << reduced.ToString();
      }
    }
  }
  // The generator produces plenty of eliminable sets; make sure the test
  // exercised some.
  EXPECT_GT(successes, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EliminateEquivalenceTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

/// Binary variant: expressions mix arities through products and
/// projections, exercising the index-aware normalization identities.
ExprPtr RandomBinaryExpr(std::mt19937_64* rng,
                         const std::vector<std::string>& pool, int depth) {
  std::uniform_int_distribution<int> pick(0,
                                          static_cast<int>(pool.size()) - 1);
  if (depth == 0) return Rel(pool[pick(*rng)], 2);
  std::uniform_int_distribution<int> op(0, 6);
  switch (op(*rng)) {
    case 0:
      return Union(RandomBinaryExpr(rng, pool, depth - 1),
                   RandomBinaryExpr(rng, pool, depth - 1));
    case 1:
      return Intersect(RandomBinaryExpr(rng, pool, depth - 1),
                       RandomBinaryExpr(rng, pool, depth - 1));
    case 2:
      return Difference(RandomBinaryExpr(rng, pool, depth - 1),
                        RandomBinaryExpr(rng, pool, depth - 1));
    case 3:
      return Select(Condition::AttrCmp(1, CmpOp::kEq, 2),
                    RandomBinaryExpr(rng, pool, depth - 1));
    case 4: {
      // π over a 4-ary product, with a possibly non-prefix index list.
      ExprPtr prod = Product(RandomBinaryExpr(rng, pool, depth - 1),
                             RandomBinaryExpr(rng, pool, depth - 1));
      std::uniform_int_distribution<int> idx(1, 4);
      return Project({idx(*rng), idx(*rng)}, std::move(prod));
    }
    case 5:
      return Project({2, 1}, RandomBinaryExpr(rng, pool, depth - 1));
    default:
      return Rel(pool[pick(*rng)], 2);
  }
}

class BinaryEliminateEquivalenceTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BinaryEliminateEquivalenceTest, SuccessImpliesSoundness) {
  std::mt19937_64 rng(GetParam() * 101);
  const std::vector<std::string> pool{"R", "T", "S"};
  Signature sig;
  for (const std::string& n : pool) ASSERT_TRUE(sig.AddRelation(n, 2).ok());

  std::uniform_int_distribution<int> n_constraints(1, 3);
  std::uniform_int_distribution<int> kind(0, 4);
  GenOptions gen;
  gen.domain_size = 2;
  gen.max_tuples_per_rel = 3;

  int successes = 0;
  for (int round = 0; round < 30; ++round) {
    ConstraintSet cs;
    int n = n_constraints(rng);
    for (int i = 0; i < n; ++i) {
      ExprPtr lhs = RandomBinaryExpr(&rng, pool, 2);
      ExprPtr rhs = RandomBinaryExpr(&rng, pool, 2);
      cs.push_back(kind(rng) == 0 ? Constraint::Equal(lhs, rhs)
                                  : Constraint::Contain(lhs, rhs));
    }
    EliminateOutcome out = Eliminate(cs, "S", 2);
    if (!out.success) continue;
    ++successes;
    for (const Constraint& c : out.constraints) {
      ASSERT_FALSE(ConstraintContainsRelation(c, "S")) << c.ToString();
    }
    for (int inst = 0; inst < 10; ++inst) {
      Instance db = RandomInstance(sig, &rng, gen);
      Result<bool> sat_in = SatisfiesAll(db, cs);
      ASSERT_TRUE(sat_in.ok());
      if (!*sat_in) continue;
      Result<bool> sat_out = SatisfiesAll(db, out.constraints);
      ASSERT_TRUE(sat_out.ok());
      EXPECT_TRUE(*sat_out)
          << "soundness violation\ninput:\n" << ConstraintSetToString(cs)
          << "output:\n" << ConstraintSetToString(out.constraints)
          << "instance:\n" << db.ToString();
    }
  }
  EXPECT_GT(successes, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryEliminateEquivalenceTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

}  // namespace
}  // namespace mapcomp
