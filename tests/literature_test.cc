// The literature suite (paper §4): 22 composition problems reconstructed
// from the paper and its cited works — see src/testdata/literature_suite.h
// for provenance. Each problem is checked against its expected elimination
// outcome and double-checked semantically: every sampled model of
// Σ12 ∪ Σ23 must satisfy the composed output.

#include "src/testdata/literature_suite.h"

#include <gtest/gtest.h>

#include <cctype>
#include <random>

#include "src/compose/compose.h"
#include "src/eval/checker.h"
#include "src/eval/generator.h"
#include "src/parser/parser.h"
#include "tests/oracles/instance_api.h"

namespace mapcomp {
namespace {

using testdata::LiteratureProblem;

class LiteratureTest : public ::testing::TestWithParam<LiteratureProblem> {};

TEST_P(LiteratureTest, ComposesAsExpected) {
  const LiteratureProblem& prob = GetParam();
  Parser parser;
  Result<CompositionProblem> parsed = parser.ParseProblem(prob.text);
  ASSERT_TRUE(parsed.ok()) << prob.name << ": " << parsed.status().ToString();
  CompositionResult res = Compose(*parsed);
  EXPECT_EQ(res.total_count, prob.expect_total) << prob.name;
  EXPECT_EQ(res.eliminated_count, prob.expect_eliminated)
      << prob.name << "\n" << res.Report();
}

TEST_P(LiteratureTest, CompositionIsSound) {
  const LiteratureProblem& prob = GetParam();
  Parser parser;
  CompositionProblem p = parser.ParseProblem(prob.text).value();
  CompositionResult res = Compose(p);

  Signature all;
  for (const Signature* s : {&p.sigma1, &p.sigma2, &p.sigma3}) {
    for (const std::string& n : s->names()) {
      ASSERT_TRUE(all.AddRelation(n, s->ArityOf(n)).ok());
    }
  }
  ConstraintSet input = p.sigma12;
  input.insert(input.end(), p.sigma23.begin(), p.sigma23.end());

  std::mt19937_64 rng(0xC0FFEE);
  GenOptions gen;
  gen.domain_size = 2;
  gen.max_tuples_per_rel = 2;
  int checked = 0;
  for (int round = 0; round < 120 && checked < 10; ++round) {
    Instance db = round == 0 ? Instance() : RandomInstance(all, &rng, gen);
    Result<bool> sat_in = SatisfiesAll(db, input);
    ASSERT_TRUE(sat_in.ok()) << prob.name;
    if (!*sat_in) continue;
    ++checked;
    Result<bool> sat_out = SatisfiesAll(db, res.constraints);
    ASSERT_TRUE(sat_out.ok()) << prob.name;
    EXPECT_TRUE(*sat_out) << prob.name << "\ninstance:\n"
                          << db.ToString() << "output:\n"
                          << ConstraintSetToString(res.constraints);
  }
  EXPECT_GT(checked, 0) << prob.name << ": no satisfying instances sampled";
}

INSTANTIATE_TEST_SUITE_P(
    Suite, LiteratureTest, ::testing::ValuesIn(testdata::LiteratureSuite()),
    [](const ::testing::TestParamInfo<LiteratureProblem>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace mapcomp
