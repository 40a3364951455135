// Semantic compose-soundness harness coverage: every composition the
// algorithm produces must agree with the original two-mapping pipeline on
// generated finite instances (paper §2 equivalence), and a deliberately
// wrong "composition" must be caught.

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/algebra/builders.h"
#include "src/eval/checker.h"
#include "src/eval/generator.h"
#include "src/eval/soundness.h"
#include "src/parser/parser.h"
#include "src/simulator/scenarios.h"
#include "src/testdata/literature_suite.h"

namespace mapcomp {
namespace {

TEST(CompositionSoundnessTest, LiteratureSuiteIsSound) {
  Parser parser;
  int total_original_satisfied = 0;
  for (const testdata::LiteratureProblem& lit : testdata::LiteratureSuite()) {
    CompositionProblem problem = parser.ParseProblem(lit.text).value();
    CompositionResult composed = Compose(problem);
    Result<CompositionCheck> check =
        CheckComposition(problem, composed, /*generator_seed=*/1234,
                         /*n_instances=*/10);
    ASSERT_TRUE(check.ok()) << lit.name << ": "
                            << check.status().ToString();
    EXPECT_TRUE(check->sound) << lit.name << "\n" << check->Report();
    EXPECT_EQ(check->violations, 0) << lit.name;
    EXPECT_EQ(check->instances, 10) << lit.name;
    total_original_satisfied += check->original_satisfied;
  }
  // The harness must not be vacuous: across the suite, plenty of generated
  // instances actually satisfy the original pipelines (chase repair).
  EXPECT_GT(total_original_satisfied, 40);
}

TEST(CompositionSoundnessTest, FanoutShapesAreSound) {
  for (bool overlap : {false, true}) {
    CompositionProblem problem = sim::BuildFanoutProblem(5, overlap);
    CompositionResult composed = Compose(problem);
    CompositionCheckOptions options;
    options.eval.jobs = 4;  // check the instances on four lanes
    Result<CompositionCheck> check =
        CheckComposition(problem, composed, 99, 8, options);
    ASSERT_TRUE(check.ok()) << check.status().ToString();
    EXPECT_TRUE(check->sound) << check->Report();
    EXPECT_GT(check->original_satisfied, 0);
  }
}

TEST(CompositionSoundnessTest, CheckResultsIdenticalAcrossEvalJobs) {
  Parser parser;
  CompositionProblem problem =
      parser.ParseProblem(testdata::LiteratureSuite()[0].text).value();
  CompositionResult composed = Compose(problem);
  CompositionCheckOptions a, b;
  a.eval.jobs = 1;
  b.eval.jobs = 8;
  Result<CompositionCheck> ca = CheckComposition(problem, composed, 7, 12, a);
  Result<CompositionCheck> cb = CheckComposition(problem, composed, 7, 12, b);
  ASSERT_TRUE(ca.ok());
  ASSERT_TRUE(cb.ok());
  EXPECT_EQ(ca->original_satisfied, cb->original_satisfied);
  EXPECT_EQ(ca->composed_satisfied, cb->composed_satisfied);
  EXPECT_EQ(ca->violations, cb->violations);
  EXPECT_EQ(ca->inconclusive_skolem, cb->inconclusive_skolem);
}

TEST(CompositionSoundnessTest, DetectsWrongComposition) {
  // R ⊆ S, S ⊆ T composes to R ⊆ T. Claim the reverse containment instead:
  // the harness must find instances satisfying the pipeline but not T ⊆ R.
  Parser parser;
  CompositionProblem problem = parser
                                   .ParseProblem(R"(
      schema s1 { R(2); }
      schema s2 { S(2); }
      schema s3 { T(2); }
      map m12 { R <= S; }
      map m23 { S <= T; })")
                                   .value();
  CompositionResult bogus;
  bogus.sigma = *Signature::Merge(problem.sigma1, problem.sigma3);
  bogus.constraints = {Constraint::Contain(Rel("T", 2), Rel("R", 2))};
  bogus.eliminated_count = 1;
  bogus.total_count = 1;
  Result<CompositionCheck> check =
      CheckComposition(problem, bogus, 5, 40);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_FALSE(check->sound) << check->Report();
  EXPECT_GT(check->violations, 0);
  EXPECT_FALSE(check->counterexamples.empty());
}

TEST(CompositionSoundnessTest, CompletenessProbeFindsExtensions) {
  // Tiny domain so FindExtension's bounded search is feasible: every
  // instance whose restriction satisfies R ⊆ T must extend to an S with
  // R ⊆ S ⊆ T — and does, because S := R works.
  Parser parser;
  CompositionProblem problem = parser
                                   .ParseProblem(R"(
      schema s1 { R(2); }
      schema s2 { S(2); }
      schema s3 { T(2); }
      map m12 { R <= S; }
      map m23 { S <= T; })")
                                   .value();
  CompositionResult composed = Compose(problem);
  ASSERT_TRUE(composed.residual_sigma2.empty());
  CompositionCheckOptions options;
  options.gen.domain_size = 2;
  options.gen.max_tuples_per_rel = 2;
  options.completeness_samples = 4;
  Result<CompositionCheck> check =
      CheckComposition(problem, composed, 21, 24, options);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_TRUE(check->sound);
  EXPECT_GT(check->completeness_checked, 0);
  EXPECT_EQ(check->completeness_checked, check->completeness_witnessed)
      << check->Report();
}

TEST(CompositionSoundnessTest, ReportMentionsVerdict) {
  Parser parser;
  CompositionProblem problem =
      parser.ParseProblem(testdata::LiteratureSuite()[1].text).value();
  CompositionResult composed = Compose(problem);
  Result<CompositionCheck> check = CheckComposition(problem, composed, 3, 6);
  ASSERT_TRUE(check.ok());
  EXPECT_NE(check->Report().find("verdict: SOUND"), std::string::npos);
}

// ---- CheckComposition against a reference loop over the Instance APIs.

/// The check spelled out with one Instance per generated instance: every
/// second one repaired by RepairTowards, then a fresh EncodedInstance for
/// its satisfaction checks. CheckComposition repairs and checks on one
/// encoding instead; its report must be byte-identical to this one's.
CompositionCheck ReferenceCheck(const CompositionProblem& problem,
                                const CompositionResult& result,
                                uint64_t seed, int n_instances,
                                const CompositionCheckOptions& options) {
  CompositionCheck out;
  ConstraintSet original = problem.sigma12;
  original.insert(original.end(), problem.sigma23.begin(),
                  problem.sigma23.end());
  const ConstraintSet& composed = result.constraints;
  EvalOptions eval = options.eval;
  for (const std::set<Value>& consts :
       {CollectConstants(original), CollectConstants(composed)}) {
    eval.extra_constants.insert(consts.begin(), consts.end());
  }
  EvalOptions skolem_eval = eval;
  skolem_eval.skolem_mode = SkolemEvalMode::kInjectiveTerms;
  auto has_skolem = [](const Constraint& c) {
    return ContainsSkolem(c.lhs) || ContainsSkolem(c.rhs);
  };
  auto options_for = [&](const Constraint& c) -> const EvalOptions& {
    return has_skolem(c) ? skolem_eval : eval;
  };
  Signature eliminated;
  std::set<std::string> residual(result.residual_sigma2.begin(),
                                 result.residual_sigma2.end());
  for (const std::string& name : problem.sigma2.names()) {
    if (residual.count(name) == 0) {
      EXPECT_TRUE(
          eliminated.AddRelation(name, problem.sigma2.ArityOf(name)).ok());
    }
  }
  const bool probe = !ContainsSkolem(composed) && !ContainsSkolem(original);
  std::mt19937_64 rng(seed);
  for (int i = 0; i < n_instances; ++i) {
    Instance inst = RandomInstanceOver(
        {&problem.sigma1, &problem.sigma2, &problem.sigma3}, &rng,
        options.gen);
    if (i % 2 == 1) inst = RepairTowards(inst, original, eval);
    ++out.instances;
    const EncodedInstance encoded(inst, eval.extra_constants);
    bool orig_sat = true;
    for (const Constraint& c : original) {
      if (!Satisfies(encoded, c, options_for(c), &out.eval_stats).value()) {
        orig_sat = false;
        break;
      }
    }
    if (orig_sat) {
      ++out.original_satisfied;
      bool violated = false, inconclusive = false;
      std::string failing;
      for (const Constraint& c : composed) {
        if (Satisfies(encoded, c, options_for(c), &out.eval_stats).value()) {
          continue;
        }
        if (has_skolem(c)) {
          inconclusive = true;
        } else {
          violated = true;
          failing = c.ToString();
          break;
        }
      }
      if (violated) {
        ++out.violations;
        if (out.counterexamples.size() < 3) {
          out.counterexamples.push_back("violated constraint: " + failing +
                                        "\n" + inst.ToString());
        }
      } else if (inconclusive) {
        ++out.inconclusive_skolem;
      } else {
        ++out.composed_satisfied;
      }
    }
    if (out.completeness_checked < options.completeness_samples && probe) {
      Instance restricted = inst.RestrictedTo(result.sigma);
      const EncodedInstance restricted_encoded(restricted,
                                               eval.extra_constants);
      bool restricted_sat = true;
      for (const Constraint& c : composed) {
        if (!Satisfies(restricted_encoded, c, eval, &out.eval_stats)
                 .value()) {
          restricted_sat = false;
          break;
        }
      }
      if (!restricted_sat) continue;
      Result<Instance> witness =
          FindExtension(restricted, eliminated, original);
      if (witness.ok()) {
        ++out.completeness_checked;
        ++out.completeness_witnessed;
      } else if (witness.status().code() == StatusCode::kNotFound) {
        ++out.completeness_checked;
      }
    }
  }
  out.sound = out.violations == 0;
  return out;
}

/// Expects CheckComposition's report to equal the reference loop's at
/// jobs 1, 2, 4 and 8, and at jobs 0 and -3 (one lane), `reps` times at
/// each lane count; returns the report.
std::string ExpectMatchesReference(const CompositionProblem& problem,
                                   const CompositionResult& result,
                                   uint64_t seed, int n_instances,
                                   CompositionCheckOptions options,
                                   const std::string& label, int reps = 1) {
  const std::string want =
      ReferenceCheck(problem, result, seed, n_instances, options).Report();
  for (int jobs : {-3, 0, 1, 2, 4, 8}) {
    options.eval.jobs = jobs;
    for (int rep = 0; rep < reps; ++rep) {
      Result<CompositionCheck> got =
          CheckComposition(problem, result, seed, n_instances, options);
      if (!got.ok()) {
        ADD_FAILURE() << label << " at jobs " << jobs << ": "
                      << got.status().ToString();
        continue;
      }
      EXPECT_EQ(got->Report(), want) << label << " at jobs " << jobs;
    }
  }
  return want;
}

/// R ⊆ S, S ⊆ T composes to R ⊆ T; the reverse T ⊆ R is wrong wherever T
/// holds a tuple R lacks.
CompositionProblem ChainProblem() {
  return Parser()
      .ParseProblem(R"(
      schema s1 { R(2); }
      schema s2 { S(2); }
      schema s3 { T(2); }
      map m12 { R <= S; }
      map m23 { S <= T; })")
      .value();
}

CompositionResult ReversedChain(const CompositionProblem& problem) {
  CompositionResult bogus;
  bogus.sigma = *Signature::Merge(problem.sigma1, problem.sigma3);
  bogus.constraints = {Constraint::Contain(Rel("T", 2), Rel("R", 2))};
  return bogus;
}

TEST(CompositionSoundnessTest, ReportMatchesInstanceReferenceLoop) {
  Parser parser;
  for (const testdata::LiteratureProblem& lit : testdata::LiteratureSuite()) {
    CompositionProblem problem = parser.ParseProblem(lit.text).value();
    ExpectMatchesReference(problem, Compose(problem), 1234, 10, {}, lit.name);
  }
  // The soundness workload's shape: size-10 reconciliation problems with 2
  // edits per branch and arity at most 5, over a 2-value domain.
  CompositionCheckOptions small;
  small.gen.domain_size = 2;
  small.gen.max_tuples_per_rel = 3;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    sim::ReconciliationScenarioOptions opts;
    opts.schema_size = 10;
    opts.num_edits = 2;
    opts.simulator.primitives.max_arity = 5;
    opts.seed = seed;
    opts.max_branch_attempts = 2;
    CompositionProblem problem = sim::BuildReconciliationProblem(opts);
    ExpectMatchesReference(problem, Compose(problem), seed * 7, 8, small,
                           "recon-" + std::to_string(seed));
  }
}

TEST(CompositionSoundnessTest, CounterexampleTextMatchesReferenceLoop) {
  // The repair assigns S := R and grows T ⊇ S; the bogus "composition"
  // T ⊆ R fails wherever T kept a random tuple, so repaired instances'
  // counterexample text is decoded from the repaired encoding.
  Parser parser;
  CompositionProblem problem = parser
                                   .ParseProblem(R"(
      schema s1 { R(2) key(1); }
      schema s2 { S(2); }
      schema s3 { T(2); }
      map m12 { S = R; }
      map m23 { S <= T; })")
                                   .value();
  CompositionResult bogus;
  bogus.sigma = *Signature::Merge(problem.sigma1, problem.sigma3);
  bogus.constraints = {Constraint::Contain(Rel("T", 2), Rel("R", 2))};
  CompositionCheckOptions options;
  options.gen.domain_size = 3;
  std::string report =
      ExpectMatchesReference(problem, bogus, 5, 40, options, "bogus");
  EXPECT_NE(report.find("verdict: UNSOUND"), std::string::npos) << report;
  EXPECT_NE(report.find("counterexample:"), std::string::npos) << report;
}

TEST(CompositionSoundnessTest, CounterexamplesAreTheLowestViolatingInstances) {
  // Most of the 40 instances violate the reversed chain. At every lane
  // count, repeated, the report must be the reference loop's, whose three
  // counterexamples are the three lowest violating instances.
  const CompositionProblem problem = ChainProblem();
  const CompositionResult bogus = ReversedChain(problem);
  CompositionCheckOptions options;
  options.gen.domain_size = 3;
  ExpectMatchesReference(problem, bogus, 5, 40, options, "reversed",
                         /*reps=*/10);
  Result<CompositionCheck> check = CheckComposition(problem, bogus, 5, 40,
                                                    options);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_GE(check->violations, 5);
  ASSERT_EQ(check->counterexamples.size(), 3u);
  // Instance i is drawn the same way whatever the instance count, so the
  // check of the instances up to the third violation holds the same three.
  int n = 1;
  while (CheckComposition(problem, bogus, 5, n, options)->violations < 3) ++n;
  EXPECT_EQ(CheckComposition(problem, bogus, 5, n, options)->counterexamples,
            check->counterexamples);
}

TEST(CompositionSoundnessTest, LowestFailingInstanceNamesTheError) {
  // R ⊆ D^2 always holds, but checking it enumerates D^2, which the guard
  // refuses once an instance's active domain has more than 5 values. The
  // message names the domain size: the lowest failing instance has 7
  // values, later ones 6.
  CompositionProblem problem = ChainProblem();
  problem.sigma12.insert(problem.sigma12.begin(),
                         Constraint::Contain(Rel("R", 2), Dom(2)));
  const CompositionResult composed = Compose(problem);
  CompositionCheckOptions options;
  options.gen.domain_size = 8;
  options.gen.max_tuples_per_rel = 2;
  options.eval.max_domain_tuples = 25;
  constexpr uint64_t kSeed = 15;
  constexpr int kInstances = 24;
  // The lowest failing instance, found by growing the instance count.
  int first_failure = 0;
  while (CheckComposition(problem, composed, kSeed, first_failure + 1,
                          options)
             .ok()) {
    ++first_failure;
    ASSERT_LT(first_failure, kInstances) << "no instance fails";
  }
  ASSERT_GT(first_failure, 0) << "the first instance already fails";
  const Status want =
      CheckComposition(problem, composed, kSeed, first_failure + 1, options)
          .status();
  EXPECT_NE(want.ToString().find("over 7 values"), std::string::npos)
      << want.ToString();
  for (int jobs : {1, 2, 4, 8}) {
    options.eval.jobs = jobs;
    for (int rep = 0; rep < 10; ++rep) {
      Result<CompositionCheck> got =
          CheckComposition(problem, composed, kSeed, kInstances, options);
      ASSERT_FALSE(got.ok()) << "jobs " << jobs;
      EXPECT_EQ(got.status().ToString(), want.ToString()) << "jobs " << jobs;
    }
  }
}

TEST(CompositionSoundnessTest, CompletenessProbesMatchReferenceLoop) {
  Parser parser;
  CompositionProblem problem = parser
                                   .ParseProblem(R"(
      schema s1 { R(2); }
      schema s2 { S(2); }
      schema s3 { T(2); }
      map m12 { R <= S; }
      map m23 { S <= T; })")
                                   .value();
  CompositionCheckOptions options;
  options.gen.domain_size = 2;
  options.gen.max_tuples_per_rel = 2;
  options.completeness_samples = 2;
  std::string report = ExpectMatchesReference(problem, Compose(problem), 21,
                                              24, options, "probes");
  EXPECT_NE(report.find("completeness probes: 2/2 witnessed"),
            std::string::npos)
      << report;
}

}  // namespace
}  // namespace mapcomp
