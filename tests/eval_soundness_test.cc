// Semantic compose-soundness harness coverage: every composition the
// algorithm produces must agree with the original two-mapping pipeline on
// generated finite instances (paper §2 equivalence), and a deliberately
// wrong "composition" must be caught.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
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
#include "tests/oracles/instance_api.h"

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

/// 64-bit FNV-1a, spelled out so the pinned value does not depend on the
/// standard library's std::hash.
uint64_t Fnv1a(const std::string& bytes, uint64_t h = 0xcbf29ce484222325ULL) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(CompositionSoundnessTest, LiteratureReportsMatchPinnedDigest) {
  // Every literature problem's Report() (counts, EvalStats, completeness
  // probes), with and without strings, hashed in suite order. The value
  // was recorded before the eval tier addressed relations by id; any
  // change to what a check computes or prints moves it.
  Parser parser;
  for (int jobs : {1, 4}) {
    uint64_t digest = Fnv1a("");
    for (bool strings : {false, true}) {
      CompositionCheckOptions options;
      options.gen.include_strings = strings;
      options.completeness_samples = 2;
      options.eval.jobs = jobs;
      for (const testdata::LiteratureProblem& lit :
           testdata::LiteratureSuite()) {
        CompositionProblem problem = parser.ParseProblem(lit.text).value();
        const CompositionResult composed = Compose(problem);
        Result<CompositionCheck> check =
            CheckComposition(problem, composed, 42, 30, options);
        ASSERT_TRUE(check.ok()) << lit.name << ": "
                                << check.status().ToString();
        digest = Fnv1a(std::string(lit.name) + "\n" + check->Report(), digest);
      }
    }
    EXPECT_EQ(digest, 0xca3c2696f89f094bULL) << "jobs " << jobs;
  }
}

// ---- CheckComposition against a reference loop over the Instance APIs.

/// The check spelled out with one Instance per generated instance: drawn
/// by RandomInstanceOver, every second one repaired by RepairTowards, then
/// a fresh EncodedInstance for its satisfaction checks. CheckComposition
/// draws ids and repairs and checks on one encoding instead; its report
/// must be byte-identical to this one's.
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
  // With strings, tuples mix the integer and string alphabets.
  CompositionCheckOptions strings;
  strings.gen.include_strings = true;
  for (const testdata::LiteratureProblem& lit : testdata::LiteratureSuite()) {
    CompositionProblem problem = parser.ParseProblem(lit.text).value();
    const CompositionResult composed = Compose(problem);
    ExpectMatchesReference(problem, composed, 1234, 10, {}, lit.name);
    ExpectMatchesReference(problem, composed, 4321, 10, strings,
                           std::string(lit.name) + " with strings");
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

TEST(CompositionSoundnessTest, SkolemTermsMatchReferenceLoopAtEveryLaneCount) {
  // Both sides carry Skolem terms, which the check evaluates under the
  // injective interpretation: every lane mints terms into its instances'
  // dictionaries, all of which share one seed built for the check. The
  // last composed constraint pairs a term with itself, so no instance with
  // a row in R satisfies it and those count as skolem-inconclusive.
  CompositionProblem problem = ChainProblem();
  problem.sigma23.push_back(Constraint::Contain(
      Project({1, 2}, SkolemApp("g", {2}, Rel("S", 2))), Rel("T", 2)));
  CompositionResult result;
  result.sigma = *Signature::Merge(problem.sigma1, problem.sigma3);
  result.constraints = {
      Constraint::Contain(Rel("R", 2), Rel("T", 2)),
      Constraint::Contain(
          Project({1, 2}, SkolemApp("h", {1, 2}, Rel("R", 2))), Rel("T", 2)),
      Constraint::Contain(Project({3, 3}, SkolemApp("f", {1}, Rel("R", 2))),
                          Rel("T", 2))};
  CompositionCheckOptions options;
  options.gen.domain_size = 3;
  options.gen.max_tuples_per_rel = 3;
  const std::string report = ExpectMatchesReference(
      problem, result, 77, 24, options, "skolem terms", /*reps=*/3);
  EXPECT_EQ(report.find(" 0 skolem-inconclusive"), std::string::npos)
      << report;
  options.gen.include_strings = true;
  ExpectMatchesReference(problem, result, 78, 24, options,
                         "skolem terms with strings", /*reps=*/3);
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

// ---- FindExtension against the Instance-level search it replaced.

/// FindExtension's search spelled out over Instances: the same candidate
/// universe, the same subsets in the same depth-first order, and each
/// candidate Instance checked with SatisfiesAll, which encodes it afresh.
/// FindExtension checks each candidate on one encoding instead; it must
/// return the same witness, NotFound or error.
Result<Instance> ReferenceFindExtension(const Instance& base,
                                        const Signature& extra,
                                        const ConstraintSet& cs) {
  std::set<Value> universe = base.ActiveDomain();
  const std::set<Value> consts = CollectConstants(cs);
  universe.insert(consts.begin(), consts.end());
  universe.insert(Value(std::string("fresh0")));
  const std::vector<Value> vals(universe.begin(), universe.end());
  std::vector<std::pair<std::string, std::vector<Tuple>>> slots;
  double total = 1.0;
  for (const std::string& name : extra.names()) {
    const int r = extra.ArityOf(name);
    if (std::pow(static_cast<double>(vals.size()), r) > 20) {
      return Status::ResourceExhausted("too many candidate tuples for " +
                                       name);
    }
    std::vector<Tuple> candidates(1);
    for (int k = 0; k < r; ++k) {  // odometer order, last column fastest
      std::vector<Tuple> longer;
      for (const Tuple& t : candidates) {
        for (const Value& v : vals) {
          longer.push_back(t);
          longer.back().push_back(v);
        }
      }
      candidates = std::move(longer);
    }
    total *= std::pow(2.0, static_cast<double>(candidates.size()));
    slots.emplace_back(name, std::move(candidates));
  }
  if (total > 200000) {
    return Status::ResourceExhausted("extension search space too large");
  }
  Instance current = base;
  std::function<Result<bool>(size_t)> search = [&](size_t i) -> Result<bool> {
    if (i == slots.size()) return SatisfiesAll(current, cs);
    const std::vector<Tuple>& candidates = slots[i].second;
    for (uint64_t mask = 0; mask < (uint64_t{1} << candidates.size());
         ++mask) {
      std::set<Tuple> tuples;
      for (size_t k = 0; k < candidates.size(); ++k) {
        if (mask & (uint64_t{1} << k)) tuples.insert(candidates[k]);
      }
      current.Set(slots[i].first, std::move(tuples));
      MAPCOMP_ASSIGN_OR_RETURN(bool found, search(i + 1));
      if (found) return true;
      current.Clear(slots[i].first);
    }
    return false;
  };
  MAPCOMP_ASSIGN_OR_RETURN(bool found, search(0));
  if (!found) {
    return Status::NotFound("no extension found within bounded search");
  }
  return current;
}

/// Expects FindExtension and the reference search to agree on `base`;
/// returns the outcome's status code.
StatusCode ExpectSameExtension(const Instance& base, const Signature& extra,
                               const ConstraintSet& cs,
                               const std::string& label) {
  const Result<Instance> want = ReferenceFindExtension(base, extra, cs);
  const Result<Instance> got = FindExtension(base, extra, cs);
  EXPECT_EQ(got.status().ToString(), want.status().ToString()) << label;
  if (want.ok() && got.ok()) {
    EXPECT_TRUE(*got == *want) << label << "\ngot:\n"
                               << got->ToString() << "want:\n"
                               << want->ToString();
  }
  return want.status().code();
}

TEST(CompositionSoundnessTest, FindExtensionMatchesInstanceReferenceSearch) {
  // The chain and every literature problem, on the restrictions of tiny
  // generated instances (every second one repaired, so that many have an
  // extension) to the composition's signature, as the completeness probe
  // searches them.
  std::vector<CompositionProblem> problems = {ChainProblem()};
  Parser parser;
  for (const testdata::LiteratureProblem& lit : testdata::LiteratureSuite()) {
    problems.push_back(parser.ParseProblem(lit.text).value());
  }
  GenOptions gen;
  gen.domain_size = 2;
  gen.max_tuples_per_rel = 2;
  std::map<StatusCode, int> outcomes;
  for (size_t p = 0; p < problems.size(); ++p) {
    const CompositionProblem& problem = problems[p];
    const CompositionResult composed = Compose(problem);
    ConstraintSet original = problem.sigma12;
    original.insert(original.end(), problem.sigma23.begin(),
                    problem.sigma23.end());
    Signature eliminated;
    for (const std::string& name : problem.sigma2.names()) {
      if (std::find(composed.residual_sigma2.begin(),
                    composed.residual_sigma2.end(),
                    name) == composed.residual_sigma2.end()) {
        ASSERT_TRUE(
            eliminated.AddRelation(name, problem.sigma2.ArityOf(name)).ok());
      }
    }
    std::mt19937_64 rng(p + 17);
    for (int i = 0; i < 6; ++i) {
      Instance inst = RandomInstanceOver(
          {&problem.sigma1, &problem.sigma2, &problem.sigma3}, &rng, gen);
      if (i % 2 == 1) inst = RepairTowards(inst, original);
      ++outcomes[ExpectSameExtension(
          inst.RestrictedTo(composed.sigma), eliminated, original,
          "problem " + std::to_string(p) + " instance " +
              std::to_string(i))];
    }
  }
  // D holds the constraints' constants: S must hold the 7 that
  // σ[#1=7](D^1) selects, though neither R nor S holds it yet.
  Signature extra;
  ASSERT_TRUE(extra.AddRelation("S", 1).ok());
  const ConstraintSet pinned = {
      Constraint::Contain(Rel("R", 1), Rel("S", 1)),
      Constraint::Contain(
          Select(Condition::AttrConst(1, CmpOp::kEq, Value(int64_t{7})),
                 Dom(1)),
          Rel("S", 1))};
  Instance base;
  base.Set("R", {Tuple{Value(int64_t{1})}});
  ASSERT_EQ(ExpectSameExtension(base, extra, pinned, "pinned constant"),
            StatusCode::kOk);
  EXPECT_EQ(FindExtension(base, extra, pinned)->Get("S"),
            (std::set<Tuple>{Tuple{Value(int64_t{1})},
                             Tuple{Value(int64_t{7})}}));
  // Not vacuous: witnesses, exhausted searches and failed ones all occur.
  EXPECT_GT(outcomes[StatusCode::kOk], 30);
  EXPECT_GT(outcomes[StatusCode::kNotFound], 20);
  EXPECT_GT(outcomes[StatusCode::kResourceExhausted], 0);
}

}  // namespace
}  // namespace mapcomp
