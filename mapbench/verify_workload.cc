// verify_batch: what `mapcompc --jobs N --check-eval K` does. A batch of
// size-10 reconciliation problems plus the literature suite is composed
// with runtime::ComposeMany at 2 jobs, and each result is checked with
// CheckComposition at eval.jobs = 2, on the two fastest CPUs the gauge
// finds. An op is one problem composed and verified. Size 10, because at
// size 20 the generated instances trip the eval domain guard and the check
// is vacuous.

#include <algorithm>
#include <memory>
#include <random>
#include <utility>

#include "src/common/rand.h"
#include "src/eval/soundness.h"
#include "src/runtime/compose_many.h"
#include "workloads.h"

namespace mapbench {

using mapcomp::CompositionCheck;
using mapcomp::CompositionProblem;
using mapcomp::CompositionResult;

namespace {

/// The batch: 42 reconciliation tasks plus the 22 literature problems. A
/// run composes and checks the same batch over and over, so every pass is
/// the same work and the rate of a window of whole passes is the machine's
/// speed, not the luck of which problems fell into it.
constexpr int kReconTasks = 42;
/// Sized so that no check trips the eval domain guard (|adom|^r over
/// max_domain_tuples): with more edits per branch, arities up to the
/// simulator's default 10, or the instance generator's default 4-value
/// domain, some seeds' composed constraints carry D^r of high arity and
/// the check fails with ResourceExhausted.
constexpr ReconciliationShape kShape = {/*schema_size=*/10, /*num_edits=*/2,
                                        /*max_arity=*/5};
constexpr int kDomainSize = 2;
constexpr int kMaxTuplesPerRelation = 3;
/// Instances per check (mapcompc's --check-eval K).
constexpr int kInstances = 8;
/// Jobs and eval lanes of the measured phases: two, so the work stays
/// parallel and still has a choice of CPUs (all of them would put it on
/// whichever one another tenant slows).
constexpr int kJobs = 2;
/// A window is whole passes over at least a quarter second: one pass at
/// the time of writing.
constexpr double kWindowSeconds = 0.25;

struct VerifySetup {
  std::vector<Task> tasks;
  std::vector<CompositionProblem> problems;  ///< tasks[i].problem, the batch
  std::vector<std::string> oracle;  ///< sequential Compose fingerprints
  ComposeAgg quality;
  double gen_s = 0.0;
};

/// The batch is drawn from the fixed corpus; the workload seed orders it.
std::unique_ptr<VerifySetup> Setup(uint64_t seed) {
  auto s = std::make_unique<VerifySetup>();
  Clock::time_point gen_start = Clock::now();
  s->tasks = ReconciliationTasks({kShape}, kReconTasks,
                                 mapcomp::rnd::DeriveSeed(kCorpusSeed, 4));
  std::vector<Task> lit = LiteratureTasks();
  s->gen_s = SecondsSince(gen_start);
  for (Task& t : lit) s->tasks.push_back(std::move(t));
  std::mt19937_64 rng(mapcomp::rnd::DeriveSeed(seed, 4));
  std::shuffle(s->tasks.begin(), s->tasks.end(), rng);
  for (const Task& task : s->tasks) {
    Clock::time_point t0 = Clock::now();
    CompositionResult res = mapcomp::Compose(task.problem);
    s->quality.Add(res, MicrosBetween(t0, Clock::now()));
    s->oracle.push_back(res.Fingerprint());
    s->problems.push_back(task.problem);
  }
  return s;
}

mapcomp::CompositionCheckOptions CheckOptions(int jobs) {
  mapcomp::CompositionCheckOptions options;
  options.eval.jobs = jobs;
  options.gen.domain_size = kDomainSize;
  options.gen.max_tuples_per_rel = kMaxTuplesPerRelation;
  return options;
}

struct EvalTotals {
  mapcomp::EvalStats stats;
  long checks = 0, instances = 0, original_satisfied = 0, violations = 0;
  long errors = 0;
};

struct PhaseOutput {
  explicit PhaseOutput(double planned_seconds)
      : timing(planned_seconds, kWindowSeconds) {}
  Tally tally;
  PhaseTiming timing;
  double seconds = 0.0;
  uint64_t compositions = 0;
  EvalTotals eval;
  std::string first_error;
};

/// Composes and checks the batch until `seconds` of wall time have passed;
/// the time check sits between problems, so the last pass may be cut
/// short. Each whole pass is a window boundary, and between windows the
/// gauge moves the work to the `jobs` fastest CPUs.
PhaseOutput RunBatches(const VerifySetup& s, int jobs, uint64_t check_seed,
                       double seconds, CoreGauge* gauge, Tracer* tracer,
                       uint64_t* next_op) {
  PhaseOutput out(seconds);
  const mapcomp::CompositionCheckOptions options = CheckOptions(jobs);
  const Clock::time_point start = Clock::now();
  PhaseClock clock;
  auto repin = [&] { return gauge->PinFastest(static_cast<size_t>(jobs)); };
  clock.Read(&out.timing, repin);
  while (SecondsSince(start) < seconds) {
    const size_t n = s.problems.size();
    Clock::time_point t0 = Clock::now();
    std::vector<CompositionResult> results;
    {
      ScopedSpan span(tracer, "runtime.compose_many", *next_op + 1);
      results = mapcomp::runtime::ComposeMany(s.problems, {}, jobs);
    }
    const double compose_share_us = MicrosBetween(t0, Clock::now()) / n;
    out.compositions += n;
    size_t i = 0;
    for (; i < n && SecondsSince(start) < seconds; ++i) {
      const uint64_t op = ++*next_op;
      Clock::time_point t1 = Clock::now();
      mapcomp::Result<CompositionCheck> check = mapcomp::Status::Internal("unset");
      {
        ScopedSpan span(tracer, "eval.check_composition", op);
        check = mapcomp::CheckComposition(s.problems[i], results[i],
                                          check_seed, kInstances, options);
      }
      const double check_us = MicrosBetween(t1, Clock::now());
      if (!check.ok()) {
        if (out.eval.errors++ == 0) {
          out.first_error = s.tasks[i].name + ": " + check.status().ToString();
        }
        out.tally.Record(Outcome::kErrorStatus);
        continue;
      }
      ++out.eval.checks;
      out.eval.stats.MergeFrom(check->eval_stats);
      out.eval.instances += check->instances;
      out.eval.original_satisfied += check->original_satisfied;
      out.eval.violations += check->violations;
      if (!check->sound) {
        out.tally.Record(Outcome::kUnsound);
      } else if (results[i].Fingerprint() != s.oracle[i]) {
        out.tally.Record(Outcome::kMismatch);
      } else {
        out.tally.Record(Outcome::kOk);
        out.timing.Add(compose_share_us + check_us);
      }
    }
    if (i == n && out.timing.Boundary(clock.Active())) {
      clock.Read(&out.timing, repin);
    }
  }
  out.seconds = SecondsSince(start);
  return out;
}

/// Median wall time (s) of `fn` over `reps` runs.
template <typename Fn>
double MedianSeconds(int reps, Fn fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    Clock::time_point start = Clock::now();
    fn();
    t.push_back(SecondsSince(start));
  }
  return Median(t);
}

}  // namespace

WorkloadResult RunVerify(const RunConfig& config) {
  WorkloadResult r;
  CoreGauge gauge;
  std::unique_ptr<VerifySetup> setup;
  SetupTimes setup_times;
  auto one_setup = [&] {
    setup.reset();
    ColdInterner();
    TimeSetup(&gauge, &setup_times, [&] { setup = Setup(config.seed); });
  };
  while (setup_times.NeedAnother(kSetupSecondsBefore)) one_setup();
  r.layer["simulator.gen_s"] = setup->gen_s;
  r.eliminated_fraction = setup->quality.EliminatedFraction();
  r.output_ops = setup->quality.MeanOutputOps();

  // The check instances come with the corpus, like the problems: drawn
  // per seed, they change the slowest checks, and the tail read 8.6 to
  // 10.4 ms over six seeds.
  const uint64_t check_seed = mapcomp::rnd::DeriveSeed(kCorpusSeed, 5);
  const int jobs = std::min(kJobs, config.nproc);
  uint64_t next_op = 0;
  Tracer off(false);
  const double untraced_s =
      config.trace ? config.seconds * kUntracedShare : config.seconds;
  mapcomp::InternerStats interner_before =
      mapcomp::ExprInterner::Global().Stats();
  PhaseOutput phase =
      RunBatches(*setup, jobs, check_seed, untraced_s, &gauge, &off, &next_op);
  mapcomp::InternerStats interner_after = mapcomp::ExprInterner::Global().Stats();

  r.tally = phase.tally;
  r.timing = phase.timing.Summarize();
  if (!phase.first_error.empty()) {
    r.notes.push_back("first check error: " + phase.first_error);
  }
  if (!config.trace) {
    while (setup_times.NeedAnother(kSetupSeconds)) one_setup();
    r.setup_s = setup_times.Seconds();
    r.notes.push_back(setup_times.Note());
    r.notes.push_back(GaugeNote(gauge));
    return r;
  }

  std::map<std::string, double>& L = r.layer;
  EmitInternerDelta(interner_before, interner_after, phase.compositions, &L);
  const EvalTotals& e = phase.eval;
  const double checks = std::max(1L, e.checks);
  L["eval.nodes_evaluated"] = static_cast<double>(e.stats.nodes_evaluated) / checks;
  L["eval.memo_hit_ratio"] =
      e.stats.memo_hits + e.stats.nodes_evaluated == 0
          ? 0.0
          : static_cast<double>(e.stats.memo_hits) /
                static_cast<double>(e.stats.memo_hits + e.stats.nodes_evaluated);
  L["eval.tasks_spawned"] = static_cast<double>(e.stats.tasks_spawned) / checks;
  const int64_t joins = e.stats.hash_join_nodes + e.stats.nested_product_nodes;
  L["eval.hash_join_share"] =
      joins == 0 ? 0.0
                 : static_cast<double>(e.stats.hash_join_nodes) /
                       static_cast<double>(joins);
  L["eval.memo_bytes_peak"] = static_cast<double>(e.stats.memo_bytes_peak);
  const int64_t index_lookups =
      e.stats.index_cache_hits + e.stats.index_cache_misses;
  L["eval.index_cache_hit_ratio"] =
      index_lookups == 0 ? 0.0
                         : static_cast<double>(e.stats.index_cache_hits) /
                               static_cast<double>(index_lookups);
  L["eval.nonvacuous_share"] =
      e.instances == 0 ? 0.0
                       : static_cast<double>(e.original_satisfied) /
                             static_cast<double>(e.instances);
  L["eval.violations"] = static_cast<double>(e.violations);
  L["eval.errors"] = static_cast<double>(e.errors);

  Tracer tracer(true);
  PhaseOutput traced = RunBatches(*setup, jobs, check_seed,
                                  config.seconds * kTracedShare, &gauge,
                                  &tracer, &next_op);
  r.tally.MergeFrom(traced.tally);
  L["bench.tracing_overhead"] = TracingOverhead(
      phase.tally.ok(), phase.seconds, traced.tally.ok(), traced.seconds);
  L["eval.check_us"] = tracer.MedianSelfMicros("eval.check_composition");

  // Scaling over the batch, each base the 1-lane time: the batch compose
  // at 1 vs nproc jobs, and its checks at 1 vs nproc eval lanes, on every
  // CPU.
  gauge.Unpin();
  const int all = config.nproc;
  const std::vector<CompositionProblem>& batch = setup->problems;
  const double replay_budget = config.seconds * kReplayShare;
  const double compose_1 = MedianSeconds(5, [&] {
    ScopedSpan span(&tracer, "runtime.compose_many_1", 0);
    (void)mapcomp::runtime::ComposeMany(batch, {}, 1);
  });
  const double compose_n = MedianSeconds(5, [&] {
    ScopedSpan span(&tracer, "runtime.compose_many_n", 0);
    (void)mapcomp::runtime::ComposeMany(batch, {}, all);
  });
  L["runtime.compose_many_speedup"] = compose_n > 0 ? compose_1 / compose_n : 0.0;
  std::vector<CompositionResult> results =
      mapcomp::runtime::ComposeMany(batch, {}, all);
  // The 1-lane pass checks as many problems as fit in half the replay
  // budget; the nproc-lane pass checks the same ones.
  size_t checked = 0;
  const double check_1 = MedianSeconds(1, [&] {
    const mapcomp::CompositionCheckOptions options = CheckOptions(1);
    const Clock::time_point start = Clock::now();
    for (; checked < batch.size() &&
           SecondsSince(start) < replay_budget / 2;
         ++checked) {
      (void)mapcomp::CheckComposition(batch[checked], results[checked],
                                      check_seed, kInstances, options);
    }
  });
  const double check_n = MedianSeconds(1, [&] {
    const mapcomp::CompositionCheckOptions options = CheckOptions(all);
    for (size_t i = 0; i < checked; ++i) {
      (void)mapcomp::CheckComposition(batch[i], results[i],
                                      check_seed, kInstances, options);
    }
  });
  L["eval.lane_speedup"] = check_n > 0 ? check_1 / check_n : 0.0;

  // compose.*: the batch's distinct compositions, composed directly.
  ComposeAgg distinct;
  for (size_t i = 0; i < setup->tasks.size(); ++i) {
    Clock::time_point t0 = Clock::now();
    CompositionResult res;
    {
      ScopedSpan span(&tracer, "compose.distinct", i);
      res = mapcomp::Compose(setup->tasks[i].problem);
    }
    distinct.Add(res, MicrosBetween(t0, Clock::now()));
  }
  distinct.Emit(&L);

  std::vector<std::string> texts;
  for (const Task& t : setup->tasks) texts.push_back(t.text);
  L["parser.bytes_per_s"] = ParserBytesPerSecond(texts, 0.2, &tracer);

  if (!config.span_path.empty() && !tracer.WriteJsonl(config.span_path)) {
    r.notes.push_back("could not write spans to " + config.span_path);
  }
  r.notes.push_back("spans recorded: " + std::to_string(tracer.size()));
  return r;
}

}  // namespace mapbench
