// The paper's §4 experiments as one JSON document on stdout (recorded at
// scale 1 as BENCH_paper.json). Sections: literature (the 22-problem suite
// against its expected counts), editing (Figures 2-4 and the §4.2
// no-left-compose ablation), inclusion (Figure 5), schema_size (Figure 6),
// edit_count (Figure 7) and order_invariance (§4). Each records its sample
// counts; only *_ms fields and wall_s depend on the machine, and a
// fraction with no samples is null.
//
// Usage: bench_paper. MAPCOMP_BENCH_SCALE=N multiplies every sample count
// (1, the default, gives each figure's shape in seconds; 5 is roughly the
// paper's 100 runs / 500 tasks). Exits 1 when a literature problem fails
// to parse or misses its expected outcome.

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "src/compose/compose.h"
#include "src/parser/parser.h"
#include "src/simulator/scenarios.h"
#include "src/testdata/literature_suite.h"

using namespace mapcomp;

namespace {

/// Prints `, "key": value`, or null for a cell with no samples.
void Field(const char* key, double value, bool has_samples = true) {
  std::printf(has_samples ? ", \"%s\": %.6f" : ", \"%s\": null", key,
              value);
}

const char* Sep(size_t i, size_t n) { return i + 1 < n ? "," : ""; }

/// One ablation of the algorithm, and whether the simulator adds keys.
struct Config {
  const char* name;
  bool keys;
  bool unfold;
  bool right_compose;
  bool left_compose;
};

// Figures 2-3's four configurations, then §4.2's no-left-compose ablation:
// the simulator introduces no operator beyond σ, π, ∪, ⋈, ×, so disabling
// left compose should barely show.
const Config kEditingConfigs[] = {
    {"no-keys", false, true, true, true},
    {"keys", true, true, true, true},
    {"no-unfolding", false, false, true, true},
    {"no-right-compose", false, true, false, true},
    {"no-left-compose", false, true, true, false},
};
const Config& kNoKeys = kEditingConfigs[0];

// Figure 6's configurations; Figure 7 and order invariance use the first.
const Config kReconcileConfigs[] = {
    {"complete", false, true, true, true},
    {"no-unfolding", false, false, true, true},
    {"no-right-compose", false, true, false, true},
};

/// Editing or reconciliation scenario options under `config`.
template <typename Options>
Options ScenarioOptions(const Config& config, int schema_size, int num_edits,
                        uint64_t seed) {
  Options opts;
  opts.schema_size = schema_size;
  opts.num_edits = num_edits;
  opts.seed = seed;
  opts.simulator.primitives.enable_keys = config.keys;
  opts.compose.eliminate.enable_unfold = config.unfold;
  opts.compose.eliminate.enable_right_compose = config.right_compose;
  opts.compose.eliminate.enable_left_compose = config.left_compose;
  return opts;
}

void Add(const sim::PerPrimitiveStats& from, sim::PerPrimitiveStats* into) {
  into->edits += from.edits;
  into->symbols_total += from.symbols_total;
  into->symbols_eliminated += from.symbols_eliminated;
  into->consumed_total += from.consumed_total;
  into->consumed_eliminated += from.consumed_eliminated;
  into->millis += from.millis;
}

/// `runs` editing scenarios (schema size 30, 50 edits) on seeds first_seed+run.
struct EditingSweep {
  std::map<sim::Primitive, sim::PerPrimitiveStats> per_primitive;
  sim::PerPrimitiveStats all;  ///< summed over primitives
  int blowup_aborts = 0;
  std::vector<double> run_ms;  ///< sorted
};

EditingSweep RunEditing(const Config& config, int runs, uint64_t first_seed,
                        const sim::EventVector& events =
                            sim::EventVector::Default()) {
  EditingSweep out;
  for (int run = 0; run < runs; ++run) {
    auto opts = ScenarioOptions<sim::EditingScenarioOptions>(
        config, 30, 50, first_seed + run);
    opts.simulator.events = events;
    sim::EditingScenarioResult res = sim::RunEditingScenario(opts);
    for (const auto& [p, stats] : res.per_primitive) {
      Add(stats, &out.per_primitive[p]);
      Add(stats, &out.all);
    }
    out.blowup_aborts += res.blowup_aborts;
    out.run_ms.push_back(res.total_millis);
  }
  std::sort(out.run_ms.begin(), out.run_ms.end());
  return out;
}

/// `tasks` reconciliation tasks on seeds first_seed+task, summed.
sim::ReconciliationScenarioResult Reconcile(const Config& config,
                                            int schema_size, int num_edits,
                                            int tasks, uint64_t first_seed,
                                            int attempts) {
  sim::ReconciliationScenarioResult sum;
  for (int task = 0; task < tasks; ++task) {
    auto opts = ScenarioOptions<sim::ReconciliationScenarioOptions>(
        config, schema_size, num_edits, first_seed + task);
    opts.max_branch_attempts = attempts;
    sim::ReconciliationScenarioResult res =
        sim::RunReconciliationScenario(opts);
    sum.symbols_total += res.symbols_total;
    sum.symbols_eliminated += res.symbols_eliminated;
    sum.compose_millis += res.compose_millis;
  }
  return sum;
}

/// Returns whether every problem parsed and matched its expected outcome.
bool Literature() {
  const std::vector<testdata::LiteratureProblem>& suite =
      testdata::LiteratureSuite();
  Parser parser;
  int matched = 0;
  double total_ms = 0;
  std::printf("  \"literature\": {\"problems\": [\n");
  for (size_t i = 0; i < suite.size(); ++i) {
    const testdata::LiteratureProblem& prob = suite[i];
    std::printf("    {\"name\": \"%s\"", prob.name);
    Result<CompositionProblem> parsed = parser.ParseProblem(prob.text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: parse error: %s\n", prob.name,
                   parsed.status().ToString().c_str());
      std::printf(", \"parsed\": false}%s\n", Sep(i, suite.size()));
      continue;
    }
    CompositionResult res = Compose(*parsed);
    bool ok = res.eliminated_count == prob.expect_eliminated &&
              res.total_count == prob.expect_total;
    matched += ok ? 1 : 0;
    total_ms += res.total_millis;
    std::printf(", \"eliminated\": %d, \"total\": %d, \"in_ops\": %d, "
                "\"out_ops\": %d, \"matched\": %s, \"ms\": %.3f}%s\n",
                res.eliminated_count, res.total_count,
                OperatorCount(parsed->sigma12) + OperatorCount(parsed->sigma23),
                OperatorCount(res.constraints), ok ? "true" : "false",
                res.total_millis, Sep(i, suite.size()));
  }
  std::printf("  ], \"count\": %zu, \"matched\": %d, \"total_ms\": %.3f},\n",
              suite.size(), matched, total_ms);
  const bool all_matched = matched == static_cast<int>(suite.size());
  if (!all_matched) std::fprintf(stderr, "literature: outcome mismatch\n");
  return all_matched;
}

/// Figures 2-3 share one sweep on seeds 1000+run, which also gives the
/// no-left-compose ablation; Figure 4 runs no-keys on seeds 3000+run.
void Editing(int scale) {
  const int runs = 2 * scale;
  std::vector<sim::Primitive> prims = sim::AllPrimitives();
  // AR (add relation) creates no composition work.
  prims.erase(std::find(prims.begin(), prims.end(), sim::Primitive::kAR));
  std::printf("  \"editing\": {\"runs\": %d, \"edits\": 50, "
              "\"schema_size\": 30, \"configs\": [\n",
              runs);
  std::vector<EditingSweep> sweeps;
  for (const Config& config : kEditingConfigs) {
    EditingSweep& sweep = sweeps.emplace_back(RunEditing(config, runs, 1000));
    std::printf("    {\"name\": \"%s\", \"blowup_aborts\": %d, "
                "\"median_run_ms\": %.3f, \"primitives\": [\n",
                config.name, sweep.blowup_aborts,
                sweep.run_ms[sweep.run_ms.size() / 2]);
    for (size_t i = 0; i < prims.size(); ++i) {
      const sim::PerPrimitiveStats& s = sweep.per_primitive[prims[i]];
      std::printf("      {\"primitive\": \"%s\", \"edits\": %d",
                  sim::PrimitiveName(prims[i]), s.edits);
      Field("consumed_fraction", s.ConsumedEliminatedFraction(),
            s.consumed_total > 0);
      Field("symbol_fraction", s.EliminatedFraction(), s.symbols_total > 0);
      Field("ms_per_edit", s.MillisPerEdit(), s.edits > 0);
      std::printf("}%s\n", Sep(i, prims.size()));
    }
    std::printf("    ]}%s\n",
                sweeps.size() < std::size(kEditingConfigs) ? "," : "");
  }
  std::printf("  ], \"no_left_compose_ablation\": {\"complete\": %.6f, "
              "\"no_left\": %.6f},\n",
              sweeps.front().all.EliminatedFraction(),
              sweeps.back().all.EliminatedFraction());

  const EditingSweep dist = RunEditing(kNoKeys, 20 * scale, 3000);
  std::printf("  \"run_time_distribution\": {\"config\": \"%s\", "
              "\"runs\": %zu, \"median_ms\": %.3f, \"sorted_ms\": [",
              kNoKeys.name, dist.run_ms.size(),
              dist.run_ms[dist.run_ms.size() / 2]);
  for (size_t i = 0; i < dist.run_ms.size(); ++i) {
    std::printf("%.3f%s", dist.run_ms[i], Sep(i, dist.run_ms.size()));
  }
  std::printf("]}},\n");
}

/// Figure 5 on seeds 4000+run.
void Inclusion(int scale) {
  const int runs = 2 * scale;
  std::printf("  \"inclusion\": {\"runs\": %d, \"edits\": 50, "
              "\"schema_size\": 30, \"points\": [\n",
              runs);
  for (int percent = 0; percent <= 20; percent += 2) {
    EditingSweep sweep = RunEditing(
        kNoKeys, runs, 4000,
        sim::EventVector::Default().WithInclusionProportion(percent / 100.0));
    std::printf("    {\"percent\": %d, \"fraction\": %.6f", percent,
                sweep.all.ConsumedEliminatedFraction());
    for (sim::Primitive p : {sim::Primitive::kDf, sim::Primitive::kDA,
                             sim::Primitive::kNf, sim::Primitive::kHf}) {
      const sim::PerPrimitiveStats& s = sweep.per_primitive[p];
      Field(sim::PrimitiveName(p), s.ConsumedEliminatedFraction(),
            s.consumed_total > 0);
    }
    std::printf(", \"ms_per_run\": %.3f}%s\n", sweep.all.millis / runs,
                percent < 20 ? "," : "");
  }
  std::printf("  ]},\n");
}

/// Figure 6 on seeds 5000+task.
void SchemaSize(int scale) {
  std::printf("  \"schema_size\": {\"tasks\": %d, \"edits\": 30, "
              "\"points\": [\n",
              scale);
  for (int size = 10; size <= 100; size += 10) {
    std::printf("    {\"size\": %d", size);
    for (const Config& config : kReconcileConfigs) {
      Field(config.name,
            Reconcile(config, size, 30, scale, 5000, 3).EliminatedFraction());
    }
    std::printf("}%s\n", size < 100 ? "," : "");
  }
  std::printf("  ]},\n");
}

/// Figure 7 on seeds 6000+task.
void EditCount(int scale) {
  std::printf("  \"edit_count\": {\"tasks\": %d, \"schema_size\": 30, "
              "\"points\": [\n",
              scale);
  for (int edits = 10; edits <= 210; edits += 40) {
    sim::ReconciliationScenarioResult sum =
        Reconcile(kReconcileConfigs[0], 30, edits, scale, 6000, 2);
    std::printf("    {\"edits\": %d, \"fraction\": %.6f, "
                "\"compose_ms\": %.3f}%s\n",
                edits, sum.EliminatedFraction(), sum.compose_millis / scale,
                edits < 210 ? "," : "");
  }
  std::printf("  ]},\n");
}

/// Re-composes reconciliation problems (seeds 7000+task) under shuffled σ2
/// orders, recording the fewest and most symbols any order eliminated.
void OrderInvariance(int scale) {
  const int tasks = 4 * scale, orders_per_task = 5;
  std::printf("  \"order_invariance\": {\"tasks\": %d, "
              "\"orders_per_task\": %d, \"points\": [\n",
              tasks, orders_per_task);
  std::mt19937_64 rng(99);
  int variant_tasks = 0;
  for (int task = 0; task < tasks; ++task) {
    auto opts = ScenarioOptions<sim::ReconciliationScenarioOptions>(
        kReconcileConfigs[0], 20, 25, 7000 + task);
    opts.max_branch_attempts = 2;
    CompositionProblem problem = sim::BuildReconciliationProblem(opts);
    int min_elim = INT_MAX, max_elim = 0;
    std::vector<std::string> order = problem.sigma2.names();
    for (int trial = 0; trial < orders_per_task; ++trial) {
      ComposeOptions copts;
      copts.order = order;
      int elim = Compose(problem, copts).eliminated_count;
      min_elim = std::min(min_elim, elim);
      max_elim = std::max(max_elim, elim);
      std::shuffle(order.begin(), order.end(), rng);
    }
    if (min_elim != max_elim) ++variant_tasks;
    std::printf("    {\"task\": %d, \"symbols\": %d, \"min_eliminated\": %d, "
                "\"max_eliminated\": %d}%s\n",
                task, problem.sigma2.size(), min_elim, max_elim,
                Sep(task, tasks));
  }
  std::printf("  ], \"order_dependent_tasks\": %d},\n", variant_tasks);
}

}  // namespace

int main() {
  auto start = std::chrono::steady_clock::now();
  const char* env = std::getenv("MAPCOMP_BENCH_SCALE");
  const int scale = std::max(1, env == nullptr ? 1 : std::atoi(env));
  std::printf("{\n  \"benchmark\": \"bench_paper\",\n  \"scale\": %d,\n",
              scale);
  bool literature_ok = Literature();
  Editing(scale);
  Inclusion(scale);
  SchemaSize(scale);
  EditCount(scale);
  OrderInvariance(scale);
  std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
  std::printf("  \"wall_s\": %.3f\n}\n", wall.count());
  return literature_ok ? 0 : 1;
}
