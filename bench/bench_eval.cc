// Evaluator throughput + compose-soundness harness bench. Six workloads at
// 1/2/4/8 lanes, each cross-checked for byte-identical fingerprints against
// the jobs=1 baseline. One evaluation runs on its calling thread whatever
// `jobs` says, so only suite_check, whose instances run on the lanes, can
// scale; the single-evaluation rows are the control.
//
//   domain_d3    D^3 enumeration over a wide active domain (the evaluator's
//                pure enumeration path)
//   join_select  π σ (R × S) over random binary relations (the per-tuple
//                transform path)
//   join_wide    σ_{#1=#5}(R4 × S4) — two wide relations joined on one
//                column, recorded BOTH on the nested-loop oracle
//                (tests/oracles/oracle.h) and on the columnar hash-join
//                kernel, fingerprint-cross-checked against each other (the
//                kernel's differential oracle in bench form)
//   user_ops     tc over a seeded random binary relation feeding a
//                semijoin/antijoin pipeline, recorded BOTH on the oracle's
//                set-based operator bodies (the "legacy" column) and on the
//                columnar kernels (the default registry),
//                fingerprint-cross-checked at jobs 1 and 8 — the columnar
//                user-operator boundary's differential gate in bench form
//   dag_siblings a balanced union tree over 16 *independent* join subtrees
//                (distinct relation pairs), no node of which is large
//   suite_check  CheckComposition over the 22-problem literature suite
//                (the end-to-end semantic soundness harness, its instances
//                checked on the lanes)
//
// plus a memoization witness on a duplicated-subtree DAG. Emits JSON
// (redirect stdout to BENCH_eval.json). Exits non-zero on any determinism
// or soundness failure, so CI's bench smoke step doubles as a correctness
// gate. `--smoke` shrinks every size for a seconds-long CI run.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "src/algebra/builders.h"
#include "src/compose/compose.h"
#include "src/eval/soundness.h"
#include "src/op/registry.h"
#include "src/parser/parser.h"
#include "src/runtime/thread_pool.h"
#include "src/testdata/literature_suite.h"
#include "tests/oracles/oracle.h"

using namespace mapcomp;

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

Instance RandomBinary(int tuples, int domain, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> val(0, domain - 1);
  Instance db;
  std::set<Tuple> r, s;
  for (int i = 0; i < tuples; ++i) {
    r.insert(Tuple{Value(val(rng)), Value(val(rng))});
    s.insert(Tuple{Value(val(rng)), Value(val(rng))});
  }
  db.Set("R", std::move(r));
  db.Set("S", std::move(s));
  return db;
}

struct LaneRow {
  int jobs;
  double best_seconds;
  bool deterministic;
};

bool g_failed = false;

/// Times `run(jobs)` (returning a fingerprint) at each lane count and
/// checks every fingerprint against jobs=1.
template <typename Run>
std::vector<LaneRow> Sweep(const std::vector<int>& lanes, int reps,
                           const Run& run) {
  std::vector<LaneRow> rows;
  std::string base;
  // One untimed run first: the first runs of a workload pay for page faults
  // and allocator growth, which would otherwise all land on jobs=1.
  run(lanes.front());
  for (int jobs : lanes) {
    LaneRow row{jobs, -1.0, true};
    for (int rep = 0; rep < reps; ++rep) {
      auto start = std::chrono::steady_clock::now();
      std::string fp = run(jobs);
      double elapsed = Seconds(start);
      if (row.best_seconds < 0.0 || elapsed < row.best_seconds) {
        row.best_seconds = elapsed;
      }
      if (jobs == 1 && rep == 0) base = fp;
      if (fp != base) {
        row.deterministic = false;
        g_failed = true;
        std::fprintf(stderr, "NONDETERMINISM at jobs=%d\n", jobs);
      }
    }
    rows.push_back(row);
  }
  return rows;
}

void PrintRows(const std::vector<LaneRow>& rows, int64_t work_tuples) {
  double base = rows.empty() ? 1.0 : rows[0].best_seconds;
  std::printf("    \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const LaneRow& r = rows[i];
    std::printf(
        "      {\"jobs\": %d, \"best_seconds\": %.6f, "
        "\"tuples_per_sec\": %.0f, \"speedup_vs_jobs1\": %.3f, "
        "\"deterministic_vs_jobs1\": %s}%s\n",
        r.jobs, r.best_seconds,
        static_cast<double>(work_tuples) / r.best_seconds,
        base / r.best_seconds, r.deterministic ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::printf("    ]\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::vector<int> kLanes = {1, 2, 4, 8};
  const int reps = smoke ? 1 : 3;
  const int domain_values = smoke ? 18 : 60;
  const int join_tuples = smoke ? 60 : 600;
  const int check_instances = smoke ? 3 : 30;

  int hardware = runtime::ThreadPool::HardwareThreads();
  std::printf("{\n");
  std::printf("  \"benchmark\": \"bench_eval\",\n");
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"hardware_concurrency\": %d,\n", hardware);
  std::printf("  \"single_core_warning\": %s,\n",
              hardware <= 1 ? "true" : "false");
  std::printf("  \"workloads\": [\n");

  // ---- domain_d3: D^3 over `domain_values` active-domain values. ----
  {
    Instance db;
    std::set<Tuple> u;
    for (int i = 0; i < domain_values; ++i) u.insert(Tuple{Value(int64_t{i})});
    db.Set("U", std::move(u));
    ExprPtr dom3 = Dom(3);
    int64_t work = static_cast<int64_t>(domain_values) * domain_values *
                   domain_values;
    auto rows = Sweep(kLanes, reps, [&](int jobs) {
      EvalOptions opts;
      opts.jobs = jobs;
      opts.max_domain_tuples = work + 1;
      return EvaluateFull(dom3, db, opts).value().Fingerprint();
    });
    std::printf("    {\"name\": \"domain_d3\", \"domain_values\": %d, "
                "\"work_tuples\": %lld,\n",
                domain_values, static_cast<long long>(work));
    PrintRows(rows, work);
    std::printf("    },\n");
  }

  // ---- join_select: π[1,4] σ[#2=#3] (R × S). ----
  {
    Instance db = RandomBinary(join_tuples, 200, 1234);
    ExprPtr join = Project(
        {1, 4}, Select(Condition::AttrCmp(2, CmpOp::kEq, 3),
                       Product(Rel("R", 2), Rel("S", 2))));
    int64_t work = static_cast<int64_t>(db.Get("R").size()) *
                   static_cast<int64_t>(db.Get("S").size());
    auto rows = Sweep(kLanes, reps, [&](int jobs) {
      EvalOptions opts;
      opts.jobs = jobs;
      return EvaluateFull(join, db, opts).value().Fingerprint();
    });
    std::printf("    {\"name\": \"join_select\", \"relation_tuples\": %d, "
                "\"work_tuples\": %lld,\n",
                join_tuples, static_cast<long long>(work));
    PrintRows(rows, work);
    std::printf("    },\n");
  }

  // ---- join_wide: σ_{#1=#5}(R4 × S4), nested-loop vs hash-join kernel. ----
  {
    const int wide_tuples = smoke ? 60 : 700;
    const int64_t key_domain = smoke ? 30 : 150;
    std::mt19937_64 rng(99);
    std::uniform_int_distribution<int64_t> key(0, key_domain - 1);
    std::uniform_int_distribution<int64_t> payload(0, 1'000'000);
    Instance db;
    std::set<Tuple> r, s;
    while (static_cast<int>(r.size()) < wide_tuples) {
      r.insert(Tuple{Value(key(rng)), Value(payload(rng)), Value(payload(rng)),
                     Value(payload(rng))});
    }
    while (static_cast<int>(s.size()) < wide_tuples) {
      s.insert(Tuple{Value(key(rng)), Value(payload(rng)), Value(payload(rng)),
                     Value(payload(rng))});
    }
    db.Set("R", std::move(r));
    db.Set("S", std::move(s));
    ExprPtr join = Select(Condition::AttrCmp(1, CmpOp::kEq, 5),
                          Product(Rel("R", 4), Rel("S", 4)));
    int64_t work = static_cast<int64_t>(wide_tuples) * wide_tuples;

    // Nested-loop column: the oracle materializes the full product and
    // selects afterwards.
    double nested_best = -1.0;
    std::string nested_fp;
    for (int rep = 0; rep < reps; ++rep) {
      auto start = std::chrono::steady_clock::now();
      EvalResult out = oracle::EvaluateFull(join, db).value();
      double elapsed = Seconds(start);
      if (nested_best < 0.0 || elapsed < nested_best) nested_best = elapsed;
      if (rep == 0) nested_fp = out.Fingerprint();
    }

    int64_t hash_join_nodes = 0;
    std::string kernel_fp;
    auto rows = Sweep(kLanes, reps, [&](int jobs) {
      EvalOptions opts;
      opts.jobs = jobs;
      EvalResult out = EvaluateFull(join, db, opts).value();
      std::string fp = out.Fingerprint();
      if (jobs == 1) {
        hash_join_nodes = out.stats.hash_join_nodes;
        kernel_fp = fp;
      }
      return fp;
    });
    // The differential oracle as a bench gate: kernel and nested-loop
    // fingerprints must be byte-identical.
    bool matches = kernel_fp == nested_fp;
    if (!matches) {
      g_failed = true;
      std::fprintf(stderr,
                   "KERNEL/NESTED-LOOP FINGERPRINT MISMATCH on join_wide\n");
    }
    double kernel_best = rows.empty() ? nested_best : rows[0].best_seconds;
    std::printf(
        "    {\"name\": \"join_wide\", \"relation_tuples\": %d, "
        "\"arity\": 4, \"work_tuples\": %lld, "
        "\"nested_loop_best_seconds\": %.6f, "
        "\"kernel_vs_nested_speedup\": %.3f, "
        "\"kernel_matches_nested_loop\": %s, \"hash_join_nodes\": %lld,\n",
        wide_tuples, static_cast<long long>(work), nested_best,
        nested_best / kernel_best, matches ? "true" : "false",
        static_cast<long long>(hash_join_nodes));
    PrintRows(rows, work);
    std::printf("    },\n");
  }

  // ---- user_ops: columnar user-operator kernels vs set-based bodies. ----
  {
    const int tc_nodes = smoke ? 16 : 64;
    const int tc_edges = smoke ? 24 : 100;
    std::mt19937_64 rng(2026);
    std::uniform_int_distribution<int64_t> node(0, tc_nodes - 1);
    Instance db;
    std::set<Tuple> edges;
    while (static_cast<int>(edges.size()) < tc_edges) {
      edges.insert(Tuple{Value(node(rng)), Value(node(rng))});
    }
    db.Set("E", std::move(edges));

    const op::Registry& columnar_reg = op::Registry::Default();

    // tc(E) shared by a semijoin (closure pairs whose target has an
    // outgoing base edge) and an antijoin (pairs whose source has no
    // incoming base edge) — three user ops, the closure interned once.
    ExprPtr tc_expr = columnar_reg.MakeOp("tc", {Rel("E", 2)}).value();
    ExprPtr pipeline = Union(
        columnar_reg
            .MakeOp("semijoin", {tc_expr, Rel("E", 2)},
                    Condition::AttrCmp(2, CmpOp::kEq, 3))
            .value(),
        columnar_reg
            .MakeOp("antijoin", {tc_expr, Rel("E", 2)},
                    Condition::AttrCmp(1, CmpOp::kEq, 4))
            .value());

    // Set-based column on the oracle (single measurement: the naive
    // closure is the slow side by construction, noise cannot flip the
    // gate).
    auto time_once = [&](const ExprPtr& e, bool legacy, std::string* fp) {
      auto start = std::chrono::steady_clock::now();
      EvalResult out =
          (legacy ? oracle::EvaluateFull(e, db) : EvaluateFull(e, db))
              .value();
      if (fp != nullptr) *fp = out.Fingerprint();
      return Seconds(start);
    };
    std::string legacy_fp;
    double tc_legacy_seconds = time_once(tc_expr, true, nullptr);
    double pipeline_legacy_seconds = time_once(pipeline, true, &legacy_fp);

    double tc_columnar_seconds = -1.0;
    for (int rep = 0; rep < reps; ++rep) {
      double s = time_once(tc_expr, false, nullptr);
      if (tc_columnar_seconds < 0.0 || s < tc_columnar_seconds) {
        tc_columnar_seconds = s;
      }
    }

    int64_t closure_pairs = 0;
    std::string fp_jobs1, fp_jobs8;
    auto rows = Sweep(kLanes, reps, [&](int jobs) {
      EvalOptions opts;
      opts.registry = &columnar_reg;
      opts.jobs = jobs;
      EvalResult out = EvaluateFull(pipeline, db, opts).value();
      std::string fp = out.Fingerprint();
      if (jobs == 1) {
        closure_pairs = out.stats.tuples_produced;
        fp_jobs1 = fp;
      }
      if (jobs == 8) fp_jobs8 = fp;
      return fp;
    });
    // The differential gate: columnar kernels and set-based bodies must be
    // byte-identical, at 1 lane and at 8.
    bool matches = fp_jobs1 == legacy_fp && fp_jobs8 == legacy_fp;
    if (!matches) {
      g_failed = true;
      std::fprintf(stderr,
                   "COLUMNAR/LEGACY FINGERPRINT MISMATCH on user_ops\n");
    }
    std::printf(
        "    {\"name\": \"user_ops\", \"tc_nodes\": %d, \"tc_edges\": %d, "
        "\"pipeline_tuples\": %lld, "
        "\"tc_legacy_seconds\": %.6f, \"tc_columnar_seconds\": %.6f, "
        "\"tc_columnar_speedup\": %.3f, "
        "\"pipeline_legacy_seconds\": %.6f, "
        "\"columnar_matches_legacy\": %s,\n",
        tc_nodes, tc_edges, static_cast<long long>(closure_pairs),
        tc_legacy_seconds, tc_columnar_seconds,
        tc_legacy_seconds / tc_columnar_seconds, pipeline_legacy_seconds,
        matches ? "true" : "false");
    PrintRows(rows, closure_pairs);
    std::printf("    },\n");
  }

  // ---- dag_siblings: wide fan-out of independent join subtrees. ----
  {
    const int width = 16;
    const int leg_tuples = smoke ? 40 : 500;
    std::mt19937_64 rng(4242);
    std::uniform_int_distribution<int64_t> val(0, smoke ? 40 : 300);
    Instance db;
    std::vector<ExprPtr> legs;
    for (int i = 0; i < width; ++i) {
      std::string suffix = std::to_string(i);
      std::set<Tuple> r, s;
      for (int t = 0; t < leg_tuples; ++t) {
        r.insert(Tuple{Value(val(rng)), Value(val(rng))});
        s.insert(Tuple{Value(val(rng)), Value(val(rng))});
      }
      db.Set("R" + suffix, std::move(r));
      db.Set("S" + suffix, std::move(s));
      legs.push_back(Project(
          {1, 4},
          Select(Condition::AttrCmp(2, CmpOp::kEq, 3),
                 Product(Rel("R" + suffix, 2), Rel("S" + suffix, 2)))));
    }
    // Balanced union tree: every leg sits at the same depth, so all 16
    // join chains are structurally ready together.
    while (legs.size() > 1) {
      std::vector<ExprPtr> next;
      for (size_t i = 0; i + 1 < legs.size(); i += 2) {
        next.push_back(Union(legs[i], legs[i + 1]));
      }
      legs = std::move(next);
    }
    ExprPtr dag = legs[0];
    int64_t work = static_cast<int64_t>(width) * leg_tuples * leg_tuples;
    auto rows = Sweep(kLanes, reps, [&](int jobs) {
      EvalOptions opts;
      opts.jobs = jobs;
      return EvaluateFull(dag, db, opts).value().Fingerprint();
    });
    std::printf(
        "    {\"name\": \"dag_siblings\", \"sibling_joins\": %d, "
        "\"leg_tuples\": %d, \"work_tuples\": %lld,\n",
        width, leg_tuples, static_cast<long long>(work));
    PrintRows(rows, work);
    std::printf("    },\n");
  }

  // ---- suite_check: the semantic soundness harness over the suite. ----
  {
    Parser parser;
    std::vector<CompositionProblem> problems;
    std::vector<CompositionResult> composed;
    for (const testdata::LiteratureProblem& lit :
         testdata::LiteratureSuite()) {
      problems.push_back(parser.ParseProblem(lit.text).value());
      composed.push_back(Compose(problems.back()));
    }
    bool all_sound = true;
    int64_t checked_instances = 0;
    auto rows = Sweep(kLanes, reps, [&](int jobs) {
      CompositionCheckOptions options;
      options.eval.jobs = jobs;
      std::string fp;
      checked_instances = 0;  // the same on every call
      for (size_t i = 0; i < problems.size(); ++i) {
        Result<CompositionCheck> check = CheckComposition(
            problems[i], composed[i], 4242, check_instances, options);
        if (!check.ok()) {
          std::fprintf(stderr, "check failed: %s\n",
                       check.status().ToString().c_str());
          g_failed = true;
          continue;
        }
        all_sound = all_sound && check->sound;
        checked_instances += check->instances;
        fp += check->Report();
      }
      return fp;
    });
    if (!all_sound) g_failed = true;
    std::printf("    {\"name\": \"suite_check\", \"problems\": %zu, "
                "\"instances_per_problem\": %d, \"all_sound\": %s,\n",
                problems.size(), check_instances,
                all_sound ? "true" : "false");
    PrintRows(rows, checked_instances);
    std::printf("    }\n");
  }

  std::printf("  ],\n");

  // ---- memoization witness: duplicated-subtree DAG. ----
  {
    Instance db = RandomBinary(smoke ? 40 : 200, 50, 77);
    ExprPtr join = Project(
        {1, 4}, Select(Condition::AttrCmp(2, CmpOp::kEq, 3),
                       Product(Rel("R", 2), Rel("S", 2))));
    ExprPtr dag = join;
    for (int i = 0; i < 10; ++i) dag = Union(dag, dag);
    auto start = std::chrono::steady_clock::now();
    Result<EvalResult> out = EvaluateFull(dag, db);
    double elapsed = Seconds(start);
    if (!out.ok()) g_failed = true;
    std::printf("  \"memo\": {\"dag_unions\": 10, \"tree_ops\": %d, "
                "\"nodes_evaluated\": %lld, \"memo_hits\": %lld, "
                "\"seconds\": %.6f},\n",
                OperatorCount(dag),
                static_cast<long long>(out.ok() ? out->stats.nodes_evaluated
                                                : -1),
                static_cast<long long>(out.ok() ? out->stats.memo_hits : -1),
                elapsed);
  }

  std::printf("  \"failed\": %s\n}\n", g_failed ? "true" : "false");
  return g_failed ? 1 : 0;
}
