// ComposeService latency lanes: how much a fingerprint cache hit saves
// over a miss (full composition) and over the synchronous Compose call,
// per problem, across the literature suite plus scheduler-shaped fan-out
// problems. Reports medians-of-reps as JSON (redirect stdout to
// BENCH_service.json).
//
// Correctness is checked, not assumed: every served result's fingerprint
// must equal the direct Compose baseline.
//
// Usage: bench_service [reps (default 5)] [hit-passes (default 64)]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/parser/parser.h"
#include "src/runtime/compose_service.h"
#include "src/runtime/thread_pool.h"
#include "src/simulator/scenarios.h"
#include "src/testdata/literature_suite.h"

using namespace mapcomp;

namespace {

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::vector<CompositionProblem> BuildWorkload() {
  std::vector<CompositionProblem> problems;
  Parser parser;
  for (const testdata::LiteratureProblem& prob :
       testdata::LiteratureSuite()) {
    problems.push_back(parser.ParseProblem(prob.text).value());
  }
  problems.push_back(sim::BuildFanoutProblem(8));
  problems.push_back(sim::BuildFanoutProblem(8, /*chain_overlap=*/true));
  return problems;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  int reps = argc > 1 ? std::atoi(argv[1]) : 5;
  int hit_passes = argc > 2 ? std::atoi(argv[2]) : 64;

  std::vector<CompositionProblem> problems = BuildWorkload();
  ComposeOptions compose_options;

  // Baselines (and warm-up for the interner).
  std::vector<std::string> baselines;
  baselines.reserve(problems.size());
  for (const CompositionProblem& p : problems) {
    baselines.push_back(Compose(p, compose_options).Fingerprint());
  }

  std::vector<double> direct_us, miss_us, hit_us;
  bool correct = true;
  uint64_t hits_counted = 0, misses_counted = 0;
  for (int rep = 0; rep < reps; ++rep) {
    // Direct synchronous composition, no service in the way.
    auto start = std::chrono::steady_clock::now();
    for (const CompositionProblem& p : problems) {
      Compose(p, compose_options);
    }
    direct_us.push_back(MicrosSince(start) /
                        static_cast<double>(problems.size()));

    // Cold service: every Submit+Wait is a miss (fresh cache per rep).
    runtime::ComposeServiceOptions service_options;
    service_options.compose = compose_options;
    service_options.cache_capacity = 2 * problems.size();
    runtime::ComposeService service(service_options);
    start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < problems.size(); ++i) {
      runtime::ComposeService::ResultPtr res =
          service.Submit(serve::ServeRequest::Of(problems[i])).Result();
      if (res->Fingerprint() != baselines[i]) correct = false;
    }
    miss_us.push_back(MicrosSince(start) /
                      static_cast<double>(problems.size()));

    // Warm service: the same submissions hit the fingerprint cache.
    start = std::chrono::steady_clock::now();
    for (int pass = 0; pass < hit_passes; ++pass) {
      for (size_t i = 0; i < problems.size(); ++i) {
        runtime::ComposeService::ResultPtr res =
            service.Submit(serve::ServeRequest::Of(problems[i])).Result();
        if (pass == 0 && res->Fingerprint() != baselines[i]) correct = false;
      }
    }
    hit_us.push_back(MicrosSince(start) /
                     static_cast<double>(problems.size() *
                                         static_cast<size_t>(hit_passes)));
    runtime::ServiceStats stats = service.Stats();
    hits_counted += stats.hits;
    misses_counted += stats.misses;
  }

  double direct_med = Median(direct_us);
  double miss_med = Median(miss_us);
  double hit_med = Median(hit_us);
  int hardware = runtime::ThreadPool::HardwareThreads();
  std::printf("{\n");
  std::printf("  \"benchmark\": \"bench_service\",\n");
  std::printf("  \"hardware_concurrency\": %d,\n", hardware);
  std::printf("  \"single_core_warning\": %s,\n",
              hardware <= 1 ? "true" : "false");
  std::printf("  \"problems\": %zu,\n", problems.size());
  std::printf("  \"reps\": %d,\n", reps);
  std::printf("  \"hit_passes\": %d,\n", hit_passes);
  std::printf("  \"hits\": %llu,\n",
              static_cast<unsigned long long>(hits_counted));
  std::printf("  \"misses\": %llu,\n",
              static_cast<unsigned long long>(misses_counted));
  std::printf("  \"direct_us_per_problem\": %.3f,\n", direct_med);
  std::printf("  \"miss_us_per_problem\": %.3f,\n", miss_med);
  std::printf("  \"hit_us_per_problem\": %.3f,\n", hit_med);
  std::printf("  \"hit_speedup_vs_miss\": %.1f,\n",
              hit_med > 0.0 ? miss_med / hit_med : 0.0);
  std::printf("  \"service_overhead_vs_direct\": %.3f,\n",
              direct_med > 0.0 ? miss_med / direct_med : 0.0);
  std::printf("  \"deterministic_vs_direct\": %s\n",
              correct ? "true" : "false");
  std::printf("}\n");
  return correct ? 0 : 1;
}
