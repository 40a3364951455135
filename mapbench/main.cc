// mapbench: one workload of the mapcomp benchmark per invocation.
//
//   mapbench --workload NAME --seed N --seconds S --trace 0|1 [--span-dir D]
//
// Workloads: serve_hot, verify_batch (see NOTES.md). With --trace 0 the result line carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics, and the spans
// are written to D/<workload>.jsonl (the latest traced run of each
// workload, so repeated runs do not pile up files). Every line before the last is
// a human note; the last line is the JSON result. Exits 1 when any
// correctness check fails, 2 on bad arguments.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "src/common/fault.h"
#include "workloads.h"

#ifndef MAPBENCH_BUILD_TYPE
#define MAPBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace mapbench;

int Usage(const char* why) {
  std::fprintf(stderr,
               "mapbench: %s\nusage: mapbench --workload "
               "serve_hot|verify_batch --seed N --seconds S --trace 0|1 "
               "[--span-dir DIR]\n",
               why);
  return 2;
}

/// The environment every result is stamped with. A run from a build that
/// is not Release, or that has fault points compiled in, is flagged.
void PrintEnvironment(int nproc) {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  const bool faults = mapcomp::common::fault::kFaultPointsCompiled;
  const bool release = std::strcmp(MAPBENCH_BUILD_TYPE, "Release") == 0;
  std::printf(
      "env: {\"nproc\": %d, \"hardware_concurrency\": %u, \"build_type\": "
      "\"%s\", \"ndebug\": %s, \"fault_points_compiled\": %s, \"flagged\": "
      "%s}\n",
      nproc, std::thread::hardware_concurrency(), MAPBENCH_BUILD_TYPE,
      ndebug ? "true" : "false", faults ? "true" : "false",
      (!release || !ndebug || faults) ? "true" : "false");
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string span_dir;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return Usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(config.seconds > 0.0) ||
          config.seconds > 120.0) {
        return Usage("bad --seconds");
      }
      have_seconds = true;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("bad --trace");
      }
      config.trace = value[0] == '1';
      have_trace = true;
    } else if (arg == "--span-dir") {
      span_dir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  long online = sysconf(_SC_NPROCESSORS_ONLN);
  config.nproc = online > 0 ? static_cast<int>(online) : 1;
  if (config.trace && !span_dir.empty()) {
    config.span_path = span_dir + "/" + config.workload + ".jsonl";
  }

  WorkloadResult r;
  if (config.workload == "serve_hot") {
    r = RunServeHot(config);
  } else if (config.workload == "verify_batch") {
    r = RunVerify(config);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }

  PrintEnvironment(config.nproc);
  for (const std::string& note : r.notes) std::printf("note: %s\n", note.c_str());
  const WindowSummary& timing = r.timing;
  std::printf(
      "timing: %zu windows, %llu samples; the tail is the lower quartile "
      "over %zu blocks of each block's p%d (the smallest block: %zu "
      "samples, %zu beyond)\n",
      timing.windows, static_cast<unsigned long long>(timing.samples),
      timing.tail_blocks, timing.tail.percentile, timing.tail.samples,
      timing.tail.beyond);
  std::printf("window rates (ops/s):");
  for (double rate : timing.window_rates) std::printf(" %.1f", rate);
  std::printf("\nwindow speeds:");
  for (double speed : timing.window_speeds) std::printf(" %.3f", speed);
  std::printf("\nblock tails (us):");
  for (double tail : timing.block_tails) std::printf(" %.1f", tail);
  std::printf("\n");
  std::printf("failures: %s of %llu attempted\n",
              r.tally.FailureSummary().c_str(),
              static_cast<unsigned long long>(r.tally.attempted));

  std::vector<Metric> metrics;
  if (!config.trace) {
    const double ok_share =
        r.tally.attempted == 0 ? 0.0
                               : static_cast<double>(r.tally.ok()) /
                                     static_cast<double>(r.tally.attempted);
    metrics = {
        {"ops_per_s", timing.ops_per_s, "ops/s"},
        {"latency_p50_us", timing.p50_us, "us"},
        {"latency_p99_us", timing.tail.value, "us"},
        {"ok_share", ok_share, "ratio"},
        {"eliminated_fraction", r.eliminated_fraction, "ratio"},
        {"output_ops", r.output_ops, "ops"},
        {"setup_s", r.setup_s, "s"},
        {"peak_rss_mb", PeakRssMiB(), "MiB"},
    };
  } else {
    r.layer["bench.failed_share"] = r.tally.FailedShare();
    for (const LayerMetricSpec& spec : PerLayerMetrics()) {
      auto it = r.layer.find(spec.name);
      metrics.push_back(
          {spec.name, it == r.layer.end() ? 0.0 : it->second, spec.unit});
    }
  }
  const bool correct = r.setup_ok && r.tally.attempted > 0 &&
                       r.tally.failed() == 0;
  std::printf("%s\n", ResultJson(correct, std::max<uint64_t>(1, r.tally.attempted),
                                 r.tally.failed(), metrics)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
