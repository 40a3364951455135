#ifndef MAPBENCH_WORKLOADS_H_
#define MAPBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "inputs.h"
#include "src/algebra/interner.h"
#include "src/compose/compose.h"

namespace mapbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (one JSON object per line).
  std::string span_path;
  int nproc = 1;
};

/// What one workload run hands back to main, which turns it into the
/// result line.
struct WorkloadResult {
  Tally tally;
  /// False when a set-up oracle check failed (the run is then incorrect
  /// even with no failed op).
  bool setup_ok = true;
  std::vector<std::string> notes;  ///< printed before the result line

  // End-to-end inputs (untraced run).
  WindowSummary timing;  ///< of the measured phase
  double setup_s = 0.0;  ///< SetupTimes::Seconds() over the repeats
  double eliminated_fraction = 0.0;
  double output_ops = 0.0;

  // Per-layer metrics (traced run), by name.
  std::map<std::string, double> layer;
};

WorkloadResult RunServeHot(const RunConfig& config);
WorkloadResult RunVerify(const RunConfig& config);

/// "cpus: 4; fastest lane 0.93 to 1.02 (median 0.99), slowest ..." over
/// the gauge's readings.
std::string GaugeNote(const CoreGauge& gauge);

/// Drops every interner node no live object holds, so the next set-up
/// starts as cold as the first one of the process did.
inline void ColdInterner() { mapcomp::ExprInterner::Global().Sweep(); }

/// A trace run splits its time: an untraced phase (program counters and the
/// baseline ops/s), a traced phase (spans), then the replay of traced ops.
inline constexpr double kUntracedShare = 0.4;
inline constexpr double kTracedShare = 0.4;
inline constexpr double kReplayShare = 0.2;

// ------------------------------------------------- per-layer collectors ---

/// Quality and per-step cost of a set of compositions: the paper's
/// eliminated fraction, output size, and SymbolStat time by EliminateStep.
struct ComposeAgg {
  int compositions = 0;
  long eliminated = 0, total = 0, output_ops = 0;
  long rounds = 0, attempts = 0, eliminated_attempts = 0;
  long size_before = 0, size_after = 0;
  double unfold_ms = 0, left_ms = 0, right_ms = 0, failed_ms = 0;
  std::vector<double> wall_us;

  void Add(const mapcomp::CompositionResult& result, double wall_us = -1.0);
  double EliminatedFraction() const;
  double MeanOutputOps() const;
  /// Writes the compose.* metrics into `layer`.
  void Emit(std::map<std::string, double>* layer) const;
};

/// Interner traffic between two snapshots (algebra.* metrics).
void EmitInternerDelta(const mapcomp::InternerStats& before,
                       const mapcomp::InternerStats& after,
                       uint64_t compositions, std::map<std::string, double>* layer);

/// bench.tracing_overhead: 1 - traced ops/s ÷ untraced ops/s (base: the
/// untraced rate).
double TracingOverhead(uint64_t untraced_ops, double untraced_s,
                       uint64_t traced_ops, double traced_s);

/// parser.bytes_per_s: Parser::ParseProblem over `texts`, repeated until
/// at least `min_seconds` of parsing has been timed.
double ParserBytesPerSecond(const std::vector<std::string>& texts,
                            double min_seconds, Tracer* tracer);

/// Every per-layer metric the traced run reports, with its unit, in
/// output order. Names missing from a workload's map are reported as 0.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetricSpec>& PerLayerMetrics();

}  // namespace mapbench

#endif  // MAPBENCH_WORKLOADS_H_
