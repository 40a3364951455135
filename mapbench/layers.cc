#include <algorithm>
#include <cstdio>
#include <string>

#include "src/parser/parser.h"
#include "workloads.h"

namespace mapbench {

using mapcomp::EliminateStep;

void ComposeAgg::Add(const mapcomp::CompositionResult& result,
                     double wall) {
  ++compositions;
  eliminated += result.eliminated_count;
  total += result.total_count;
  output_ops += mapcomp::OperatorCount(result.constraints);
  rounds += static_cast<long>(result.rounds.size());
  for (const mapcomp::SymbolStat& s : result.stats) {
    ++attempts;
    size_before += s.size_before;
    size_after += s.size_after;
    if (!s.eliminated) {
      failed_ms += s.millis;
      continue;
    }
    ++eliminated_attempts;
    if (s.step == EliminateStep::kUnfold) unfold_ms += s.millis;
    if (s.step == EliminateStep::kLeftCompose) left_ms += s.millis;
    if (s.step == EliminateStep::kRightCompose) right_ms += s.millis;
  }
  if (wall >= 0.0) wall_us.push_back(wall);
}

double ComposeAgg::EliminatedFraction() const {
  return total == 0 ? 1.0
                    : static_cast<double>(eliminated) /
                          static_cast<double>(total);
}

double ComposeAgg::MeanOutputOps() const {
  return compositions == 0 ? 0.0
                           : static_cast<double>(output_ops) / compositions;
}

void ComposeAgg::Emit(std::map<std::string, double>* layer) const {
  const double n = std::max(1, compositions);
  (*layer)["compose.time_us"] = Median(wall_us);
  (*layer)["compose.unfold_us"] = unfold_ms * 1e3 / n;
  (*layer)["compose.left_us"] = left_ms * 1e3 / n;
  (*layer)["compose.right_us"] = right_ms * 1e3 / n;
  (*layer)["compose.failed_attempt_us"] = failed_ms * 1e3 / n;
  (*layer)["compose.rounds"] = static_cast<double>(rounds) / n;
  (*layer)["compose.attempts"] = static_cast<double>(attempts) / n;
  (*layer)["compose.eliminated_per_attempt"] =
      attempts == 0 ? 0.0
                    : static_cast<double>(eliminated_attempts) /
                          static_cast<double>(attempts);
  (*layer)["compose.size_growth"] =
      size_before == 0 ? 0.0
                       : static_cast<double>(size_after) /
                             static_cast<double>(size_before);
}

void EmitInternerDelta(const mapcomp::InternerStats& before,
                       const mapcomp::InternerStats& after,
                       uint64_t compositions,
                       std::map<std::string, double>* layer) {
  uint64_t lookups = 0, max_shard = 0;
  const size_t shards = std::min(before.shards.size(), after.shards.size());
  for (size_t i = 0; i < shards; ++i) {
    uint64_t traffic = (after.shards[i].hits + after.shards[i].misses) -
                       (before.shards[i].hits + before.shards[i].misses);
    lookups += traffic;
    max_shard = std::max(max_shard, traffic);
  }
  const uint64_t builder = after.builder_hits - before.builder_hits;
  const double mean_shard =
      shards == 0 ? 0.0 : static_cast<double>(lookups) / shards;
  (*layer)["algebra.shard_lookups_per_compose"] =
      static_cast<double>(lookups) /
      static_cast<double>(std::max<uint64_t>(1, compositions));
  (*layer)["algebra.builder_hit_ratio"] =
      builder + lookups == 0
          ? 0.0
          : static_cast<double>(builder) / static_cast<double>(builder + lookups);
  (*layer)["algebra.shard_imbalance"] =
      mean_shard == 0.0 ? 0.0 : static_cast<double>(max_shard) / mean_shard;
  (*layer)["algebra.entries"] = static_cast<double>(after.entries());
  (*layer)["algebra.sweeps"] =
      static_cast<double>(after.sweeps() - before.sweeps());
}

std::string GaugeNote(const CoreGauge& gauge) {
  std::vector<double> fastest, slowest;
  for (const auto& reading : gauge.history()) {
    fastest.push_back(reading.first);
    slowest.push_back(reading.second);
  }
  if (fastest.empty()) {
    return "gauge: " + std::to_string(gauge.cpus()) + " cpus, no readings";
  }
  char out[200];
  std::snprintf(out, sizeof(out),
                "gauge: %zu cpus, %zu readings; fastest lane median %.3f "
                "(min %.3f), slowest lane median %.3f (min %.3f)",
                gauge.cpus(), fastest.size(), Median(fastest),
                *std::min_element(fastest.begin(), fastest.end()),
                Median(slowest),
                *std::min_element(slowest.begin(), slowest.end()));
  return out;
}

double TracingOverhead(uint64_t untraced_ops, double untraced_s,
                       uint64_t traced_ops, double traced_s) {
  if (untraced_ops == 0 || !(untraced_s > 0.0) || !(traced_s > 0.0)) return 0.0;
  const double untraced = static_cast<double>(untraced_ops) / untraced_s;
  const double traced = static_cast<double>(traced_ops) / traced_s;
  return 1.0 - traced / untraced;
}

double ParserBytesPerSecond(const std::vector<std::string>& texts,
                            double min_seconds, Tracer* tracer) {
  mapcomp::Parser parser;
  double bytes = 0.0, seconds = 0.0;
  uint64_t op = 0;
  while (seconds < min_seconds && !texts.empty()) {
    for (const std::string& text : texts) {
      Clock::time_point start = Clock::now();
      {
        ScopedSpan span(tracer, "parser.parse_problem", op++);
        (void)parser.ParseProblem(text);
      }
      seconds += SecondsSince(start);
      bytes += static_cast<double>(text.size());
    }
  }
  return seconds == 0.0 ? 0.0 : bytes / seconds;
}

const std::vector<LayerMetricSpec>& PerLayerMetrics() {
  static const std::vector<LayerMetricSpec> kMetrics = {
      {"serve.frame_decode_us", "us"},
      {"serve.request_parse_us", "us"},
      {"serve.cache_key_us", "us"},
      {"serve.reply_serialize_us", "us"},
      {"serve.request_bytes", "B"},
      {"serve.reply_bytes", "B"},
      {"serve.bypass_ratio", "ratio"},
      {"serve.protocol_errors", "count"},
      {"serve.unaccounted_us", "us"},
      {"serve.client_p50_us", "us"},
      {"runtime.probe_us", "us"},
      {"runtime.cache_hit_ratio", "ratio"},
      {"runtime.cache_bytes_peak", "B"},
      {"runtime.compose_many_speedup", "x"},
      {"compose.time_us", "us"},
      {"compose.unfold_us", "us"},
      {"compose.left_us", "us"},
      {"compose.right_us", "us"},
      {"compose.failed_attempt_us", "us"},
      {"compose.rounds", "count"},
      {"compose.attempts", "count"},
      {"compose.eliminated_per_attempt", "ratio"},
      {"compose.size_growth", "ratio"},
      {"algebra.shard_lookups_per_compose", "count"},
      {"algebra.builder_hit_ratio", "ratio"},
      {"algebra.shard_imbalance", "ratio"},
      {"algebra.entries", "count"},
      {"algebra.sweeps", "count"},
      {"parser.bytes_per_s", "B/s"},
      {"eval.check_us", "us"},
      {"eval.lane_speedup", "x"},
      {"eval.nodes_evaluated", "count"},
      {"eval.memo_hit_ratio", "ratio"},
      {"eval.tasks_spawned", "count"},
      {"eval.hash_join_share", "ratio"},
      {"eval.memo_bytes_peak", "B"},
      {"eval.index_cache_hit_ratio", "ratio"},
      {"eval.nonvacuous_share", "ratio"},
      {"eval.violations", "count"},
      {"eval.errors", "count"},
      {"simulator.gen_s", "s"},
      {"bench.failed_share", "ratio"},
      {"bench.loadgen_cpu_us_per_op", "us"},
      {"bench.tracing_overhead", "ratio"},
  };
  return kMetrics;
}

}  // namespace mapbench
