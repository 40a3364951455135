// Self-tests of the benchmark's own logic: the tail-percentile rule, the
// latency histogram and its windows, the set-up summary, the core gauge,
// failure counting, and the reply byte mask. Exits non-zero when any
// check fails; run.py runs it after every build.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.h"
#include "src/parser/parser.h"
#include "src/serve/serve_types.h"

namespace {

using namespace mapbench;

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestTailPercentile() {
  // 1000 samples: p99 sits at rank 990 with exactly ten samples beyond.
  TailPercentile t = TailRank(1000);
  EXPECT(t.percentile == 99 && t.beyond == 10);
  // 999 samples: p99 has only nine beyond, so p98 (rank 980) is reported.
  t = TailRank(999);
  EXPECT(t.percentile == 98 && t.beyond == 19);
  // 300 samples: the highest candidate with ten beyond is p96 (rank 288).
  t = TailRank(300);
  EXPECT(t.percentile == 96 && t.beyond == 12);
  // 20 samples: only the median has ten beyond; 19: none has, so the
  // maximum is reported.
  t = TailRank(20);
  EXPECT(t.percentile == 50 && t.beyond == 10);
  t = TailRank(19);
  EXPECT(t.percentile == 100 && t.beyond == 0);
  t = TailRank(0);
  EXPECT(t.samples == 0 && t.percentile == 0);
  EXPECT(Median(OneTo(5)) == 3.0);
}

bool Near(double actual, double want) {
  return actual > want * 0.99 && actual < want * 1.01;
}

void TestHistogram() {
  // The rule on histogram values, within 1% of the exact samples.
  LatencyHistogram h;
  for (double v : OneTo(1000)) h.Add(v);
  TailPercentile t = h.Tail();
  EXPECT(t.percentile == 99 && t.beyond == 10 && Near(t.value, 990.0));
  EXPECT(Near(h.Median(), 500.0));
  LatencyHistogram few;
  for (double v : OneTo(19)) few.Add(v);
  t = few.Tail();
  EXPECT(t.percentile == 100 && t.beyond == 0 && Near(t.value, 19.0));
  // Equal samples still read back as distinct, rising values inside their
  // bucket, all within 1%.
  LatencyHistogram same;
  for (int i = 0; i < 4; ++i) same.Add(250.0);
  EXPECT(same.ValueAt(0) < same.ValueAt(3));
  EXPECT(Near(same.ValueAt(0), 250.0) && Near(same.ValueAt(3), 250.0));
  EXPECT(LatencyHistogram().Median() == 0.0);
}

void TestWindows() {
  // Twenty 0.5 s windows, one op per unit. The CPUs under windows 0-8
  // read speed 1 on both sides, under window 9 1 then 0.5 (mean 0.75),
  // and under windows 10-19 0.5; each window did the work of 100 ops at
  // the reference speed in that much longer: 98 of 100 us and two of
  // 1000 us.
  PhaseTiming timing(10.0, 0.5);
  timing.Gauge({0.0, 1.0});
  for (int w = 0; w < 20; ++w) {
    const double speed = w < 9 ? 1.0 : (w == 9 ? 0.75 : 0.5);
    const int ops = static_cast<int>(100 * speed);
    for (int i = 0; i < ops; ++i) {
      timing.Add((i < 2 * speed ? 1000.0 : 100.0) / speed);
      const double at = w * 0.5 + (i + 1.0) / ops * 0.5;
      EXPECT(timing.Due(at) == (i + 1 == ops));
      EXPECT(timing.Boundary(at) == (i + 1 == ops));
    }
    // The reading after window w: the CPU it ran on, and the one picked
    // for the next.
    timing.Gauge({w < 9 ? 1.0 : 0.5, w < 9 ? 1.0 : 0.5});
  }
  WindowSummary s = timing.Summarize();
  EXPECT(s.windows == 20 && s.samples == 1475);
  EXPECT(s.window_speeds[8] == 1.0 && s.window_speeds[9] == 0.75 &&
         s.window_speeds[10] == 0.5);
  EXPECT(Near(s.window_rates[0], 200.0) && Near(s.window_rates[19], 100.0));
  EXPECT(Near(s.ops_per_s, 200.0));
  EXPECT(Near(s.p50_us, 100.0));
  // One block: windows 0-10, 1025 samples; p99 has 10 beyond it, inside
  // the 21 slow ops (1000 us at the reference). Windows 11-19 (450
  // samples) fill no block.
  EXPECT(s.tail_blocks == 1 && s.tail.samples == 1025 &&
         s.tail.percentile == 99 && s.tail.beyond == 10);
  EXPECT(Near(s.tail.value, 1000.0));
  // Eight blocks of one window each, whose p99s are 100, 200, ... 800 us
  // in shuffled order: the tail is their lower quartile, 200 us.
  PhaseTiming blocks(8.0, 1.0);
  const int order[8] = {5, 2, 8, 1, 7, 3, 6, 4};
  for (int w = 0; w < 8; ++w) {
    for (int i = 0; i < 1000; ++i) {
      blocks.Add(i < 20 ? 100.0 * order[w] : 10.0);
    }
    blocks.Boundary(w + 1.0);
  }
  s = blocks.Summarize();
  EXPECT(s.tail_blocks == 8 && s.block_tails.size() == 8 &&
         Near(s.block_tails[0], 500.0) && Near(s.tail.value, 200.0));
  EXPECT(s.tail.percentile == 99 && s.tail.samples == 1000);

  // All() keeps the samples as measured: 882 fast ops of 100 us, 73 of
  // 133 us, then the slow windows' 200 us.
  EXPECT(timing.All().count() == 1475 &&
         Near(timing.All().ValueAt(1000), 200.0));

  // Without gauge readings every window's speed is 1.
  // A window closes only at a unit boundary: units of 0.3 s make windows
  // of 0.6 s, each holding two whole units.
  PhaseTiming units(6.0, 0.5);
  for (int u = 1; u <= 10; ++u) {
    for (int i = 0; i < 30; ++i) units.Add(100.0);
    units.Boundary(u * 0.3);
  }
  s = units.Summarize();
  EXPECT(s.windows == 5 && s.window_speeds[2] == 1.0 &&
         Near(s.ops_per_s, 100.0));

  // A unit cut by the end of the phase stays in the open window: it counts
  // in the samples, not in the rates.
  PhaseTiming cut(5.0, 1.0);
  for (int i = 0; i < 10; ++i) cut.Add(10.0);
  cut.Boundary(1.0);
  for (int i = 0; i < 100; ++i) cut.Add(10.0);
  s = cut.Summarize();
  EXPECT(s.windows == 1 && s.samples == 110 && s.ops_per_s == 10.0 &&
         s.tail_blocks == 0 && s.tail.samples == 10);

  // Windows never outgrow the room made for the plan (2 s of 0.5 s
  // windows: 4 + 2); the last one stays open.
  PhaseTiming over(2.0, 0.5);
  for (int i = 1; i <= 100; ++i) {
    over.Add(1.0);
    over.Boundary(i * 0.1);
  }
  EXPECT(over.Summarize().windows == 5 && over.All().count() == 100 &&
         !over.Due(100.0));
  EXPECT(PhaseTiming(10.0, 0.5).Summarize().ops_per_s == 0.0);
}

void TestSetup() {
  // Five repeats; the third and fourth ran at half speed and took twice as
  // long. On CPUs of the reference speed each took 0.2 s.
  SetupTimes t;
  t.seconds = {0.2, 0.2, 0.4, 0.4, 0.2};
  t.speeds = {1.0, 1.0, 0.5, 0.5, 1.0};
  EXPECT(!t.NeedAnother(1.4) && t.NeedAnother(1.5));
  EXPECT(Near(t.Seconds(), 0.2));
  EXPECT(SetupTimes().NeedAnother(0.0) && SetupTimes().Seconds() == 0.0);
}

void TestGauge() {
  // A reading picks CPUs and reports their speed; the next one reports the
  // speed of the CPUs it leaves. Unpinning leaves the process runnable.
  CoreGauge gauge;
  EXPECT(gauge.cpus() >= 1);
  const CoreGauge::Reading first = gauge.PinFastest(2);
  EXPECT(first.left == 0.0 && first.picked > 0.0);
  const CoreGauge::Reading apart = gauge.PinApart();
  EXPECT(apart.left > 0.0 && apart.picked > 0.0);
  const CoreGauge::Reading check = gauge.Check();
  EXPECT(check.left > 0.0 && check.left == check.picked);
  gauge.Unpin();
  EXPECT(gauge.Check().left == 0.0 && gauge.history().size() == 4);
}

void TestFailureCounting() {
  Tally t;
  for (int i = 0; i < 7; ++i) t.Record(Outcome::kOk);
  t.Record(Outcome::kShed);
  EXPECT(t.failed() == 1);
  t.Record(Outcome::kMissing);
  EXPECT(t.failed() == 2);
  t.Record(Outcome::kWrongByte);
  EXPECT(t.failed() == 3);
  EXPECT(t.attempted == 10 && t.ok() == 7);
  EXPECT(t.FailedShare() == 0.3);
  EXPECT(t.count(Outcome::kShed) == 1 && t.count(Outcome::kMissing) == 1 &&
         t.count(Outcome::kWrongByte) == 1);
  Tally merged;
  merged.MergeFrom(t);
  merged.MergeFrom(t);
  EXPECT(merged.attempted == 20 && merged.failed() == 6);
}

/// A real kOk reply body, serialized by the library.
std::string OkBody(uint64_t id, bool hit) {
  mapcomp::Parser parser;
  mapcomp::Result<mapcomp::CompositionProblem> p = parser.ParseProblem(
      "schema s1 { R(2); } schema s2 { S(2); } schema s3 { T(2); } "
      "map m12 { R <= S; } map m23 { S <= T; }");
  if (!p.ok()) std::abort();
  std::string body;
  mapcomp::serve::ServeReply::OkReply(
      id, mapcomp::runtime::ServedResult::FromResult(mapcomp::Compose(*p)), hit)
      .SerializeTo(&body);
  return body;
}

void TestReplyMask() {
  const std::string expected = OkBody(0, false);
  const std::string actual = OkBody(0x1122334455667788ull, true);
  // Only request_id and cache_hit differ between the two.
  EXPECT(MaskedReplyEqual(actual, expected));
  EXPECT(ClassifyReply(actual, expected, 0x1122334455667788ull) == Outcome::kOk);
  EXPECT(ClassifyReply(actual, expected, 7) == Outcome::kWrongByte);
  int unmasked = 0;
  for (size_t i = 0; i < actual.size(); ++i) {
    std::string flipped = actual;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
    const bool masked = i < kReplyIdBytes || i == kReplyCacheHitOffset;
    EXPECT(MaskedReplyEqual(flipped, expected) == masked);
    if (!masked) ++unmasked;
  }
  EXPECT(unmasked == static_cast<int>(actual.size()) - 9);
  std::string truncated = actual.substr(0, actual.size() - 1);
  EXPECT(!MaskedReplyEqual(truncated, expected));

  // Error replies are classified by their status byte alone.
  std::string shed, timeout, internal;
  mapcomp::serve::ServeReply::ErrorReply(3, mapcomp::serve::WireStatus::kOverloaded,
                                         "full")
      .SerializeTo(&shed);
  mapcomp::serve::ServeReply::ErrorReply(3, mapcomp::serve::WireStatus::kTimeout,
                                         "late")
      .SerializeTo(&timeout);
  mapcomp::serve::ServeReply::ErrorReply(3, mapcomp::serve::WireStatus::kInternal,
                                         "boom")
      .SerializeTo(&internal);
  EXPECT(ClassifyReply(shed, expected, 3) == Outcome::kShed);
  EXPECT(ClassifyReply(timeout, expected, 3) == Outcome::kTimeout);
  EXPECT(ClassifyReply(internal, expected, 3) == Outcome::kErrorStatus);
  EXPECT(ClassifyReply("", expected, 3) == Outcome::kTransport);
}

void TestSelfTime() {
  Tracer tracer(true);
  uint32_t root = tracer.Begin("root", 1);
  uint32_t child = tracer.Begin("child", 1, root);
  tracer.End(child);
  tracer.End(root);
  std::vector<double> self = tracer.SelfMicros("root");
  std::vector<double> child_self = tracer.SelfMicros("child");
  EXPECT(self.size() == 1 && child_self.size() == 1);
  EXPECT(self[0] >= 0.0 && child_self[0] >= 0.0);
  Tracer off(false);
  EXPECT(off.Begin("x", 1) == Tracer::kNoParent && off.size() == 0);
}

}  // namespace

int main() {
  TestTailPercentile();
  TestHistogram();
  TestWindows();
  TestSetup();
  TestGauge();
  TestFailureCounting();
  TestReplyMask();
  TestSelfTime();
  if (g_failures != 0) {
    std::fprintf(stderr, "mapbench_selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "mapbench_selftest: all checks passed\n");
  return 0;
}
