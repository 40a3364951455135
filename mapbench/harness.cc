#include "harness.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "src/serve/wire_status.h"

namespace mapbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  size_t mid = (samples.size() - 1) / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  return samples[mid];
}

TailPercentile TailRank(size_t n) {
  TailPercentile out;
  out.samples = n;
  if (n == 0) return out;
  for (int p : {99, 98, 97, 96, 95, 90, 75, 50}) {
    // Nearest rank, ceil(p * n / 100) in integers: the smallest rank that
    // covers p percent of the samples.
    size_t rank = (static_cast<size_t>(p) * n + 99) / 100;
    size_t index = rank == 0 ? 0 : rank - 1;
    size_t beyond = n - 1 - index;
    if (beyond >= 10) {
      out.percentile = p;
      out.beyond = beyond;
      return out;
    }
  }
  out.percentile = 100;
  out.beyond = 0;
  return out;
}

namespace {

constexpr double kHistMinUs = 1.0;
constexpr double kHistGrowth = 1.01;
// Buckets up to 100 s: log(1e8) / log(1.01).
constexpr size_t kHistBuckets = 1852;

size_t BucketOf(double us) {
  if (!(us > kHistMinUs)) return 0;
  const double b = std::log(us / kHistMinUs) / std::log(kHistGrowth);
  return std::min(kHistBuckets - 1, static_cast<size_t>(b));
}

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kHistBuckets, 0) {}

void LatencyHistogram::Add(double us) {
  ++buckets_[BucketOf(us)];
  ++count_;
}

void LatencyHistogram::MergeFrom(const LatencyHistogram& other) {
  for (size_t i = 0; i < kHistBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

void LatencyHistogram::MergeScaled(const LatencyHistogram& other,
                                   double factor) {
  const long shift = std::lround(std::log(factor) / std::log(kHistGrowth));
  const long last = static_cast<long>(kHistBuckets) - 1;
  for (size_t i = 0; i < kHistBuckets; ++i) {
    const long to = std::clamp(static_cast<long>(i) + shift, 0L, last);
    buckets_[static_cast<size_t>(to)] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyHistogram::ValueAt(uint64_t index) const {
  uint64_t seen = 0;
  for (size_t i = 0; i < kHistBuckets; ++i) {
    if (index < seen + buckets_[i]) {
      // The k-th of c samples in the bucket sits at (k + 0.5) / c of its
      // width, on the log scale.
      const double within = (static_cast<double>(index - seen) + 0.5) /
                            static_cast<double>(buckets_[i]);
      return kHistMinUs *
             std::pow(kHistGrowth, static_cast<double>(i) + within);
    }
    seen += buckets_[i];
  }
  return 0.0;
}

double LatencyHistogram::Median() const {
  return count_ == 0 ? 0.0 : ValueAt((count_ - 1) / 2);
}

TailPercentile LatencyHistogram::Tail() const {
  TailPercentile out = TailRank(count_);
  if (count_ > 0) out.value = ValueAt(count_ - 1 - out.beyond);
  return out;
}

namespace {

constexpr size_t kGaugeTableWords = 4096;  // 32 KiB
constexpr int kGaugeChains = 8;
constexpr int kGaugeRounds = 100000;
/// Kernel rounds per second of one lane on a quiet 4-vCPU Xeon (Sapphire
/// Rapids) KVM guest, so the notes read about 1 on a quiet core.
constexpr double kGaugeReferenceRate = 1.0e8;

std::atomic<uint64_t> gauge_sink{0};

/// Eight independent xorshift64 chains, each step adding into a word of
/// the table: work a core with a busy sibling runs at up to half speed.
uint64_t GaugeKernel(uint64_t* table, uint64_t seed) {
  uint64_t x[kGaugeChains];
  for (int k = 0; k < kGaugeChains; ++k) {
    x[k] = seed + 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(k + 1);
  }
  for (int n = 0; n < kGaugeRounds; ++n) {
    for (int k = 0; k < kGaugeChains; ++k) {
      x[k] ^= x[k] << 13;
      x[k] ^= x[k] >> 7;
      x[k] ^= x[k] << 17;
      table[x[k] & (kGaugeTableWords - 1)] += x[k] >> 40;
    }
  }
  uint64_t out = 0;
  for (int k = 0; k < kGaugeChains; ++k) out ^= x[k];
  return out;
}

bool SetAffinity(pid_t tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(tid, sizeof(set), &set) == 0;
}

}  // namespace

void PinSelf(const std::vector<int>& cpus) { SetAffinity(0, cpus); }

void PinProcess(const std::vector<int>& cpus) {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    SetAffinity(static_cast<pid_t>(std::atoi(entry->d_name)), cpus);
  }
  closedir(dir);
}

CoreGauge::CoreGauge() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
  }
  tables_.assign(std::max<size_t>(1, cpus_.size()),
                 std::vector<uint64_t>(kGaugeTableWords, 1));
}

std::vector<double> CoreGauge::Measure() {
  std::vector<double> speeds(cpus_.size(), 1.0);
  std::vector<std::thread> lanes;
  for (size_t i = 0; i < cpus_.size(); ++i) {
    lanes.emplace_back([this, i, &speeds] {
      PinSelf({cpus_[i]});
      const Clock::time_point start = Clock::now();
      gauge_sink.fetch_xor(GaugeKernel(tables_[i].data(), i),
                           std::memory_order_relaxed);
      speeds[i] = kGaugeRounds / SecondsSince(start) / kGaugeReferenceRate;
    });
  }
  for (std::thread& lane : lanes) lane.join();
  if (!speeds.empty()) {
    history_.emplace_back(*std::max_element(speeds.begin(), speeds.end()),
                          *std::min_element(speeds.begin(), speeds.end()));
  }
  return speeds;
}

CoreGauge::Reading CoreGauge::Pick(size_t count, std::vector<int>* ranked) {
  Reading out;
  ranked->clear();
  if (cpus_.empty()) return out;
  const std::vector<double> speeds = Measure();
  auto mean = [&](const std::vector<size_t>& set) {
    double sum = 0.0;
    for (size_t i : set) sum += speeds[i];
    return set.empty() ? 0.0 : sum / static_cast<double>(set.size());
  };
  out.left = mean(picked_);
  std::vector<size_t> order(cpus_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return speeds[a] > speeds[b]; });
  for (size_t i : order) ranked->push_back(cpus_[i]);
  order.resize(std::min(std::max<size_t>(1, count), order.size()));
  picked_ = order;
  out.picked = mean(picked_);
  return out;
}

CoreGauge::Reading CoreGauge::PinFastest(size_t count) {
  std::vector<int> ranked;
  const Reading out = Pick(count, &ranked);
  ranked.resize(picked_.size());
  if (!ranked.empty()) PinProcess(ranked);
  return out;
}

CoreGauge::Reading CoreGauge::PinApart() {
  std::vector<int> ranked;
  const Reading out = Pick(1, &ranked);
  if (ranked.empty()) return out;
  PinProcess({ranked[0]});
  PinSelf({ranked.size() > 1 ? ranked[1] : ranked[0]});
  return out;
}

CoreGauge::Reading CoreGauge::Check() {
  Reading out;
  if (cpus_.empty()) return out;
  const std::vector<double> speeds = Measure();
  double sum = 0.0;
  for (size_t i : picked_) sum += speeds[i];
  out.left = out.picked =
      picked_.empty() ? 0.0 : sum / static_cast<double>(picked_.size());
  return out;
}

void CoreGauge::Unpin() {
  picked_.clear();
  if (!cpus_.empty()) PinProcess(cpus_);
}

PhaseTiming::PhaseTiming(double planned_seconds, double window_seconds)
    : width_s_(window_seconds > 0.0 ? window_seconds : 0.5) {
  const double planned = planned_seconds > 0.0 ? planned_seconds : 1.0;
  const double fit = std::min(400.0, std::ceil(planned / width_s_));
  windows_.resize(static_cast<size_t>(fit) + 2);
}

void PhaseTiming::Add(double latency_us) { windows_[open_].Add(latency_us); }

bool PhaseTiming::Due(double at_s) const {
  const double opened_at = closed_at_.empty() ? 0.0 : closed_at_.back();
  return at_s - opened_at >= width_s_ && open_ + 1 < windows_.size();
}

bool PhaseTiming::Boundary(double at_s) {
  if (!Due(at_s)) return false;
  closed_at_.push_back(at_s);
  ++open_;
  return true;
}

void PhaseTiming::Gauge(const CoreGauge::Reading& reading) {
  // Readings come before window 0 and after each closed window.
  if (!closed_at_.empty()) {
    closed_speed_.resize(closed_at_.size(), 0.0);
    closed_speed_[closed_at_.size() - 1] = reading.left;
  }
  opened_speed_.resize(open_ + 1, 0.0);
  opened_speed_[open_] = reading.picked;
}

LatencyHistogram PhaseTiming::All() const {
  LatencyHistogram all;
  for (const LatencyHistogram& w : windows_) all.MergeFrom(w);
  return all;
}

WindowSummary PhaseTiming::Summarize() const {
  WindowSummary out;
  out.windows = closed_at_.size();
  for (const LatencyHistogram& w : windows_) out.samples += w.count();
  std::vector<double> at_reference;
  std::vector<double>& block_tails = out.block_tails;
  LatencyHistogram closed, block;
  for (size_t i = 0; i < closed_at_.size(); ++i) {
    const double width = closed_at_[i] - (i == 0 ? 0.0 : closed_at_[i - 1]);
    const double rate = static_cast<double>(windows_[i].count()) / width;
    const double opened = i < opened_speed_.size() ? opened_speed_[i] : 0.0;
    const double shut = i < closed_speed_.size() ? closed_speed_[i] : 0.0;
    const double speed =
        opened > 0.0 && shut > 0.0 ? (opened + shut) / 2.0 : 1.0;
    out.window_rates.push_back(rate);
    out.window_speeds.push_back(speed);
    at_reference.push_back(rate / speed);
    closed.MergeScaled(windows_[i], speed);
    block.MergeScaled(windows_[i], speed);
    if (block.count() >= kTailBlockSamples) {
      const TailPercentile t = block.Tail();
      if (block_tails.empty() || t.samples < out.tail.samples) out.tail = t;
      block_tails.push_back(t.value);
      block = LatencyHistogram();
    }
  }
  out.ops_per_s = Median(at_reference);
  out.p50_us = closed.Median();
  out.tail_blocks = block_tails.size();
  if (block_tails.empty()) {
    out.tail = closed.Tail();
  } else {
    std::vector<double> sorted = block_tails;
    std::sort(sorted.begin(), sorted.end());
    out.tail.value = sorted[(sorted.size() - 1) / 4];
  }
  return out;
}

const char* OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kOk: return "ok";
    case Outcome::kShed: return "shed";
    case Outcome::kTimeout: return "timeout";
    case Outcome::kTransport: return "transport";
    case Outcome::kMissing: return "missing";
    case Outcome::kWrongByte: return "wrong_byte";
    case Outcome::kErrorStatus: return "error_status";
    case Outcome::kUnsound: return "unsound";
    case Outcome::kMismatch: return "mismatch";
    case Outcome::kCount: break;
  }
  return "?";
}

void Tally::MergeFrom(const Tally& other) {
  attempted += other.attempted;
  for (int i = 0; i < static_cast<int>(Outcome::kCount); ++i) {
    by_outcome[i] += other.by_outcome[i];
  }
}

std::string Tally::FailureSummary() const {
  std::string out;
  for (int i = 1; i < static_cast<int>(Outcome::kCount); ++i) {
    if (by_outcome[i] == 0) continue;
    if (!out.empty()) out += ' ';
    out += OutcomeName(static_cast<Outcome>(i));
    out += '=' + std::to_string(by_outcome[i]);
  }
  return out.empty() ? "none" : out;
}

bool MaskedReplyEqual(const std::string& actual, const std::string& expected) {
  if (actual.size() != expected.size()) return false;
  if (actual.size() <= kReplyCacheHitOffset) return actual == expected;
  const char* a = actual.data();
  const char* e = expected.data();
  return std::memcmp(a + kReplyIdBytes, e + kReplyIdBytes,
                     kReplyCacheHitOffset - kReplyIdBytes) == 0 &&
         std::memcmp(a + kReplyCacheHitOffset + 1,
                     e + kReplyCacheHitOffset + 1,
                     actual.size() - kReplyCacheHitOffset - 1) == 0;
}

uint64_t ReplyId(const std::string& body) {
  if (body.size() < kReplyIdBytes) return 0;
  uint64_t id = 0;
  for (size_t i = 0; i < kReplyIdBytes; ++i) {
    id |= static_cast<uint64_t>(static_cast<unsigned char>(body[i])) << (8 * i);
  }
  return id;
}

Outcome ClassifyReply(const std::string& body, const std::string& expected,
                      uint64_t sent_id) {
  using mapcomp::serve::WireStatus;
  if (body.size() <= kReplyStatusOffset) return Outcome::kTransport;
  auto status = static_cast<uint8_t>(body[kReplyStatusOffset]);
  if (status == static_cast<uint8_t>(WireStatus::kOverloaded)) {
    return Outcome::kShed;
  }
  if (status == static_cast<uint8_t>(WireStatus::kTimeout)) {
    return Outcome::kTimeout;
  }
  if (status != static_cast<uint8_t>(WireStatus::kOk)) {
    return Outcome::kErrorStatus;
  }
  if (ReplyId(body) != sent_id || !MaskedReplyEqual(body, expected)) {
    return Outcome::kWrongByte;
  }
  return Outcome::kOk;
}

uint32_t Tracer::Begin(const char* name, uint64_t op, uint32_t parent) {
  if (!enabled_) return kNoParent;
  spans_.push_back(Span{name, op, parent, Clock::now(), Clock::time_point()});
  return static_cast<uint32_t>(spans_.size() - 1);
}

void Tracer::End(uint32_t span) {
  if (!enabled_ || span == kNoParent) return;
  spans_[span].end = Clock::now();
}

std::vector<double> Tracer::SelfMicros(const std::string& name) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      child_us[s.parent] += MicrosBetween(s.start, s.end);
    }
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    out.push_back(MicrosBetween(spans_[i].start, spans_[i].end) - child_us[i]);
  }
  return out;
}

double Tracer::MedianSelfMicros(const std::string& name) const {
  return Median(SelfMicros(name));
}

bool Tracer::WriteJsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point() : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"op\": %llu, "
                 "\"parent\": %lld, \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 i, s.name, static_cast<unsigned long long>(s.op),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 MicrosBetween(origin, s.start), MicrosBetween(origin, s.end));
  }
  return std::fclose(f) == 0;
}

bool SetupTimes::NeedAnother(double budget_s) const {
  double total = 0.0;
  for (double s : seconds) total += s;
  return seconds.size() < 5 || (total < budget_s && seconds.size() < 1000);
}

double SetupTimes::Seconds() const {
  std::vector<double> at_reference;
  for (size_t i = 0; i < seconds.size() && i < speeds.size(); ++i) {
    at_reference.push_back(seconds[i] * speeds[i]);
  }
  return Median(at_reference);
}

std::string SetupTimes::Note() const {
  if (seconds.empty()) return "setup: no repeats";
  char out[160];
  std::snprintf(out, sizeof(out),
                "setup: %zu repeats, min %.4f s, median %.4f s, max %.4f s "
                "(as measured)",
                seconds.size(),
                *std::min_element(seconds.begin(), seconds.end()),
                Median(seconds),
                *std::max_element(seconds.begin(), seconds.end()));
  return out;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double PeakRssMiB() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ThreadCpuMicros() {
  struct timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

}  // namespace mapbench
