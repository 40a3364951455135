#ifndef MAPBENCH_HARNESS_H_
#define MAPBENCH_HARNESS_H_

// The benchmark's own logic, kept apart from the workloads so
// mapbench_selftest can pin it: the tail-percentile rule, failure
// accounting, the masked reply comparison, spans and the result line.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mapbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

// ---------------------------------------------------------- percentiles ---

/// Median (nearest-rank) of unsorted samples; 0 when empty.
double Median(std::vector<double> samples);

/// The tail rule: the highest percentile from {99, 98, 97, 96, 95, 90, 75,
/// 50} that has at least ten samples strictly beyond its nearest-rank
/// position; with fewer than 20 samples no candidate qualifies and the
/// maximum is reported, with no samples beyond it.
struct TailPercentile {
  double value = 0.0;
  int percentile = 0;   ///< which percentile `value` is (100 = the maximum)
  size_t samples = 0;   ///< total samples
  size_t beyond = 0;    ///< samples strictly after its rank position
};
/// The rule applied to `n` samples: `value` is left 0, `beyond` says which
/// 0-based sorted index the percentile sits at (n - 1 - beyond).
TailPercentile TailRank(size_t n);

/// Latency samples in fixed memory: logarithmic buckets 1% wide from 1 µs
/// to 100 s. A value read back is interpolated inside its bucket by rank,
/// so it is within 1% of the exact sample at that rank. Keeping a counter
/// per bucket instead of every sample keeps the benchmark's own memory out
/// of peak_rss_mb, whatever the throughput.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(double us);
  void MergeFrom(const LatencyHistogram& other);
  /// Adds `other`'s samples, each multiplied by `factor` (to within the
  /// 1% bucket width).
  void MergeScaled(const LatencyHistogram& other, double factor);
  uint64_t count() const { return count_; }
  /// The sample at 0-based sorted index `index` (< count()).
  double ValueAt(uint64_t index) const;
  double Median() const;
  TailPercentile Tail() const;

 private:
  std::vector<uint32_t> buckets_;
  uint64_t count_ = 0;
};

/// Finds the least contended CPUs of a shared host, keeps the workload on
/// them, and measures how fast they ran.
///
/// On a shared host each vCPU's speed moves by up to 2x within a second,
/// independently of the other vCPUs, as the physical core under it is or
/// is not shared with another tenant's work, and how much of that a run
/// meets changes from run to run. The gauge runs a fixed kernel (eight
/// independent xorshift chains updating a 32 KiB table) for about 1 ms on
/// one thread pinned to each CPU at once, and ranks the CPUs by its rate
/// over kGaugeReferenceRate (about 1 on a quiet core). A reading moves the
/// process's threads to the fastest CPUs, and reports the speed of the CPUs
/// it leaves (the ones the work just ran on) and of those it picks. The
/// workloads read it with no work in flight — before each set-up repeat and
/// after it, before the measured phase and after each window — and keep its
/// time off the phase clock. The kernel is the benchmark's own code: a
/// change to mapcomp does not move it.
class CoreGauge {
 public:
  /// Speeds of the CPUs a reading left and of those it picked (mean over
  /// the set; 0 for the left ones when nothing was pinned before).
  struct Reading {
    double left = 0.0;
    double picked = 0.0;
  };

  /// One lane per CPU the process may run on now.
  CoreGauge();
  size_t cpus() const { return cpus_.size(); }

  /// Pins every thread of the process to the `count` fastest CPUs.
  Reading PinFastest(size_t count);
  /// Pins every thread of the process to the fastest CPU, and the calling
  /// thread apart from them to the second fastest (the same one when there
  /// is only one CPU). The speeds are those of the fastest CPU: the other
  /// threads' work is what a request waits for.
  Reading PinApart();
  /// Reads the CPUs last picked without moving anything; `left` and
  /// `picked` are both their speed now.
  Reading Check();
  /// Pins every thread of the process back to every CPU.
  void Unpin();

  /// Each reading's fastest and slowest CPU speed, for the notes.
  const std::vector<std::pair<double, double>>& history() const {
    return history_;
  }

 private:
  /// Runs the kernel on every CPU at once; returns each CPU's speed, in the
  /// order of cpus_.
  std::vector<double> Measure();
  /// Measure(); picks the `count` fastest CPUs and puts every CPU in
  /// `ranked`, fastest first.
  Reading Pick(size_t count, std::vector<int>* ranked);

  std::vector<int> cpus_;
  std::vector<size_t> picked_;  ///< indices into cpus_ the work runs on
  std::vector<std::vector<uint64_t>> tables_;  ///< one per lane
  std::vector<std::pair<double, double>> history_;
};

/// Pins every thread of this process to `cpus` (threads started later
/// inherit the mask of the thread that starts them).
void PinProcess(const std::vector<int>& cpus);
/// Pins the calling thread to `cpus`.
void PinSelf(const std::vector<int>& cpus);

/// Timing of one measured phase, cut into windows of whole units of work:
/// a window closes at the first unit boundary at least `window_seconds`
/// after it opened. A unit is whatever the workload repeats — one request
/// on serve_hot, one batch on verify_batch — so every window holds whole
/// units and its rate is not the mix of a cut unit. Each window has its own
/// histogram, all allocated before the phase starts. The window still open
/// when the phase ends holds a cut unit; its samples count in `samples` and
/// All(), not in the summary.
///
/// Each window carries the speed of the CPUs it ran on: the mean of the
/// gauge's reading as it opened and as it closed (1 without both). The
/// summary gives the program on CPUs of the reference speed, over the
/// closed windows, each sample multiplied by its window's speed:
/// `ops_per_s` is the median of rate ÷ speed and `p50_us` the median of
/// all their samples. The tail is taken per block — consecutive windows
/// with at least kTailBlockSamples samples between them, so the tail rule
/// gives p99 in each — and `tail` is the lower quartile of the blocks'
/// tails. The gauge reads the CPUs between windows, not during them; a
/// contended spell inside a window, which the speed does not see, lands
/// in its block's tail. How many blocks a run has with such spells changes
/// with the host's load, and moved the median block's tail by 0.23 over
/// three runs; the lower quartile, 0.11.
inline constexpr uint64_t kTailBlockSamples = 1000;

struct WindowSummary {
  double ops_per_s = 0.0;
  double p50_us = 0.0;
  TailPercentile tail;             ///< value: the blocks' lower quartile;
                                   ///< the rest: the rule in the smallest
  size_t tail_blocks = 0;          ///< 0: too few samples for a block, the
                                   ///< tail is that of all of them
  size_t windows = 0;              ///< closed windows
  uint64_t samples = 0;            ///< over the whole phase
  std::vector<double> window_rates;   ///< ops/s of each closed window
  std::vector<double> window_speeds;  ///< speed of the CPUs under it
  std::vector<double> block_tails;    ///< each block's tail, in order
};

class PhaseTiming {
 public:
  /// Windows of at least `window_seconds` for a phase planned to last
  /// `planned_seconds`: room for the plan's worth of them plus two, at most
  /// 402. Once the last one is open it stays open.
  PhaseTiming(double planned_seconds, double window_seconds);
  /// One correct op, into the open window.
  void Add(double latency_us);
  /// Whether a unit boundary `at_s` seconds into the phase would close the
  /// open window.
  bool Due(double at_s) const;
  /// A unit of work ended `at_s` seconds into the phase. Returns true when
  /// it closed the open window.
  bool Boundary(double at_s);
  /// A gauge reading taken with no work in flight: before the first window,
  /// or right after a window closed.
  void Gauge(const CoreGauge::Reading& reading);
  WindowSummary Summarize() const;
  /// Every window's samples together, as measured.
  LatencyHistogram All() const;

 private:
  double width_s_;
  size_t open_ = 0;                ///< index of the open window
  std::vector<double> closed_at_;  ///< end of each closed window
  std::vector<double> opened_speed_, closed_speed_;  ///< per window
  std::vector<LatencyHistogram> windows_;
};

/// Phase time with the pauses between windows left out.
class PhaseClock {
 public:
  PhaseClock() : start_(Clock::now()) {}
  /// Seconds since the phase started, less the pauses.
  double Active(Clock::time_point at) const {
    return std::chrono::duration<double>(at - start_).count() - paused_s_;
  }
  double Active() const { return Active(Clock::now()); }
  /// Runs `fn` (a gauge reading) off the clock and hands its reading to
  /// `timing`.
  template <typename Fn>
  void Read(PhaseTiming* timing, Fn fn) {
    const Clock::time_point t0 = Clock::now();
    timing->Gauge(fn());
    paused_s_ += SecondsSince(t0);
  }

 private:
  Clock::time_point start_;
  double paused_s_ = 0.0;
};

// ----------------------------------------------------- failure counting ---

/// Why one attempted operation did not count as correct. Every attempted op
/// lands in exactly one bucket, so failed = attempted - ok by construction.
enum class Outcome {
  kOk,
  kShed,          ///< kOverloaded reply
  kTimeout,       ///< kTimeout reply
  kTransport,     ///< connection error or undecodable frame
  kMissing,       ///< no reply before the run's drain deadline
  kWrongByte,     ///< kOk reply whose bytes differ from the expected body
  kErrorStatus,   ///< any other error status (wire status or Status)
  kUnsound,       ///< soundness violation found by CheckComposition
  kMismatch,      ///< ComposeMany result differs from a sequential Compose
  kCount,
};
const char* OutcomeName(Outcome o);

struct Tally {
  uint64_t attempted = 0;
  uint64_t by_outcome[static_cast<int>(Outcome::kCount)] = {};

  void Record(Outcome o) {
    ++attempted;
    ++by_outcome[static_cast<int>(o)];
  }
  uint64_t ok() const { return by_outcome[static_cast<int>(Outcome::kOk)]; }
  uint64_t failed() const { return attempted - ok(); }
  uint64_t count(Outcome o) const { return by_outcome[static_cast<int>(o)]; }
  double FailedShare() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
  void MergeFrom(const Tally& other);
  /// "shed=1 missing=2" for the non-zero failure buckets.
  std::string FailureSummary() const;
};

// ----------------------------------------------------------- reply mask ---

/// Byte layout of a kOk ServeReply body (src/serve/serve_types.cc):
/// u64 request_id, u8 status, u32 message length + message (empty on kOk),
/// u8 cache_hit, then the result. The mask covers exactly the two fields
/// that legitimately differ between the expected body built in set-up and
/// the body the server sends: request_id and cache_hit.
inline constexpr size_t kReplyIdBytes = 8;
inline constexpr size_t kReplyStatusOffset = 8;
inline constexpr size_t kReplyCacheHitOffset = 13;  // with an empty message

/// Equal sizes and equal bytes everywhere except [0, 8) and byte 13.
bool MaskedReplyEqual(const std::string& actual, const std::string& expected);

/// Classifies one reply body against its expected kOk body and the id the
/// request carried. Only the status byte is decoded; nothing is parsed.
Outcome ClassifyReply(const std::string& body, const std::string& expected,
                      uint64_t sent_id);

/// Little-endian u64 at the start of `body` (0 when shorter than 8 bytes).
uint64_t ReplyId(const std::string& body);

// ---------------------------------------------------------------- spans ---

/// Spans recorded around calls into the library, kept in memory and written
/// out when the run ends. A span's self time is its duration minus the
/// durations of its direct children.
class Tracer {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index (kNoParent when disabled).
  uint32_t Begin(const char* name, uint64_t op, uint32_t parent = kNoParent);
  void End(uint32_t span);

  /// Self-time samples (µs) of every closed span named `name`.
  std::vector<double> SelfMicros(const std::string& name) const;
  /// Median self time (µs) of spans named `name`; 0 when there are none.
  double MedianSelfMicros(const std::string& name) const;

  size_t size() const { return spans_.size(); }
  /// Writes one JSON object per span; returns false on an I/O error.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t op;
    uint32_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t op,
             uint32_t parent = Tracer::kNoParent)
      : tracer_(tracer), id_(tracer->Begin(name, op, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

// ---------------------------------------------------------- the result ---

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Set-up is timed in two blocks: before the measured phase, at least 5
/// repeats and until `kSetupSecondsBefore` of set-up has been timed; after
/// it (untraced runs), more repeats until `kSetupSeconds` in all. At most
/// 1000 repeats. Each runs on the two fastest CPUs, and the gauge reads
/// them before and after it.
inline constexpr double kSetupSecondsBefore = 1.5;
inline constexpr double kSetupSeconds = 3.0;

struct SetupTimes {
  std::vector<double> seconds;  ///< wall time of each repeat
  std::vector<double> speeds;   ///< speed of the CPUs it ran on

  bool NeedAnother(double budget_s) const;
  /// setup_s: the median over the repeats of seconds × speed, the set-up
  /// time on CPUs of the reference speed.
  double Seconds() const;
  /// "setup: 12 repeats, min 0.21 s, median 0.25 s, max 0.31 s (as
  /// measured)".
  std::string Note() const;
};

/// Times one set-up on the two fastest CPUs.
template <typename Fn>
void TimeSetup(CoreGauge* gauge, SetupTimes* times, Fn fn) {
  const double before = gauge->PinFastest(2).picked;
  const Clock::time_point start = Clock::now();
  fn();
  times->seconds.push_back(SecondsSince(start));
  const double speed = (before + gauge->Check().left) / 2.0;
  times->speeds.push_back(speed > 0.0 ? speed : 1.0);  // 0: no CPU read
}

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

/// Peak resident set of this process so far, in MiB.
double PeakRssMiB();
/// CPU time consumed by the calling thread, in µs.
double ThreadCpuMicros();

}  // namespace mapbench

#endif  // MAPBENCH_HARNESS_H_
