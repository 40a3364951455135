#include "src/common/fault.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace mapcomp {
namespace common {
namespace fault {

const char* FaultPointName(FaultPoint point) {
  switch (point) {
    case FaultPoint::kSlowElimination:
      return "SlowElimination";
    case FaultPoint::kAllocFailInterner:
      return "AllocFailInterner";
    case FaultPoint::kSocketResetAfterNBytes:
      return "SocketResetAfterNBytes";
    case FaultPoint::kSlowEvalSlot:
      return "SlowEvalSlot";
    case FaultPoint::kCount:
      break;
  }
  return "Unknown";
}

#if defined(MAPCOMP_FAULT_POINTS)

namespace {

struct PointState {
  std::atomic<bool> armed{false};
  std::atomic<uint64_t> arg{0};
  std::atomic<uint64_t> trigger_after{0};
  std::atomic<uint64_t> hits{0};
};

PointState g_points[static_cast<int>(FaultPoint::kCount)];

PointState& StateOf(FaultPoint point) {
  return g_points[static_cast<int>(point)];
}

}  // namespace

bool Hit(FaultPoint point) {
  PointState& s = StateOf(point);
  if (!s.armed.load(std::memory_order_acquire)) return false;
  uint64_t n = s.hits.fetch_add(1, std::memory_order_relaxed);
  return n >= s.trigger_after.load(std::memory_order_relaxed);
}

uint64_t Arg(FaultPoint point) {
  return StateOf(point).arg.load(std::memory_order_relaxed);
}

bool Armed(FaultPoint point) {
  return StateOf(point).armed.load(std::memory_order_acquire);
}

uint64_t HitCount(FaultPoint point) {
  return StateOf(point).hits.load(std::memory_order_relaxed);
}

void MaybeSleep(FaultPoint point) {
  if (!Hit(point)) return;
  uint64_t ms = Arg(point);
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

ScopedFault::ScopedFault(FaultPoint point, uint64_t arg,
                         uint64_t trigger_after)
    : point_(point) {
  PointState& s = StateOf(point);
  if (s.armed.load(std::memory_order_acquire)) {
    std::fprintf(stderr, "ScopedFault: point %s armed twice\n",
                 FaultPointName(point));
    std::abort();
  }
  s.arg.store(arg, std::memory_order_relaxed);
  s.trigger_after.store(trigger_after, std::memory_order_relaxed);
  s.hits.store(0, std::memory_order_relaxed);
  s.armed.store(true, std::memory_order_release);
}

ScopedFault::~ScopedFault() {
  StateOf(point_).armed.store(false, std::memory_order_release);
}

#else  // !MAPCOMP_FAULT_POINTS

ScopedFault::ScopedFault(FaultPoint point, uint64_t, uint64_t)
    : point_(point) {}
ScopedFault::~ScopedFault() = default;

#endif  // MAPCOMP_FAULT_POINTS

}  // namespace fault
}  // namespace common
}  // namespace mapcomp
