#ifndef MAPCOMP_COMMON_FAULT_H_
#define MAPCOMP_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>

// Deterministic fault-injection points. Tests arm a point with ScopedFault
// and the wired-in production sites (each elimination, the interner's
// allocation path, the server's socket write path, eval nodes) then fail or
// stall in a reproducible way — trigger counts and arguments, never
// randomness, decide when a fault fires, so a failing run replays exactly.
//
// Cost when unarmed: one relaxed atomic load per check. Compiled to
// constant-false no-ops in Release unless MAPCOMP_FAULT_POINTS is defined
// (Debug builds and -DMAPCOMP_FAULT_INJECTION=ON define it; the ASan CI
// job turns it on explicitly so the fault suite runs sanitized in Release).

#if !defined(MAPCOMP_FAULT_POINTS) && !defined(NDEBUG)
#define MAPCOMP_FAULT_POINTS 1
#endif

namespace mapcomp {
namespace common {
namespace fault {

enum class FaultPoint : int {
  kSlowElimination = 0,       // arg = sleep ms before each elimination
  kAllocFailInterner,         // throws std::bad_alloc on the Nth intern
  kSocketResetAfterNBytes,    // arg = server-side reply bytes before reset
  kSlowEvalSlot,              // arg = sleep ms before each computed eval node
  kCount,
};

const char* FaultPointName(FaultPoint point);

#if defined(MAPCOMP_FAULT_POINTS)

constexpr bool kFaultPointsCompiled = true;

/// True when `point` is armed and this hit is at or past the trigger
/// threshold. Every call on an armed point increments its hit counter, so
/// trigger_after=N fires on the (N+1)th and all later hits.
bool Hit(FaultPoint point);

/// The argument the point was armed with (0 when unarmed).
uint64_t Arg(FaultPoint point);

/// True when the point is armed at all (cheap pre-check for sites that
/// need per-call bookkeeping only while a fault is active).
bool Armed(FaultPoint point);

/// Hits observed since arming (armed points only; 0 otherwise).
uint64_t HitCount(FaultPoint point);

/// Convenience for slow-path faults: if Hit(point), sleep Arg(point) ms.
void MaybeSleep(FaultPoint point);

#else  // !MAPCOMP_FAULT_POINTS — everything folds to constants.

constexpr bool kFaultPointsCompiled = false;

inline bool Hit(FaultPoint) { return false; }
inline uint64_t Arg(FaultPoint) { return 0; }
inline bool Armed(FaultPoint) { return false; }
inline uint64_t HitCount(FaultPoint) { return 0; }
inline void MaybeSleep(FaultPoint) {}

#endif  // MAPCOMP_FAULT_POINTS

/// RAII arming of one fault point. Only one ScopedFault per point may be
/// live at a time (tests are serial; nesting aborts). On a build without
/// fault points compiled in, arming is a no-op — tests should check
/// kFaultPointsCompiled and skip.
///
///   ScopedFault slow(FaultPoint::kSlowElimination, /*arg=*/20);
///   ScopedFault alloc(FaultPoint::kAllocFailInterner,
///                     /*arg=*/0, /*trigger_after=*/100);
class ScopedFault {
 public:
  explicit ScopedFault(FaultPoint point, uint64_t arg = 0,
                       uint64_t trigger_after = 0);
  ~ScopedFault();

  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

  uint64_t hits() const { return HitCount(point_); }

 private:
  FaultPoint point_;
};

}  // namespace fault
}  // namespace common
}  // namespace mapcomp

#endif  // MAPCOMP_COMMON_FAULT_H_
