#ifndef MAPCOMP_RUNTIME_COMPOSE_MANY_H_
#define MAPCOMP_RUNTIME_COMPOSE_MANY_H_

#include <vector>

#include "src/compose/compose.h"

namespace mapcomp {
namespace runtime {

/// Composes a batch of independent composition problems, fanning them
/// across `jobs` lanes (the calling thread plus up to jobs - 1 workers of
/// GlobalPool()). Results come back in input order, and every field
/// except the wall-clock timings is identical whatever `jobs` is: each
/// problem is composed by the deterministic single-problem driver,
/// problems share no mutable state beyond the thread-safe expression
/// interner, and worker assignment only decides *who* computes a slot,
/// never *what* lands in it (compare CompositionResult::Fingerprint across
/// runs to check).
///
/// jobs <= 1 composes sequentially on the calling thread; jobs == 0 is
/// treated as 1. Pass ThreadPool::HardwareThreads() to use every core.
std::vector<CompositionResult> ComposeMany(
    const std::vector<CompositionProblem>& problems,
    const ComposeOptions& options = {}, int jobs = 1);

}  // namespace runtime
}  // namespace mapcomp

#endif  // MAPCOMP_RUNTIME_COMPOSE_MANY_H_
