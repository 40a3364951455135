#ifndef MAPBENCH_INPUTS_H_
#define MAPBENCH_INPUTS_H_

// Input generation. Everything here is a pure function of its arguments
// (the workload seed reaches it only through them), so the same seed
// always produces the same problems.

#include <cstdint>
#include <string>
#include <vector>

#include "src/constraints/mapping.h"

namespace mapbench {

/// Seed of every workload's problem corpus (the hot set, the verification
/// batch). The corpus is fixed; the workload seed draws the traffic over
/// it — which problems are requested in what order, the batch order and
/// the soundness instances. Random corpora drawn per seed
/// made each seed's mean problem cost, and with it every timing, swing by
/// 20% from seed to seed.
inline constexpr uint64_t kCorpusSeed = 20060912;

/// One composition task: the problem plus its text in the parser's task
/// format (what parser.bytes_per_s parses).
struct Task {
  std::string name;
  mapcomp::CompositionProblem problem;
  std::string text;
};

/// The 22-problem literature suite, parsed.
std::vector<Task> LiteratureTasks();

/// Shape of generated reconciliation tasks (paper §4.2): σ0 of
/// `schema_size` relations of arity at most `max_arity` evolved along two
/// branches of `num_edits` edits, composed to eliminate σ0.
struct ReconciliationShape {
  int schema_size = 10;
  int num_edits = 10;
  int max_arity = 10;  ///< the simulator's default
};

Task ReconciliationTask(const ReconciliationShape& shape, uint64_t seed);

/// `count` tasks of each shape, seeds derived from `seed`, interleaved by
/// shape.
std::vector<Task> ReconciliationTasks(
    const std::vector<ReconciliationShape>& shapes, int count_per_shape,
    uint64_t seed);

/// The problem in the parser's task format: three schemas (with keys) and
/// two maps. Parsing it yields an equal problem.
std::string ProblemText(const mapcomp::CompositionProblem& problem);

}  // namespace mapbench

#endif  // MAPBENCH_INPUTS_H_
