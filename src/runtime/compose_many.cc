#include "src/runtime/compose_many.h"

#include "src/algebra/interner.h"
#include "src/runtime/thread_pool.h"

namespace mapcomp {
namespace runtime {

std::vector<CompositionResult> ComposeMany(
    const std::vector<CompositionProblem>& problems,
    const ComposeOptions& options, int jobs) {
  std::vector<CompositionResult> results(problems.size());
  if (problems.empty()) return results;

  // Pre-size the interner shards once for the whole batch (input operator
  // count is a reasonable node-count proxy), so workers do not pay for
  // table rebuilds mid-flight.
  size_t expected_nodes = 0;
  for (const CompositionProblem& p : problems) {
    expected_nodes += static_cast<size_t>(OperatorCount(p.sigma12)) +
                      static_cast<size_t>(OperatorCount(p.sigma23));
  }
  ExprInterner::Global().Reserve(expected_nodes);

  // The calling thread is one of the `jobs` lanes, and composes every
  // problem itself, in order, when there is one lane or one problem.
  // Helpers come from the shared process-wide pool (a pool per batch cost
  // a thread spawn/join per call and over-subscribed the machine when
  // batches overlapped); a one-lane batch never creates it.
  ParallelFor(
      jobs > 1 ? GlobalPool() : nullptr,
      static_cast<int64_t>(problems.size()),
      [&](int64_t i) {
        results[static_cast<size_t>(i)] =
            Compose(problems[static_cast<size_t>(i)], options);
      },
      jobs - 1);
  return results;
}

}  // namespace runtime
}  // namespace mapcomp
