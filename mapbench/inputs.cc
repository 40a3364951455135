#include "inputs.h"

#include <utility>

#include "src/common/rand.h"
#include "src/parser/parser.h"
#include "src/simulator/scenarios.h"
#include "src/testdata/literature_suite.h"

namespace mapbench {

using mapcomp::CompositionProblem;
using mapcomp::Signature;

std::vector<Task> LiteratureTasks() {
  mapcomp::Parser parser;
  std::vector<Task> out;
  for (const mapcomp::testdata::LiteratureProblem& lit :
       mapcomp::testdata::LiteratureSuite()) {
    mapcomp::Result<CompositionProblem> parsed = parser.ParseProblem(lit.text);
    if (!parsed.ok()) continue;
    out.push_back(Task{lit.name, std::move(*parsed), lit.text});
  }
  return out;
}

Task ReconciliationTask(const ReconciliationShape& shape, uint64_t seed) {
  mapcomp::sim::ReconciliationScenarioOptions opts;
  opts.schema_size = shape.schema_size;
  opts.num_edits = shape.num_edits;
  opts.simulator.primitives.max_arity = shape.max_arity;
  opts.seed = seed;
  opts.max_branch_attempts = 2;
  Task task;
  task.name = "recon-" + std::to_string(shape.schema_size) + "-" +
              std::to_string(seed);
  task.problem = mapcomp::sim::BuildReconciliationProblem(opts);
  task.text = ProblemText(task.problem);
  return task;
}

std::vector<Task> ReconciliationTasks(
    const std::vector<ReconciliationShape>& shapes, int count_per_shape,
    uint64_t seed) {
  std::vector<Task> out;
  uint64_t stream = 0;
  for (int i = 0; i < count_per_shape; ++i) {
    for (const ReconciliationShape& shape : shapes) {
      out.push_back(
          ReconciliationTask(shape, mapcomp::rnd::DeriveSeed(seed, stream++)));
    }
  }
  return out;
}

namespace {

void AppendSchema(const char* name, const Signature& sig, std::string* out) {
  *out += "schema ";
  *out += name;
  *out += " {";
  for (const std::string& rel : sig.names()) {
    *out += ' ' + rel + '(' + std::to_string(sig.ArityOf(rel)) + ')';
    if (std::optional<std::vector<int>> key = sig.KeyOf(rel)) {
      *out += " key(";
      for (size_t i = 0; i < key->size(); ++i) {
        if (i > 0) *out += ',';
        *out += std::to_string((*key)[i]);
      }
      *out += ')';
    }
    *out += ';';
  }
  *out += " }\n";
}

}  // namespace

std::string ProblemText(const CompositionProblem& problem) {
  std::string out;
  AppendSchema("s1", problem.sigma1, &out);
  AppendSchema("s2", problem.sigma2, &out);
  AppendSchema("s3", problem.sigma3, &out);
  out += "map m12 {\n" + mapcomp::ConstraintSetToString(problem.sigma12) +
         "}\n";
  out += "map m23 {\n" + mapcomp::ConstraintSetToString(problem.sigma23) +
         "}\n";
  if (!problem.elimination_order.empty()) {
    out += "order ";
    for (size_t i = 0; i < problem.elimination_order.size(); ++i) {
      if (i > 0) out += ", ";
      out += problem.elimination_order[i];
    }
    out += ";\n";
  }
  return out;
}

}  // namespace mapbench
