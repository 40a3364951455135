#include "src/eval/generator.h"

#include "src/common/rand.h"
#include "src/eval/checker.h"
#include "src/eval/materialize.h"

namespace mapcomp {

namespace {

void FillRandom(const Signature& sig, std::mt19937_64* rng,
                const GenOptions& options, Instance* out) {
  static const char* kStrings[] = {"a", "b", "c"};
  // Draws go through the shared rnd::UniformIndex helper (same underlying
  // distribution, so generated instances are unchanged for a given seed).
  for (const std::string& name : sig.names()) {
    int r = sig.ArityOf(name);
    int n = rnd::UniformIndex(rng, options.max_tuples_per_rel + 1);
    std::set<Tuple> tuples;
    for (int i = 0; i < n; ++i) {
      Tuple t;
      t.reserve(r);
      for (int j = 0; j < r; ++j) {
        if (options.include_strings && rnd::UniformIndex(rng, 4) == 0) {
          t.emplace_back(std::in_place_type<std::string>,
                         kStrings[rnd::UniformIndex(rng, 3)]);
        } else {
          t.emplace_back(std::in_place_type<int64_t>,
                         rnd::UniformIndex(rng, options.domain_size));
        }
      }
      tuples.insert(std::move(t));
    }
    out->Set(name, std::move(tuples));
  }
}

}  // namespace

Instance RandomInstance(const Signature& sig, std::mt19937_64* rng,
                        const GenOptions& options) {
  Instance out;
  FillRandom(sig, rng, options, &out);
  return out;
}

Instance RandomInstanceOver(const std::vector<const Signature*>& sigs,
                            std::mt19937_64* rng, const GenOptions& options) {
  Instance out;
  for (const Signature* sig : sigs) {
    if (sig != nullptr) FillRandom(*sig, rng, options, &out);
  }
  return out;
}

Result<Instance> RandomInstanceSatisfying(const Signature& sig,
                                          const ConstraintSet& cs,
                                          std::mt19937_64* rng, int attempts,
                                          const GenOptions& options) {
  for (int i = 0; i < attempts; ++i) {
    Instance candidate = RandomInstance(sig, rng, options);
    MAPCOMP_ASSIGN_OR_RETURN(bool sat, SatisfiesAll(candidate, cs));
    if (sat) return candidate;
  }
  return Status::NotFound("no satisfying instance within attempt budget");
}

Instance RepairTowards(const Instance& instance, const ConstraintSet& cs,
                       const EvalOptions& options, int max_iterations) {
  // Every bare receiving side is a feed; an equality with a bare side
  // *defines* that relation, so the repair assigns it (random extra tuples
  // would break S ⊆ E forever) while containments only grow their target.
  Instance out = instance;
  RunFeedFixpoint(&out,
                  FeedPlan::ForConstraints(cs, /*keep=*/nullptr,
                                           /*assign_equalities=*/true),
                  options, max_iterations, /*stats=*/nullptr);
  return out;
}

}  // namespace mapcomp
