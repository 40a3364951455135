#ifndef MAPCOMP_EVAL_GENERATOR_H_
#define MAPCOMP_EVAL_GENERATOR_H_

#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/constraints/signature.h"
#include "src/eval/evaluator.h"
#include "src/eval/instance.h"

namespace mapcomp {

/// Parameters for random instance generation (used by property tests and
/// the compose-soundness harness).
struct GenOptions {
  int domain_size = 4;          ///< values drawn from integers 0..domain_size-1
  int max_tuples_per_rel = 5;   ///< uniform 0..max per relation
  bool include_strings = false; ///< also draw from a small string pool
};

/// Uniformly random instance over the signature's relations.
Instance RandomInstance(const Signature& sig, std::mt19937_64* rng,
                        const GenOptions& options = {});

/// Uniformly random instance spanning several signatures at once — the
/// (A,B,C) instances over σ1 ∪ σ2 ∪ σ3 the compose-soundness harness
/// evaluates both the original pipeline and the composed mapping against.
/// A relation named in two signatures keeps the later signature's draw.
Instance RandomInstanceOver(const std::vector<const Signature*>& sigs,
                            std::mt19937_64* rng,
                            const GenOptions& options = {});

/// One RandomInstanceOver draw, kept as indices into the generator's
/// alphabet instead of values: index k < domain_size is the integer k, and
/// under include_strings index domain_size + s is the string "a", "b" or
/// "c" (s = 0, 1, 2).
struct InstanceDraw {
  /// Tuples drawn for each relation, in draw order.
  std::vector<int> rows;
  /// Every drawn tuple's alphabet indices, row-major, relation after
  /// relation in draw order; duplicate tuples are kept.
  std::vector<uint32_t> cells;
};

/// RandomInstanceOver drawn as alphabet indices and encoded straight into
/// ids, for the soundness check: its caller draws every instance in index
/// order (Draw allocates no value, tuple or set), and each lane encodes
/// its own (Encode). Immutable after construction, so any thread may call
/// either.
class InstanceGenerator {
 public:
  /// `sigs` (nulls skipped) need not outlive the generator. The schema
  /// numbers the signatures' relations in order, then any other relation
  /// a leaf under `roots` names, and resolves every relation leaf under
  /// `roots` (the check's constraint sides).
  InstanceGenerator(const std::vector<const Signature*>& sigs,
                    const GenOptions& options,
                    const std::set<Value>& extra_constants,
                    const std::vector<ExprPtr>& roots = {});

  /// Makes exactly the rng calls RandomInstanceOver(sigs, rng, options)
  /// makes, in the same order, and records what they drew.
  InstanceDraw Draw(std::mt19937_64* rng) const;

  /// The instance `draw` denotes, encoded: the same relations, tuples and D
  /// as EncodedInstance(RandomInstanceOver(...), extra_constants). It
  /// shares the generator's schema, and its dictionary shares the
  /// generator's one seed tier, the whole alphabet plus the extra constants
  /// (so it grows with domain_size), and mints into a tier of its own; D is
  /// the values that occur plus the extra constants. Its relations are one
  /// vector, filled by id; every empty relation is the generator's one
  /// empty arity-0 table, and a name drawn twice keeps its later draw, as
  /// in RandomInstanceOver.
  EncodedInstance Encode(const InstanceDraw& draw) const;

  const EncodedInstance::SchemaPtr& schema() const { return schema_; }

 private:
  GenOptions options_;
  EncodedInstance::SchemaPtr schema_;
  /// Every relation drawn, in draw order: schema id and arity.
  std::vector<std::pair<int, int>> relations_;
  /// What every empty relation of every encoded instance holds.
  std::shared_ptr<const TupleTable> empty_;
  /// The seed tier every encoded instance's dictionary shares: the
  /// alphabet plus the extra constants.
  std::shared_ptr<const ValueDict::SeedTier> seed_;
  /// Each alphabet index's id under that seed.
  std::vector<ValueId> alphabet_ids_;
  /// The extra constants' ids under that seed.
  std::vector<ValueId> extra_ids_;
};

/// The soundness check's pass budget for repairing an instance towards the
/// original pipeline (RunFeedFixpoint).
inline constexpr int kRepairPasses = 16;

}  // namespace mapcomp

#endif  // MAPCOMP_EVAL_GENERATOR_H_
