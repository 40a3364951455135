#ifndef MAPCOMP_ALGEBRA_INTERNER_H_
#define MAPCOMP_ALGEBRA_INTERNER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/algebra/expr.h"

namespace mapcomp {

/// Point-in-time snapshot of interner behavior, taken without stopping the
/// world (each shard is locked briefly in turn, so concurrent mutators may
/// land between shards; totals are exact per shard, approximate globally).
struct InternerStats {
  struct ShardStats {
    size_t entries = 0;   ///< occupied slots, including unswept garbage
    size_t capacity = 0;  ///< slot-array size
    uint64_t hits = 0;    ///< Intern() calls answered by an existing node
    uint64_t misses = 0;  ///< Intern() calls that created a node
    uint64_t sweeps = 0;  ///< rebuilds (growth- or Sweep-triggered)
  };
  std::vector<ShardStats> shards;
  /// Intern() calls answered by an ExprBuilder's local cache without
  /// touching any shard (process-wide total).
  uint64_t builder_hits = 0;

  size_t entries() const;
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t sweeps() const;
  std::string ToString() const;
};

/// Hash-consing table behind `Expr::Make`. Structurally equal nodes are
/// canonicalized to a single object, which makes ExprPtr pointer equality
/// coincide with structural equality and lets per-node analyses be computed
/// once at interning time.
///
/// Because every Expr is built through Make, children of a candidate node
/// are already interned, so the table only ever compares nodes *shallowly*:
/// scalar fields by value and children by pointer.
///
/// Storage is lock-striped across `kNumShards` independent shards selected
/// by the top bits of the structural hash, so concurrent construction on
/// different threads only contends when two nodes land in the same shard.
/// Each shard is a flat open-addressing table (linear probing, power-of-two
/// capacity, load factor <= 1/2) keyed by the full structural hash; the slot
/// index uses the low hash bits, independent of the shard-selection bits.
/// A shard holds strong references; garbage is reclaimed when it rebuilds:
/// entries whose only remaining reference is the table itself are dropped
/// during every rehash. Only Sweep erases entries outside a rebuild, by
/// backward shifting, so probe sequences need no tombstones. This keeps
/// both node creation and node destruction free of per-node bookkeeping
/// beyond one probe, at the cost of retaining dead nodes until the next
/// rebuild.
class ExprInterner {
 public:
  /// Shard count. Power of two; 16 is enough stripes that 8 construction
  /// threads rarely collide while keeping the empty-table footprint small.
  static constexpr size_t kNumShards = 16;

  /// The process-wide interner used by Expr::Make. Intentionally leaked so
  /// expressions held in static storage can be destroyed safely at exit.
  static ExprInterner& Global();

  ExprInterner();

  /// Returns the canonical node for the given structure, creating and
  /// caching it if no structurally equal node is cached. Consults the
  /// calling thread's active ExprBuilder cache (if any) before locking the
  /// shard.
  ExprPtr Intern(ExprKind kind, std::string name, std::vector<ExprPtr> children,
                 Condition condition, std::vector<int> indexes, int arity,
                 std::vector<Tuple> tuples);

  /// Number of cached nodes across all shards, including garbage not yet
  /// reclaimed (for tests and diagnostics).
  size_t size() const;

  /// Immediately drops every cached node not referenced outside the table
  /// or by another such node, in time linear in the garbage plus one
  /// rebuild of each shard. Dropping a parent in one shard releases
  /// children that may live in any other; they are erased from their
  /// slots as their parents go.
  void Sweep();

  /// Grows every shard so that `expected_new_nodes` additional insertions
  /// (distributed by hash) cannot trigger a mid-batch rebuild.
  void Reserve(size_t expected_new_nodes);

  /// Observability snapshot (per-shard entries, hit/miss/sweep totals).
  InternerStats Stats() const;

 private:
  friend class ExprBuilder;

  struct Slot {
    size_t hash = 0;
    ExprPtr node;  ///< null = empty slot
  };

  struct Shard {
    mutable std::mutex mu;
    std::vector<Slot> slots;
    size_t mask = 0;        ///< capacity - 1 (capacity is a power of two)
    size_t count = 0;       ///< occupied slots
    size_t rebuild_at = 0;  ///< occupancy that triggers the next rebuild
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t sweeps = 0;
  };

  static size_t ShardIndex(size_t hash) {
    // Slot probing consumes the low bits (hash & mask); shard selection
    // uses the top byte so the two are independent.
    return (hash >> (sizeof(size_t) * 8 - 8)) & (kNumShards - 1);
  }

  /// Rebuilds `shard` sized to its live entries (plus optional headroom
  /// for expected insertions), dropping table-only ones. Called under
  /// shard.mu.
  void RehashLocked(Shard& shard, size_t extra_headroom = 0);

  /// Probe-or-insert with a precomputed structural hash. Called by Intern
  /// and by ExprBuilder on a local-cache miss.
  ExprPtr InternWithHash(size_t hash, ExprKind kind, std::string name,
                         std::vector<ExprPtr> children, Condition condition,
                         std::vector<int> indexes, int arity,
                         std::vector<Tuple> tuples);

  std::array<Shard, kNumShards> shards_;
  std::atomic<uint64_t> builder_hits_{0};
};

/// RAII batch-construction scope that amortizes interner costs. While an
/// ExprBuilder is alive on a thread, every `Expr::Make` on that thread first
/// probes a direct-mapped thread-local cache — no lock, no shared state —
/// and only falls through to the sharded table on a local miss; the
/// canonical node is then recorded locally so the next structurally equal
/// construction in the batch skips the shard entirely. Construction-heavy
/// phases (COMPOSE substitutions, simulator edits) repeat small nodes (base
/// relations, common selections) constantly, which is exactly what a
/// direct-mapped cache captures.
///
/// The cache storage itself is thread-local and reused across batches, so
/// opening a scope costs nothing; each builder remembers which cache lines
/// it populated first and releases exactly those when it is destroyed
/// (entries hold strong references, so nodes cached by an active batch
/// cannot be reclaimed by a concurrent Sweep). Scopes nest — an inner scope
/// sees and may overwrite the outer one's lines, which is sound because
/// every cached node is canonical and verified structurally before reuse.
/// A builder must only be used on the thread that created it.
class ExprBuilder {
 public:
  explicit ExprBuilder(ExprInterner* interner = &ExprInterner::Global());
  ~ExprBuilder();

  ExprBuilder(const ExprBuilder&) = delete;
  ExprBuilder& operator=(const ExprBuilder&) = delete;

  /// Pre-sizes the shared shards for a batch expected to create about
  /// `expected_new_nodes` fresh nodes, so no rebuild lands mid-batch.
  void Reserve(size_t expected_new_nodes) {
    interner_->Reserve(expected_new_nodes);
  }

  /// Local-cache hits so far (for tests and diagnostics).
  uint64_t local_hits() const { return local_hits_; }

  /// The innermost builder active on the calling thread, or nullptr.
  static ExprBuilder* Current();

  /// Direct-mapped: cache line i holds the most recent node whose hash maps
  /// to i. 2048 entries covers the working set of one compose/edit batch.
  /// (Public only for the thread-local backing storage in interner.cc.)
  static constexpr size_t kCacheSize = 2048;

  struct Entry {
    size_t hash = 0;
    ExprPtr node;
  };

 private:
  friend class ExprInterner;

  ExprInterner* interner_;
  ExprBuilder* parent_;  ///< next-outer scope on this thread
  Entry* cache_;         ///< borrowed thread-local storage, kCacheSize lines
  /// Cache lines this builder wrote into while they were empty; released
  /// (set back to empty) on destruction. Lines overwritten while full stay
  /// owned by the builder that first filled them.
  std::vector<uint32_t> owned_lines_;
  uint64_t local_hits_ = 0;
};

}  // namespace mapcomp

#endif  // MAPCOMP_ALGEBRA_INTERNER_H_
