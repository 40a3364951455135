#include "src/algebra/interner.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <new>

#include "src/common/fault.h"

namespace mapcomp {

namespace {

constexpr size_t kMinCapacity = 256;

/// Structural hash of a node-to-be, combining children by their cached
/// hashes. Field order matches the pre-interning ExprHash recipe so hashes
/// stay stable across the refactor.
size_t ShallowHash(ExprKind kind, const std::string& name,
                   const std::vector<ExprPtr>& children,
                   const Condition& condition, const std::vector<int>& indexes,
                   int arity, const std::vector<Tuple>& tuples) {
  size_t seed = static_cast<size_t>(kind);
  HashCombine(&seed, std::hash<std::string>()(name));
  HashCombine(&seed, static_cast<size_t>(arity));
  for (int i : indexes) HashCombine(&seed, static_cast<size_t>(i));
  HashCombine(&seed, condition.Hash());
  for (const ExprPtr& c : children) HashCombine(&seed, c->hash());
  for (const Tuple& t : tuples) HashCombine(&seed, HashTuple(t));
  return seed;
}

bool TuplesEqual(const std::vector<Tuple>& a, const std::vector<Tuple>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (CompareValues(a[i][j], b[i][j]) != 0) return false;
    }
  }
  return true;
}

/// Shallow structural equality against an existing interned node. Children
/// are compared by pointer: they are interned, so pointer equality is
/// structural equality.
bool ShallowEquals(const Expr& e, ExprKind kind, const std::string& name,
                   const std::vector<ExprPtr>& children,
                   const Condition& condition, const std::vector<int>& indexes,
                   int arity, const std::vector<Tuple>& tuples) {
  if (e.kind() != kind || e.arity() != arity) return false;
  if (e.name() != name) return false;
  if (e.indexes() != indexes) return false;
  if (e.children().size() != children.size()) return false;
  for (size_t i = 0; i < children.size(); ++i) {
    if (e.children()[i].get() != children[i].get()) return false;
  }
  if (!(e.condition() == condition)) return false;
  return TuplesEqual(e.tuples(), tuples);
}

size_t NextPow2(size_t n) {
  size_t p = kMinCapacity;
  while (p < n) p <<= 1;
  return p;
}

thread_local ExprBuilder* g_current_builder = nullptr;

}  // namespace

// ------------------------------------------------------------ InternerStats

size_t InternerStats::entries() const {
  size_t n = 0;
  for (const ShardStats& s : shards) n += s.entries;
  return n;
}

uint64_t InternerStats::hits() const {
  uint64_t n = 0;
  for (const ShardStats& s : shards) n += s.hits;
  return n;
}

uint64_t InternerStats::misses() const {
  uint64_t n = 0;
  for (const ShardStats& s : shards) n += s.misses;
  return n;
}

uint64_t InternerStats::sweeps() const {
  uint64_t n = 0;
  for (const ShardStats& s : shards) n += s.sweeps;
  return n;
}

std::string InternerStats::ToString() const {
  std::string out = "interner: " + std::to_string(entries()) + " entries, " +
                    std::to_string(hits()) + " hits, " +
                    std::to_string(misses()) + " misses, " +
                    std::to_string(builder_hits) + " builder hits, " +
                    std::to_string(sweeps()) + " sweeps\n";
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardStats& s = shards[i];
    out += "  shard " + std::to_string(i) + ": " +
           std::to_string(s.entries) + "/" + std::to_string(s.capacity) +
           " entries, " + std::to_string(s.hits) + " hits, " +
           std::to_string(s.misses) + " misses, " +
           std::to_string(s.sweeps) + " sweeps\n";
  }
  return out;
}

// ------------------------------------------------------------- ExprInterner

ExprInterner& ExprInterner::Global() {
  static ExprInterner* interner = new ExprInterner();
  return *interner;
}

ExprInterner::ExprInterner() {
  for (Shard& shard : shards_) {
    shard.slots.assign(kMinCapacity, Slot{});
    shard.mask = kMinCapacity - 1;
    shard.rebuild_at = kMinCapacity / 2;
  }
}

size_t ExprInterner::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.count;
  }
  return total;
}

void ExprInterner::Sweep() {
  // The table-only nodes, taken out of their slots one shard at a time.
  std::vector<ExprPtr> dropped;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (Slot& s : shard.slots) {
      if (s.node != nullptr && s.node.use_count() == 1) {
        dropped.push_back(std::move(s.node));
      }
    }
    RehashLocked(shard);
  }
  // Released parents first. A child that only the table and its parent
  // hold leaves its slot, in whatever shard, before the parent goes: it
  // joins the list, and no release cascades down a chain.
  for (size_t i = 0; i < dropped.size(); ++i) {
    const std::vector<ExprPtr>& children = dropped[i]->children();
    for (const ExprPtr& c : children) {
      const long edges = std::count(children.begin(), children.end(), c);
      Shard& shard = shards_[ShardIndex(c->hash())];
      std::lock_guard<std::mutex> lock(shard.mu);
      if (c.use_count() != 1 + edges) continue;
      size_t at = c->hash() & shard.mask;
      while (shard.slots[at].node != nullptr && shard.slots[at].node != c) {
        at = (at + 1) & shard.mask;
      }
      if (shard.slots[at].node == nullptr) continue;  // taken, or not ours
      dropped.push_back(std::move(shard.slots[at].node));
      --shard.count;
      // Backward-shift deletion: every later entry of the cluster whose
      // home slot does not lie after the hole moves into it.
      for (size_t j = (at + 1) & shard.mask; shard.slots[j].node != nullptr;
           j = (j + 1) & shard.mask) {
        const size_t home = shard.slots[j].hash & shard.mask;
        if (((j - home) & shard.mask) >= ((j - at) & shard.mask)) {
          shard.slots[at] = std::move(shard.slots[j]);
          at = j;
        }
      }
    }
    dropped[i].reset();
  }
}

void ExprInterner::Reserve(size_t expected_new_nodes) {
  // Assume an even hash spread; pad one shard's share by 2x for skew.
  size_t per_shard = expected_new_nodes / kNumShards + 1;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    size_t extra = 2 * per_shard;
    if (shard.count + extra < shard.rebuild_at) continue;
    // One ordinary garbage-dropping rebuild, sized with headroom for the
    // expected insertions, so the batch itself triggers no rebuild.
    RehashLocked(shard, extra);
  }
}

InternerStats ExprInterner::Stats() const {
  InternerStats out;
  out.shards.reserve(kNumShards);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    InternerStats::ShardStats s;
    s.entries = shard.count;
    s.capacity = shard.slots.size();
    s.hits = shard.hits;
    s.misses = shard.misses;
    s.sweeps = shard.sweeps;
    out.shards.push_back(s);
  }
  out.builder_hits = builder_hits_.load(std::memory_order_relaxed);
  return out;
}

void ExprInterner::RehashLocked(Shard& shard, size_t extra_headroom) {
  size_t live = 0;
  for (const Slot& s : shard.slots) {
    live += s.node != nullptr && s.node.use_count() > 1;
  }
  size_t capacity = NextPow2(std::max(live * 4, (live + extra_headroom) * 2));
  std::vector<Slot> old = std::move(shard.slots);
  shard.slots.assign(capacity, Slot{});
  shard.mask = capacity - 1;
  shard.count = 0;
  for (Slot& s : old) {
    // use_count()==1 means the table holds the only reference: the node is
    // unreachable from outside and is dropped with the old vector. Children
    // it releases become table-only and are caught by the next rebuild.
    if (s.node == nullptr || s.node.use_count() == 1) continue;
    size_t idx = s.hash & shard.mask;
    while (shard.slots[idx].node != nullptr) idx = (idx + 1) & shard.mask;
    shard.slots[idx].hash = s.hash;
    shard.slots[idx].node = std::move(s.node);
    ++shard.count;
  }
  // Rebuild again once the occupancy doubles relative to the live set (or
  // once the reserved headroom is spent); this bounds both garbage
  // retention and the probe working set to a small multiple of the live
  // expressions, and never exceeds the 1/2 load factor (capacity covers
  // both terms by construction).
  shard.rebuild_at = std::max<size_t>(
      kMinCapacity / 2,
      std::max(shard.count * 2, shard.count + extra_headroom));
  ++shard.sweeps;
}

ExprPtr ExprInterner::InternWithHash(size_t hash, ExprKind kind,
                                     std::string name,
                                     std::vector<ExprPtr> children,
                                     Condition condition,
                                     std::vector<int> indexes, int arity,
                                     std::vector<Tuple> tuples) {
  Shard& shard = shards_[ShardIndex(hash)];
  std::lock_guard<std::mutex> lock(shard.mu);
  size_t idx = hash & shard.mask;
  while (shard.slots[idx].node != nullptr) {
    if (shard.slots[idx].hash == hash &&
        ShallowEquals(*shard.slots[idx].node, kind, name, children, condition,
                      indexes, arity, tuples)) {
      ++shard.hits;
      return shard.slots[idx].node;
    }
    idx = (idx + 1) & shard.mask;
  }

  // Fault point: the interner's allocation path is the one place every
  // expression build funnels through, so an injected bad_alloc here models
  // memory exhaustion anywhere inside compose/eval without heap poking.
  if (common::fault::Hit(common::fault::FaultPoint::kAllocFailInterner)) {
    throw std::bad_alloc();
  }
  Expr* e = new Expr();
  e->kind_ = kind;
  e->name_ = std::move(name);
  e->children_ = std::move(children);
  e->condition_ = std::move(condition);
  e->indexes_ = std::move(indexes);
  e->arity_ = arity;
  e->tuples_ = std::move(tuples);
  e->hash_ = hash;
  e->op_count_ = 1;
  e->depth_ = 1;
  e->contains_skolem_ = kind == ExprKind::kSkolem;
  e->contains_domain_ = kind == ExprKind::kDomain;
  e->relation_mask_ = kind == ExprKind::kRelation ? Expr::NameBit(e->name_) : 0;
  // Interned DAGs can denote trees exponentially larger than their physical
  // node count, so the tree-size accumulation must saturate, not overflow.
  constexpr int64_t kOpCountCap = std::numeric_limits<int64_t>::max();
  for (const ExprPtr& c : e->children_) {
    e->op_count_ = c->op_count() >= kOpCountCap - e->op_count_
                       ? kOpCountCap
                       : e->op_count_ + c->op_count();
    e->depth_ = std::max(e->depth_, c->depth() + 1);
    e->contains_skolem_ = e->contains_skolem_ || c->contains_skolem();
    e->contains_domain_ = e->contains_domain_ || c->contains_domain();
    e->relation_mask_ |= c->relation_mask();
  }
  ExprPtr published(e);
  shard.slots[idx].hash = hash;
  shard.slots[idx].node = published;
  ++shard.misses;
  if (++shard.count >= shard.rebuild_at) RehashLocked(shard);
  return published;
}

ExprPtr ExprInterner::Intern(ExprKind kind, std::string name,
                             std::vector<ExprPtr> children,
                             Condition condition, std::vector<int> indexes,
                             int arity, std::vector<Tuple> tuples) {
  size_t hash = ShallowHash(kind, name, children, condition, indexes, arity,
                            tuples);

  ExprBuilder* builder = g_current_builder;
  ExprBuilder::Entry* slot = nullptr;
  if (builder != nullptr && builder->interner_ == this) {
    slot = &builder->cache_[hash & (ExprBuilder::kCacheSize - 1)];
    if (slot->node != nullptr && slot->hash == hash &&
        ShallowEquals(*slot->node, kind, name, children, condition, indexes,
                      arity, tuples)) {
      ++builder->local_hits_;
      return slot->node;
    }
  }

  ExprPtr node = InternWithHash(hash, kind, std::move(name),
                                std::move(children), std::move(condition),
                                std::move(indexes), arity, std::move(tuples));
  if (slot != nullptr) {
    // Direct-mapped: the latest node for this cache line wins. A line that
    // was empty becomes owned by (and is later released by) this builder.
    if (slot->node == nullptr) {
      builder->owned_lines_.push_back(
          static_cast<uint32_t>(hash & (ExprBuilder::kCacheSize - 1)));
    }
    slot->hash = hash;
    slot->node = node;
  }
  return node;
}

// -------------------------------------------------------------- ExprBuilder

namespace {

/// Reusable per-thread cache storage, so opening a batch scope allocates
/// and zeroes nothing. All entries verify structurally before reuse, so the
/// only state that must be kept coherent is which interner the cached nodes
/// are canonical in.
struct TlsBuilderCache {
  ExprInterner* owner = nullptr;
  std::vector<ExprBuilder::Entry> entries;
};

TlsBuilderCache& BuilderCacheForThread() {
  static thread_local TlsBuilderCache cache;
  return cache;
}

}  // namespace

ExprBuilder::ExprBuilder(ExprInterner* interner)
    : interner_(interner), parent_(g_current_builder) {
  TlsBuilderCache& tls = BuilderCacheForThread();
  if (tls.entries.empty()) tls.entries.resize(kCacheSize);
  if (tls.owner != interner) {
    // Nodes cached for another interner are not canonical in this one.
    for (Entry& e : tls.entries) e = Entry{};
    tls.owner = interner;
  }
  cache_ = tls.entries.data();
  g_current_builder = this;
}

ExprBuilder::~ExprBuilder() {
  g_current_builder = parent_;
  if (parent_ != nullptr && parent_->interner_ != interner_) {
    // The resuming scope interns into a different table; nothing cached
    // during this scope is canonical there. Wipe everything (the parent's
    // pre-nesting lines were already wiped by this scope's constructor)
    // and hand the owner tag back so the parent's writes are tagged
    // correctly for any builder that follows.
    TlsBuilderCache& tls = BuilderCacheForThread();
    for (Entry& e : tls.entries) e = Entry{};
    tls.owner = parent_->interner_;
  } else {
    // Release exactly the lines this builder populated; lines it merely
    // overwrote belong to an enclosing builder, which releases them later.
    for (uint32_t line : owned_lines_) cache_[line] = Entry{};
  }
  interner_->builder_hits_.fetch_add(local_hits_, std::memory_order_relaxed);
}

ExprBuilder* ExprBuilder::Current() { return g_current_builder; }

}  // namespace mapcomp
