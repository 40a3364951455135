#ifndef MAPCOMP_ALGEBRA_DAG_WALK_H_
#define MAPCOMP_ALGEBRA_DAG_WALK_H_

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/algebra/expr.h"

namespace mapcomp {

/// A flat map from node to `V`: one array under open addressing on the node
/// pointer (Fibonacci hash, linear probing, at most half full). Interning
/// makes node identity structural equality, so per-node state keyed here
/// serves every occurrence of a shared subtree. The first slots live inline
/// and are made on the first insert: a table that stays empty costs
/// nothing, and a small one never touches the heap.
template <typename V>
class NodeTable {
 public:
  NodeTable() = default;
  NodeTable(const NodeTable&) = delete;
  NodeTable& operator=(const NodeTable&) = delete;

  /// `e`'s value, or nullptr when `e` has none.
  V* Find(const Expr* e) {
    if (capacity_ == 0) return nullptr;
    Slot& slot = Probe(slots_, capacity_, e);
    return slot.node == e ? &slot.value : nullptr;
  }
  /// Reads nothing but the slots, so threads may share a table nobody
  /// inserts into any more.
  const V* Find(const Expr* e) const {
    return const_cast<NodeTable*>(this)->Find(e);
  }

  /// `e`'s value; `e` must have one.
  V& At(const Expr* e) { return Probe(slots_, capacity_, e).value; }

  /// `e`'s value, added default-constructed when `e` has none. Invalidates
  /// every reference into the table when it grows.
  V& Insert(const Expr* e) {
    if (2 * (used_ + 1) > capacity_) Grow();
    Slot& slot = Probe(slots_, capacity_, e);
    if (slot.node == nullptr) {
      slot.node = e;
      ++used_;
    }
    return slot.value;
  }

 private:
  struct Slot {
    const Expr* node = nullptr;
    V value = V();
  };
  static constexpr size_t kInlineSlots = 16;  // a power of two

  /// The slot holding `e`, or the empty one where it would go.
  static Slot& Probe(Slot* slots, size_t capacity, const Expr* e) {
    // The pointer's low bits are alignment zeros; the product's high bits
    // are well mixed.
    const size_t mask = capacity - 1;
    size_t i = static_cast<size_t>(
                   (reinterpret_cast<uintptr_t>(e) * 0x9E3779B97F4A7C15ULL) >>
                   32) &
               mask;
    while (slots[i].node != nullptr && slots[i].node != e) i = (i + 1) & mask;
    return slots[i];
  }

  void Grow() {
    if (capacity_ == 0) {
      inline_.emplace();
      slots_ = inline_->data();
      capacity_ = kInlineSlots;
      return;
    }
    std::vector<Slot> bigger(2 * capacity_);
    for (size_t i = 0; i < capacity_; ++i) {
      if (slots_[i].node != nullptr) {
        Probe(bigger.data(), bigger.size(), slots_[i].node) =
            std::move(slots_[i]);
      }
    }
    heap_.swap(bigger);
    slots_ = heap_.data();
    capacity_ = heap_.size();
  }

  std::optional<std::array<Slot, kInlineSlots>> inline_;
  std::vector<Slot> heap_;
  Slot* slots_ = nullptr;
  size_t capacity_ = 0;
  size_t used_ = 0;
};

/// A stack whose first `kInline` entries live in the object itself and the
/// rest on the heap. For a trivially constructible `T` it costs nothing to
/// make.
template <typename T, size_t kInline = 64>
class WalkStack {
 public:
  bool empty() const { return size_ == 0; }
  T& top() { return size_ > kInline ? heap_.back() : local_[size_ - 1]; }
  void push(const T& t) {
    if (size_ < kInline) {
      local_[size_] = t;
    } else {
      heap_.push_back(t);
    }
    ++size_;
  }
  void pop() {
    if (size_ > kInline) heap_.pop_back();
    --size_;
  }

 private:
  T local_[kInline];
  std::vector<T> heap_;
  size_t size_ = 0;
};

/// What a walk does with a node it reaches.
enum class Visit {
  kEnter,  ///< walk its children, then leave it
  kPrune,  ///< skip it and everything below it
  kStop,   ///< end the walk
};

/// The value type of a walk that keeps nothing per node.
struct NoValue {};

/// Post-order over the distinct nodes under `root`, children in order, on
/// an explicit stack, so any depth walks.
///
/// `enter(const ExprPtr&) -> Visit` decides what happens to a node the walk
/// reaches. Once an entered node's children are all left,
/// `leave(const ExprPtr&, V*) -> bool` fills in its value (false ends the
/// walk) and `done` records it; a node `done` holds is not entered again.
/// Leaves are never recorded, being cheaper to enter again than to look
/// up: enter and leave run on each edge that reaches one, with a scratch
/// value. A walk whose root is a leaf or is pruned touches neither `done`
/// nor the heap.
///
/// Walking more roots with one `done` walks their forest once. The
/// callbacks may use `done`, but must not insert an inner node the walk has
/// yet to leave. Returns false when a callback stopped the walk.
template <typename V, typename Enter, typename Leave>
bool WalkDag(const ExprPtr& root, NodeTable<V>* done, const Enter& enter,
             const Leave& leave) {
  struct Frame {
    const ExprPtr* node;
    size_t next;
  };
  WalkStack<Frame> stack;
  auto reach = [&](const ExprPtr& e) {  // false when the walk stops
    const bool leaf = e->children().empty();
    if (!leaf && done->Find(e.get()) != nullptr) return true;
    const Visit visit = enter(e);
    if (visit != Visit::kEnter) return visit == Visit::kPrune;
    if (!leaf) {
      stack.push({&e, 0});
      return true;
    }
    V scratch{};
    return static_cast<bool>(leave(e, &scratch));
  };
  if (!reach(root)) return false;
  while (!stack.empty()) {
    Frame& frame = stack.top();
    const std::vector<ExprPtr>& children = (*frame.node)->children();
    if (frame.next < children.size()) {
      if (!reach(children[frame.next++])) return false;
      continue;
    }
    const ExprPtr& e = *frame.node;
    stack.pop();
    V value{};
    if (!leave(e, &value)) return false;
    done->Insert(e.get()) = std::move(value);
  }
  return true;
}

/// The walk with nothing to do on leaving a node: a fold in `enter`.
template <typename V, typename Enter>
bool WalkDag(const ExprPtr& root, NodeTable<V>* done, const Enter& enter) {
  return WalkDag(root, done, enter, [](const ExprPtr&, V*) { return true; });
}

/// `e` with each child `c` replaced by `rewritten(c)`: `e` itself when no
/// child changes, a new interned node otherwise.
template <typename Rewritten>
ExprPtr RebuildNode(const ExprPtr& e, const Rewritten& rewritten) {
  std::vector<ExprPtr> children;
  children.reserve(e->children().size());
  bool changed = false;
  for (const ExprPtr& c : e->children()) {
    children.push_back(rewritten(c));
    changed = changed || children.back() != c;
  }
  if (!changed) return e;
  return Expr::Make(e->kind(), e->name(), std::move(children), e->condition(),
                    e->indexes(), e->arity(), e->tuples());
}

}  // namespace mapcomp

#endif  // MAPCOMP_ALGEBRA_DAG_WALK_H_
