#include "src/algebra/print.h"

#include "src/algebra/dag_walk.h"

namespace mapcomp {

namespace {
std::string IndexListToString(const std::vector<int>& idx) {
  std::string out;
  for (size_t i = 0; i < idx.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(idx[i]);
  }
  return out;
}

/// Appends `e`'s text up to its first operand: all of it for a leaf. For
/// an operator, returns what goes between two of its operands (the text is
/// closed by ')' after the last); for a leaf, nullptr.
const char* AppendOpening(const Expr& e, std::string* out) {
  switch (e.kind()) {
    case ExprKind::kRelation:
      *out += e.name();
      return nullptr;
    case ExprKind::kDomain:
      *out += "D^" + std::to_string(e.arity());
      return nullptr;
    case ExprKind::kEmpty:
      *out += "empty^" + std::to_string(e.arity());
      return nullptr;
    case ExprKind::kLiteral:
      *out += "{";
      for (size_t i = 0; i < e.tuples().size(); ++i) {
        if (i > 0) *out += ",";
        *out += TupleToString(e.tuples()[i]);
      }
      *out += "}";
      if (e.tuples().empty()) *out += "^" + std::to_string(e.arity());
      return nullptr;
    case ExprKind::kUnion:
      *out += "(";
      return " + ";
    case ExprKind::kIntersect:
      *out += "(";
      return " & ";
    case ExprKind::kProduct:
      *out += "(";
      return " * ";
    case ExprKind::kDifference:
      *out += "(";
      return " - ";
    case ExprKind::kSelect:
      *out += "sel[" + e.condition().ToString() + "](";
      return "";
    case ExprKind::kProject:
      *out += "pi[" + IndexListToString(e.indexes()) + "](";
      return "";
    case ExprKind::kSkolem:
      *out += "$" + e.name() + "[" + IndexListToString(e.indexes()) + "](";
      return "";
    case ExprKind::kUserOp: {
      *out += e.name();
      bool has_indexes = !e.indexes().empty();
      bool has_cond = !e.condition().IsTrue();
      if (has_indexes || has_cond) {
        *out += "[";
        if (has_indexes) *out += IndexListToString(e.indexes());
        if (has_indexes && has_cond) *out += "; ";
        if (has_cond) *out += e.condition().ToString();
        *out += "]";
      }
      *out += "(";
      return ", ";
    }
  }
  *out += "<?>";
  return nullptr;
}

}  // namespace

std::string ExprToString(const ExprPtr& e) {
  if (e == nullptr) return "<null>";
  // The text is tree-shaped, so this walks the tree, not the DAG: one frame
  // per open operator, on an explicit stack, appending to one string.
  struct Frame {
    const Expr* node;
    const char* separator;
    size_t next;
  };
  std::string out;
  WalkStack<Frame> stack;
  if (const char* separator = AppendOpening(*e, &out)) {
    stack.push({e.get(), separator, 0});
  }
  while (!stack.empty()) {
    Frame& frame = stack.top();
    const std::vector<ExprPtr>& children = frame.node->children();
    if (frame.next == children.size()) {
      out += ")";
      stack.pop();
      continue;
    }
    if (frame.next > 0) out += frame.separator;
    const Expr& child = *children[frame.next++];
    if (const char* separator = AppendOpening(child, &out)) {
      stack.push({&child, separator, 0});
    }
  }
  return out;
}

}  // namespace mapcomp
