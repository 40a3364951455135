// Property tests for the hash-consing Expr interner: pointer equality of
// interned nodes coincides with structural equality, the cached hash and
// analyses agree with fresh recursive recomputation, and the passes that
// walk the interned DAG once (dag_walk.h) agree node for node with plain
// tree recursions — over randomized trees mostly past 64 operators and
// over DAGs that share subtrees (generator style shared with
// roundtrip_fuzz_test.cc).

#include <gtest/gtest.h>

#include <random>

#include "src/algebra/builders.h"
#include "src/algebra/print.h"
#include "src/algebra/simplify.h"
#include "src/algebra/substitute.h"
#include "src/compose/monotone.h"
#include "src/constraints/mapping.h"
#include "src/op/registry.h"

namespace mapcomp {
namespace {

struct Gen {
  std::mt19937_64 rng;

  int Int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  }

  Condition RandomCondition(int arity, int depth) {
    if (depth == 0 || arity == 0) {
      switch (Int(0, 3)) {
        case 0:
          return Condition::True();
        case 1:
          return arity >= 2
                     ? Condition::AttrCmp(Int(1, arity),
                                          static_cast<CmpOp>(Int(0, 5)),
                                          Int(1, arity))
                     : Condition::AttrConst(1, CmpOp::kEq, int64_t{Int(0, 9)});
        case 2:
          return Condition::AttrConst(Int(1, arity),
                                      static_cast<CmpOp>(Int(0, 5)),
                                      Value(int64_t{Int(0, 9)}));
        default:
          return Condition::AttrConst(Int(1, arity), CmpOp::kNe,
                                      Value(std::string("str")));
      }
    }
    switch (Int(0, 2)) {
      case 0:
        return Condition::And(RandomCondition(arity, depth - 1),
                              RandomCondition(arity, depth - 1));
      case 1:
        return Condition::Or(RandomCondition(arity, depth - 1),
                             RandomCondition(arity, depth - 1));
      default:
        return Condition::Not(RandomCondition(arity, depth - 1));
    }
  }

  ExprPtr RandomExpr(int arity, int depth) {
    if (depth == 0) {
      switch (Int(0, 3)) {
        case 0:
          return Rel("R" + std::to_string(Int(0, 3)) + "_" +
                         std::to_string(arity),
                     arity);
        case 1:
          return Dom(arity);
        case 2:
          return EmptyRel(arity);
        default: {
          std::vector<Tuple> tuples;
          int n = Int(0, 2);
          for (int i = 0; i < n; ++i) {
            Tuple t;
            for (int j = 0; j < arity; ++j) {
              t.push_back(Int(0, 1) == 0
                              ? Value(int64_t{Int(0, 9)})
                              : Value(std::string("s" + std::to_string(j))));
            }
            tuples.push_back(std::move(t));
          }
          return Lit(arity, std::move(tuples));
        }
      }
    }
    switch (Int(0, 6)) {
      case 0:
        return Union(RandomExpr(arity, depth - 1),
                     RandomExpr(arity, depth - 1));
      case 1:
        return Intersect(RandomExpr(arity, depth - 1),
                         RandomExpr(arity, depth - 1));
      case 2:
        return Difference(RandomExpr(arity, depth - 1),
                          RandomExpr(arity, depth - 1));
      case 3: {
        if (arity < 2) {
          return Union(RandomExpr(arity, depth - 1),
                       RandomExpr(arity, depth - 1));
        }
        int left = Int(1, arity - 1);
        return Product(RandomExpr(left, depth - 1),
                       RandomExpr(arity - left, depth - 1));
      }
      case 4: {
        ExprPtr inner = RandomExpr(arity, depth - 1);
        return Select(RandomCondition(arity, 2), std::move(inner));
      }
      case 5: {
        int inner_arity = Int(arity, arity + 2);
        ExprPtr inner = RandomExpr(inner_arity, depth - 1);
        std::vector<int> idx;
        for (int i = 0; i < arity; ++i) idx.push_back(Int(1, inner_arity));
        return Project(std::move(idx), std::move(inner));
      }
      default: {
        if (arity < 2) {
          return Select(RandomCondition(arity, 2),
                        RandomExpr(arity, depth - 1));
        }
        ExprPtr inner = RandomExpr(arity - 1, depth - 1);
        std::vector<int> args;
        int n = Int(0, arity - 1);
        for (int i = 0; i < n; ++i) args.push_back(Int(1, arity - 1));
        return SkolemApp("f" + std::to_string(Int(0, 3)), std::move(args),
                         std::move(inner));
      }
    }
  }

  /// A DAG sharing subtrees: each step builds on the previous one and on
  /// some earlier result, so its tree reading outgrows its node count.
  ExprPtr RandomDag(int arity, int steps) {
    std::vector<ExprPtr> pool;
    for (int i = 0; i < 3; ++i) pool.push_back(RandomExpr(arity, 1));
    auto pick = [&] { return pool[Int(0, static_cast<int>(pool.size()) - 1)]; };
    for (int step = 0; step < steps; ++step) {
      ExprPtr a = pool.back();
      ExprPtr b = pick();
      switch (Int(0, 4)) {
        case 0:
          pool.push_back(Union(a, b));
          break;
        case 1:
          pool.push_back(Intersect(a, b));
          break;
        case 2:
          pool.push_back(Difference(a, b));
          break;
        case 3:
          pool.push_back(Select(RandomCondition(arity, 1), a));
          break;
        default: {
          std::vector<int> idx;
          for (int i = 0; i < arity; ++i) idx.push_back(Int(1, 2 * arity));
          pool.push_back(Project(std::move(idx), Product(a, b)));
        }
      }
    }
    return pool.back();
  }

  /// RandomExpr with about one node in eight replaced by a malformed one
  /// (built without the checking builders), each kind with its own error.
  ExprPtr CorruptExpr(int arity, int depth) {
    if (Int(0, 7) == 0) {
      switch (Int(0, 2)) {
        case 0:
          return Expr::Make(ExprKind::kLiteral, "", {}, Condition::True(), {},
                            arity, {Tuple(arity + 1, Value(int64_t{1}))});
        case 1: {
          std::vector<int> idx(arity, 1);
          idx.back() = arity + 1;
          return Expr::Make(ExprKind::kProject, "", {RandomExpr(arity, 0)},
                            Condition::True(), std::move(idx), arity, {});
        }
        default:
          return Expr::Make(ExprKind::kSelect, "", {RandomExpr(arity, 0)},
                            Condition::AttrCmp(1, CmpOp::kEq, arity + 1), {},
                            arity, {});
      }
    }
    if (depth == 0) return RandomExpr(arity, 0);
    switch (Int(0, 2)) {
      case 0:
        return Union(CorruptExpr(arity, depth - 1),
                     CorruptExpr(arity, depth - 1));
      case 1:
        return Difference(CorruptExpr(arity, depth - 1),
                          CorruptExpr(arity, depth - 1));
      default:
        return Select(RandomCondition(arity, 1), CorruptExpr(arity, depth - 1));
    }
  }
};

// --- Fresh recursive recomputations, independent of the cached fields. ---

bool DeepEquals(const ExprPtr& a, const ExprPtr& b) {
  if (a->kind() != b->kind() || a->arity() != b->arity()) return false;
  if (a->name() != b->name()) return false;
  if (a->indexes() != b->indexes()) return false;
  if (!(a->condition() == b->condition())) return false;
  if (a->children().size() != b->children().size()) return false;
  for (size_t i = 0; i < a->children().size(); ++i) {
    if (!DeepEquals(a->children()[i], b->children()[i])) return false;
  }
  if (a->tuples().size() != b->tuples().size()) return false;
  for (size_t i = 0; i < a->tuples().size(); ++i) {
    if (a->tuples()[i].size() != b->tuples()[i].size()) return false;
    for (size_t j = 0; j < a->tuples()[i].size(); ++j) {
      if (CompareValues(a->tuples()[i][j], b->tuples()[i][j]) != 0) {
        return false;
      }
    }
  }
  return true;
}

size_t DeepHash(const ExprPtr& e) {
  size_t seed = static_cast<size_t>(e->kind());
  HashCombine(&seed, std::hash<std::string>()(e->name()));
  HashCombine(&seed, static_cast<size_t>(e->arity()));
  for (int i : e->indexes()) HashCombine(&seed, static_cast<size_t>(i));
  HashCombine(&seed, e->condition().Hash());
  for (const ExprPtr& c : e->children()) HashCombine(&seed, DeepHash(c));
  for (const Tuple& t : e->tuples()) HashCombine(&seed, HashTuple(t));
  return seed;
}

int64_t DeepOperatorCount(const ExprPtr& e) {
  int64_t n = 1;
  for (const ExprPtr& c : e->children()) n += DeepOperatorCount(c);
  return n;
}

bool DeepContainsKind(const ExprPtr& e, ExprKind kind) {
  if (e->kind() == kind) return true;
  for (const ExprPtr& c : e->children()) {
    if (DeepContainsKind(c, kind)) return true;
  }
  return false;
}

bool DeepContainsRelation(const ExprPtr& e, const std::string& name) {
  if (e->kind() == ExprKind::kRelation && e->name() == name) return true;
  for (const ExprPtr& c : e->children()) {
    if (DeepContainsRelation(c, name)) return true;
  }
  return false;
}

void DeepCollectRelations(const ExprPtr& e, std::set<std::string>* out) {
  if (e->kind() == ExprKind::kRelation) out->insert(e->name());
  for (const ExprPtr& c : e->children()) DeepCollectRelations(c, out);
}

ExprPtr DeepSubstitute(const ExprPtr& e, const std::string& name,
                       const ExprPtr& replacement) {
  if (e->kind() == ExprKind::kRelation && e->name() == name) {
    return replacement;
  }
  std::vector<ExprPtr> children;
  for (const ExprPtr& c : e->children()) {
    children.push_back(DeepSubstitute(c, name, replacement));
  }
  return Expr::Make(e->kind(), e->name(), std::move(children), e->condition(),
                    e->indexes(), e->arity(), e->tuples());
}

/// SimplifyExpr as a plain tree recursion: every pass rewrites each node
/// (each occurrence) bottom-up with SimplifyNode, and passes repeat while
/// any node changes.
ExprPtr DeepSimplifyOnce(const ExprPtr& e, bool* changed) {
  std::vector<ExprPtr> children;
  for (const ExprPtr& c : e->children()) {
    children.push_back(DeepSimplifyOnce(c, changed));
  }
  ExprPtr node = Expr::Make(e->kind(), e->name(), std::move(children),
                            e->condition(), e->indexes(), e->arity(),
                            e->tuples());
  ExprPtr rewritten = SimplifyNode(node);
  ExprPtr result = rewritten != nullptr ? rewritten : node;
  *changed = *changed || result != e;
  return result;
}

ExprPtr DeepSimplify(const ExprPtr& e) {
  ExprPtr cur = e;
  for (int i = 0; i < 16; ++i) {
    bool changed = false;
    cur = DeepSimplifyOnce(cur, &changed);
    if (!changed) break;
  }
  return cur;
}

Mono DeepCombine(Mono a, Mono b) {
  if (a == Mono::kIndependent) return b;
  if (b == Mono::kIndependent) return a;
  return a == b ? a : Mono::kUnknown;
}

Mono DeepFlip(Mono m) {
  if (m == Mono::kMonotone) return Mono::kAnti;
  if (m == Mono::kAnti) return Mono::kMonotone;
  return m;
}

/// CheckMonotone's polarity rules (paper §3.3) as a plain tree recursion,
/// for the operators the generators build.
Mono DeepMonotone(const ExprPtr& e, const std::string& symbol) {
  switch (e->kind()) {
    case ExprKind::kRelation:
      return e->name() == symbol ? Mono::kMonotone : Mono::kIndependent;
    case ExprKind::kDomain:
      return Mono::kMonotone;
    case ExprKind::kEmpty:
    case ExprKind::kLiteral:
      return Mono::kIndependent;
    case ExprKind::kUnion:
    case ExprKind::kIntersect:
    case ExprKind::kProduct:
      return DeepCombine(DeepMonotone(e->child(0), symbol),
                         DeepMonotone(e->child(1), symbol));
    case ExprKind::kDifference:
      return DeepCombine(DeepMonotone(e->child(0), symbol),
                         DeepFlip(DeepMonotone(e->child(1), symbol)));
    case ExprKind::kSelect:
    case ExprKind::kProject:
    case ExprKind::kSkolem:
      return DeepMonotone(e->child(0), symbol);
    case ExprKind::kUserOp:
      break;
  }
  ADD_FAILURE() << "no reference rule for " << ExprToString(e);
  return Mono::kUnknown;
}

/// ValidateExpr as a plain tree recursion: children first, in order, then
/// the node itself (ValidateExpr on a node whose children are valid checks
/// that node alone).
Status DeepValidate(const ExprPtr& e) {
  for (const ExprPtr& c : e->children()) {
    Status s = DeepValidate(c);
    if (!s.ok()) return s;
  }
  return ValidateExpr(e);
}

class InternFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InternFuzzTest, PointerEqualityIsStructuralEquality) {
  Gen gen1, gen2;
  gen1.rng.seed(GetParam());
  gen2.rng.seed(GetParam());
  for (int round = 0; round < 40; ++round) {
    int arity = gen1.Int(1, 3);
    (void)gen2.Int(1, 3);
    // Two independent constructions of the same random tree intern to the
    // same object.
    ExprPtr a = gen1.RandomExpr(arity, 3);
    ExprPtr b = gen2.RandomExpr(arity, 3);
    ASSERT_TRUE(DeepEquals(a, b));
    EXPECT_EQ(a.get(), b.get()) << ExprToString(a);
    EXPECT_TRUE(ExprEquals(a, b));
  }
}

TEST_P(InternFuzzTest, EqualsAndHashAgreeAcrossRandomPairs) {
  Gen gen;
  gen.rng.seed(GetParam() * 97 + 13);
  std::vector<ExprPtr> pool;
  for (int i = 0; i < 30; ++i) {
    pool.push_back(gen.RandomExpr(gen.Int(1, 3), gen.Int(0, 3)));
  }
  for (const ExprPtr& a : pool) {
    for (const ExprPtr& b : pool) {
      // ExprEquals(a,b) ⇔ a.get()==b.get() ⇔ deep structural equality.
      EXPECT_EQ(ExprEquals(a, b), a.get() == b.get());
      EXPECT_EQ(DeepEquals(a, b), a.get() == b.get())
          << ExprToString(a) << " vs " << ExprToString(b);
      if (ExprEquals(a, b)) EXPECT_EQ(ExprHash(a), ExprHash(b));
    }
  }
}

TEST_P(InternFuzzTest, CachedAnalysesMatchFreshRecomputation) {
  Gen gen;
  gen.rng.seed(GetParam() * 31 + 7);
  for (int round = 0; round < 40; ++round) {
    ExprPtr e = gen.RandomExpr(gen.Int(1, 3), 8);
    EXPECT_EQ(ExprHash(e), DeepHash(e));
    EXPECT_EQ(OperatorCount(e), DeepOperatorCount(e));
    EXPECT_EQ(ContainsSkolem(e), DeepContainsKind(e, ExprKind::kSkolem));
    EXPECT_EQ(ContainsDomain(e), DeepContainsKind(e, ExprKind::kDomain));
    std::set<std::string> expected, got;
    DeepCollectRelations(e, &expected);
    CollectRelations(e, &got);
    EXPECT_EQ(expected, got);
    for (int i = 0; i <= 3; ++i) {
      for (int a = 1; a <= 5; ++a) {
        std::string name = "R" + std::to_string(i) + "_" + std::to_string(a);
        EXPECT_EQ(ContainsRelation(e, name), DeepContainsRelation(e, name))
            << name << " in " << ExprToString(e);
      }
    }
  }
}

TEST_P(InternFuzzTest, MemoizedSubstituteMatchesNaiveRecursion) {
  Gen gen;
  gen.rng.seed(GetParam() * 131 + 5);
  for (int round = 0; round < 20; ++round) {
    ExprPtr e = gen.RandomExpr(2, 8);
    ExprPtr replacement = Rel("Z", 2);
    std::string victim = "R" + std::to_string(gen.Int(0, 3)) + "_2";
    ExprPtr fast = SubstituteRelation(e, victim, replacement);
    ExprPtr naive = DeepSubstitute(e, victim, replacement);
    // Interning collapses both results to the same object.
    EXPECT_EQ(fast.get(), naive.get()) << ExprToString(e);
    EXPECT_FALSE(ContainsRelation(fast, victim));
  }
}

TEST_P(InternFuzzTest, SimplifyIdempotentAndPreservesValidity) {
  Gen gen;
  gen.rng.seed(GetParam() * 17 + 3);
  for (int round = 0; round < 20; ++round) {
    ExprPtr e = gen.RandomExpr(gen.Int(1, 3), 8);
    ExprPtr s1 = SimplifyExpr(e);
    ExprPtr s2 = SimplifyExpr(s1);
    EXPECT_EQ(s1.get(), s2.get()) << ExprToString(e);
    EXPECT_TRUE(ValidateExpr(s1).ok()) << ExprToString(s1);
    EXPECT_EQ(s1->arity(), e->arity());
  }
}

TEST_P(InternFuzzTest, WalkedPassesMatchTreeRecursion) {
  Gen gen;
  gen.rng.seed(GetParam() * 53 + 11);
  int walked = 0;
  int over_64_ops = 0;
  for (int round = 0; round < 40; ++round) {
    const int arity = gen.Int(1, 3);
    ExprPtr e = round % 2 == 0 ? gen.RandomExpr(arity, 8)
                               : gen.RandomDag(arity, 12);
    // The references walk the tree reading, which a DAG can blow up.
    if (e->op_count() > 20000) continue;
    ++walked;
    over_64_ops += e->op_count() > 64;
    SCOPED_TRACE(ExprToString(e));
    EXPECT_EQ(SimplifyExpr(e).get(), DeepSimplify(e).get());
    EXPECT_TRUE(ValidateExpr(e).ok());
    EXPECT_EQ(DeepValidate(e).ok(), true);
    std::set<std::string> names;
    DeepCollectRelations(e, &names);
    std::set<std::string> got;
    CollectRelations(e, &got);
    EXPECT_EQ(got, names);
    names.insert("Absent");
    for (const std::string& name : names) {
      // Generated names end in their arity: R<i>_<arity>.
      const int r = name == "Absent"
                        ? arity
                        : std::stoi(name.substr(name.find('_') + 1));
      EXPECT_EQ(ContainsRelation(e, name), DeepContainsRelation(e, name));
      EXPECT_EQ(CheckMonotone(e, name), DeepMonotone(e, name)) << name;
      EXPECT_EQ(SubstituteRelation(e, name, Dom(r)).get(),
                DeepSubstitute(e, name, Dom(r)).get())
          << name;
      EXPECT_EQ(RenameRelation(e, name, "Renamed").get(),
                DeepSubstitute(e, name, Rel("Renamed", r)).get())
          << name;
    }
  }
  // Most inputs exceed 64 operators: no input size is left to one path.
  EXPECT_GT(walked, 30);
  EXPECT_GT(over_64_ops, walked / 2) << "of " << walked;
}

TEST_P(InternFuzzTest, ValidateNamesTheFirstFailingNodeInPostOrder) {
  Gen gen;
  gen.rng.seed(GetParam() * 71 + 19);
  int failing = 0;
  for (int round = 0; round < 40; ++round) {
    ExprPtr e = gen.CorruptExpr(gen.Int(1, 3), 6);
    Status want = DeepValidate(e);
    failing += !want.ok();
    EXPECT_EQ(ValidateExpr(e).ToString(), want.ToString()) << ExprToString(e);
  }
  EXPECT_GT(failing, 0);
}

TEST(InternTest, FirstFailingChildNamesTheError) {
  ExprPtr r = Rel("R", 1);
  ExprPtr bad_literal =
      Expr::Make(ExprKind::kLiteral, "", {}, Condition::True(), {}, 1,
                 {Tuple{Value(int64_t{1}), Value(int64_t{2})}});
  ExprPtr bad_project = Expr::Make(ExprKind::kProject, "", {r},
                                   Condition::True(), {2}, 1, {});
  // Each order reports its first child's error, and a shared failing
  // subtree reached again later changes nothing.
  EXPECT_EQ(ValidateExpr(Union(bad_literal, bad_project)).message(),
            "literal tuple arity mismatch");
  EXPECT_EQ(ValidateExpr(Union(bad_project, bad_literal)).message(),
            "projection index out of range");
  ExprPtr shared = Union(bad_project, r);
  EXPECT_EQ(ValidateExpr(Intersect(Union(shared, shared), bad_literal))
                .message(),
            "projection index out of range");

  // CheckDeclared (through Mapping::Validate) names the first relation,
  // left to right, that is undeclared or used with the wrong arity.
  Mapping m;
  ASSERT_TRUE(m.input.AddRelation("A", 1).ok());
  ASSERT_TRUE(m.output.AddRelation("B", 2).ok());
  auto validate = [&m](ExprPtr lhs) {
    m.constraints = {Constraint::Contain(std::move(lhs), Rel("A", 1))};
    return m.Validate().message();
  };
  ExprPtr undeclared = Rel("X", 1);
  ExprPtr wrong_arity = Rel("B", 1);
  EXPECT_EQ(validate(Union(undeclared, wrong_arity)),
            "relation X not declared");
  EXPECT_EQ(validate(Union(wrong_arity, undeclared)),
            "relation B used with arity 1 but declared with 2");
  ExprPtr ok_side = Union(Rel("A", 1), Project({1}, Rel("B", 2)));
  EXPECT_EQ(validate(Union(Union(ok_side, ok_side), undeclared)),
            "relation X not declared");
}

TEST(InternTest, SharedSubtreesAreSharedObjects) {
  // The duplicated-subtree shape from COMPOSE substitutions: separately
  // constructed equal subtrees are physically one node.
  ExprPtr left = Select(Condition::AttrCmp(1, CmpOp::kEq, 3),
                        Product(Rel("R", 2), Rel("S", 2)));
  ExprPtr right = Select(Condition::AttrCmp(1, CmpOp::kEq, 3),
                         Product(Rel("R", 2), Rel("S", 2)));
  EXPECT_EQ(left.get(), right.get());
  ExprPtr u = Intersect(left, right);
  EXPECT_EQ(u->child(0).get(), u->child(1).get());
  // A DAG's tree-size metric still counts every occurrence.
  EXPECT_EQ(OperatorCount(u), 2 * OperatorCount(left) + 1);
}

TEST(InternTest, DistinctStructuresStayDistinct) {
  EXPECT_NE(Rel("R", 2).get(), Rel("R", 3).get());
  EXPECT_NE(Rel("R", 2).get(), Rel("S", 2).get());
  EXPECT_NE(Dom(2).get(), Dom(3).get());
  EXPECT_NE(Union(Rel("R", 2), Rel("S", 2)).get(),
            Union(Rel("S", 2), Rel("R", 2)).get());
  EXPECT_NE(Lit(1, {{Value(int64_t{1})}}).get(),
            Lit(1, {{Value(int64_t{2})}}).get());
  EXPECT_NE(Select(Condition::AttrCmp(1, CmpOp::kEq, 2), Rel("R", 2)).get(),
            Select(Condition::AttrCmp(1, CmpOp::kNe, 2), Rel("R", 2)).get());
  EXPECT_NE(Project({1}, Rel("R", 2)).get(),
            Project({2}, Rel("R", 2)).get());
}

INSTANTIATE_TEST_SUITE_P(Seeds, InternFuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

}  // namespace
}  // namespace mapcomp
