// Unit tests for the foundation types: Status/Result, Value ordering,
// Signature, Mapping validation.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/algebra/builders.h"
#include "src/algebra/value.h"
#include "src/common/status.h"
#include "src/constraints/mapping.h"
#include "src/constraints/signature.h"

namespace mapcomp {
namespace {

TEST(StatusTest, OkAndErrorStates) {
  EXPECT_TRUE(Status::OK().ok());
  Status err = Status::InvalidArgument("boom");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.ToString(), "InvalidArgument: boom");
  EXPECT_EQ(Status::OK().ToString(), "OK");
}

TEST(StatusTest, CodeNames) {
  EXPECT_NE(Status::NotFound("x").ToString().find("NotFound"),
            std::string::npos);
  EXPECT_NE(Status::Unsupported("x").ToString().find("Unsupported"),
            std::string::npos);
  EXPECT_NE(Status::ResourceExhausted("x").ToString().find("Resource"),
            std::string::npos);
  EXPECT_NE(Status::FailedPrecondition("x").ToString().find("Precondition"),
            std::string::npos);
  EXPECT_NE(Status::Internal("x").ToString().find("Internal"),
            std::string::npos);
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = 42;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.value_or(7), 42);
  Result<int> err = Status::NotFound("nope");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(err.value_or(7), 7);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  MAPCOMP_ASSIGN_OR_RETURN(int h, Half(x));
  MAPCOMP_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(Quarter(7).ok());
}

Result<std::vector<std::string>> Words() {
  return std::vector<std::string>{"long enough to live on the heap", "b"};
}

TEST(ResultTest, RangeForOverTemporaryValue) {
  // value() on a temporary Result returns the value itself, so the loop
  // iterates a vector that lives as long as the loop does, not one inside
  // the destroyed Result.
  std::vector<std::string> seen;
  for (const std::string& w : Words().value()) seen.push_back(w);
  EXPECT_EQ(seen, (std::vector<std::string>{
                      "long enough to live on the heap", "b"}));
}

TEST(ValueTest, TotalOrder) {
  Value a = int64_t{1}, b = int64_t{2};
  Value s = std::string("a"), t = std::string("b");
  EXPECT_LT(CompareValues(a, b), 0);
  EXPECT_GT(CompareValues(b, a), 0);
  EXPECT_EQ(CompareValues(a, a), 0);
  EXPECT_LT(CompareValues(s, t), 0);
  // All integers precede all strings.
  EXPECT_LT(CompareValues(b, s), 0);
  EXPECT_GT(CompareValues(s, b), 0);
}

TEST(ValueTest, Printing) {
  EXPECT_EQ(ValueToString(Value(int64_t{5})), "5");
  EXPECT_EQ(ValueToString(Value(std::string("x"))), "'x'");
  EXPECT_EQ(TupleToString({Value(int64_t{1}), Value(std::string("a"))}),
            "(1,'a')");
}

TEST(ValueTest, HashConsistency) {
  EXPECT_EQ(HashValue(Value(int64_t{3})), HashValue(Value(int64_t{3})));
  EXPECT_EQ(HashTuple({Value(int64_t{3})}), HashTuple({Value(int64_t{3})}));
  EXPECT_NE(HashTuple({Value(int64_t{3})}),
            HashTuple({Value(int64_t{3}), Value(int64_t{3})}));
}

TEST(SignatureTest, AddAndLookup) {
  Signature sig;
  ASSERT_TRUE(sig.AddRelation("R", 2).ok());
  ASSERT_TRUE(sig.AddRelation("S", 3).ok());
  EXPECT_TRUE(sig.Contains("R"));
  EXPECT_FALSE(sig.Contains("T"));
  EXPECT_EQ(sig.ArityOf("S"), 3);
  EXPECT_EQ(sig.ArityOf("missing"), 0);
  EXPECT_EQ(sig.names(), (std::vector<std::string>{"R", "S"}));
  EXPECT_EQ(sig.size(), 2);
}

TEST(SignatureTest, RedeclarationRules) {
  Signature sig;
  ASSERT_TRUE(sig.AddRelation("R", 2).ok());
  EXPECT_TRUE(sig.AddRelation("R", 2).ok());    // same arity: idempotent
  EXPECT_FALSE(sig.AddRelation("R", 3).ok());   // different arity: error
  EXPECT_FALSE(sig.AddRelation("Z", 0).ok());   // bad arity
}

TEST(SignatureTest, Keys) {
  Signature sig;
  ASSERT_TRUE(sig.AddRelation("R", 3).ok());
  EXPECT_FALSE(sig.SetKey("missing", {1}).ok());
  EXPECT_FALSE(sig.SetKey("R", {4}).ok());  // out of range
  ASSERT_TRUE(sig.SetKey("R", {1, 2}).ok());
  ASSERT_TRUE(sig.KeyOf("R").has_value());
  EXPECT_EQ(*sig.KeyOf("R"), (std::vector<int>{1, 2}));
  EXPECT_FALSE(sig.KeyOf("missing").has_value());
}

TEST(SignatureTest, RemoveAndMerge) {
  Signature a, b;
  ASSERT_TRUE(a.AddRelation("R", 2).ok());
  ASSERT_TRUE(b.AddRelation("S", 2).ok());
  Signature merged = Signature::Merge(a, b).value();
  EXPECT_TRUE(merged.Contains("R"));
  EXPECT_TRUE(merged.Contains("S"));
  merged.RemoveRelation("R");
  EXPECT_FALSE(merged.Contains("R"));
  // Conflicting arities fail to merge.
  Signature c;
  ASSERT_TRUE(c.AddRelation("R", 3).ok());
  EXPECT_FALSE(Signature::Merge(a, c).ok());
}

TEST(SignatureTest, Disjointness) {
  Signature a, b, c;
  ASSERT_TRUE(a.AddRelation("R", 2).ok());
  ASSERT_TRUE(b.AddRelation("S", 2).ok());
  ASSERT_TRUE(c.AddRelation("R", 2).ok());
  EXPECT_TRUE(Signature::Disjoint(a, b));
  EXPECT_FALSE(Signature::Disjoint(a, c));
}

TEST(MappingTest, ValidationCatchesErrors) {
  Mapping m;
  ASSERT_TRUE(m.input.AddRelation("R", 2).ok());
  ASSERT_TRUE(m.output.AddRelation("S", 2).ok());
  m.constraints = {Constraint::Contain(Rel("R", 2), Rel("S", 2))};
  EXPECT_TRUE(m.Validate().ok());

  // Undeclared relation.
  m.constraints.push_back(Constraint::Contain(Rel("Z", 2), Rel("S", 2)));
  EXPECT_FALSE(m.Validate().ok());
  m.constraints.pop_back();

  // Arity mismatch against the declaration.
  m.constraints.push_back(Constraint::Contain(Rel("R", 2), Rel("S", 2)));
  m.constraints.push_back(
      Constraint::Contain(Project({1, 1, 2}, Rel("R", 2)),
                          Product(Rel("S", 2), Project({1}, Rel("R", 2)))));
  EXPECT_TRUE(m.Validate().ok());

  // Non-disjoint signatures.
  Mapping bad;
  ASSERT_TRUE(bad.input.AddRelation("R", 2).ok());
  ASSERT_TRUE(bad.output.AddRelation("R", 2).ok());
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(KeyConstraintsTest, ShapePerNonKeyAttribute) {
  // Arity 4 with key {1,2}: one constraint per non-key position.
  ConstraintSet cs = KeyConstraintsFor("R", 4, {1, 2});
  EXPECT_EQ(cs.size(), 2u);
  for (const Constraint& c : cs) {
    EXPECT_EQ(c.kind, ConstraintKind::kContainment);
    EXPECT_EQ(c.lhs->arity(), 2);
    // rhs is σ_{1=2}(D^2) per Example 2.
    EXPECT_EQ(c.rhs->kind(), ExprKind::kSelect);
    EXPECT_EQ(c.rhs->child(0)->kind(), ExprKind::kDomain);
  }
  // All positions keyed: nothing to say.
  EXPECT_TRUE(KeyConstraintsFor("R", 2, {1, 2}).empty());
}

}  // namespace
}  // namespace mapcomp
