#include "src/parser/parser.h"

#include <gtest/gtest.h>

#include "src/algebra/builders.h"
#include "src/algebra/print.h"

namespace mapcomp {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(sig_.AddRelation("R", 2).ok());
    ASSERT_TRUE(sig_.AddRelation("S", 2).ok());
    ASSERT_TRUE(sig_.AddRelation("T", 3).ok());
    ASSERT_TRUE(sig_.AddRelation("U", 1).ok());
  }
  Parser parser_;
  Signature sig_;
};

TEST_F(ParserTest, Relation) {
  ExprPtr e = parser_.ParseExpr("R", sig_).value();
  EXPECT_TRUE(ExprEquals(e, Rel("R", 2)));
}

TEST_F(ParserTest, BinaryOperators) {
  EXPECT_TRUE(ExprEquals(parser_.ParseExpr("R + S", sig_).value(),
                         Union(Rel("R", 2), Rel("S", 2))));
  EXPECT_TRUE(ExprEquals(parser_.ParseExpr("R - S", sig_).value(),
                         Difference(Rel("R", 2), Rel("S", 2))));
  EXPECT_TRUE(ExprEquals(parser_.ParseExpr("R & S", sig_).value(),
                         Intersect(Rel("R", 2), Rel("S", 2))));
  EXPECT_TRUE(ExprEquals(parser_.ParseExpr("R * U", sig_).value(),
                         Product(Rel("R", 2), Rel("U", 1))));
}

TEST_F(ParserTest, Precedence) {
  // * binds tighter than +: R + U*U parses as R + (U × U).
  ExprPtr f = parser_.ParseExpr("R + U * U", sig_).value();
  EXPECT_EQ(f->kind(), ExprKind::kUnion);
  EXPECT_EQ(f->child(1)->kind(), ExprKind::kProduct);
  // Mixed precedence would make U + (U*R) an arity error — reported cleanly.
  EXPECT_FALSE(parser_.ParseExpr("U + U * R", sig_).ok());
}

TEST_F(ParserTest, ProjectSelect) {
  EXPECT_TRUE(ExprEquals(parser_.ParseExpr("pi[2,1](R)", sig_).value(),
                         Project({2, 1}, Rel("R", 2))));
  EXPECT_TRUE(ExprEquals(
      parser_.ParseExpr("sel[#1=#2 and #1!=3](R)", sig_).value(),
      Select(Condition::And(Condition::AttrCmp(1, CmpOp::kEq, 2),
                            Condition::AttrConst(1, CmpOp::kNe, int64_t{3})),
             Rel("R", 2))));
}

TEST_F(ParserTest, ConditionConnectivesAndLiterals) {
  ExprPtr e =
      parser_.ParseExpr("sel[not (#1='a' or false)](U)", sig_).value();
  EXPECT_EQ(e->kind(), ExprKind::kSelect);
  EXPECT_EQ(e->condition().kind(), Condition::Kind::kNot);
}

TEST_F(ParserTest, DomainEmptyLiteral) {
  EXPECT_TRUE(ExprEquals(parser_.ParseExpr("D^3", sig_).value(), Dom(3)));
  EXPECT_TRUE(
      ExprEquals(parser_.ParseExpr("empty^2", sig_).value(), EmptyRel(2)));
  ExprPtr lit = parser_.ParseExpr("{(1,'a'),(2,'b')}", sig_).value();
  EXPECT_EQ(lit->kind(), ExprKind::kLiteral);
  EXPECT_EQ(lit->arity(), 2);
  EXPECT_EQ(lit->tuples().size(), 2u);
  ExprPtr empty_lit = parser_.ParseExpr("{}^2", sig_).value();
  EXPECT_EQ(empty_lit->tuples().size(), 0u);
  EXPECT_EQ(empty_lit->arity(), 2);
}

TEST_F(ParserTest, Skolem) {
  ExprPtr e = parser_.ParseExpr("$f[1,2](R)", sig_).value();
  EXPECT_TRUE(ExprEquals(e, SkolemApp("f", {1, 2}, Rel("R", 2))));
}

TEST_F(ParserTest, UserOp) {
  ExprPtr e = parser_.ParseExpr("semijoin[#1=#3](R, S)", sig_).value();
  EXPECT_EQ(e->kind(), ExprKind::kUserOp);
  EXPECT_EQ(e->name(), "semijoin");
  EXPECT_EQ(e->arity(), 2);
  ExprPtr tc = parser_.ParseExpr("tc(R)", sig_).value();
  EXPECT_EQ(tc->name(), "tc");
}

TEST_F(ParserTest, Constraints) {
  Constraint c = parser_.ParseConstraint("pi[1](R) <= U", sig_).value();
  EXPECT_EQ(c.kind, ConstraintKind::kContainment);
  Constraint e = parser_.ParseConstraint("R = S", sig_).value();
  EXPECT_EQ(e.kind, ConstraintKind::kEquality);
  ConstraintSet cs =
      parser_.ParseConstraints("R <= S; S <= R;", sig_).value();
  EXPECT_EQ(cs.size(), 2u);
}

TEST_F(ParserTest, PrintParseRoundTrip) {
  const char* exprs[] = {
      "((R + S) - sel[#1=#2](R))",
      "pi[2,1](sel[#1<=5](R))",
      "(R * (U & U))",
      "$f[1](pi[1](R))",
      "sel[#1=#2 and #2!='x'](S)",
      "(D^2 - empty^2)",
  };
  for (const char* text : exprs) {
    ExprPtr e = parser_.ParseExpr(text, sig_).value();
    ExprPtr round = parser_.ParseExpr(ExprToString(e), sig_).value();
    EXPECT_TRUE(ExprEquals(e, round)) << text;
  }
}

TEST_F(ParserTest, Errors) {
  EXPECT_FALSE(parser_.ParseExpr("W", sig_).ok());          // undeclared
  EXPECT_FALSE(parser_.ParseExpr("R + U", sig_).ok());      // arity mismatch
  EXPECT_FALSE(parser_.ParseExpr("pi[5](R)", sig_).ok());   // index range
  EXPECT_FALSE(parser_.ParseExpr("sel[#9=1](R)", sig_).ok());
  EXPECT_FALSE(parser_.ParseExpr("R +", sig_).ok());        // dangling op
  EXPECT_FALSE(parser_.ParseExpr("mystery(R)", sig_).ok()); // unknown op
  EXPECT_FALSE(parser_.ParseConstraint("R <= U", sig_).ok());
  EXPECT_FALSE(parser_.ParseExpr("{(1),(1,2)}", sig_).ok());
  EXPECT_FALSE(parser_.ParseExpr("{}", sig_).ok());  // needs arity
}

/// `pi[1,2](` wrapped around R until the expression is `depth` levels deep
/// (R alone is one level).
std::string NestedProjection(int depth) {
  std::string out;
  for (int i = 1; i < depth; ++i) out += "pi[1,2](";
  out += "R";
  out.append(static_cast<size_t>(depth - 1), ')');
  return out;
}

TEST_F(ParserTest, NestingDepthIsBounded) {
  ExprPtr deepest = parser_.ParseExpr(NestedProjection(512), sig_).value();
  EXPECT_EQ(deepest->kind(), ExprKind::kProject);
  for (int depth : {513, 20000}) {
    Result<ExprPtr> e = parser_.ParseExpr(NestedProjection(depth), sig_);
    ASSERT_FALSE(e.ok()) << depth;
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument) << depth;
    EXPECT_NE(e.status().message().find("line 1"), std::string::npos)
        << e.status().ToString();
  }
  // `not` and parenthesised conditions count as levels too.
  std::string nots, parens;
  for (int i = 0; i < 20000; ++i) {
    nots += "not ";
    parens += "(";
  }
  for (const std::string& cond :
       {nots + "#1=#2", parens + "#1=#2" + std::string(20000, ')')}) {
    Result<ExprPtr> e = parser_.ParseExpr("sel[" + cond + "](R)", sig_);
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
  }
  // The bound holds in every entry point, constraint lists included.
  Result<ConstraintSet> cs =
      parser_.ParseConstraints(NestedProjection(20000) + " <= S;", sig_);
  ASSERT_FALSE(cs.ok());
  EXPECT_EQ(cs.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ParserTest, CommentsAndWhitespace) {
  ExprPtr e = parser_.ParseExpr("R  -- trailing comment\n + S", sig_).value();
  EXPECT_EQ(e->kind(), ExprKind::kUnion);
}

TEST(ParserProblemTest, FullProblem) {
  const char* text = R"(
    -- Example 1 of the paper: the movies schema editor.
    schema s1 { Movies(6); }
    schema s2 { FiveStarMovies(3); }
    schema s3 { Names(2); Years(2); }
    map m12 {
      pi[1,2,3](sel[#4=5](Movies)) <= FiveStarMovies;
    }
    map m23 {
      pi[1,2](FiveStarMovies) <= Names;
      pi[1,3](FiveStarMovies) <= Years;
    }
    order FiveStarMovies;
  )";
  Parser parser;
  CompositionProblem p = parser.ParseProblem(text).value();
  EXPECT_EQ(p.sigma1.names(), (std::vector<std::string>{"Movies"}));
  EXPECT_EQ(p.sigma2.names(), (std::vector<std::string>{"FiveStarMovies"}));
  EXPECT_EQ(p.sigma3.size(), 2);
  EXPECT_EQ(p.sigma12.size(), 1u);
  EXPECT_EQ(p.sigma23.size(), 2u);
  EXPECT_EQ(p.elimination_order,
            (std::vector<std::string>{"FiveStarMovies"}));
}

TEST(ParserProblemTest, KeysParsed) {
  const char* text = R"(
    schema s1 { E(2); }
    schema s2 { F(2) key(1); }
    schema s3 { G(2); }
    map m12 { E <= F; }
    map m23 { F <= G; }
  )";
  Parser parser;
  CompositionProblem p = parser.ParseProblem(text).value();
  ASSERT_TRUE(p.sigma2.KeyOf("F").has_value());
  EXPECT_EQ(*p.sigma2.KeyOf("F"), (std::vector<int>{1}));
}

TEST(ParserProblemTest, ProblemErrors) {
  Parser parser;
  EXPECT_FALSE(parser.ParseProblem("schema a { R(2); }").ok());  // 3 needed
  EXPECT_FALSE(parser
                   .ParseProblem(
                       "schema a { R(0); } schema b {} schema c {} "
                       "map x {} map y {}")
                   .ok());  // bad arity
  // Non-disjoint schemas.
  EXPECT_FALSE(parser
                   .ParseProblem(
                       "schema a { R(2); } schema b { R(2); } "
                       "schema c { T(2); } map x {} map y {}")
                   .ok());
}

}  // namespace
}  // namespace mapcomp
