#include "src/parser/parser.h"

#include <set>

#include "src/algebra/builders.h"
#include "src/parser/lexer.h"

namespace mapcomp {

namespace {

/// Deepest nesting the parser accepts: expressions plus `not` and
/// parenthesised conditions. Real inputs stay near 15 levels; the bound
/// keeps hostile input (a 16 MiB wire frame) from overflowing the stack.
constexpr int kMaxNestingDepth = 512;

const std::set<std::string>& ReservedWords() {
  static const std::set<std::string>* kWords = new std::set<std::string>{
      "schema", "map", "order", "key",  "pi",    "sel", "D",
      "empty",  "true", "false", "and", "or",    "not"};
  return *kWords;
}

/// Recursive-descent parser over a token stream.
class Impl {
 public:
  Impl(std::vector<Token> tokens, const op::Registry* registry)
      : tokens_(std::move(tokens)), registry_(registry) {}

  // --- token utilities ---
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Next() { return tokens_[pos_++]; }
  bool At(TokenKind k) const { return Peek().kind == k; }
  bool AtIdent(const std::string& word) const {
    return At(TokenKind::kIdent) && Peek().text == word;
  }
  Status Error(const std::string& msg) const {
    const Token& t = Peek();
    return Status::InvalidArgument(msg + ", found " + TokenToString(t) +
                                   " at line " + std::to_string(t.line) +
                                   ", column " + std::to_string(t.column));
  }
  Status Expect(TokenKind k, const std::string& what) {
    if (!At(k)) return Error("expected " + what);
    Next();
    return Status::OK();
  }

  /// One level of nesting, held for the guard's lifetime.
  class Nesting {
   public:
    explicit Nesting(Impl* impl) : impl_(impl) { ++impl_->depth_; }
    ~Nesting() { --impl_->depth_; }
    Status Check() const {
      if (impl_->depth_ <= kMaxNestingDepth) return Status::OK();
      return impl_->Error("nesting deeper than " +
                          std::to_string(kMaxNestingDepth) + " levels");
    }

   private:
    Impl* impl_;
  };

  // --- grammar productions ---

  Result<CompositionProblem> Problem() {
    CompositionProblem out;
    std::vector<Signature> schemas;
    std::vector<ConstraintSet> maps;
    std::vector<std::pair<std::string, std::string>> map_names;
    while (!At(TokenKind::kEnd)) {
      if (AtIdent("schema")) {
        Next();
        if (!At(TokenKind::kIdent)) return Error("expected schema name");
        Next();  // schema name only documents intent
        MAPCOMP_ASSIGN_OR_RETURN(Signature sig, SchemaBody());
        schemas.push_back(std::move(sig));
      } else if (AtIdent("map")) {
        Next();
        if (!At(TokenKind::kIdent)) return Error("expected map name");
        Next();
        if (schemas.empty()) {
          return Error("map declared before any schema");
        }
        // Maps may reference any schema declared so far.
        Signature env;
        for (const Signature& s : schemas) {
          MAPCOMP_ASSIGN_OR_RETURN(env, Signature::Merge(env, s));
        }
        MAPCOMP_ASSIGN_OR_RETURN(ConstraintSet cs, MapBody(env));
        maps.push_back(std::move(cs));
      } else if (AtIdent("order")) {
        Next();
        while (true) {
          if (!At(TokenKind::kIdent)) return Error("expected symbol name");
          out.elimination_order.push_back(Next().text);
          if (At(TokenKind::kComma)) {
            Next();
            continue;
          }
          break;
        }
        MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kSemi, "';'"));
      } else {
        return Error("expected 'schema', 'map' or 'order'");
      }
    }
    if (schemas.size() != 3) {
      return Status::InvalidArgument(
          "a composition problem needs exactly 3 schemas, got " +
          std::to_string(schemas.size()));
    }
    if (maps.size() != 2) {
      return Status::InvalidArgument(
          "a composition problem needs exactly 2 maps, got " +
          std::to_string(maps.size()));
    }
    out.sigma1 = std::move(schemas[0]);
    out.sigma2 = std::move(schemas[1]);
    out.sigma3 = std::move(schemas[2]);
    out.sigma12 = std::move(maps[0]);
    out.sigma23 = std::move(maps[1]);
    MAPCOMP_RETURN_IF_ERROR(out.Validate());
    return out;
  }

  Result<Signature> SchemaBody() {
    Signature sig;
    MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kLBrace, "'{'"));
    while (!At(TokenKind::kRBrace)) {
      if (!At(TokenKind::kIdent)) return Error("expected relation name");
      std::string name = Next().text;
      if (ReservedWords().count(name) > 0) {
        return Status::InvalidArgument("'" + name + "' is a reserved word");
      }
      MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
      if (!At(TokenKind::kInt)) return Error("expected arity");
      int arity = static_cast<int>(Next().int_value);
      MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      MAPCOMP_RETURN_IF_ERROR(sig.AddRelation(name, arity));
      if (AtIdent("key")) {
        Next();
        MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
        MAPCOMP_ASSIGN_OR_RETURN(std::vector<int> key, IntList());
        MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
        MAPCOMP_RETURN_IF_ERROR(sig.SetKey(name, std::move(key)));
      }
      MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kSemi, "';'"));
    }
    Next();  // }
    return sig;
  }

  Result<ConstraintSet> MapBody(const Signature& env) {
    ConstraintSet out;
    MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kLBrace, "'{'"));
    while (!At(TokenKind::kRBrace)) {
      MAPCOMP_ASSIGN_OR_RETURN(Constraint c, ParseOneConstraint(env));
      MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kSemi, "';'"));
      out.push_back(std::move(c));
    }
    Next();  // }
    return out;
  }

  Result<Constraint> ParseOneConstraint(const Signature& env) {
    MAPCOMP_ASSIGN_OR_RETURN(ExprPtr lhs, Expression(env));
    ConstraintKind kind;
    if (At(TokenKind::kLe)) {
      kind = ConstraintKind::kContainment;
    } else if (At(TokenKind::kEq)) {
      kind = ConstraintKind::kEquality;
    } else {
      return Error("expected '<=' or '=' between constraint sides");
    }
    Next();
    MAPCOMP_ASSIGN_OR_RETURN(ExprPtr rhs, Expression(env));
    if (lhs->arity() != rhs->arity()) {
      return Status::InvalidArgument(
          "constraint sides have different arities (" +
          std::to_string(lhs->arity()) + " vs " + std::to_string(rhs->arity()) +
          ")");
    }
    return kind == ConstraintKind::kContainment
               ? Constraint::Contain(std::move(lhs), std::move(rhs))
               : Constraint::Equal(std::move(lhs), std::move(rhs));
  }

  Result<ExprPtr> Expression(const Signature& env) {
    Nesting nesting(this);
    MAPCOMP_RETURN_IF_ERROR(nesting.Check());
    MAPCOMP_ASSIGN_OR_RETURN(ExprPtr lhs, Term(env));
    while (At(TokenKind::kPlus) || At(TokenKind::kMinus)) {
      bool is_union = At(TokenKind::kPlus);
      Next();
      MAPCOMP_ASSIGN_OR_RETURN(ExprPtr rhs, Term(env));
      if (lhs->arity() != rhs->arity()) {
        return Error("arity mismatch in union/difference");
      }
      lhs = is_union ? Union(std::move(lhs), std::move(rhs))
                     : Difference(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> Term(const Signature& env) {
    MAPCOMP_ASSIGN_OR_RETURN(ExprPtr lhs, Unary(env));
    while (At(TokenKind::kStar) || At(TokenKind::kAmp)) {
      bool is_product = At(TokenKind::kStar);
      Next();
      MAPCOMP_ASSIGN_OR_RETURN(ExprPtr rhs, Unary(env));
      if (!is_product && lhs->arity() != rhs->arity()) {
        return Error("arity mismatch in intersection");
      }
      lhs = is_product ? Product(std::move(lhs), std::move(rhs))
                       : Intersect(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> Unary(const Signature& env) {
    if (At(TokenKind::kLParen)) {
      Next();
      MAPCOMP_ASSIGN_OR_RETURN(ExprPtr e, Expression(env));
      MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      return e;
    }
    if (At(TokenKind::kLBrace)) return Literal();
    if (At(TokenKind::kDollar)) return SkolemTerm(env);
    if (AtIdent("pi")) {
      Next();
      MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kLBracket, "'['"));
      MAPCOMP_ASSIGN_OR_RETURN(std::vector<int> idx, IntList());
      MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kRBracket, "']'"));
      MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
      MAPCOMP_ASSIGN_OR_RETURN(ExprPtr e, Expression(env));
      MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      for (int i : idx) {
        if (i < 1 || i > e->arity()) {
          return Status::InvalidArgument("projection index " +
                                         std::to_string(i) + " out of range");
        }
      }
      return Project(std::move(idx), std::move(e));
    }
    if (AtIdent("sel")) {
      Next();
      MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kLBracket, "'['"));
      MAPCOMP_ASSIGN_OR_RETURN(Condition c, Cond());
      MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kRBracket, "']'"));
      MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
      MAPCOMP_ASSIGN_OR_RETURN(ExprPtr e, Expression(env));
      MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      if (c.MaxAttr() > e->arity()) {
        return Status::InvalidArgument(
            "selection condition references attribute beyond arity");
      }
      return Select(std::move(c), std::move(e));
    }
    if (AtIdent("D")) {
      Next();
      MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kCaret, "'^'"));
      if (!At(TokenKind::kInt)) return Error("expected arity after 'D^'");
      return Dom(static_cast<int>(Next().int_value));
    }
    if (AtIdent("empty")) {
      Next();
      MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kCaret, "'^'"));
      if (!At(TokenKind::kInt)) return Error("expected arity after 'empty^'");
      return EmptyRel(static_cast<int>(Next().int_value));
    }
    if (At(TokenKind::kIdent)) {
      std::string name = Next().text;
      if (ReservedWords().count(name) > 0) {
        return Status::InvalidArgument("'" + name +
                                       "' is reserved and cannot start "
                                       "an expression here");
      }
      // User-defined operator application?
      if (At(TokenKind::kLBracket) || At(TokenKind::kLParen)) {
        if (registry_ != nullptr && registry_->Find(name) != nullptr) {
          return UserOpTerm(name, env);
        }
        if (At(TokenKind::kLParen)) {
          return Status::InvalidArgument("unknown operator '" + name + "'");
        }
      }
      if (!env.Contains(name)) {
        return Status::NotFound("relation '" + name + "' not declared");
      }
      return Rel(name, env.ArityOf(name));
    }
    return Error("expected an expression");
  }

  Result<ExprPtr> Literal() {
    Next();  // {
    std::vector<Tuple> tuples;
    int arity = -1;
    while (!At(TokenKind::kRBrace)) {
      MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
      Tuple t;
      while (true) {
        MAPCOMP_ASSIGN_OR_RETURN(Value v, ValueLit());
        t.push_back(std::move(v));
        if (At(TokenKind::kComma)) {
          Next();
          continue;
        }
        break;
      }
      MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      if (arity == -1) {
        arity = static_cast<int>(t.size());
      } else if (arity != static_cast<int>(t.size())) {
        return Error("literal tuples have inconsistent arities");
      }
      tuples.push_back(std::move(t));
      if (At(TokenKind::kComma)) Next();
    }
    Next();  // }
    if (At(TokenKind::kCaret)) {
      Next();
      if (!At(TokenKind::kInt)) return Error("expected arity after '^'");
      int declared = static_cast<int>(Next().int_value);
      if (arity != -1 && arity != declared) {
        return Error("literal arity annotation mismatch");
      }
      arity = declared;
    }
    if (arity == -1) {
      return Error("empty literal needs an arity annotation '{...}^r'");
    }
    return Lit(arity, std::move(tuples));
  }

  Result<ExprPtr> SkolemTerm(const Signature& env) {
    Next();  // $
    if (!At(TokenKind::kIdent)) return Error("expected Skolem function name");
    std::string fname = Next().text;
    MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kLBracket, "'['"));
    std::vector<int> idx;
    if (!At(TokenKind::kRBracket)) {
      MAPCOMP_ASSIGN_OR_RETURN(idx, IntList());
    }
    MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kRBracket, "']'"));
    MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    MAPCOMP_ASSIGN_OR_RETURN(ExprPtr e, Expression(env));
    MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    for (int i : idx) {
      if (i < 1 || i > e->arity()) {
        return Status::InvalidArgument("skolem index out of range");
      }
    }
    return SkolemApp(std::move(fname), std::move(idx), std::move(e));
  }

  Result<ExprPtr> UserOpTerm(const std::string& name, const Signature& env) {
    Condition cond = Condition::True();
    std::vector<int> indexes;
    if (At(TokenKind::kLBracket)) {
      Next();
      // Either an index list, a condition, or `indexes; condition`.
      if (At(TokenKind::kInt)) {
        MAPCOMP_ASSIGN_OR_RETURN(indexes, IntList());
        if (At(TokenKind::kSemi)) {
          Next();
          MAPCOMP_ASSIGN_OR_RETURN(cond, Cond());
        }
      } else if (!At(TokenKind::kRBracket)) {
        MAPCOMP_ASSIGN_OR_RETURN(cond, Cond());
      }
      MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kRBracket, "']'"));
    }
    MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    std::vector<ExprPtr> args;
    while (true) {
      MAPCOMP_ASSIGN_OR_RETURN(ExprPtr e, Expression(env));
      args.push_back(std::move(e));
      if (At(TokenKind::kComma)) {
        Next();
        continue;
      }
      break;
    }
    MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    return registry_->MakeOp(name, std::move(args), std::move(cond),
                             std::move(indexes));
  }

  Result<std::vector<int>> IntList() {
    std::vector<int> out;
    while (true) {
      if (!At(TokenKind::kInt)) return Error("expected integer");
      out.push_back(static_cast<int>(Next().int_value));
      if (At(TokenKind::kComma)) {
        Next();
        continue;
      }
      break;
    }
    return out;
  }

  Result<Value> ValueLit() {
    if (At(TokenKind::kInt)) return Value(Next().int_value);
    if (At(TokenKind::kString)) return Value(Next().text);
    return Error("expected integer or string value");
  }

  // --- conditions ---

  Result<Condition> Cond() { return OrCond(); }

  Result<Condition> OrCond() {
    MAPCOMP_ASSIGN_OR_RETURN(Condition lhs, AndCond());
    while (AtIdent("or")) {
      Next();
      MAPCOMP_ASSIGN_OR_RETURN(Condition rhs, AndCond());
      lhs = Condition::Or(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<Condition> AndCond() {
    MAPCOMP_ASSIGN_OR_RETURN(Condition lhs, NotCond());
    while (AtIdent("and")) {
      Next();
      MAPCOMP_ASSIGN_OR_RETURN(Condition rhs, NotCond());
      lhs = Condition::And(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<Condition> NotCond() {
    if (AtIdent("not") || At(TokenKind::kLParen)) {
      Nesting nesting(this);
      MAPCOMP_RETURN_IF_ERROR(nesting.Check());
      if (AtIdent("not")) {
        Next();
        MAPCOMP_ASSIGN_OR_RETURN(Condition c, NotCond());
        return Condition::Not(std::move(c));
      }
      Next();
      MAPCOMP_ASSIGN_OR_RETURN(Condition c, Cond());
      MAPCOMP_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      return c;
    }
    if (AtIdent("true")) {
      Next();
      return Condition::True();
    }
    if (AtIdent("false")) {
      Next();
      return Condition::False();
    }
    return AtomCond();
  }

  Result<Condition> AtomCond() {
    MAPCOMP_ASSIGN_OR_RETURN(CondOperand lhs, Operand());
    CmpOp op;
    switch (Peek().kind) {
      case TokenKind::kEq:
        op = CmpOp::kEq;
        break;
      case TokenKind::kNe:
        op = CmpOp::kNe;
        break;
      case TokenKind::kLt:
        op = CmpOp::kLt;
        break;
      case TokenKind::kLe:
        op = CmpOp::kLe;
        break;
      case TokenKind::kGt:
        op = CmpOp::kGt;
        break;
      case TokenKind::kGe:
        op = CmpOp::kGe;
        break;
      default:
        return Error("expected comparison operator");
    }
    Next();
    MAPCOMP_ASSIGN_OR_RETURN(CondOperand rhs, Operand());
    return Condition::Atom(std::move(lhs), op, std::move(rhs));
  }

  Result<CondOperand> Operand() {
    if (At(TokenKind::kHash)) {
      Next();
      if (!At(TokenKind::kInt)) return Error("expected attribute index");
      return CondOperand::Attr(static_cast<int>(Next().int_value));
    }
    MAPCOMP_ASSIGN_OR_RETURN(Value v, ValueLit());
    return CondOperand::Const(std::move(v));
  }

  Status ExpectEnd() {
    if (!At(TokenKind::kEnd)) return Error("trailing input");
    return Status::OK();
  }

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  ///< live Nesting guards
  const op::Registry* registry_;
};

}  // namespace

Result<CompositionProblem> Parser::ParseProblem(const std::string& text) const {
  MAPCOMP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Impl impl(std::move(tokens), registry_);
  return impl.Problem();
}

Result<ExprPtr> Parser::ParseExpr(const std::string& text,
                                  const Signature& sig) const {
  MAPCOMP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Impl impl(std::move(tokens), registry_);
  MAPCOMP_ASSIGN_OR_RETURN(ExprPtr e, impl.Expression(sig));
  MAPCOMP_RETURN_IF_ERROR(impl.ExpectEnd());
  return e;
}

Result<Constraint> Parser::ParseConstraint(const std::string& text,
                                           const Signature& sig) const {
  MAPCOMP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Impl impl(std::move(tokens), registry_);
  MAPCOMP_ASSIGN_OR_RETURN(Constraint c, impl.ParseOneConstraint(sig));
  MAPCOMP_RETURN_IF_ERROR(impl.ExpectEnd());
  return c;
}

Result<ConstraintSet> Parser::ParseConstraints(const std::string& text,
                                               const Signature& sig) const {
  MAPCOMP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Impl impl(std::move(tokens), registry_);
  ConstraintSet out;
  while (true) {
    MAPCOMP_ASSIGN_OR_RETURN(Constraint c, impl.ParseOneConstraint(sig));
    out.push_back(std::move(c));
    if (impl.At(TokenKind::kSemi)) {
      impl.Next();
      if (impl.At(TokenKind::kEnd)) break;
      continue;
    }
    break;
  }
  MAPCOMP_RETURN_IF_ERROR(impl.ExpectEnd());
  return out;
}

}  // namespace mapcomp
