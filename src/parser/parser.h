#ifndef MAPCOMP_PARSER_PARSER_H_
#define MAPCOMP_PARSER_PARSER_H_

#include <string>

#include "src/common/status.h"
#include "src/constraints/mapping.h"
#include "src/op/registry.h"

namespace mapcomp {

/// Deepest nesting the parser accepts: expressions plus `not` and
/// parenthesised conditions, and the depth of every expression it builds
/// (Expr::depth). Real inputs stay near 15 levels; the bound keeps hostile
/// input (a 16 MiB wire frame) from overflowing the stack, in the parser
/// and in the recursive passes that start on what it built. The compose
/// service refuses a result deeper than this, which no reply could carry.
inline constexpr int kMaxNestingDepth = 512;

/// Parser for the composition-task text format (the paper built an
/// equivalent one, §4). Grammar sketch:
///
///   problem    := (schema | map | order)*
///   schema     := 'schema' IDENT '{' reldecl* '}'
///   reldecl    := IDENT '(' INT ')' ('key' '(' intlist ')')? ';'
///   map        := 'map' IDENT '{' constraint* '}'
///   order      := 'order' IDENT (',' IDENT)* ';'
///   constraint := expr ('<=' | '=') expr ';'
///   expr       := term (('+'|'-') term)*           -- union / difference
///   term       := unary (('*'|'&') unary)*         -- product / intersection
///   unary      := 'pi' '[' intlist ']' '(' expr ')'
///               | 'sel' '[' cond ']' '(' expr ')'
///               | '$' IDENT '[' intlist? ']' '(' expr ')'
///               | 'D' '^' INT | 'empty' '^' INT
///               | '{' tuple (',' tuple)* '}'
///               | IDENT ('[' opparams ']')? '(' exprlist ')'  -- user op
///               | IDENT                                       -- relation
///               | '(' expr ')'
///   cond       := or-formula over atoms `#i OP #j`, `#i OP value`,
///                 'true', 'false', 'and', 'or', 'not'
///
/// A problem must declare exactly three schemas (in order: σ1, σ2, σ3) and
/// exactly two maps (Σ12, Σ23). An optional `order` directive fixes the
/// elimination order of σ2 symbols. Nesting deeper than 512 levels (each
/// expr, `not` and parenthesised cond is one) is an InvalidArgument error,
/// and so is any expression deeper than 512 (Expr::depth), such as a
/// chain `R + R + … + R` of 513 terms.
class Parser {
 public:
  explicit Parser(const op::Registry* registry = &op::Registry::Default())
      : registry_(registry) {}

  /// Parses a full composition problem.
  Result<CompositionProblem> ParseProblem(const std::string& text) const;

  /// Parses one expression; relation names resolve against `sig`.
  Result<ExprPtr> ParseExpr(const std::string& text,
                            const Signature& sig) const;

  /// Parses one constraint (without the trailing semicolon).
  Result<Constraint> ParseConstraint(const std::string& text,
                                     const Signature& sig) const;

  /// Parses a semicolon-separated constraint list.
  Result<ConstraintSet> ParseConstraints(const std::string& text,
                                         const Signature& sig) const;

 private:
  const op::Registry* registry_;
};

}  // namespace mapcomp

#endif  // MAPCOMP_PARSER_PARSER_H_
