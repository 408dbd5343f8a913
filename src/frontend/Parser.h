//===- frontend/Parser.h - MiniML parser ------------------------*- C++ -*-===//
///
/// \file
/// Recursive-descent parser for MiniML.
///
/// Grammar sketch (precedence low to high):
///   program  := decl* expr? EOF
///   decl     := 'datatype' tyvars? IDENT '=' ctor ('|' ctor)*
///             | 'fun' funbind ('and' funbind)*
///             | 'val' pat '=' expr
///   expr     := 'let' decl+ 'in' expr 'end' | 'if' | 'case' | 'fn'
///             | assign
///   assign   := orelse (':=' orelse)?
///   orelse   := andalso ('orelse' andalso)*
///   andalso  := cmp ('andalso' cmp)*
///   cmp      := cons (CMPOP cons)?
///   cons     := add ('::' cons)?
///   add      := mul (('+'|'-'|'+.'|'-.') mul)*
///   mul      := unary (('*'|'/'|'mod'|'*.'|'/.') unary)*
///   unary    := '~' unary | 'not' unary | '!' unary | 'ref' unary
///             | 'print' unary | app
///   app      := atom atom*
///
/// Constructor application `C (a, b)` splats a directly parenthesized tuple
/// into constructor arguments; `C ((a, b))` passes one tuple argument.
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_FRONTEND_PARSER_H
#define TFGC_FRONTEND_PARSER_H

#include "frontend/Ast.h"
#include "frontend/Token.h"
#include "support/Diagnostics.h"

#include <optional>
#include <vector>

namespace tfgc {

class Parser {
public:
  Parser(std::vector<Token> Tokens, DiagnosticEngine &Diags);

  /// Parses a whole program. Returns nullopt if any syntax error was
  /// reported.
  std::optional<Program> parseProgram();

  /// Deepest nesting accepted; a deeper program gets one diagnostic. The
  /// parser and every later pass recurse over the syntax tree, so beyond
  /// some depth the stack would overflow. One level is one expression,
  /// pattern or type nested in another, and also one link of an operator
  /// chain (`1 + 1 + ...`) or list literal, which build trees that deep.
  static constexpr unsigned MaxNesting = 512;

private:
  std::vector<Token> Tokens;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  unsigned Depth = 0;
  /// Set once MaxNesting is exceeded: the parse skips to end of input and
  /// reports nothing further.
  bool TooDeep = false;

  /// Charges nesting levels to the parse in progress and gives them back
  /// when the scope ends; deeper() is false (after a diagnostic) past
  /// MaxNesting.
  struct Nesting {
    Parser &P;
    unsigned Saved;
    explicit Nesting(Parser &P) : P(P), Saved(P.Depth) {}
    Nesting(const Nesting &) = delete;
    ~Nesting() { P.Depth = Saved; }
    bool deeper();
  };

  void error(SourceLoc Loc, std::string Message);

  const Token &peek(size_t Ahead = 0) const;
  const Token &advance();
  bool check(TokenKind Kind) const { return peek().Kind == Kind; }
  bool accept(TokenKind Kind);
  bool expect(TokenKind Kind, const char *Context);
  SourceLoc loc() const { return peek().Loc; }

  bool atDeclStart() const;
  bool atAtomStart() const;

  // Declarations.
  DeclPtr parseDecl();
  DeclPtr parseDatatypeDecl();
  DeclPtr parseFunDecl();
  DeclPtr parseValDecl();

  // Types. A '(' t1, t2, ... ')' group can only be an n-ary function
  // domain or a multi-argument type application; the Group out-parameters
  // thread it upward until one of those resolves it.
  TypeAstPtr parseType();
  TypeAstPtr parseTypeProduct(std::vector<TypeAstPtr> &Group);
  TypeAstPtr parseTypePostfix(std::vector<TypeAstPtr> *Group);
  TypeAstPtr parseTypeAtomOrGroup(std::vector<TypeAstPtr> &Group);

  // Patterns.
  PatternPtr parsePattern();
  PatternPtr parseConsPattern();
  PatternPtr parseAtomicPattern();

  // Expressions.
  ExprPtr parseExpr();
  ExprPtr parseAssign();
  ExprPtr parseOrElse();
  ExprPtr parseAndAlso();
  ExprPtr parseCompare();
  ExprPtr parseCons();
  ExprPtr parseAdditive();
  ExprPtr parseMultiplicative();
  ExprPtr parseUnary();
  ExprPtr parseApp();

  struct Atom {
    ExprPtr E;
    bool ParenTuple = false; ///< Directly written as (e1, ..., en).
  };
  Atom parseAtom();

  ExprPtr makeCons(SourceLoc Loc, ExprPtr Head, ExprPtr Tail);
  ExprPtr errorExpr(SourceLoc Loc);
};

} // namespace tfgc

#endif // TFGC_FRONTEND_PARSER_H
