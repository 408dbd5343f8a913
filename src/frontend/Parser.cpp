//===- frontend/Parser.cpp ------------------------------------------------===//

#include "frontend/Parser.h"

#include <cassert>

using namespace tfgc;

Parser::Parser(std::vector<Token> Tokens, DiagnosticEngine &Diags)
    : Tokens(std::move(Tokens)), Diags(Diags) {
  assert(!this->Tokens.empty() && this->Tokens.back().Kind == TokenKind::Eof &&
         "token stream must end with Eof");
}

const Token &Parser::peek(size_t Ahead) const {
  size_t Index = Pos + Ahead;
  if (Index >= Tokens.size())
    Index = Tokens.size() - 1;
  return Tokens[Index];
}

const Token &Parser::advance() {
  const Token &T = Tokens[Pos];
  if (Pos + 1 < Tokens.size())
    ++Pos;
  return T;
}

bool Parser::accept(TokenKind Kind) {
  if (!check(Kind))
    return false;
  advance();
  return true;
}

bool Parser::expect(TokenKind Kind, const char *Context) {
  if (accept(Kind))
    return true;
  error(loc(), std::string("expected ") + tokenKindName(Kind) + " " +
                   Context + ", found " + tokenKindName(peek().Kind));
  return false;
}

void Parser::error(SourceLoc Loc, std::string Message) {
  if (!TooDeep)
    Diags.error(Loc, std::move(Message));
}

bool Parser::Nesting::deeper() {
  if (++P.Depth <= MaxNesting)
    return true;
  if (!P.TooDeep) {
    P.Diags.error(P.loc(), "program nested too deeply (more than " +
                               std::to_string(MaxNesting) + " levels)");
    P.TooDeep = true;
  }
  // Skip to end of input: every pending production then finds Eof and
  // unwinds without consuming or reporting anything more.
  P.Pos = P.Tokens.size() - 1;
  return false;
}

bool Parser::atDeclStart() const {
  TokenKind K = peek().Kind;
  return K == TokenKind::KwDatatype || K == TokenKind::KwFun ||
         K == TokenKind::KwVal;
}

bool Parser::atAtomStart() const {
  switch (peek().Kind) {
  case TokenKind::IntLit:
  case TokenKind::FloatLit:
  case TokenKind::KwTrue:
  case TokenKind::KwFalse:
  case TokenKind::Ident:
  case TokenKind::CapIdent:
  case TokenKind::LParen:
  case TokenKind::LBracket:
    return true;
  default:
    return false;
  }
}

std::optional<Program> Parser::parseProgram() {
  Program P;
  // An optional ';' terminates a declaration — needed when the next line
  // starts with an expression that juxtaposition application would
  // otherwise swallow (like OCaml's ';;').
  while (atDeclStart() || check(TokenKind::Semi)) {
    if (accept(TokenKind::Semi))
      continue;
    P.Decls.push_back(parseDecl());
  }
  if (!check(TokenKind::Eof))
    P.Main = parseExpr();
  else
    P.Main = std::make_unique<UnitExpr>(loc());
  expect(TokenKind::Eof, "after program");
  if (Diags.hasErrors())
    return std::nullopt;
  return P;
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

DeclPtr Parser::parseDecl() {
  switch (peek().Kind) {
  case TokenKind::KwDatatype:
    return parseDatatypeDecl();
  case TokenKind::KwFun:
    return parseFunDecl();
  case TokenKind::KwVal:
    return parseValDecl();
  default:
    error(loc(), "expected declaration");
    advance();
    return std::make_unique<Decl>(DeclKind::Val, loc());
  }
}

DeclPtr Parser::parseDatatypeDecl() {
  SourceLoc Loc = loc();
  expect(TokenKind::KwDatatype, "at datatype declaration");
  auto D = std::make_unique<Decl>(DeclKind::Datatype, Loc);

  // Optional type parameters: 'a  or  ('a, 'b).
  if (check(TokenKind::TyVar)) {
    D->TyVars.push_back(advance().Text);
  } else if (check(TokenKind::LParen) && peek(1).Kind == TokenKind::TyVar) {
    advance();
    do {
      if (!check(TokenKind::TyVar)) {
        error(loc(), "expected type variable");
        break;
      }
      D->TyVars.push_back(advance().Text);
    } while (accept(TokenKind::Comma));
    expect(TokenKind::RParen, "after datatype type parameters");
  }

  if (check(TokenKind::Ident))
    D->Name = advance().Text;
  else
    error(loc(), "expected datatype name (lowercase identifier)");
  expect(TokenKind::Equal, "after datatype name");

  do {
    CtorDef C;
    C.Loc = loc();
    if (check(TokenKind::CapIdent))
      C.Name = advance().Text;
    else {
      error(loc(), "expected constructor name (capitalized)");
      advance();
    }
    if (accept(TokenKind::KwOf)) {
      // Fields: tyPostfix ('*' tyPostfix)*; a parenthesized product counts
      // as a single field of tuple type.
      C.Fields.push_back(parseTypePostfix(nullptr));
      while (accept(TokenKind::Star))
        C.Fields.push_back(parseTypePostfix(nullptr));
    }
    D->Ctors.push_back(std::move(C));
  } while (accept(TokenKind::Pipe));
  return D;
}

DeclPtr Parser::parseFunDecl() {
  SourceLoc Loc = loc();
  expect(TokenKind::KwFun, "at function declaration");
  auto D = std::make_unique<Decl>(DeclKind::Fun, Loc);
  do {
    FunBind B;
    B.Loc = loc();
    if (check(TokenKind::Ident))
      B.Name = advance().Text;
    else
      error(loc(), "expected function name");
    // One or more atomic patterns.
    while (!check(TokenKind::Equal) && !check(TokenKind::Colon) &&
           !check(TokenKind::Eof)) {
      B.Params.push_back(parseAtomicPattern());
    }
    if (B.Params.empty())
      error(B.Loc, "function '" + B.Name + "' needs at least one parameter");
    if (accept(TokenKind::Colon))
      B.RetAnnot = parseType();
    expect(TokenKind::Equal, "before function body");
    B.Body = parseExpr();
    D->Binds.push_back(std::move(B));
  } while (accept(TokenKind::KwAnd));
  return D;
}

DeclPtr Parser::parseValDecl() {
  SourceLoc Loc = loc();
  expect(TokenKind::KwVal, "at value declaration");
  auto D = std::make_unique<Decl>(DeclKind::Val, Loc);
  D->Pat = parsePattern();
  expect(TokenKind::Equal, "after value pattern");
  D->Init = parseExpr();
  return D;
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

TypeAstPtr Parser::parseType() {
  Nesting N(*this);
  if (!N.deeper())
    return std::make_unique<TypeAst>(TypeAstKind::Name, loc());
  std::vector<TypeAstPtr> Group;
  TypeAstPtr T = parseTypeProduct(Group);
  if (!T) {
    // A parenthesized group of >= 2 types: must be an n-ary function
    // domain.
    SourceLoc Loc = Group.empty() ? loc() : Group.front()->Loc;
    if (accept(TokenKind::Arrow)) {
      auto F = std::make_unique<TypeAst>(TypeAstKind::Fun, Loc);
      F->Args = std::move(Group);
      F->Result = parseType();
      return F;
    }
    error(loc(), "expected '->' after parenthesized parameter types "
                 "(tuple types are written t1 * t2)");
    return std::make_unique<TypeAst>(TypeAstKind::Name, Loc);
  }
  // Arrow: unary function from T.
  if (accept(TokenKind::Arrow)) {
    auto F = std::make_unique<TypeAst>(TypeAstKind::Fun, T->Loc);
    F->Args.push_back(std::move(T));
    F->Result = parseType();
    return F;
  }
  return T;
}

TypeAstPtr Parser::parseTypeProduct(std::vector<TypeAstPtr> &Group) {
  TypeAstPtr T = parseTypePostfix(&Group);
  if (!T)
    return nullptr;
  if (!check(TokenKind::Star))
    return T;
  auto Tup = std::make_unique<TypeAst>(TypeAstKind::Tuple, T->Loc);
  Tup->Args.push_back(std::move(T));
  while (accept(TokenKind::Star))
    Tup->Args.push_back(parseTypePostfix(nullptr));
  return Tup;
}

/// Parses a type at postfix-application precedence: atom followed by any
/// number of postfix constructor names (`int list list`). A paren group is
/// resolved as a multi-argument type application if an identifier follows;
/// otherwise it is handed to the caller through \p Group (null = error).
TypeAstPtr Parser::parseTypePostfix(std::vector<TypeAstPtr> *Group) {
  std::vector<TypeAstPtr> Local;
  TypeAstPtr T = parseTypeAtomOrGroup(Local);
  if (!T) {
    if (check(TokenKind::Ident)) {
      // (t1, t2) name — multi-argument type application.
      SourceLoc Loc = loc();
      auto App = std::make_unique<TypeAst>(TypeAstKind::Name, Loc);
      App->Name = advance().Text;
      App->Args = std::move(Local);
      T = std::move(App);
    } else if (Group) {
      *Group = std::move(Local);
      return nullptr;
    } else {
      error(loc(), "expected type constructor after '(t1, t2)' "
                   "(tuple types are written t1 * t2)");
      return std::make_unique<TypeAst>(TypeAstKind::Name, loc());
    }
  }
  Nesting N(*this);
  while ((check(TokenKind::Ident) || check(TokenKind::KwRef)) &&
         N.deeper()) {
    SourceLoc Loc = loc();
    auto App = std::make_unique<TypeAst>(TypeAstKind::Name, Loc);
    App->Name = check(TokenKind::KwRef) ? "ref" : peek().Text;
    advance();
    App->Args.push_back(std::move(T));
    T = std::move(App);
  }
  return T;
}

/// Parses a type atom. For '(' t ')' returns the inner type; for
/// '(' t1, t2, ... ')' fills \p Group and returns null (the caller decides
/// whether it is a function domain or a type application argument list).
TypeAstPtr Parser::parseTypeAtomOrGroup(std::vector<TypeAstPtr> &Group) {
  SourceLoc Loc = loc();
  if (check(TokenKind::TyVar)) {
    auto T = std::make_unique<TypeAst>(TypeAstKind::Var, Loc);
    T->Name = advance().Text;
    return T;
  }
  if (check(TokenKind::Ident)) {
    auto T = std::make_unique<TypeAst>(TypeAstKind::Name, Loc);
    T->Name = advance().Text;
    return T;
  }
  if (check(TokenKind::KwRef)) {
    // `ref` used as a bare type name is invalid; refs are written `t ref`
    // which the postfix loop handles via Ident. Reaching here is an error.
    error(Loc, "'ref' must follow an element type: t ref");
    advance();
    return std::make_unique<TypeAst>(TypeAstKind::Name, Loc);
  }
  if (accept(TokenKind::LParen)) {
    std::vector<TypeAstPtr> Elems;
    Elems.push_back(parseType());
    while (accept(TokenKind::Comma))
      Elems.push_back(parseType());
    expect(TokenKind::RParen, "after type");
    if (Elems.size() == 1) {
      TypeAstPtr T = std::move(Elems.front());
      // Allow postfix application after a parenthesized type.
      Nesting N(*this);
      while ((check(TokenKind::Ident) || check(TokenKind::KwRef)) &&
             N.deeper()) {
        auto App = std::make_unique<TypeAst>(TypeAstKind::Name, loc());
        App->Name = check(TokenKind::KwRef) ? "ref" : peek().Text;
        advance();
        App->Args.push_back(std::move(T));
        T = std::move(App);
      }
      return T;
    }
    Group = std::move(Elems);
    return nullptr;
  }
  error(Loc, std::string("expected type, found ") +
                 tokenKindName(peek().Kind));
  advance();
  return std::make_unique<TypeAst>(TypeAstKind::Name, Loc);
}

//===----------------------------------------------------------------------===//
// Patterns
//===----------------------------------------------------------------------===//

PatternPtr Parser::parsePattern() { return parseConsPattern(); }

PatternPtr Parser::parseConsPattern() {
  Nesting N(*this);
  if (!N.deeper())
    return std::make_unique<Pattern>(PatternKind::Wild, loc());
  PatternPtr P = parseAtomicPattern();
  if (!accept(TokenKind::ColonColon))
    return P;
  PatternPtr Tail = parseConsPattern();
  auto Cons = std::make_unique<Pattern>(PatternKind::Ctor, P->Loc);
  Cons->Name = "Cons";
  Cons->Elems.push_back(std::move(P));
  Cons->Elems.push_back(std::move(Tail));
  return Cons;
}

PatternPtr Parser::parseAtomicPattern() {
  SourceLoc Loc = loc();
  switch (peek().Kind) {
  case TokenKind::Underscore: {
    advance();
    return std::make_unique<Pattern>(PatternKind::Wild, Loc);
  }
  case TokenKind::Ident: {
    auto P = std::make_unique<Pattern>(PatternKind::Var, Loc);
    P->Name = advance().Text;
    return P;
  }
  case TokenKind::IntLit: {
    auto P = std::make_unique<Pattern>(PatternKind::Int, Loc);
    P->IntValue = advance().IntValue;
    return P;
  }
  case TokenKind::Tilde: {
    advance();
    auto P = std::make_unique<Pattern>(PatternKind::Int, Loc);
    if (check(TokenKind::IntLit))
      P->IntValue = -advance().IntValue;
    else
      error(loc(), "expected integer after '~' in pattern");
    return P;
  }
  case TokenKind::KwTrue:
  case TokenKind::KwFalse: {
    auto P = std::make_unique<Pattern>(PatternKind::Bool, Loc);
    P->BoolValue = advance().Kind == TokenKind::KwTrue;
    return P;
  }
  case TokenKind::CapIdent: {
    auto P = std::make_unique<Pattern>(PatternKind::Ctor, Loc);
    P->Name = advance().Text;
    // Optional argument: one atomic pattern; a parenthesized tuple pattern
    // splats into constructor arguments.
    switch (peek().Kind) {
    case TokenKind::Underscore:
    case TokenKind::Ident:
    case TokenKind::IntLit:
    case TokenKind::KwTrue:
    case TokenKind::KwFalse:
    case TokenKind::CapIdent:
    case TokenKind::LParen:
    case TokenKind::LBracket: {
      Nesting N(*this);
      if (!N.deeper())
        break;
      PatternPtr Arg = parseAtomicPattern();
      if (Arg->Kind == PatternKind::Tuple && !Arg->Annot) {
        for (PatternPtr &E : Arg->Elems)
          P->Elems.push_back(std::move(E));
      } else {
        P->Elems.push_back(std::move(Arg));
      }
      break;
    }
    default:
      break;
    }
    return P;
  }
  case TokenKind::LParen: {
    advance();
    if (accept(TokenKind::RParen))
      return std::make_unique<Pattern>(PatternKind::Tuple, Loc); // unit
    std::vector<PatternPtr> Elems;
    Elems.push_back(parsePattern());
    // Optional annotation on a single parenthesized pattern.
    if (Elems.size() == 1 && accept(TokenKind::Colon)) {
      Elems.front()->Annot = parseType();
      expect(TokenKind::RParen, "after annotated pattern");
      return std::move(Elems.front());
    }
    while (accept(TokenKind::Comma))
      Elems.push_back(parsePattern());
    expect(TokenKind::RParen, "after pattern");
    if (Elems.size() == 1)
      return std::move(Elems.front());
    auto P = std::make_unique<Pattern>(PatternKind::Tuple, Loc);
    P->Elems = std::move(Elems);
    return P;
  }
  case TokenKind::LBracket: {
    advance();
    std::vector<PatternPtr> Elems;
    // Each element nests one Cons deeper once desugared.
    Nesting N(*this);
    if (!check(TokenKind::RBracket) && N.deeper()) {
      Elems.push_back(parsePattern());
      while (accept(TokenKind::Comma) && N.deeper())
        Elems.push_back(parsePattern());
    }
    expect(TokenKind::RBracket, "after list pattern");
    // Desugar [p1, p2] into Cons(p1, Cons(p2, Nil)).
    PatternPtr Tail = std::make_unique<Pattern>(PatternKind::Ctor, Loc);
    Tail->Name = "Nil";
    for (size_t I = Elems.size(); I-- > 0;) {
      auto Cons = std::make_unique<Pattern>(PatternKind::Ctor, Elems[I]->Loc);
      Cons->Name = "Cons";
      Cons->Elems.push_back(std::move(Elems[I]));
      Cons->Elems.push_back(std::move(Tail));
      Tail = std::move(Cons);
    }
    return Tail;
  }
  default:
    error(Loc, std::string("expected pattern, found ") +
                   tokenKindName(peek().Kind));
    advance();
    return std::make_unique<Pattern>(PatternKind::Wild, Loc);
  }
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

ExprPtr Parser::errorExpr(SourceLoc Loc) {
  return std::make_unique<UnitExpr>(Loc);
}

ExprPtr Parser::makeCons(SourceLoc Loc, ExprPtr Head, ExprPtr Tail) {
  std::vector<ExprPtr> Args;
  Args.push_back(std::move(Head));
  Args.push_back(std::move(Tail));
  return std::make_unique<CtorExpr>(Loc, "Cons", std::move(Args));
}

ExprPtr Parser::parseExpr() {
  SourceLoc Loc = loc();
  Nesting N(*this);
  if (!N.deeper())
    return errorExpr(Loc);
  switch (peek().Kind) {
  case TokenKind::KwLet: {
    advance();
    std::vector<DeclPtr> Decls;
    while (atDeclStart() || check(TokenKind::Semi)) {
      if (accept(TokenKind::Semi))
        continue;
      Decls.push_back(parseDecl());
    }
    if (Decls.empty())
      error(Loc, "'let' needs at least one declaration");
    expect(TokenKind::KwIn, "in let expression");
    ExprPtr Body = parseExpr();
    expect(TokenKind::KwEnd, "to close let expression");
    return std::make_unique<LetExpr>(Loc, std::move(Decls), std::move(Body));
  }
  case TokenKind::KwIf: {
    advance();
    ExprPtr Cond = parseExpr();
    expect(TokenKind::KwThen, "in if expression");
    ExprPtr Then = parseExpr();
    expect(TokenKind::KwElse, "in if expression");
    ExprPtr Else = parseExpr();
    return std::make_unique<IfExpr>(Loc, std::move(Cond), std::move(Then),
                                    std::move(Else));
  }
  case TokenKind::KwCase: {
    advance();
    ExprPtr Scrut = parseExpr();
    expect(TokenKind::KwOf, "in case expression");
    accept(TokenKind::Pipe); // optional leading '|'
    std::vector<CaseClause> Clauses;
    do {
      CaseClause C;
      C.Pat = parsePattern();
      expect(TokenKind::DArrow, "in case clause");
      C.Body = parseExpr();
      Clauses.push_back(std::move(C));
    } while (accept(TokenKind::Pipe));
    return std::make_unique<CaseExpr>(Loc, std::move(Scrut),
                                      std::move(Clauses));
  }
  case TokenKind::KwFn: {
    advance();
    PatternPtr Param = parseAtomicPattern();
    expect(TokenKind::DArrow, "in fn expression");
    ExprPtr Body = parseExpr();
    return std::make_unique<FnExpr>(Loc, std::move(Param), std::move(Body));
  }
  default:
    return parseAssign();
  }
}

ExprPtr Parser::parseAssign() {
  ExprPtr Lhs = parseOrElse();
  if (!accept(TokenKind::Assign))
    return Lhs;
  SourceLoc Loc = Lhs->Loc;
  ExprPtr Rhs = parseOrElse();
  std::vector<ExprPtr> Args;
  Args.push_back(std::move(Lhs));
  Args.push_back(std::move(Rhs));
  return std::make_unique<PrimExpr>(Loc, PrimOp::RefSet, std::move(Args));
}

ExprPtr Parser::parseOrElse() {
  ExprPtr E = parseAndAlso();
  // Each link of a chain nests the tree built so far one level deeper.
  Nesting N(*this);
  while (check(TokenKind::KwOrelse) && N.deeper()) {
    SourceLoc Loc = loc();
    advance();
    ExprPtr Rhs = parseAndAlso();
    // e1 orelse e2  ==  if e1 then true else e2
    E = std::make_unique<IfExpr>(Loc, std::move(E),
                                 std::make_unique<BoolExpr>(Loc, true),
                                 std::move(Rhs));
  }
  return E;
}

ExprPtr Parser::parseAndAlso() {
  ExprPtr E = parseCompare();
  Nesting N(*this);
  while (check(TokenKind::KwAndalso) && N.deeper()) {
    SourceLoc Loc = loc();
    advance();
    ExprPtr Rhs = parseCompare();
    // e1 andalso e2  ==  if e1 then e2 else false
    E = std::make_unique<IfExpr>(Loc, std::move(E), std::move(Rhs),
                                 std::make_unique<BoolExpr>(Loc, false));
  }
  return E;
}

ExprPtr Parser::parseCompare() {
  ExprPtr E = parseCons();
  PrimOp Op;
  switch (peek().Kind) {
  case TokenKind::Equal:     Op = PrimOp::Eq; break;
  case TokenKind::NotEqual:  Op = PrimOp::Ne; break;
  case TokenKind::Less:      Op = PrimOp::Lt; break;
  case TokenKind::LessEq:    Op = PrimOp::Le; break;
  case TokenKind::Greater:   Op = PrimOp::Gt; break;
  case TokenKind::GreaterEq: Op = PrimOp::Ge; break;
  case TokenKind::FLess:     Op = PrimOp::FLt; break;
  case TokenKind::FEqual:    Op = PrimOp::FEq; break;
  default:
    return E;
  }
  SourceLoc Loc = loc();
  advance();
  ExprPtr Rhs = parseCons();
  std::vector<ExprPtr> Args;
  Args.push_back(std::move(E));
  Args.push_back(std::move(Rhs));
  return std::make_unique<PrimExpr>(Loc, Op, std::move(Args));
}

ExprPtr Parser::parseCons() {
  ExprPtr E = parseAdditive();
  if (!check(TokenKind::ColonColon))
    return E;
  SourceLoc Loc = loc();
  advance();
  Nesting N(*this);
  if (!N.deeper())
    return E;
  ExprPtr Tail = parseCons(); // right-associative
  return makeCons(Loc, std::move(E), std::move(Tail));
}

ExprPtr Parser::parseAdditive() {
  ExprPtr E = parseMultiplicative();
  Nesting N(*this);
  for (;;) {
    PrimOp Op;
    switch (peek().Kind) {
    case TokenKind::Plus:   Op = PrimOp::Add; break;
    case TokenKind::Minus:  Op = PrimOp::Sub; break;
    case TokenKind::FPlus:  Op = PrimOp::FAdd; break;
    case TokenKind::FMinus: Op = PrimOp::FSub; break;
    default:
      return E;
    }
    SourceLoc Loc = loc();
    advance();
    if (!N.deeper())
      return E;
    ExprPtr Rhs = parseMultiplicative();
    std::vector<ExprPtr> Args;
    Args.push_back(std::move(E));
    Args.push_back(std::move(Rhs));
    E = std::make_unique<PrimExpr>(Loc, Op, std::move(Args));
  }
}

ExprPtr Parser::parseMultiplicative() {
  ExprPtr E = parseUnary();
  Nesting N(*this);
  for (;;) {
    PrimOp Op;
    switch (peek().Kind) {
    case TokenKind::Star:   Op = PrimOp::Mul; break;
    case TokenKind::Slash:  Op = PrimOp::Div; break;
    case TokenKind::KwMod:  Op = PrimOp::Mod; break;
    case TokenKind::FStar:  Op = PrimOp::FMul; break;
    case TokenKind::FSlash: Op = PrimOp::FDiv; break;
    default:
      return E;
    }
    SourceLoc Loc = loc();
    advance();
    if (!N.deeper())
      return E;
    ExprPtr Rhs = parseUnary();
    std::vector<ExprPtr> Args;
    Args.push_back(std::move(E));
    Args.push_back(std::move(Rhs));
    E = std::make_unique<PrimExpr>(Loc, Op, std::move(Args));
  }
}

ExprPtr Parser::parseUnary() {
  SourceLoc Loc = loc();
  PrimOp Op;
  switch (peek().Kind) {
  case TokenKind::Tilde:   Op = PrimOp::Neg; break;
  case TokenKind::KwNot:   Op = PrimOp::Not; break;
  case TokenKind::Bang:    Op = PrimOp::RefGet; break;
  case TokenKind::KwRef:   Op = PrimOp::RefNew; break;
  case TokenKind::KwPrint: Op = PrimOp::Print; break;
  default:
    return parseApp();
  }
  advance();
  // `~3.14` negates a float literal directly.
  if (Op == PrimOp::Neg && check(TokenKind::FloatLit)) {
    Token T = advance();
    return std::make_unique<FloatExpr>(Loc, -T.FloatValue);
  }
  Nesting N(*this);
  if (!N.deeper())
    return errorExpr(Loc);
  ExprPtr Operand = parseUnary();
  std::vector<ExprPtr> Args;
  Args.push_back(std::move(Operand));
  return std::make_unique<PrimExpr>(Loc, Op, std::move(Args));
}

ExprPtr Parser::parseApp() {
  Atom First = parseAtom();
  if (!atAtomStart())
    return std::move(First.E);

  std::vector<Atom> Args;
  while (atAtomStart())
    Args.push_back(parseAtom());

  // Constructor application: splat a directly parenthesized tuple.
  if (auto *C = dyn_cast<CtorExpr>(First.E.get());
      C && C->Args.empty()) {
    if (Args.size() == 1 && Args[0].ParenTuple) {
      auto *Tup = cast<TupleExpr>(Args[0].E.get());
      for (ExprPtr &E : Tup->Elems)
        C->Args.push_back(std::move(E));
    } else {
      for (Atom &A : Args)
        C->Args.push_back(std::move(A.E));
    }
    if (C->Args.size() > 1 && !(Args.size() == 1 && Args[0].ParenTuple)) {
      error(C->Loc, "constructor '" + C->Name +
                        "' takes its arguments as C (a, b)");
    }
    return std::move(First.E);
  }

  std::vector<ExprPtr> ArgExprs;
  ArgExprs.reserve(Args.size());
  for (Atom &A : Args)
    ArgExprs.push_back(std::move(A.E));
  return std::make_unique<AppExpr>(First.E->Loc, std::move(First.E),
                                   std::move(ArgExprs));
}

Parser::Atom Parser::parseAtom() {
  SourceLoc Loc = loc();
  switch (peek().Kind) {
  case TokenKind::IntLit: {
    Token T = advance();
    return {std::make_unique<IntExpr>(Loc, T.IntValue), false};
  }
  case TokenKind::FloatLit: {
    Token T = advance();
    return {std::make_unique<FloatExpr>(Loc, T.FloatValue), false};
  }
  case TokenKind::KwTrue:
    advance();
    return {std::make_unique<BoolExpr>(Loc, true), false};
  case TokenKind::KwFalse:
    advance();
    return {std::make_unique<BoolExpr>(Loc, false), false};
  case TokenKind::Ident: {
    Token T = advance();
    return {std::make_unique<VarExpr>(Loc, T.Text), false};
  }
  case TokenKind::CapIdent: {
    Token T = advance();
    return {std::make_unique<CtorExpr>(Loc, T.Text, std::vector<ExprPtr>()),
            false};
  }
  case TokenKind::LParen: {
    advance();
    if (accept(TokenKind::RParen))
      return {std::make_unique<UnitExpr>(Loc), false};
    ExprPtr E = parseExpr();
    if (accept(TokenKind::Colon)) {
      TypeAstPtr Ty = parseType();
      expect(TokenKind::RParen, "after annotated expression");
      return {std::make_unique<AnnotExpr>(Loc, std::move(E), std::move(Ty)),
              false};
    }
    if (check(TokenKind::Comma)) {
      std::vector<ExprPtr> Elems;
      Elems.push_back(std::move(E));
      while (accept(TokenKind::Comma))
        Elems.push_back(parseExpr());
      expect(TokenKind::RParen, "after tuple");
      return {std::make_unique<TupleExpr>(Loc, std::move(Elems)), true};
    }
    if (check(TokenKind::Semi)) {
      std::vector<ExprPtr> Elems;
      Elems.push_back(std::move(E));
      while (accept(TokenKind::Semi))
        Elems.push_back(parseExpr());
      expect(TokenKind::RParen, "after sequence");
      return {std::make_unique<SeqExpr>(Loc, std::move(Elems)), false};
    }
    expect(TokenKind::RParen, "after expression");
    return {std::move(E), false};
  }
  case TokenKind::LBracket: {
    advance();
    std::vector<ExprPtr> Elems;
    // Each element nests one Cons deeper once desugared.
    Nesting N(*this);
    if (!check(TokenKind::RBracket) && N.deeper()) {
      Elems.push_back(parseExpr());
      while (accept(TokenKind::Comma) && N.deeper())
        Elems.push_back(parseExpr());
    }
    expect(TokenKind::RBracket, "after list");
    ExprPtr Tail =
        std::make_unique<CtorExpr>(Loc, "Nil", std::vector<ExprPtr>());
    for (size_t I = Elems.size(); I-- > 0;) {
      SourceLoc ELoc = Elems[I]->Loc;
      Tail = makeCons(ELoc, std::move(Elems[I]), std::move(Tail));
    }
    return {std::move(Tail), false};
  }
  default:
    error(Loc, std::string("expected expression, found ") +
                   tokenKindName(peek().Kind));
    advance();
    return {errorExpr(Loc), false};
  }
}
