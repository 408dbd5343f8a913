//===- tests/parser_test.cpp ----------------------------------------------===//

#include "TestUtil.h"

using namespace tfgc;
using namespace tfgc::test;

namespace {

TEST(Parser, EmptyProgramHasUnitMain) {
  auto P = parse("");
  ASSERT_TRUE(P.has_value());
  EXPECT_TRUE(P->Decls.empty());
  ASSERT_TRUE(P->Main);
  EXPECT_EQ(P->Main->getKind(), ExprKind::Unit);
}

TEST(Parser, ArithPrecedence) {
  auto P = parse("1 + 2 * 3");
  ASSERT_TRUE(P);
  auto *Add = cast<PrimExpr>(P->Main.get());
  EXPECT_EQ(Add->Op, PrimOp::Add);
  auto *Mul = cast<PrimExpr>(Add->Args[1].get());
  EXPECT_EQ(Mul->Op, PrimOp::Mul);
}

TEST(Parser, ConsIsRightAssociative) {
  auto P = parse("1 :: 2 :: []");
  ASSERT_TRUE(P);
  auto *Outer = cast<CtorExpr>(P->Main.get());
  EXPECT_EQ(Outer->Name, "Cons");
  auto *Inner = cast<CtorExpr>(Outer->Args[1].get());
  EXPECT_EQ(Inner->Name, "Cons");
}

TEST(Parser, ListLiteralDesugars) {
  auto P = parse("[1, 2, 3]");
  ASSERT_TRUE(P);
  const Expr *Cur = P->Main.get();
  int Elems = 0;
  while (const auto *C = dyn_cast<CtorExpr>(Cur)) {
    if (C->Name == "Nil")
      break;
    ASSERT_EQ(C->Name, "Cons");
    ++Elems;
    Cur = C->Args[1].get();
  }
  EXPECT_EQ(Elems, 3);
}

TEST(Parser, ApplicationCollectsArgs) {
  auto P = parse("f 1 2 3");
  ASSERT_TRUE(P);
  auto *App = cast<AppExpr>(P->Main.get());
  EXPECT_EQ(App->Args.size(), 3u);
  EXPECT_EQ(cast<VarExpr>(App->Fn.get())->Name, "f");
}

TEST(Parser, CtorTupleSplat) {
  auto P = parse("Pair (1, 2)");
  ASSERT_TRUE(P);
  auto *C = cast<CtorExpr>(P->Main.get());
  EXPECT_EQ(C->Args.size(), 2u);
}

TEST(Parser, CtorNestedParensPassOneTuple) {
  auto P = parse("Wrap ((1, 2))");
  ASSERT_TRUE(P);
  auto *C = cast<CtorExpr>(P->Main.get());
  ASSERT_EQ(C->Args.size(), 1u);
  EXPECT_EQ(C->Args[0]->getKind(), ExprKind::Tuple);
}

TEST(Parser, AndAlsoDesugarsToIf) {
  auto P = parse("true andalso false");
  ASSERT_TRUE(P);
  EXPECT_EQ(P->Main->getKind(), ExprKind::If);
}

TEST(Parser, OrElseDesugarsToIf) {
  auto P = parse("true orelse false");
  ASSERT_TRUE(P);
  EXPECT_EQ(P->Main->getKind(), ExprKind::If);
}

TEST(Parser, SeqExpr) {
  auto P = parse("(print 1; print 2; 3)");
  ASSERT_TRUE(P);
  auto *S = cast<SeqExpr>(P->Main.get());
  EXPECT_EQ(S->Elems.size(), 3u);
}

TEST(Parser, TupleVsGroup) {
  auto P1 = parse("(1)");
  ASSERT_TRUE(P1);
  EXPECT_EQ(P1->Main->getKind(), ExprKind::Int);
  auto P2 = parse("(1, 2)");
  ASSERT_TRUE(P2);
  EXPECT_EQ(P2->Main->getKind(), ExprKind::Tuple);
}

TEST(Parser, Annotation) {
  auto P = parse("([] : int list)");
  ASSERT_TRUE(P);
  auto *A = cast<AnnotExpr>(P->Main.get());
  EXPECT_EQ(A->Annot->Kind, TypeAstKind::Name);
  EXPECT_EQ(A->Annot->Name, "list");
  ASSERT_EQ(A->Annot->Args.size(), 1u);
  EXPECT_EQ(A->Annot->Args[0]->Name, "int");
}

TEST(Parser, FunDeclParams) {
  auto P = parse("fun f x (y : int) (a, b) = x");
  ASSERT_TRUE(P);
  ASSERT_EQ(P->Decls.size(), 1u);
  const Decl *D = P->Decls[0].get();
  ASSERT_EQ(D->Binds.size(), 1u);
  const FunBind &B = D->Binds[0];
  ASSERT_EQ(B.Params.size(), 3u);
  EXPECT_EQ(B.Params[0]->Kind, PatternKind::Var);
  EXPECT_EQ(B.Params[1]->Kind, PatternKind::Var);
  EXPECT_TRUE(B.Params[1]->Annot != nullptr);
  EXPECT_EQ(B.Params[2]->Kind, PatternKind::Tuple);
}

TEST(Parser, MutualRecursionGroup) {
  auto P = parse("fun even n = if n = 0 then true else odd (n - 1)\n"
                 "and odd n = if n = 0 then false else even (n - 1)");
  ASSERT_TRUE(P);
  ASSERT_EQ(P->Decls.size(), 1u);
  EXPECT_EQ(P->Decls[0]->Binds.size(), 2u);
}

TEST(Parser, DatatypeDecl) {
  auto P = parse("datatype ('k, 'v) entry = Empty | Pair of 'k * 'v");
  ASSERT_TRUE(P);
  const Decl *D = P->Decls[0].get();
  EXPECT_EQ(D->Name, "entry");
  ASSERT_EQ(D->TyVars.size(), 2u);
  ASSERT_EQ(D->Ctors.size(), 2u);
  EXPECT_TRUE(D->Ctors[0].Fields.empty());
  EXPECT_EQ(D->Ctors[1].Fields.size(), 2u);
}

TEST(Parser, DatatypeParenFieldIsOneTupleField) {
  auto P = parse("datatype t = C of (int * bool)");
  ASSERT_TRUE(P);
  EXPECT_EQ(P->Decls[0]->Ctors[0].Fields.size(), 1u);
  EXPECT_EQ(P->Decls[0]->Ctors[0].Fields[0]->Kind, TypeAstKind::Tuple);
}

TEST(Parser, CasePatterns) {
  auto P = parse("case x of [] => 0 | y :: _ => y | _ => 2");
  ASSERT_TRUE(P);
  auto *C = cast<CaseExpr>(P->Main.get());
  ASSERT_EQ(C->Clauses.size(), 3u);
  EXPECT_EQ(C->Clauses[0].Pat->Name, "Nil");
  EXPECT_EQ(C->Clauses[1].Pat->Name, "Cons");
  EXPECT_EQ(C->Clauses[2].Pat->Kind, PatternKind::Wild);
}

TEST(Parser, NegativeIntPattern) {
  auto P = parse("case x of ~3 => 0 | _ => 1");
  ASSERT_TRUE(P);
  auto *C = cast<CaseExpr>(P->Main.get());
  EXPECT_EQ(C->Clauses[0].Pat->IntValue, -3);
}

TEST(Parser, NestedCaseBindsClausesToInnermost) {
  auto P = parse("case x of 0 => case y of 1 => 10 | 2 => 20 | _ => 99");
  ASSERT_TRUE(P);
  auto *Outer = cast<CaseExpr>(P->Main.get());
  // All '|' clauses after the inner case belong to the inner case.
  ASSERT_EQ(Outer->Clauses.size(), 1u);
  auto *Inner = cast<CaseExpr>(Outer->Clauses[0].Body.get());
  EXPECT_EQ(Inner->Clauses.size(), 3u);
}

TEST(Parser, LetWithMultipleDecls) {
  auto P = parse("let val x = 1 val y = 2 in x + y end");
  ASSERT_TRUE(P);
  auto *L = cast<LetExpr>(P->Main.get());
  EXPECT_EQ(L->Decls.size(), 2u);
}

TEST(Parser, SemiTerminatesDecl) {
  auto P = parse("fun f (x : int) : int = f (x - 1);\nf 3");
  ASSERT_TRUE(P);
  EXPECT_EQ(P->Decls.size(), 1u);
  auto *App = cast<AppExpr>(P->Main.get());
  EXPECT_EQ(App->Args.size(), 1u);
}

TEST(Parser, FnExpression) {
  auto P = parse("fn x => x + 1");
  ASSERT_TRUE(P);
  auto *F = cast<FnExpr>(P->Main.get());
  EXPECT_EQ(F->Param->Kind, PatternKind::Var);
}

TEST(Parser, RefOperators) {
  auto P = parse("(ref 1; !r; r := 2)");
  ASSERT_TRUE(P);
  auto *S = cast<SeqExpr>(P->Main.get());
  EXPECT_EQ(cast<PrimExpr>(S->Elems[0].get())->Op, PrimOp::RefNew);
  EXPECT_EQ(cast<PrimExpr>(S->Elems[1].get())->Op, PrimOp::RefGet);
  EXPECT_EQ(cast<PrimExpr>(S->Elems[2].get())->Op, PrimOp::RefSet);
}

TEST(Parser, NAryFunctionTypeAnnotation) {
  auto P = parse("(f : (int, bool) -> int)");
  ASSERT_TRUE(P);
  auto *A = cast<AnnotExpr>(P->Main.get());
  EXPECT_EQ(A->Annot->Kind, TypeAstKind::Fun);
  EXPECT_EQ(A->Annot->Args.size(), 2u);
}

TEST(Parser, TupleToUnaryFunctionType) {
  auto P = parse("(f : int * bool -> int)");
  ASSERT_TRUE(P);
  auto *A = cast<AnnotExpr>(P->Main.get());
  ASSERT_EQ(A->Annot->Kind, TypeAstKind::Fun);
  ASSERT_EQ(A->Annot->Args.size(), 1u);
  EXPECT_EQ(A->Annot->Args[0]->Kind, TypeAstKind::Tuple);
}

TEST(Parser, PostfixTypeApplication) {
  auto P = parse("(x : int list list)");
  ASSERT_TRUE(P);
  auto *A = cast<AnnotExpr>(P->Main.get());
  EXPECT_EQ(A->Annot->Name, "list");
  EXPECT_EQ(A->Annot->Args[0]->Name, "list");
  EXPECT_EQ(A->Annot->Args[0]->Args[0]->Name, "int");
}

TEST(Parser, ErrorRecovery) {
  std::string Err;
  auto P = parse("fun = 3", &Err);
  EXPECT_FALSE(P.has_value());
  EXPECT_NE(Err.find("error"), std::string::npos);
}

TEST(Parser, MissingEnd) {
  std::string Err;
  auto P = parse("let val x = 1 in x", &Err);
  EXPECT_FALSE(P.has_value());
}

TEST(Parser, OutOfRangeIntegerLiteralIsDiagnosed) {
  // strtoll saturates both to INT64_MAX; the literal is rejected at its
  // own location instead.
  for (const char *Src : {"99999999999999999999", "~9223372036854775808"}) {
    std::string Err;
    EXPECT_FALSE(parse(Src, &Err).has_value()) << Src;
    EXPECT_NE(Err.find("out of range"), std::string::npos) << Err;
    EXPECT_NE(Err.find(Src[0] == '~' ? "1:2:" : "1:1:"), std::string::npos)
        << Err;
  }
  auto P = parse("9223372036854775807");
  ASSERT_TRUE(P);
  EXPECT_EQ(cast<IntExpr>(P->Main.get())->Value, INT64_MAX);
}

/// `1 + 1 + ... + 1` with \p Terms terms: a left-deep tree that deep.
std::string plusChain(size_t Terms) {
  std::string S = "1";
  for (size_t I = 1; I < Terms; ++I)
    S += " + 1";
  return S;
}

TEST(Parser, NestingLimitIsExact) {
  EXPECT_TRUE(parse(plusChain(Parser::MaxNesting)).has_value());
  std::string Err;
  EXPECT_FALSE(parse(plusChain(Parser::MaxNesting + 1), &Err).has_value());
  EXPECT_NE(Err.find("nested too deeply"), std::string::npos) << Err;
}

TEST(Parser, DeepNestingGetsOneDiagnosticNotACrash) {
  // Without the limit both shapes overflow the stack: the parens in the
  // parser itself, the operator chain in the passes that walk its tree.
  const size_t N = 100000;
  std::string Parens = std::string(N, '(') + "1" + std::string(N, ')');
  for (const std::string &Src : {Parens, plusChain(N)}) {
    DiagnosticEngine Diags;
    Lexer Lex(Src, Diags);
    Parser P(Lex.tokenize(), Diags);
    EXPECT_FALSE(P.parseProgram().has_value());
    ASSERT_EQ(Diags.errorCount(), 1u) << Diags.render();
    EXPECT_NE(Diags.render().find("nested too deeply"), std::string::npos);
  }
}

} // namespace
