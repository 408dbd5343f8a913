//===- frontend/Lexer.cpp -------------------------------------------------===//

#include "frontend/Lexer.h"

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <unordered_map>

using namespace tfgc;

const char *tfgc::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Eof:        return "end of input";
  case TokenKind::Error:      return "invalid token";
  case TokenKind::IntLit:     return "integer literal";
  case TokenKind::FloatLit:   return "float literal";
  case TokenKind::Ident:      return "identifier";
  case TokenKind::CapIdent:   return "constructor";
  case TokenKind::TyVar:      return "type variable";
  case TokenKind::KwLet:      return "'let'";
  case TokenKind::KwIn:       return "'in'";
  case TokenKind::KwEnd:      return "'end'";
  case TokenKind::KwFun:      return "'fun'";
  case TokenKind::KwAnd:      return "'and'";
  case TokenKind::KwVal:      return "'val'";
  case TokenKind::KwIf:       return "'if'";
  case TokenKind::KwThen:     return "'then'";
  case TokenKind::KwElse:     return "'else'";
  case TokenKind::KwCase:     return "'case'";
  case TokenKind::KwOf:       return "'of'";
  case TokenKind::KwFn:       return "'fn'";
  case TokenKind::KwDatatype: return "'datatype'";
  case TokenKind::KwRef:      return "'ref'";
  case TokenKind::KwTrue:     return "'true'";
  case TokenKind::KwFalse:    return "'false'";
  case TokenKind::KwAndalso:  return "'andalso'";
  case TokenKind::KwOrelse:   return "'orelse'";
  case TokenKind::KwMod:      return "'mod'";
  case TokenKind::KwNot:      return "'not'";
  case TokenKind::KwPrint:    return "'print'";
  case TokenKind::LParen:     return "'('";
  case TokenKind::RParen:     return "')'";
  case TokenKind::LBracket:   return "'['";
  case TokenKind::RBracket:   return "']'";
  case TokenKind::Comma:      return "','";
  case TokenKind::Semi:       return "';'";
  case TokenKind::Pipe:       return "'|'";
  case TokenKind::DArrow:     return "'=>'";
  case TokenKind::Arrow:      return "'->'";
  case TokenKind::Equal:      return "'='";
  case TokenKind::NotEqual:   return "'<>'";
  case TokenKind::Less:       return "'<'";
  case TokenKind::Greater:    return "'>'";
  case TokenKind::LessEq:     return "'<='";
  case TokenKind::GreaterEq:  return "'>='";
  case TokenKind::Plus:       return "'+'";
  case TokenKind::Minus:      return "'-'";
  case TokenKind::Star:       return "'*'";
  case TokenKind::Slash:      return "'/'";
  case TokenKind::FPlus:      return "'+.'";
  case TokenKind::FMinus:     return "'-.'";
  case TokenKind::FStar:      return "'*.'";
  case TokenKind::FSlash:     return "'/.'";
  case TokenKind::FLess:      return "'<.'";
  case TokenKind::FEqual:     return "'=.'";
  case TokenKind::ColonColon: return "'::'";
  case TokenKind::Colon:      return "':'";
  case TokenKind::Assign:     return "':='";
  case TokenKind::Bang:       return "'!'";
  case TokenKind::Tilde:      return "'~'";
  case TokenKind::Underscore: return "'_'";
  }
  return "token";
}

static const std::unordered_map<std::string, TokenKind> &keywordTable() {
  static const std::unordered_map<std::string, TokenKind> Table = {
      {"let", TokenKind::KwLet},           {"in", TokenKind::KwIn},
      {"end", TokenKind::KwEnd},           {"fun", TokenKind::KwFun},
      {"and", TokenKind::KwAnd},           {"val", TokenKind::KwVal},
      {"if", TokenKind::KwIf},             {"then", TokenKind::KwThen},
      {"else", TokenKind::KwElse},         {"case", TokenKind::KwCase},
      {"of", TokenKind::KwOf},             {"fn", TokenKind::KwFn},
      {"datatype", TokenKind::KwDatatype}, {"ref", TokenKind::KwRef},
      {"true", TokenKind::KwTrue},         {"false", TokenKind::KwFalse},
      {"andalso", TokenKind::KwAndalso},   {"orelse", TokenKind::KwOrelse},
      {"mod", TokenKind::KwMod},           {"not", TokenKind::KwNot},
      {"print", TokenKind::KwPrint},
  };
  return Table;
}

Lexer::Lexer(std::string Source, DiagnosticEngine &Diags)
    : Source(std::move(Source)), Diags(Diags) {}

char Lexer::peek(size_t Ahead) const {
  return Pos + Ahead < Source.size() ? Source[Pos + Ahead] : '\0';
}

char Lexer::advance() {
  char C = Source[Pos++];
  if (C == '\n') {
    ++Line;
    Col = 1;
  } else {
    ++Col;
  }
  return C;
}

bool Lexer::match(char Expected) {
  if (peek() != Expected)
    return false;
  advance();
  return true;
}

void Lexer::skipTrivia() {
  for (;;) {
    char C = peek();
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      advance();
      continue;
    }
    // Nested (* ... *) comments.
    if (C == '(' && peek(1) == '*') {
      SourceLoc Start = loc();
      advance();
      advance();
      int Depth = 1;
      while (Depth > 0) {
        if (Pos >= Source.size()) {
          Diags.error(Start, "unterminated comment");
          return;
        }
        if (peek() == '(' && peek(1) == '*') {
          advance();
          advance();
          ++Depth;
        } else if (peek() == '*' && peek(1) == ')') {
          advance();
          advance();
          --Depth;
        } else {
          advance();
        }
      }
      continue;
    }
    return;
  }
}

Token Lexer::makeSimple(TokenKind Kind, SourceLoc Loc) {
  Token T;
  T.Kind = Kind;
  T.Loc = Loc;
  return T;
}

Token Lexer::lexNumber(SourceLoc Loc) {
  size_t Start = Pos;
  while (std::isdigit((unsigned char)peek()))
    advance();
  bool IsFloat = false;
  // A '.' starts a fraction only when followed by a digit, so "1." is the
  // integer 1 followed by a stray dot (an error later).
  if (peek() == '.' && std::isdigit((unsigned char)peek(1))) {
    IsFloat = true;
    advance();
    while (std::isdigit((unsigned char)peek()))
      advance();
  }
  if (peek() == 'e' || peek() == 'E') {
    size_t Save = Pos;
    advance();
    if (peek() == '-' || peek() == '+')
      advance();
    if (std::isdigit((unsigned char)peek())) {
      IsFloat = true;
      while (std::isdigit((unsigned char)peek()))
        advance();
    } else {
      Pos = Save; // Not an exponent; re-lex 'e' as an identifier later.
    }
  }
  std::string Text = Source.substr(Start - 0, Pos - Start);
  Token T;
  T.Loc = Loc;
  if (IsFloat) {
    T.Kind = TokenKind::FloatLit;
    T.FloatValue = std::strtod(Text.c_str(), nullptr);
  } else {
    T.Kind = TokenKind::IntLit;
    errno = 0;
    T.IntValue = std::strtoll(Text.c_str(), nullptr, 10);
    if (errno == ERANGE) {
      // strtoll saturates, and the saturated value would then be encoded
      // differently per value model; reject the literal instead.
      Diags.error(Loc, "integer literal " + Text +
                           " is out of range (largest is " +
                           std::to_string(INT64_MAX) + ")");
      T.Kind = TokenKind::Error;
    }
  }
  return T;
}

Token Lexer::lexWord(SourceLoc Loc) {
  size_t Start = Pos;
  while (std::isalnum((unsigned char)peek()) || peek() == '_' ||
         peek() == '\'')
    advance();
  std::string Text = Source.substr(Start, Pos - Start);
  auto It = keywordTable().find(Text);
  Token T;
  T.Loc = Loc;
  if (It != keywordTable().end()) {
    T.Kind = It->second;
    return T;
  }
  T.Kind = std::isupper((unsigned char)Text[0]) ? TokenKind::CapIdent
                                                : TokenKind::Ident;
  T.Text = std::move(Text);
  return T;
}

Token Lexer::lexTyVar(SourceLoc Loc) {
  size_t Start = Pos;
  while (std::isalnum((unsigned char)peek()) || peek() == '_')
    advance();
  Token T;
  T.Kind = TokenKind::TyVar;
  T.Loc = Loc;
  T.Text = Source.substr(Start, Pos - Start);
  if (T.Text.empty()) {
    Diags.error(Loc, "expected type variable name after '");
    T.Kind = TokenKind::Error;
  }
  return T;
}

Token Lexer::next() {
  skipTrivia();
  SourceLoc Loc = loc();
  if (Pos >= Source.size())
    return makeSimple(TokenKind::Eof, Loc);

  char C = peek();
  if (std::isdigit((unsigned char)C)) {
    return lexNumber(Loc);
  }
  if (std::isalpha((unsigned char)C)) {
    return lexWord(Loc);
  }

  advance();
  switch (C) {
  case '\'':
    return lexTyVar(Loc);
  case '(':
    return makeSimple(TokenKind::LParen, Loc);
  case ')':
    return makeSimple(TokenKind::RParen, Loc);
  case '[':
    return makeSimple(TokenKind::LBracket, Loc);
  case ']':
    return makeSimple(TokenKind::RBracket, Loc);
  case ',':
    return makeSimple(TokenKind::Comma, Loc);
  case ';':
    return makeSimple(TokenKind::Semi, Loc);
  case '|':
    return makeSimple(TokenKind::Pipe, Loc);
  case '_':
    return makeSimple(TokenKind::Underscore, Loc);
  case '~':
    return makeSimple(TokenKind::Tilde, Loc);
  case '!':
    return makeSimple(TokenKind::Bang, Loc);
  case '+':
    return makeSimple(match('.') ? TokenKind::FPlus : TokenKind::Plus, Loc);
  case '-':
    if (match('>'))
      return makeSimple(TokenKind::Arrow, Loc);
    return makeSimple(match('.') ? TokenKind::FMinus : TokenKind::Minus, Loc);
  case '*':
    return makeSimple(match('.') ? TokenKind::FStar : TokenKind::Star, Loc);
  case '/':
    return makeSimple(match('.') ? TokenKind::FSlash : TokenKind::Slash, Loc);
  case '=':
    if (match('>'))
      return makeSimple(TokenKind::DArrow, Loc);
    return makeSimple(match('.') ? TokenKind::FEqual : TokenKind::Equal, Loc);
  case '<':
    if (match('>'))
      return makeSimple(TokenKind::NotEqual, Loc);
    if (match('='))
      return makeSimple(TokenKind::LessEq, Loc);
    return makeSimple(match('.') ? TokenKind::FLess : TokenKind::Less, Loc);
  case '>':
    return makeSimple(match('=') ? TokenKind::GreaterEq : TokenKind::Greater,
                      Loc);
  case ':':
    if (match(':'))
      return makeSimple(TokenKind::ColonColon, Loc);
    if (match('='))
      return makeSimple(TokenKind::Assign, Loc);
    return makeSimple(TokenKind::Colon, Loc);
  default:
    Diags.error(Loc, std::string("unexpected character '") + C + "'");
    return makeSimple(TokenKind::Error, Loc);
  }
}

std::vector<Token> Lexer::tokenize() {
  std::vector<Token> Tokens;
  for (;;) {
    Tokens.push_back(next());
    if (Tokens.back().Kind == TokenKind::Eof)
      return Tokens;
  }
}
