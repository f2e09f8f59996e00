#include "frontend/lexer.hpp"

#include <cctype>
#include <map>
#include <optional>

#include "support/string_utils.hpp"

namespace luis::frontend {

const char* to_string(TokenKind kind) {
  switch (kind) {
  case TokenKind::Identifier: return "identifier";
  case TokenKind::IntLiteral: return "integer";
  case TokenKind::RealLiteral: return "real";
  case TokenKind::KwKernel: return "'kernel'";
  case TokenKind::KwArray: return "'array'";
  case TokenKind::KwScalar: return "'scalar'";
  case TokenKind::KwRange: return "'range'";
  case TokenKind::KwFor: return "'for'";
  case TokenKind::KwIn: return "'in'";
  case TokenKind::KwIf: return "'if'";
  case TokenKind::KwElse: return "'else'";
  case TokenKind::KwDownTo: return "'downto'";
  case TokenKind::LBrace: return "'{'";
  case TokenKind::RBrace: return "'}'";
  case TokenKind::LParen: return "'('";
  case TokenKind::RParen: return "')'";
  case TokenKind::LBracket: return "'['";
  case TokenKind::RBracket: return "']'";
  case TokenKind::Comma: return "','";
  case TokenKind::Semicolon: return "';'";
  case TokenKind::Assign: return "'='";
  case TokenKind::DotDot: return "'..'";
  case TokenKind::Plus: return "'+'";
  case TokenKind::Minus: return "'-'";
  case TokenKind::Star: return "'*'";
  case TokenKind::Slash: return "'/'";
  case TokenKind::Percent: return "'%'";
  case TokenKind::Lt: return "'<'";
  case TokenKind::Le: return "'<='";
  case TokenKind::Gt: return "'>'";
  case TokenKind::Ge: return "'>='";
  case TokenKind::EqEq: return "'=='";
  case TokenKind::NotEq: return "'!='";
  case TokenKind::End: return "end of input";
  case TokenKind::Error: return "error";
  }
  return "<invalid>";
}

std::vector<Token> tokenize(std::string_view source) {
  static const std::map<std::string_view, TokenKind> kKeywords = {
      {"kernel", TokenKind::KwKernel}, {"array", TokenKind::KwArray},
      {"scalar", TokenKind::KwScalar}, {"range", TokenKind::KwRange},
      {"for", TokenKind::KwFor},       {"in", TokenKind::KwIn},
      {"if", TokenKind::KwIf},         {"else", TokenKind::KwElse},
      {"downto", TokenKind::KwDownTo},
  };

  std::vector<Token> out;
  int line = 1, column = 1;
  std::size_t i = 0;
  auto emit = [&](TokenKind kind, std::string text) {
    Token t;
    t.kind = kind;
    t.text = std::move(text);
    t.line = line;
    t.column = column;
    out.push_back(std::move(t));
  };
  auto error = [&](const std::string& msg) {
    emit(TokenKind::Error, msg);
  };

  while (i < source.size()) {
    const char c = source[i];
    if (c == '\n') {
      ++line;
      column = 1;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++column;
      ++i;
      continue;
    }
    if (c == '#') { // comment to end of line
      while (i < source.size() && source[i] != '\n') ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = i;
      while (i < source.size() &&
             (std::isalnum(static_cast<unsigned char>(source[i])) ||
              source[i] == '_'))
        ++i;
      const std::string_view word = source.substr(start, i - start);
      const auto kw = kKeywords.find(word);
      emit(kw != kKeywords.end() ? kw->second : TokenKind::Identifier,
           std::string(word));
      column += static_cast<int>(i - start);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = i;
      bool is_real = false;
      while (i < source.size() &&
             std::isdigit(static_cast<unsigned char>(source[i])))
        ++i;
      // A '.' introduces a fraction — unless it is the '..' range operator.
      if (i + 1 < source.size() && source[i] == '.' && source[i + 1] != '.') {
        is_real = true;
        ++i;
        while (i < source.size() &&
               std::isdigit(static_cast<unsigned char>(source[i])))
          ++i;
      }
      if (i < source.size() && (source[i] == 'e' || source[i] == 'E')) {
        is_real = true;
        ++i;
        if (i < source.size() && (source[i] == '+' || source[i] == '-')) ++i;
        while (i < source.size() &&
               std::isdigit(static_cast<unsigned char>(source[i])))
          ++i;
      }
      const std::string text(source.substr(start, i - start));
      Token t;
      t.kind = is_real ? TokenKind::RealLiteral : TokenKind::IntLiteral;
      t.text = text;
      t.line = line;
      t.column = column;
      // Read whole: an exponent without digits leaves junk behind, and a
      // value beyond double or int64 is out of range.
      bool read = false;
      if (is_real) {
        const std::optional<double> value = parse_number<double>(text);
        if ((read = value.has_value())) t.real_value = *value;
      } else {
        const std::optional<std::int64_t> value =
            parse_number<std::int64_t>(text);
        if ((read = value.has_value())) t.int_value = *value;
      }
      if (!read) {
        error("malformed or out-of-range number '" + text + "'");
        return out;
      }
      out.push_back(std::move(t));
      column += static_cast<int>(text.size());
      continue;
    }
    auto two = [&](char second) {
      return i + 1 < source.size() && source[i + 1] == second;
    };
    switch (c) {
    case '{': emit(TokenKind::LBrace, "{"); break;
    case '}': emit(TokenKind::RBrace, "}"); break;
    case '(': emit(TokenKind::LParen, "("); break;
    case ')': emit(TokenKind::RParen, ")"); break;
    case '[': emit(TokenKind::LBracket, "["); break;
    case ']': emit(TokenKind::RBracket, "]"); break;
    case ',': emit(TokenKind::Comma, ","); break;
    case ';': emit(TokenKind::Semicolon, ";"); break;
    case '+': emit(TokenKind::Plus, "+"); break;
    case '-': emit(TokenKind::Minus, "-"); break;
    case '*': emit(TokenKind::Star, "*"); break;
    case '/': emit(TokenKind::Slash, "/"); break;
    case '%': emit(TokenKind::Percent, "%"); break;
    case '.':
      if (two('.')) {
        emit(TokenKind::DotDot, "..");
        ++i;
        ++column;
      } else {
        error("stray '.'");
        return out;
      }
      break;
    case '<':
      if (two('=')) {
        emit(TokenKind::Le, "<=");
        ++i;
        ++column;
      } else {
        emit(TokenKind::Lt, "<");
      }
      break;
    case '>':
      if (two('=')) {
        emit(TokenKind::Ge, ">=");
        ++i;
        ++column;
      } else {
        emit(TokenKind::Gt, ">");
      }
      break;
    case '=':
      if (two('=')) {
        emit(TokenKind::EqEq, "==");
        ++i;
        ++column;
      } else {
        emit(TokenKind::Assign, "=");
      }
      break;
    case '!':
      if (two('=')) {
        emit(TokenKind::NotEq, "!=");
        ++i;
        ++column;
      } else {
        error("stray '!'");
        return out;
      }
      break;
    default:
      error(std::string("unexpected character '") + c + "'");
      return out;
    }
    ++i;
    ++column;
  }
  emit(TokenKind::End, "");
  return out;
}

} // namespace luis::frontend
