#include "testing/sql_parser.h"

#include <cctype>
#include <exception>
#include <string>
#include <vector>

#include "common/strings.h"

namespace muve::db {

namespace {

enum class TokenType {
  kIdentifier,
  kString,
  kNumber,
  kSymbol,  // ( ) , = *
  kEnd,
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;
};

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    while (pos_ < input_.size()) {
      const char c = input_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (c == '\'') {
        MUVE_ASSIGN_OR_RETURN(Token token, LexString());
        tokens.push_back(std::move(token));
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
          c == '+') {
        tokens.push_back(LexNumber());
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        tokens.push_back(LexIdentifier());
        continue;
      }
      if (c == '(' || c == ')' || c == ',' || c == '=' || c == '*') {
        tokens.push_back({TokenType::kSymbol, std::string(1, c)});
        ++pos_;
        continue;
      }
      return Status::ParseError(std::string("unexpected character '") + c +
                                "' in SQL");
    }
    tokens.push_back({TokenType::kEnd, ""});
    return tokens;
  }

 private:
  Result<Token> LexString() {
    ++pos_;  // Skip opening quote.
    std::string text;
    while (pos_ < input_.size()) {
      if (input_[pos_] == '\'') {
        // Doubled quote escapes a literal quote.
        if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '\'') {
          text += '\'';
          pos_ += 2;
          continue;
        }
        ++pos_;
        return Token{TokenType::kString, std::move(text)};
      }
      text += input_[pos_++];
    }
    return Status::ParseError("unterminated string literal");
  }

  Token LexNumber() {
    size_t start = pos_;
    if (input_[pos_] == '-' || input_[pos_] == '+') ++pos_;
    while (pos_ < input_.size() &&
           (std::isdigit(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '.')) {
      ++pos_;
    }
    // Optional exponent ("1.2e+30" — what %g emits for wide-range
    // doubles). Only consumed when digits follow, so "123easy" still
    // lexes as number "123" + identifier "easy".
    if (pos_ < input_.size() &&
        (input_[pos_] == 'e' || input_[pos_] == 'E')) {
      size_t mark = pos_++;
      if (pos_ < input_.size() &&
          (input_[pos_] == '-' || input_[pos_] == '+')) {
        ++pos_;
      }
      if (pos_ < input_.size() &&
          std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
        while (pos_ < input_.size() &&
               std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
          ++pos_;
        }
      } else {
        pos_ = mark;
      }
    }
    return {TokenType::kNumber,
            std::string(input_.substr(start, pos_ - start))};
  }

  Token LexIdentifier() {
    size_t start = pos_;
    while (pos_ < input_.size() &&
           (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '_')) {
      ++pos_;
    }
    return {TokenType::kIdentifier,
            std::string(input_.substr(start, pos_ - start))};
  }

  std::string_view input_;
  size_t pos_ = 0;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<AggregateQuery> Parse() {
    AggregateQuery query;
    MUVE_RETURN_NOT_OK(ExpectKeyword("SELECT"));

    // Aggregate function.
    const Token& fn_token = Peek();
    if (fn_token.type != TokenType::kIdentifier) {
      return Status::ParseError("expected aggregate function");
    }
    bool found = false;
    for (AggregateFunction fn : AllAggregateFunctions()) {
      if (EqualsIgnoreCase(fn_token.text, AggregateFunctionName(fn))) {
        query.function = fn;
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::ParseError("unknown aggregate function '" +
                                fn_token.text + "'");
    }
    Advance();
    MUVE_RETURN_NOT_OK(ExpectSymbol("("));
    if (PeekSymbol("*")) {
      Advance();
      if (query.function != AggregateFunction::kCount) {
        return Status::ParseError("only COUNT supports '*'");
      }
      query.aggregate_column.clear();
    } else {
      MUVE_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
      query.aggregate_column = std::move(col);
    }
    MUVE_RETURN_NOT_OK(ExpectSymbol(")"));

    MUVE_RETURN_NOT_OK(ExpectKeyword("FROM"));
    MUVE_ASSIGN_OR_RETURN(std::string table, ExpectIdentifier());
    query.table = std::move(table);

    if (PeekKeyword("WHERE")) {
      Advance();
      for (;;) {
        MUVE_ASSIGN_OR_RETURN(Predicate predicate, ParsePredicate());
        query.predicates.push_back(std::move(predicate));
        if (PeekKeyword("AND")) {
          Advance();
          continue;
        }
        break;
      }
    }
    if (Peek().type != TokenType::kEnd) {
      return Status::ParseError("trailing input after query: '" +
                                Peek().text + "'");
    }
    return query;
  }

 private:
  Result<Predicate> ParsePredicate() {
    MUVE_ASSIGN_OR_RETURN(std::string column, ExpectIdentifier());
    if (PeekSymbol("=")) {
      Advance();
      MUVE_ASSIGN_OR_RETURN(Value value, ExpectLiteral());
      return Predicate::Equals(std::move(column), std::move(value));
    }
    if (PeekKeyword("IN")) {
      Advance();
      MUVE_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<Value> values;
      for (;;) {
        MUVE_ASSIGN_OR_RETURN(Value value, ExpectLiteral());
        values.push_back(std::move(value));
        if (PeekSymbol(",")) {
          Advance();
          continue;
        }
        break;
      }
      MUVE_RETURN_NOT_OK(ExpectSymbol(")"));
      return Predicate::In(std::move(column), std::move(values));
    }
    return Status::ParseError("expected '=' or IN after column '" + column +
                              "'");
  }

  const Token& Peek() const { return tokens_[pos_]; }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  bool PeekKeyword(std::string_view keyword) const {
    return Peek().type == TokenType::kIdentifier &&
           EqualsIgnoreCase(Peek().text, keyword);
  }
  bool PeekSymbol(std::string_view symbol) const {
    return Peek().type == TokenType::kSymbol && Peek().text == symbol;
  }

  Status ExpectKeyword(std::string_view keyword) {
    if (!PeekKeyword(keyword)) {
      return Status::ParseError(
          StrCat({"expected ", keyword, ", got '", Peek().text, "'"}));
    }
    Advance();
    return Status::OK();
  }
  Status ExpectSymbol(std::string_view symbol) {
    if (!PeekSymbol(symbol)) {
      return Status::ParseError(
          StrCat({"expected '", symbol, "', got '", Peek().text, "'"}));
    }
    Advance();
    return Status::OK();
  }
  Result<std::string> ExpectIdentifier() {
    if (Peek().type != TokenType::kIdentifier) {
      return Status::ParseError(
          StrCat({"expected identifier, got '", Peek().text, "'"}));
    }
    std::string text = Peek().text;
    Advance();
    return text;
  }
  Result<Value> ExpectLiteral() {
    const Token& token = Peek();
    if (token.type == TokenType::kString) {
      Value v(token.text);
      Advance();
      return v;
    }
    if (token.type == TokenType::kNumber) {
      // The lexer is permissive: a lone sign ("-") or a malformed/overflowing
      // digit string still arrives here as a number token, and
      // stoll/stod throw on those — report a parse error instead.
      try {
        Value v = token.text.find_first_of(".eE") != std::string::npos
                      ? Value(std::stod(token.text))
                      : Value(static_cast<int64_t>(std::stoll(token.text)));
        Advance();
        return v;
      } catch (const std::exception&) {
        return Status::ParseError("invalid numeric literal '" + token.text +
                                  "'");
      }
    }
    return Status::ParseError("expected literal, got '" + token.text + "'");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<AggregateQuery> ParseSql(std::string_view sql) {
  Lexer lexer(sql);
  MUVE_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace muve::db
