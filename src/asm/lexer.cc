#include "asm/lexer.hh"

#include <cctype>

#include "common/logging.hh"

namespace risc1 {

namespace {

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.';
}

bool
isIdentBody(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.';
}

char
unescape(char c, int line)
{
    switch (c) {
      case 'n': return '\n';
      case 't': return '\t';
      case 'r': return '\r';
      case '0': return '\0';
      case '\\': return '\\';
      case '"': return '"';
      case '\'': return '\'';
      default:
        fatal(cat("line ", line, ": unknown escape '\\", c, "'"));
    }
}

} // namespace

Token
Lexer::next()
{
    const std::size_t n = src_.size();
    while (pos_ < n) {
        const char c = src_[pos_];
        if (c == ' ' || c == '\t' || c == '\r') {
            ++pos_;
        } else if (c == ';') {
            while (pos_ < n && src_[pos_] != '\n')
                ++pos_;
        } else {
            break;
        }
    }
    const int line = line_;
    if (pos_ >= n) {
        const TokKind kind = closed_ ? TokKind::End : TokKind::Newline;
        closed_ = true;
        return Token{kind, {}, 0, line};
    }

    const std::size_t i = pos_;
    const char c = src_[i];
    if (c == '\n') {
        ++line_;
        ++pos_;
        return Token{TokKind::Newline, {}, 0, line};
    }
    if (isIdentStart(c)) {
        std::size_t j = i + 1;
        while (j < n && isIdentBody(src_[j]))
            ++j;
        pos_ = j;
        return Token{TokKind::Ident, std::string(src_.substr(i, j - i)), 0,
                     line};
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
        std::size_t j = i;
        int base = 10;
        if (c == '0' && j + 1 < n &&
            (src_[j + 1] == 'x' || src_[j + 1] == 'X')) {
            base = 16;
            j += 2;
        } else if (c == '0' && j + 1 < n &&
                   (src_[j + 1] == 'b' || src_[j + 1] == 'B')) {
            base = 2;
            j += 2;
        }
        const std::size_t digitsStart = j;
        std::int64_t value = 0;
        while (j < n) {
            const char d = src_[j];
            int dv;
            if (d >= '0' && d <= '9')
                dv = d - '0';
            else if (base == 16 && d >= 'a' && d <= 'f')
                dv = d - 'a' + 10;
            else if (base == 16 && d >= 'A' && d <= 'F')
                dv = d - 'A' + 10;
            else
                break;
            if (dv >= base)
                fatal(cat("line ", line, ": bad digit '", d,
                          "' for base ", base));
            value = value * base + dv;
            ++j;
        }
        if (j == digitsStart)
            fatal(cat("line ", line, ": number with no digits"));
        pos_ = j;
        return Token{TokKind::Number, std::string(src_.substr(i, j - i)),
                     value, line};
    }
    if (c == '\'') {
        if (i + 2 >= n)
            fatal(cat("line ", line, ": unterminated char literal"));
        char v = src_[i + 1];
        std::size_t j = i + 2;
        if (v == '\\') {
            v = unescape(src_[i + 2], line);
            j = i + 3;
        }
        if (j >= n || src_[j] != '\'')
            fatal(cat("line ", line, ": unterminated char literal"));
        pos_ = j + 1;
        return Token{TokKind::Number, std::string(1, v), v, line};
    }
    if (c == '"') {
        std::string text;
        std::size_t j = i + 1;
        while (j < n && src_[j] != '"') {
            if (src_[j] == '\n')
                fatal(cat("line ", line, ": unterminated string"));
            if (src_[j] == '\\' && j + 1 < n) {
                text.push_back(unescape(src_[j + 1], line));
                j += 2;
            } else {
                text.push_back(src_[j]);
                ++j;
            }
        }
        if (j >= n)
            fatal(cat("line ", line, ": unterminated string"));
        pos_ = j + 1;
        return Token{TokKind::Str, std::move(text), 0, line};
    }
    TokKind kind;
    switch (c) {
      case ',': kind = TokKind::Comma; break;
      case ':': kind = TokKind::Colon; break;
      case '(': kind = TokKind::LParen; break;
      case ')': kind = TokKind::RParen; break;
      case '+': kind = TokKind::Plus; break;
      case '-': kind = TokKind::Minus; break;
      case '#': kind = TokKind::Hash; break;
      case '@': kind = TokKind::At; break;
      case '*': kind = TokKind::Star; break;
      default:
        fatal(cat("line ", line, ": unexpected character '", c, "'"));
    }
    ++pos_;
    return Token{kind, std::string(1, c), 0, line};
}

std::vector<Token>
lex(const std::string &source)
{
    Lexer lexer(source);
    std::vector<Token> tokens;
    do
        tokens.push_back(lexer.next());
    while (tokens.back().kind != TokKind::End);
    return tokens;
}

} // namespace risc1
