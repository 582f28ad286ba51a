#include "asm/lexer.hh"

#include <cctype>
#include <limits>

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
        return Token{TokKind::Ident, src_.substr(i, j - i), 0, line};
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
        constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
        const std::int64_t limit = kMax / base;
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
            if (value > limit || value * base > kMax - dv)
                fatal(cat("line ", line, ": number too large"));
            value = value * base + dv;
            ++j;
        }
        if (j == digitsStart)
            fatal(cat("line ", line, ": number with no digits"));
        pos_ = j;
        return Token{TokKind::Number, src_.substr(i, j - i), value, line};
    }
    if (c == '\'') {
        if (i + 2 >= n)
            fatal(cat("line ", line, ": unterminated char literal"));
        if (src_[i + 1] != '\\') {
            if (src_[i + 2] != '\'')
                fatal(cat("line ", line, ": unterminated char literal"));
            pos_ = i + 3;
            return Token{TokKind::Number, src_.substr(i + 1, 1), src_[i + 1],
                         line};
        }
        const char v = unescape(src_[i + 2], line);
        if (i + 3 >= n || src_[i + 3] != '\'')
            fatal(cat("line ", line, ": unterminated char literal"));
        pos_ = i + 4;
        return Token{TokKind::Number, keep(std::string(1, v)), v, line};
    }
    if (c == '"') {
        // The text is a view of the source unless an escape forces an
        // unescaped copy into the store.
        bool escaped = false;
        std::size_t j = i + 1;
        while (j < n && src_[j] != '"') {
            if (src_[j] == '\n')
                fatal(cat("line ", line, ": unterminated string"));
            if (src_[j] == '\\' && j + 1 < n) {
                unescape(src_[j + 1], line);
                escaped = true;
                j += 2;
            } else {
                ++j;
            }
        }
        if (j >= n)
            fatal(cat("line ", line, ": unterminated string"));
        pos_ = j + 1;
        const std::string_view raw = src_.substr(i + 1, j - i - 1);
        if (!escaped)
            return Token{TokKind::Str, raw, 0, line};
        std::string text;
        for (std::size_t k = 0; k < raw.size(); ++k)
            text.push_back(raw[k] == '\\' ? unescape(raw[++k], line)
                                           : raw[k]);
        return Token{TokKind::Str, keep(std::move(text)), 0, line};
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
    return Token{kind, src_.substr(i, 1), 0, line};
}

std::string_view
Lexer::keep(std::string text)
{
    kept_.push_front(std::move(text));
    return kept_.front();
}

} // namespace risc1
