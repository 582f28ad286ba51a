#include "asm/parser.hh"

#include <cctype>

#include "common/logging.hh"

namespace risc1 {

Expr
Expr::constant(std::int64_t value)
{
    Expr e;
    Term t;
    t.number = value;
    e.terms.push_back(t);
    return e;
}

std::optional<std::string_view>
Expr::asBareSymbol() const
{
    if (terms.size() == 1 && terms[0].isSymbol && terms[0].sign == 1)
        return terms[0].symbol;
    return std::nullopt;
}

Token
TokenCursor::expect(TokKind kind, const char *what)
{
    if (peek().kind != kind)
        fatal(cat("line ", peek().line, ": expected ", what, ", got '",
                  peek().text, "'"));
    return get();
}

bool
TokenCursor::accept(TokKind kind)
{
    if (peek().kind == kind) {
        get();
        return true;
    }
    return false;
}

bool
TokenCursor::skipNewlines()
{
    while (peek().kind == TokKind::Newline)
        get();
    return !atEnd();
}

Expr
TokenCursor::parseExpr()
{
    Expr expr;
    int sign = 1;
    bool first = true;
    for (;;) {
        // Optional leading signs (also between terms).
        while (peek().kind == TokKind::Minus ||
               peek().kind == TokKind::Plus) {
            if (get().kind == TokKind::Minus)
                sign = -sign;
        }
        Expr::Term term;
        term.sign = sign;
        const Token &tok = peek();
        if (tok.kind == TokKind::Number) {
            term.number = get().value;
        } else if (tok.kind == TokKind::Ident) {
            if (tok.text == ".") {
                term.isDot = true;
            } else {
                term.isSymbol = true;
                term.symbol = tok.text;
            }
            get();
        } else {
            if (first)
                fatal(cat("line ", tok.line,
                          ": expected expression, got '", tok.text, "'"));
            fatal(cat("line ", tok.line,
                      ": expected expression term after sign"));
        }
        expr.terms.push_back(std::move(term));
        first = false;

        if (peek().kind == TokKind::Plus ||
            peek().kind == TokKind::Minus) {
            sign = 1;
            continue;
        }
        break;
    }
    return expr;
}

std::optional<unsigned>
parseRegName(std::string_view name)
{
    if (name.size() < 2 || name.size() > 3 ||
        (name[0] != 'r' && name[0] != 'R'))
        return std::nullopt;
    unsigned value = 0;
    for (std::size_t i = 1; i < name.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(name[i])))
            return std::nullopt;
        value = value * 10 + static_cast<unsigned>(name[i] - '0');
    }
    if (value > 31)
        return std::nullopt;
    if (name.size() == 3 && name[1] == '0')
        return std::nullopt; // reject "r01"
    return value;
}

} // namespace risc1
