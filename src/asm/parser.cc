#include "asm/parser.hh"

#include <algorithm>
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

bool
Expr::resolvable(const std::map<std::string, std::uint32_t> &symbols) const
{
    for (const auto &t : terms)
        if (t.isSymbol && !symbols.contains(t.symbol))
            return false;
    return true;
}

std::int64_t
Expr::eval(const std::map<std::string, std::uint32_t> &symbols,
           std::uint32_t dot) const
{
    std::int64_t value = 0;
    for (const auto &t : terms) {
        std::int64_t term;
        if (t.isDot) {
            term = dot;
        } else if (t.isSymbol) {
            const auto it = symbols.find(t.symbol);
            if (it == symbols.end())
                fatal(cat("undefined symbol '", t.symbol, "'"));
            term = it->second;
        } else {
            term = t.number;
        }
        value += t.sign * term;
    }
    return value;
}

std::optional<std::string>
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
parseRegName(const std::string &name)
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

namespace {

std::string
toLower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

/** Parse one operand: register, expr(reg), (reg), string, or expr. */
Operand
parseOperand(TokenCursor &cur)
{
    Operand op;
    const Token &tok = cur.peek();

    if (tok.kind == TokKind::Str) {
        op.kind = OperandKind::Str;
        op.str = cur.get().text;
        return op;
    }
    if (tok.kind == TokKind::Ident) {
        if (auto reg = parseRegName(tok.text)) {
            cur.get();
            op.kind = OperandKind::Reg;
            op.reg = *reg;
            return op;
        }
    }
    if (tok.kind == TokKind::LParen) {
        // "(rN)" with implicit zero displacement.
        cur.get();
        const Token regTok = cur.expect(TokKind::Ident, "register");
        const auto reg = parseRegName(regTok.text);
        if (!reg)
            fatal(cat("line ", regTok.line, ": '", regTok.text,
                      "' is not a register"));
        cur.expect(TokKind::RParen, "')'");
        op.kind = OperandKind::Mem;
        op.reg = *reg;
        op.expr = Expr::constant(0);
        return op;
    }

    // Expression, possibly followed by "(rN)" making it a Mem operand.
    op.expr = cur.parseExpr();
    if (cur.peek().kind == TokKind::LParen) {
        cur.get();
        const Token regTok = cur.expect(TokKind::Ident, "register");
        const auto reg = parseRegName(regTok.text);
        if (!reg)
            fatal(cat("line ", regTok.line, ": '", regTok.text,
                      "' is not a register"));
        cur.expect(TokKind::RParen, "')'");
        op.kind = OperandKind::Mem;
        op.reg = *reg;
    } else {
        op.kind = OperandKind::Expr;
    }
    return op;
}

} // namespace

std::vector<Stmt>
parseRiscSource(const std::string &source)
{
    TokenCursor cur(source);
    std::vector<Stmt> stmts;
    std::vector<std::string> pendingLabels;

    while (cur.skipNewlines()) {
        // Labels: ident ':' (several may stack on one address).
        while (cur.peek().kind == TokKind::Ident) {
            // Lookahead for ':' without consuming the mnemonic.
            const Token identTok = cur.peek();
            // Probe: consume ident, check for colon.
            cur.get();
            if (cur.accept(TokKind::Colon)) {
                if (parseRegName(identTok.text))
                    fatal(cat("line ", identTok.line,
                              ": register name '", identTok.text,
                              "' used as a label"));
                pendingLabels.push_back(identTok.text);
                cur.skipNewlines();
                continue;
            }
            // Not a label: it is the mnemonic of a statement.
            Stmt stmt;
            stmt.line = identTok.line;
            stmt.mnemonic = toLower(identTok.text);
            stmt.type = stmt.mnemonic[0] == '.' ? Stmt::Type::Directive
                                                : Stmt::Type::Instruction;
            stmt.labels = std::move(pendingLabels);
            pendingLabels.clear();

            if (cur.peek().kind != TokKind::Newline &&
                cur.peek().kind != TokKind::End) {
                stmt.operands.push_back(parseOperand(cur));
                while (cur.accept(TokKind::Comma))
                    stmt.operands.push_back(parseOperand(cur));
            }
            if (cur.peek().kind != TokKind::Newline &&
                cur.peek().kind != TokKind::End)
                fatal(cat("line ", stmt.line,
                          ": trailing junk after statement: '",
                          cur.peek().text, "'"));
            stmts.push_back(std::move(stmt));
            break;
        }
        if (cur.peek().kind != TokKind::Ident &&
            cur.peek().kind != TokKind::Newline && !cur.atEnd()) {
            fatal(cat("line ", cur.peek().line,
                      ": expected label or mnemonic, got '",
                      cur.peek().text, "'"));
        }
    }

    if (!pendingLabels.empty()) {
        // Labels at end of file attach to an empty marker statement.
        Stmt stmt;
        stmt.type = Stmt::Type::Directive;
        stmt.mnemonic = ".end_marker";
        stmt.labels = std::move(pendingLabels);
        stmts.push_back(std::move(stmt));
    }
    return stmts;
}

} // namespace risc1
