#include "asm/core.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "common/name_table.hh"

namespace risc1 {

namespace {

/** Load address before the first .org. */
constexpr std::uint32_t kDefaultOrg = 0x1000;

/** The last address; the location counter never passes it. */
constexpr std::uint32_t kAddrMax = 0xffffffff;

/** The smallest value `.equ` accepts: -2^31. */
constexpr std::int64_t kEquMin = -(std::int64_t{1} << 31);

/** An expression's range: it is summed in 64 bits. */
constexpr std::int64_t kValueMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kValueMin = std::numeric_limits<std::int64_t>::min();

/** Data directives every ISA has. */
constexpr DataDirective kSharedData[] = {
    {".word", 4, 4, SegmentKind::Data},
    {".half", 2, 2, SegmentKind::Data},
    {".byte", 1, 1, SegmentKind::Data},
};

} // namespace

Program
AsmCore::assemble(std::string_view source,
                  std::optional<std::uint64_t> memBytes)
{
    // The cursor's lexer owns the text that is not in the source, so it
    // lives as long as the statements that view it.
    TokenCursor cur(source);
    parse(cur);
    passOne(memBytes);
    passTwo();
    resolveEntry();
    return std::move(program_);
}

// -- Helpers for the ISA --------------------------------------------------

void
AsmCore::err(const Stmt &stmt, const std::string &msg)
{
    fatal(cat("line ", stmt.line, ": ", msg));
}

std::int64_t
AsmCore::displacement(const Stmt &stmt, std::int64_t target,
                      std::uint32_t from)
{
    // from >= 0, so only a target near the bottom of the range can
    // take the difference below it.
    if (target < std::numeric_limits<std::int64_t>::min() + from)
        err(stmt, cat("branch target ", target, " is out of range"));
    return target - from;
}

/**
 * The first term of @p expr that names an undefined symbol; nullptr,
 * with @p value the sum at @p stmt's address, when there is none.
 */
const Expr::Term *
AsmCore::sum(const Stmt &stmt, const Expr &expr, std::int64_t &value) const
{
    value = 0;
    for (const auto &t : expr.terms) {
        std::int64_t term = t.number;
        if (t.isDot) {
            term = stmt.address;
        } else if (t.isSymbol) {
            const auto it = symbols_.find(t.symbol);
            if (it == symbols_.end())
                return &t;
            term = it->second;
        }
        const std::int64_t add = t.sign * term;
        if (add > 0 ? value > kValueMax - add : value < kValueMin - add)
            err(stmt, "expression does not fit in 64 bits");
        value += add;
    }
    return nullptr;
}

std::int64_t
AsmCore::evalExpr(const Stmt &stmt, const Expr &expr) const
{
    std::int64_t value;
    if (const Expr::Term *undefined = sum(stmt, expr, value))
        err(stmt, cat("undefined symbol '", undefined->symbol, "'"));
    return value;
}

std::optional<std::int64_t>
AsmCore::known(const Stmt &stmt, const Expr &expr) const
{
    std::int64_t value;
    if (sum(stmt, expr, value))
        return std::nullopt;
    return value;
}

unsigned
AsmCore::parenReg(TokenCursor &cur) const
{
    cur.get();  // '('
    const Token tok = cur.expect(TokKind::Ident, "register");
    const auto reg = regName(tok.text);
    if (!reg)
        fatal(cat("line ", tok.line, ": '", tok.text,
                  "' is not a register"));
    cur.expect(TokKind::RParen, "')'");
    return *reg;
}

Operand
AsmCore::exprOrMem(TokenCursor &cur) const
{
    Operand op;
    op.expr = cur.parseExpr();
    if (cur.peek().kind == TokKind::LParen) {
        op.kind = OperandKind::Mem;
        op.reg = parenReg(cur);
    }
    return op;
}

// -- Parsing --------------------------------------------------------------

Operand
AsmCore::parseDirectiveOperand(TokenCursor &cur) const
{
    Operand op;
    if (cur.peek().kind == TokKind::Str) {
        op.kind = OperandKind::Str;
        op.str = cur.get().text;
    } else {
        op.expr = cur.parseExpr();
    }
    return op;
}

void
AsmCore::parse(TokenCursor &cur)
{
    // Labels not yet bound to a statement: the tail of labels_.
    std::uint32_t firstPending = 0;

    while (cur.skipNewlines()) {
        // Labels: ident ':' (several may stack on one address).
        while (cur.peek().kind == TokKind::Ident) {
            const Token identTok = cur.get();
            if (cur.accept(TokKind::Colon)) {
                if (regName(identTok.text))
                    fatal(cat("line ", identTok.line,
                              ": register name '", identTok.text,
                              "' used as a label"));
                labels_.push_back(identTok.text);
                cur.skipNewlines();
                continue;
            }
            // Not a label: it is the mnemonic of a statement.
            Stmt stmt;
            stmt.line = identTok.line;
            stmt.mnemonic = identTok.text;
            if (std::any_of(stmt.mnemonic.begin(), stmt.mnemonic.end(),
                            [](char c) { return asciiLower(c) != c; })) {
                std::string lower(stmt.mnemonic);
                for (char &c : lower)
                    c = asciiLower(c);
                stmt.mnemonic = cur.keep(std::move(lower));
            }
            stmt.directive = stmt.mnemonic[0] == '.';
            if (!stmt.directive)
                stmt.code = resolve(stmt.mnemonic);
            const auto numLabels = static_cast<std::uint32_t>(labels_.size());
            stmt.firstLabel = firstPending;
            stmt.numLabels = numLabels - firstPending;
            firstPending = numLabels;

            stmt.firstOperand = static_cast<std::uint32_t>(operands_.size());
            if (cur.peek().kind != TokKind::Newline &&
                cur.peek().kind != TokKind::End) {
                do
                    operands_.push_back(
                        stmt.directive ? parseDirectiveOperand(cur)
                                       : parseOperand(cur));
                while (cur.accept(TokKind::Comma));
            }
            stmt.numOperands = static_cast<std::uint32_t>(operands_.size()) -
                               stmt.firstOperand;
            if (cur.peek().kind != TokKind::Newline &&
                cur.peek().kind != TokKind::End)
                fatal(cat("line ", stmt.line,
                          ": trailing junk after statement: '",
                          cur.peek().text, "'"));
            stmts_.push_back(stmt);
            break;
        }
        if (cur.peek().kind != TokKind::Ident &&
            cur.peek().kind != TokKind::Newline && !cur.atEnd()) {
            fatal(cat("line ", cur.peek().line,
                      ": expected label or mnemonic, got '",
                      cur.peek().text, "'"));
        }
    }

    if (firstPending != labels_.size()) {
        // Labels at end of file attach to an empty marker statement.
        Stmt stmt;
        stmt.directive = true;
        stmt.mnemonic = ".end_marker";
        stmt.firstLabel = firstPending;
        stmt.numLabels = static_cast<std::uint32_t>(labels_.size()) -
                         firstPending;
        stmts_.push_back(stmt);
    }
}

// -- Directives -----------------------------------------------------------

const DataDirective *
AsmCore::dataDirective(std::string_view name) const
{
    for (const DataDirective &d : kSharedData)
        if (d.name == name)
            return &d;
    for (const DataDirective &d : isaData_)
        if (d.name == name)
            return &d;
    return nullptr;
}

const Expr &
AsmCore::numeric(const Stmt &stmt, std::size_t idx) const
{
    const Operand &op = operands(stmt)[idx];
    if (op.kind == OperandKind::Str)
        err(stmt, cat(stmt.mnemonic, " takes expression operands"));
    return op.expr;
}

std::int64_t
AsmCore::knownOperand(const Stmt &stmt) const
{
    if (stmt.numOperands == 1)
        if (const auto value = known(stmt, numeric(stmt, 0)))
            return *value;
    err(stmt, cat(stmt.mnemonic, " needs one resolvable expression"));
}

std::uint32_t
AsmCore::orgAddress(const Stmt &stmt) const
{
    const std::int64_t a = knownOperand(stmt);
    if (a < 0 || a % instAlign_ != 0)
        err(stmt, cat(".org address must be non-negative",
                      instAlign_ > 1 ? " and word-aligned" : ""));
    if (a > kAddrMax)
        err(stmt, ".org address does not fit in 32 bits");
    return static_cast<std::uint32_t>(a);
}

void
AsmCore::defineEqu(const Stmt &stmt)
{
    if (stmt.numOperands != 2)
        err(stmt, ".equ takes: name, expression");
    const auto name = operands(stmt)[0].expr.asBareSymbol();
    if (!name || regName(*name))
        err(stmt, ".equ first operand must be a name");
    const auto value = known(stmt, numeric(stmt, 1));
    if (!value)
        err(stmt, ".equ expression must be resolvable");
    if (*value < kEquMin || *value > kAddrMax)
        err(stmt, ".equ value does not fit in 32 bits");
    if (!symbols_.emplace(*name, static_cast<std::uint32_t>(*value)).second)
        err(stmt, cat("duplicate symbol '", *name, "'"));
}

unsigned
AsmCore::directiveSize(const Stmt &stmt)
{
    const std::string_view m = stmt.mnemonic;
    if (const DataDirective *data = dataDirective(m))
        return data->width * stmt.numOperands;
    if (m == ".space") {
        const std::int64_t n = knownOperand(stmt);
        if (n < 0)
            err(stmt, ".space with negative size");
        if (n > kAddrMax)
            err(stmt, ".space size does not fit in 32 bits");
        return static_cast<unsigned>(n);
    }
    if (m == ".align") {
        const std::int64_t a = knownOperand(stmt);
        if (a <= 0 || a > kAddrMax || (a & (a - 1)) != 0)
            err(stmt, ".align needs a power of two");
        const auto align = static_cast<std::uint32_t>(a);
        return (align - (stmt.address % align)) % align;
    }
    if (m == ".ascii" || m == ".asciz") {
        unsigned total = 0;
        for (const auto &op : operands(stmt)) {
            if (op.kind != OperandKind::Str)
                err(stmt, cat(m, " takes string operands"));
            total += static_cast<unsigned>(op.str.size());
            if (m == ".asciz")
                total += 1;
        }
        return total;
    }
    if (m == ".equ") {
        defineEqu(stmt);
        return 0;
    }
    if (m == ".org" || m == ".entry" || m == ".end_marker")
        return 0;
    err(stmt, cat("unknown directive '", m, "'"));
}

// -- Passes ---------------------------------------------------------------

void
AsmCore::passOne(std::optional<std::uint64_t> memBytes)
{
    std::uint32_t addr = kDefaultOrg;
    for (auto &stmt : stmts_) {
        stmt.address = addr;
        // .org moves the location counter before its labels bind.
        if (stmt.mnemonic == ".org")
            stmt.address = addr = orgAddress(stmt);
        for (std::uint32_t i = 0; i < stmt.numLabels; ++i) {
            const std::string_view label = labels_[stmt.firstLabel + i];
            if (!symbols_.emplace(label, addr).second)
                err(stmt, cat("duplicate label '", label, "'"));
        }

        if (stmt.directive) {
            stmt.size = directiveSize(stmt);
        } else {
            if (addr % instAlign_ != 0)
                err(stmt, "instruction at unaligned address");
            stmt.size = instructionSize(stmt);
        }
        if (stmt.size > kAddrMax - addr)
            err(stmt, "location counter passes 0xffffffff");
        addr += stmt.size;
        if (memBytes && addr > *memBytes)
            err(stmt, cat("location counter passes the end of memory (0x",
                          std::hex, *memBytes, ")"));
    }
}

void
AsmCore::emit(std::uint32_t addr, SegmentKind kind,
              const std::vector<std::uint8_t> &bytes)
{
    if (bytes.empty())
        return;
    Segment *seg = program_.segments.empty() ? nullptr
                                             : &program_.segments.back();
    if (!seg || seg->kind != kind ||
        seg->base + seg->bytes.size() != addr) {
        program_.segments.push_back(Segment{addr, kind, {}});
        seg = &program_.segments.back();
    }
    seg->bytes.insert(seg->bytes.end(), bytes.begin(), bytes.end());
}

void
AsmCore::passTwo()
{
    std::vector<std::uint8_t> bytes;
    for (const auto &stmt : stmts_) {
        bytes.clear();
        SegmentKind kind = SegmentKind::Data;
        const std::string_view m = stmt.mnemonic;
        if (!stmt.directive) {
            program_.staticInstructions += encode(stmt, bytes);
            if (bytes.size() != stmt.size)
                panic(cat("line ", stmt.line,
                          ": pass disagreement on statement size"));
            kind = SegmentKind::Code;
        } else if (const DataDirective *data = dataDirective(m)) {
            if (stmt.address % data->align != 0)
                err(stmt, cat(m, " at unaligned address (",
                              m == ".word" ? wordAlignHint_ : "use .align",
                              ")"));
            // A value fits its width as a signed or an unsigned number.
            const unsigned bits = 8 * data->width;
            const std::int64_t lo = -(std::int64_t{1} << (bits - 1));
            const std::int64_t hi = (std::int64_t{1} << bits) - 1;
            for (std::size_t i = 0; i < stmt.numOperands; ++i) {
                const std::int64_t v = evalExpr(stmt, numeric(stmt, i));
                if (v < lo || v > hi)
                    err(stmt, cat(m, " value ", v, " does not fit in ",
                                  bits, " bits"));
                for (unsigned b = 0; b < data->width; ++b)
                    bytes.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
            }
            kind = data->kind;
        } else if (m == ".space" || m == ".align") {
            bytes.assign(stmt.size, 0);
        } else if (m == ".ascii" || m == ".asciz") {
            for (const auto &op : operands(stmt)) {
                bytes.insert(bytes.end(), op.str.begin(), op.str.end());
                if (m == ".asciz")
                    bytes.push_back(0);
            }
        } else if (m == ".entry") {
            if (stmt.numOperands != 1)
                err(stmt, ".entry takes one expression");
            const std::int64_t e = evalExpr(stmt, numeric(stmt, 0));
            if (e < 0)
                err(stmt, ".entry address must be non-negative");
            if (e > kAddrMax)
                err(stmt, ".entry address does not fit in 32 bits");
            entry_ = static_cast<std::uint32_t>(e);
        }
        emit(stmt.address, kind, bytes);
    }
    for (const auto &[name, value] : symbols_)
        program_.symbols.emplace(name, value);
}

void
AsmCore::resolveEntry()
{
    if (entry_) {
        program_.entry = *entry_;
        return;
    }
    for (const char *name : {"start", "main", "_start"}) {
        const auto it = symbols_.find(name);
        if (it != symbols_.end()) {
            program_.entry = it->second;
            return;
        }
    }
    for (const auto &seg : program_.segments) {
        if (seg.kind == SegmentKind::Code) {
            program_.entry = seg.base;
            return;
        }
    }
    fatal("program has no code and no entry point");
}

} // namespace risc1
