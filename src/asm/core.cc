#include "asm/core.hh"

#include <algorithm>
#include <cctype>

#include "common/logging.hh"

namespace risc1 {

namespace {

/** Load address before the first .org. */
constexpr std::uint32_t kDefaultOrg = 0x1000;

/** The last address; the location counter never passes it. */
constexpr std::uint32_t kAddrMax = 0xffffffff;

/** Data directives every ISA has. */
constexpr DataDirective kSharedData[] = {
    {".word", 4, 4, SegmentKind::Data},
    {".half", 2, 2, SegmentKind::Data},
    {".byte", 1, 1, SegmentKind::Data},
};

std::string
toLower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

} // namespace

Program
AsmCore::assemble(const std::string &source)
{
    parse(source);
    passOne();
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
AsmCore::evalExpr(const Stmt &stmt, const Expr &expr) const
{
    for (const auto &t : expr.terms)
        if (t.isSymbol && !symbols_.contains(t.symbol))
            err(stmt, cat("undefined symbol '", t.symbol, "'"));
    return expr.eval(symbols_, stmt.address);
}

std::optional<std::int64_t>
AsmCore::known(const Stmt &stmt, const Expr &expr) const
{
    if (!expr.resolvable(symbols_))
        return std::nullopt;
    return expr.eval(symbols_, stmt.address);
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
AsmCore::parse(const std::string &source)
{
    TokenCursor cur(source);
    std::vector<std::string> pendingLabels;

    while (cur.skipNewlines()) {
        // Labels: ident ':' (several may stack on one address).
        while (cur.peek().kind == TokKind::Ident) {
            const Token identTok = cur.get();
            if (cur.accept(TokKind::Colon)) {
                if (regName(identTok.text))
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
            stmt.directive = stmt.mnemonic[0] == '.';
            stmt.labels = std::move(pendingLabels);
            pendingLabels.clear();

            if (cur.peek().kind != TokKind::Newline &&
                cur.peek().kind != TokKind::End) {
                do
                    stmt.operands.push_back(
                        stmt.directive ? parseDirectiveOperand(cur)
                                       : parseOperand(cur));
                while (cur.accept(TokKind::Comma));
            }
            if (cur.peek().kind != TokKind::Newline &&
                cur.peek().kind != TokKind::End)
                fatal(cat("line ", stmt.line,
                          ": trailing junk after statement: '",
                          cur.peek().text, "'"));
            stmts_.push_back(std::move(stmt));
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
        stmt.directive = true;
        stmt.mnemonic = ".end_marker";
        stmt.labels = std::move(pendingLabels);
        stmts_.push_back(std::move(stmt));
    }
}

// -- Directives -----------------------------------------------------------

const DataDirective *
AsmCore::dataDirective(const std::string &name) const
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
    if (stmt.operands[idx].kind == OperandKind::Str)
        err(stmt, cat(stmt.mnemonic, " takes expression operands"));
    return stmt.operands[idx].expr;
}

std::int64_t
AsmCore::knownOperand(const Stmt &stmt) const
{
    if (stmt.operands.size() == 1)
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
    if (stmt.operands.size() != 2)
        err(stmt, ".equ takes: name, expression");
    const auto name = stmt.operands[0].expr.asBareSymbol();
    if (!name || regName(*name))
        err(stmt, ".equ first operand must be a name");
    const auto value = known(stmt, numeric(stmt, 1));
    if (!value)
        err(stmt, ".equ expression must be resolvable");
    if (!symbols_.emplace(*name, static_cast<std::uint32_t>(*value)).second)
        err(stmt, cat("duplicate symbol '", *name, "'"));
}

unsigned
AsmCore::directiveSize(const Stmt &stmt)
{
    const std::string &m = stmt.mnemonic;
    if (const DataDirective *data = dataDirective(m))
        return data->width * static_cast<unsigned>(stmt.operands.size());
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
        for (const auto &op : stmt.operands) {
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
AsmCore::passOne()
{
    std::uint32_t addr = kDefaultOrg;
    for (auto &stmt : stmts_) {
        stmt.address = addr;
        // .org moves the location counter before its labels bind.
        if (stmt.mnemonic == ".org")
            stmt.address = addr = orgAddress(stmt);
        for (const auto &label : stmt.labels)
            if (!symbols_.emplace(label, addr).second)
                err(stmt, cat("duplicate label '", label, "'"));

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
        const std::string &m = stmt.mnemonic;
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
            for (std::size_t i = 0; i < stmt.operands.size(); ++i) {
                const auto v = static_cast<std::uint32_t>(
                    evalExpr(stmt, numeric(stmt, i)));
                for (unsigned b = 0; b < data->width; ++b)
                    bytes.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
            }
            kind = data->kind;
        } else if (m == ".space" || m == ".align") {
            bytes.assign(stmt.size, 0);
        } else if (m == ".ascii" || m == ".asciz") {
            for (const auto &op : stmt.operands) {
                bytes.insert(bytes.end(), op.str.begin(), op.str.end());
                if (m == ".asciz")
                    bytes.push_back(0);
            }
        } else if (m == ".entry") {
            if (stmt.operands.size() != 1)
                err(stmt, ".entry takes one expression");
            entry_ = static_cast<std::uint32_t>(
                evalExpr(stmt, numeric(stmt, 0)));
        }
        emit(stmt.address, kind, bytes);
    }
    program_.symbols = symbols_;
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
