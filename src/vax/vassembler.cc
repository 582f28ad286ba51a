#include "vax/vassembler.hh"

#include <cctype>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "asm/lexer.hh"
#include "asm/parser.hh"
#include "common/bitfield.hh"
#include "common/logging.hh"
#include "vax/visa.hh"

namespace risc1 {

namespace {

/** Register-name lookup (r0..r11, ap, fp, sp, pc). */
std::optional<unsigned>
vaxRegName(std::string name)
{
    for (auto &c : name)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (name == "ap")
        return vaxAp;
    if (name == "fp")
        return vaxFp;
    if (name == "sp")
        return vaxSp;
    if (name == "pc")
        return vaxPc;
    if (auto r = parseRegName(name))
        return *r <= 15 ? r : std::nullopt;
    return std::nullopt;
}

/** Operand encodings chosen during pass 1. */
enum class VEnc : std::uint8_t
{
    ShortLit,  ///< 1 byte: modes 0-3
    Imm32,     ///< 5 bytes: (PC)+ immediate
    Reg,       ///< 1 byte
    Deferred,  ///< 1 byte
    AutoInc,   ///< 1 byte
    AutoDec,   ///< 1 byte
    Disp8,     ///< 2 bytes
    Disp16,    ///< 3 bytes
    Disp32,    ///< 5 bytes
    Abs32,     ///< 5 bytes: @(PC)+ absolute
    Branch8,   ///< 1 byte displacement
    Branch16,  ///< 2 bytes displacement
};

unsigned
encBytes(VEnc enc)
{
    switch (enc) {
      case VEnc::ShortLit:
      case VEnc::Reg:
      case VEnc::Deferred:
      case VEnc::AutoInc:
      case VEnc::AutoDec:
      case VEnc::Branch8:
        return 1;
      case VEnc::Disp8:
      case VEnc::Branch16:
        return 2;
      case VEnc::Disp16:
        return 3;
      case VEnc::Imm32:
      case VEnc::Disp32:
      case VEnc::Abs32:
        return 5;
    }
    panic("bad operand encoding");
}

/** Syntactic operand shapes before encoding selection. */
enum class VShape : std::uint8_t
{
    Imm,       ///< #expr
    Reg,       ///< rN
    Deferred,  ///< (rN)
    AutoInc,   ///< (rN)+
    AutoDec,   ///< -(rN)
    Disp,      ///< expr(rN)
    Abs,       ///< @expr
    Bare,      ///< expr
};

struct VOperand
{
    VShape shape = VShape::Bare;
    unsigned reg = 0;
    Expr expr;
    VEnc enc = VEnc::Reg;  ///< chosen in pass 1
};

struct VStmt
{
    int line = 0;
    bool isDirective = false;
    std::string mnemonic;
    std::vector<VOperand> operands;
    std::vector<Operand> directiveOperands;  ///< reuse RISC parser forms
    std::vector<std::string> labels;
    std::uint32_t address = 0;
    unsigned size = 0;
};

std::string
toLower(std::string s)
{
    for (auto &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

/** Parse one CISC operand. */
VOperand
parseVOperand(TokenCursor &cur)
{
    VOperand op;
    const Token &tok = cur.peek();

    if (tok.kind == TokKind::Hash) {
        cur.get();
        op.shape = VShape::Imm;
        op.expr = cur.parseExpr();
        return op;
    }
    if (tok.kind == TokKind::At) {
        cur.get();
        op.shape = VShape::Abs;
        op.expr = cur.parseExpr();
        return op;
    }
    if (tok.kind == TokKind::Minus) {
        // Could be -(rN) autodecrement or a negative expression.
        // Peek ahead: consume '-' and check for '('.
        cur.get();
        if (cur.peek().kind == TokKind::LParen) {
            cur.get();
            const Token regTok = cur.expect(TokKind::Ident, "register");
            const auto r = vaxRegName(regTok.text);
            if (!r)
                fatal(cat("line ", regTok.line, ": '", regTok.text,
                          "' is not a register"));
            cur.expect(TokKind::RParen, "')'");
            op.shape = VShape::AutoDec;
            op.reg = *r;
            return op;
        }
        // Negative expression, possibly a displacement: -8(r2).
        Expr inner = cur.parseExpr();
        for (auto &t : inner.terms)
            t.sign = -t.sign;
        op.expr = std::move(inner);
        if (cur.peek().kind == TokKind::LParen) {
            cur.get();
            const Token regTok = cur.expect(TokKind::Ident, "register");
            const auto r = vaxRegName(regTok.text);
            if (!r)
                fatal(cat("line ", regTok.line, ": '", regTok.text,
                          "' is not a register"));
            cur.expect(TokKind::RParen, "')'");
            op.shape = VShape::Disp;
            op.reg = *r;
        } else {
            op.shape = VShape::Bare;
        }
        return op;
    }
    if (tok.kind == TokKind::LParen) {
        cur.get();
        const Token regTok = cur.expect(TokKind::Ident, "register");
        const auto r = vaxRegName(regTok.text);
        if (!r)
            fatal(cat("line ", regTok.line, ": '", regTok.text,
                      "' is not a register"));
        cur.expect(TokKind::RParen, "')'");
        op.reg = *r;
        if (cur.accept(TokKind::Plus))
            op.shape = VShape::AutoInc;
        else
            op.shape = VShape::Deferred;
        return op;
    }
    if (tok.kind == TokKind::Ident) {
        if (auto r = vaxRegName(tok.text)) {
            cur.get();
            op.shape = VShape::Reg;
            op.reg = *r;
            return op;
        }
    }

    // expr or expr(rN)
    op.expr = cur.parseExpr();
    if (cur.peek().kind == TokKind::LParen) {
        cur.get();
        const Token regTok = cur.expect(TokKind::Ident, "register");
        const auto r = vaxRegName(regTok.text);
        if (!r)
            fatal(cat("line ", regTok.line, ": '", regTok.text,
                      "' is not a register"));
        cur.expect(TokKind::RParen, "')'");
        op.shape = VShape::Disp;
        op.reg = *r;
        return op;
    }
    op.shape = VShape::Bare;
    return op;
}

/** Parse a full CISC source into statements. */
std::vector<VStmt>
parseVaxSource(const std::string &source)
{
    TokenCursor cur(source);
    std::vector<VStmt> stmts;
    std::vector<std::string> pendingLabels;

    while (cur.skipNewlines()) {
        while (cur.peek().kind == TokKind::Ident) {
            const Token identTok = cur.peek();
            cur.get();
            if (cur.accept(TokKind::Colon)) {
                if (vaxRegName(identTok.text))
                    fatal(cat("line ", identTok.line,
                              ": register name '", identTok.text,
                              "' used as a label"));
                pendingLabels.push_back(identTok.text);
                cur.skipNewlines();
                continue;
            }
            VStmt stmt;
            stmt.line = identTok.line;
            stmt.mnemonic = toLower(identTok.text);
            stmt.isDirective = stmt.mnemonic[0] == '.';
            stmt.labels = std::move(pendingLabels);
            pendingLabels.clear();

            if (cur.peek().kind != TokKind::Newline &&
                cur.peek().kind != TokKind::End) {
                if (stmt.isDirective) {
                    // Directives use the generic operand forms
                    // (expressions and strings).
                    auto parseDirOp = [&]() {
                        Operand dop;
                        if (cur.peek().kind == TokKind::Str) {
                            dop.kind = OperandKind::Str;
                            dop.str = cur.get().text;
                        } else {
                            dop.kind = OperandKind::Expr;
                            dop.expr = cur.parseExpr();
                        }
                        return dop;
                    };
                    stmt.directiveOperands.push_back(parseDirOp());
                    while (cur.accept(TokKind::Comma))
                        stmt.directiveOperands.push_back(parseDirOp());
                } else {
                    stmt.operands.push_back(parseVOperand(cur));
                    while (cur.accept(TokKind::Comma))
                        stmt.operands.push_back(parseVOperand(cur));
                }
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
        VStmt stmt;
        stmt.isDirective = true;
        stmt.mnemonic = ".end_marker";
        stmt.labels = std::move(pendingLabels);
        stmts.push_back(std::move(stmt));
    }
    return stmts;
}

class VaxAssembler
{
  public:
    VaxAssembler(const std::string &source, const VaxAsmOptions &options)
        : options_(options), stmts_(parseVaxSource(source))
    {}

    Program
    assemble()
    {
        passOne();
        passTwo();
        resolveEntry();
        return std::move(program_);
    }

  private:
    [[noreturn]] void
    err(const VStmt &stmt, const std::string &msg)
    {
        fatal(cat("line ", stmt.line, ": ", msg));
    }

    std::int64_t
    evalExpr(const VStmt &stmt, const Expr &expr)
    {
        for (const auto &t : expr.terms)
            if (t.isSymbol && !symbols_.contains(t.symbol))
                err(stmt, cat("undefined symbol '", t.symbol, "'"));
        return expr.eval(symbols_, stmt.address);
    }

    /** Pick an encoding (and size) for one operand in pass 1. */
    VEnc
    chooseEncoding(const VStmt &stmt, VOperand &op, VaxOpndUse use)
    {
        const bool branch = use == VaxOpndUse::Branch8 ||
                            use == VaxOpndUse::Branch16;
        switch (op.shape) {
          case VShape::Imm:
            if (branch)
                err(stmt, "immediate used as branch target");
            if (op.expr.resolvable(symbols_)) {
                const std::int64_t v = op.expr.eval(symbols_,
                                                    stmt.address);
                if (v >= 0 && v <= 63)
                    return VEnc::ShortLit;
            }
            return VEnc::Imm32;
          case VShape::Reg:
            if (branch)
                err(stmt, "register used as branch target");
            return VEnc::Reg;
          case VShape::Deferred:
            return VEnc::Deferred;
          case VShape::AutoInc:
            return VEnc::AutoInc;
          case VShape::AutoDec:
            return VEnc::AutoDec;
          case VShape::Disp:
            if (op.expr.resolvable(symbols_)) {
                const std::int64_t v = op.expr.eval(symbols_,
                                                    stmt.address);
                if (fitsSigned(v, 8))
                    return VEnc::Disp8;
                if (fitsSigned(v, 16))
                    return VEnc::Disp16;
            }
            return VEnc::Disp32;
          case VShape::Abs:
            return VEnc::Abs32;
          case VShape::Bare:
            if (use == VaxOpndUse::Branch8)
                return VEnc::Branch8;
            if (use == VaxOpndUse::Branch16)
                return VEnc::Branch16;
            return VEnc::Abs32;
        }
        panic("bad operand shape");
    }

    void
    passOne()
    {
        std::uint32_t addr = options_.defaultOrg;
        for (auto &stmt : stmts_) {
            if (stmt.isDirective && stmt.mnemonic == ".org") {
                if (stmt.directiveOperands.size() != 1 ||
                    !stmt.directiveOperands[0].expr.resolvable(symbols_))
                    err(stmt, ".org needs one resolvable expression");
                addr = static_cast<std::uint32_t>(
                    stmt.directiveOperands[0].expr.eval(symbols_, addr));
            }
            stmt.address = addr;
            for (const auto &label : stmt.labels) {
                if (symbols_.contains(label))
                    err(stmt, cat("duplicate label '", label, "'"));
                symbols_[label] = addr;
            }
            stmt.size = statementSize(stmt);
            addr += stmt.size;
        }
    }

    unsigned
    statementSize(VStmt &stmt)
    {
        if (stmt.isDirective)
            return directiveSize(stmt);

        const auto opOpt = vaxOpcodeFromMnemonic(stmt.mnemonic);
        if (!opOpt)
            err(stmt, cat("unknown mnemonic '", stmt.mnemonic, "'"));
        const VaxOpInfo *info = vaxOpcodeInfo(*opOpt);
        if (stmt.operands.size() != info->numOperands)
            err(stmt, cat("'", stmt.mnemonic, "' takes ",
                          info->numOperands, " operand(s), got ",
                          stmt.operands.size()));
        unsigned size = 1;
        for (unsigned i = 0; i < info->numOperands; ++i) {
            stmt.operands[i].enc =
                chooseEncoding(stmt, stmt.operands[i],
                               info->operands[i]);
            size += encBytes(stmt.operands[i].enc);
        }
        return size;
    }

    unsigned
    directiveSize(VStmt &stmt)
    {
        const std::string &m = stmt.mnemonic;
        const auto &ops = stmt.directiveOperands;
        if (m == ".word")
            return 4 * static_cast<unsigned>(ops.size());
        if (m == ".half" || m == ".mask")
            return 2 * static_cast<unsigned>(ops.size());
        if (m == ".byte")
            return static_cast<unsigned>(ops.size());
        if (m == ".space") {
            if (ops.size() != 1 || !ops[0].expr.resolvable(symbols_))
                err(stmt, ".space needs one resolvable expression");
            return static_cast<unsigned>(
                ops[0].expr.eval(symbols_, stmt.address));
        }
        if (m == ".ascii" || m == ".asciz") {
            unsigned total = 0;
            for (const auto &op : ops) {
                if (op.kind != OperandKind::Str)
                    err(stmt, cat(m, " takes string operands"));
                total += static_cast<unsigned>(op.str.size()) +
                         (m == ".asciz" ? 1 : 0);
            }
            return total;
        }
        if (m == ".align") {
            if (ops.size() != 1 || !ops[0].expr.resolvable(symbols_))
                err(stmt, ".align needs one resolvable expression");
            const auto a = static_cast<std::uint32_t>(
                ops[0].expr.eval(symbols_, stmt.address));
            if (a == 0 || (a & (a - 1)) != 0)
                err(stmt, ".align needs a power of two");
            return (a - (stmt.address % a)) % a;
        }
        if (m == ".equ") {
            if (ops.size() != 2)
                err(stmt, ".equ takes: name, expression");
            const auto name = ops[0].expr.asBareSymbol();
            if (!name)
                err(stmt, ".equ first operand must be a name");
            if (!ops[1].expr.resolvable(symbols_))
                err(stmt, ".equ expression must be resolvable");
            if (symbols_.contains(*name))
                err(stmt, cat("duplicate symbol '", *name, "'"));
            symbols_[*name] = static_cast<std::uint32_t>(
                ops[1].expr.eval(symbols_, stmt.address));
            return 0;
        }
        if (m == ".org" || m == ".entry" || m == ".end_marker")
            return 0;
        err(stmt, cat("unknown directive '", m, "'"));
    }

    void
    emit(std::uint32_t addr, SegmentKind kind,
         const std::vector<std::uint8_t> &bytes)
    {
        if (bytes.empty())
            return;
        Segment *seg = program_.segments.empty()
                           ? nullptr
                           : &program_.segments.back();
        if (!seg || seg->kind != kind ||
            seg->base + seg->bytes.size() != addr) {
            program_.segments.push_back(Segment{addr, kind, {}});
            seg = &program_.segments.back();
        }
        seg->bytes.insert(seg->bytes.end(), bytes.begin(), bytes.end());
    }

    void
    encodeOperand(const VStmt &stmt, const VOperand &op,
                  std::uint32_t specAddr, std::vector<std::uint8_t> &out)
    {
        auto spec = [&](VaxMode mode, unsigned rn) {
            out.push_back(static_cast<std::uint8_t>(
                (static_cast<unsigned>(mode) << 4) | (rn & 0xf)));
        };
        auto emit32 = [&](std::uint32_t v) {
            out.push_back(static_cast<std::uint8_t>(v));
            out.push_back(static_cast<std::uint8_t>(v >> 8));
            out.push_back(static_cast<std::uint8_t>(v >> 16));
            out.push_back(static_cast<std::uint8_t>(v >> 24));
        };

        switch (op.enc) {
          case VEnc::ShortLit: {
            const std::int64_t v = evalExpr(stmt, op.expr);
            if (v < 0 || v > 63)
                err(stmt, cat("short literal ", v, " out of range"));
            out.push_back(static_cast<std::uint8_t>(v));
            break;
          }
          case VEnc::Imm32:
            spec(VaxMode::AutoInc, vaxPc);
            emit32(static_cast<std::uint32_t>(evalExpr(stmt, op.expr)));
            break;
          case VEnc::Reg:
            spec(VaxMode::Register, op.reg);
            break;
          case VEnc::Deferred:
            spec(VaxMode::Deferred, op.reg);
            break;
          case VEnc::AutoInc:
            spec(VaxMode::AutoInc, op.reg);
            break;
          case VEnc::AutoDec:
            spec(VaxMode::AutoDec, op.reg);
            break;
          case VEnc::Disp8: {
            const std::int64_t v = evalExpr(stmt, op.expr);
            if (!fitsSigned(v, 8))
                err(stmt, cat("byte displacement ", v, " out of range"));
            spec(VaxMode::DispByte, op.reg);
            out.push_back(static_cast<std::uint8_t>(v));
            break;
          }
          case VEnc::Disp16: {
            const std::int64_t v = evalExpr(stmt, op.expr);
            if (!fitsSigned(v, 16))
                err(stmt, cat("word displacement ", v, " out of range"));
            spec(VaxMode::DispWord, op.reg);
            out.push_back(static_cast<std::uint8_t>(v));
            out.push_back(static_cast<std::uint8_t>(v >> 8));
            break;
          }
          case VEnc::Disp32:
            spec(VaxMode::DispLong, op.reg);
            emit32(static_cast<std::uint32_t>(evalExpr(stmt, op.expr)));
            break;
          case VEnc::Abs32:
            spec(VaxMode::AutoIncDef, vaxPc);
            emit32(static_cast<std::uint32_t>(evalExpr(stmt, op.expr)));
            break;
          case VEnc::Branch8: {
            const std::int64_t target = evalExpr(stmt, op.expr);
            const std::int64_t disp = target - (specAddr + 1);
            if (!fitsSigned(disp, 8))
                err(stmt, cat("branch displacement ", disp,
                              " exceeds byte range; restructure or use "
                              "brw/jmp"));
            out.push_back(static_cast<std::uint8_t>(disp));
            break;
          }
          case VEnc::Branch16: {
            const std::int64_t target = evalExpr(stmt, op.expr);
            const std::int64_t disp = target - (specAddr + 2);
            if (!fitsSigned(disp, 16))
                err(stmt, cat("branch displacement ", disp,
                              " exceeds word range"));
            out.push_back(static_cast<std::uint8_t>(disp));
            out.push_back(static_cast<std::uint8_t>(disp >> 8));
            break;
          }
        }
    }

    void
    passTwo()
    {
        for (auto &stmt : stmts_) {
            std::vector<std::uint8_t> bytes;
            if (!stmt.isDirective) {
                const auto op = *vaxOpcodeFromMnemonic(stmt.mnemonic);
                const VaxOpInfo *info = vaxOpcodeInfo(op);
                bytes.push_back(static_cast<std::uint8_t>(op));
                std::uint32_t specAddr = stmt.address + 1;
                for (unsigned i = 0; i < info->numOperands; ++i) {
                    encodeOperand(stmt, stmt.operands[i], specAddr,
                                  bytes);
                    specAddr = stmt.address +
                               static_cast<std::uint32_t>(bytes.size());
                }
                if (bytes.size() != stmt.size)
                    panic(cat("line ", stmt.line,
                              ": pass disagreement on size"));
                ++program_.staticInstructions;
                emit(stmt.address, SegmentKind::Code, bytes);
                continue;
            }

            const std::string &m = stmt.mnemonic;
            const auto &ops = stmt.directiveOperands;
            auto evalOp = [&](const Operand &op) {
                return evalExpr(stmt, op.expr);
            };
            if (m == ".word") {
                if (stmt.address % 4 != 0)
                    err(stmt, ".word at unaligned address (insert "
                              ".align 4 — code here is variable-length)");
                for (const auto &op : ops) {
                    const auto v =
                        static_cast<std::uint32_t>(evalOp(op));
                    bytes.push_back(static_cast<std::uint8_t>(v));
                    bytes.push_back(static_cast<std::uint8_t>(v >> 8));
                    bytes.push_back(static_cast<std::uint8_t>(v >> 16));
                    bytes.push_back(static_cast<std::uint8_t>(v >> 24));
                }
                emit(stmt.address, SegmentKind::Data, bytes);
            } else if (m == ".half") {
                if (stmt.address % 2 != 0)
                    err(stmt, ".half at unaligned address (use .align)");
                for (const auto &op : ops) {
                    const auto v =
                        static_cast<std::uint32_t>(evalOp(op));
                    bytes.push_back(static_cast<std::uint8_t>(v));
                    bytes.push_back(static_cast<std::uint8_t>(v >> 8));
                }
                emit(stmt.address, SegmentKind::Data, bytes);
            } else if (m == ".mask") {
                // Entry masks are part of the procedure's code bytes.
                for (const auto &op : ops) {
                    const auto v =
                        static_cast<std::uint32_t>(evalOp(op));
                    bytes.push_back(static_cast<std::uint8_t>(v));
                    bytes.push_back(static_cast<std::uint8_t>(v >> 8));
                }
                emit(stmt.address, SegmentKind::Code, bytes);
            } else if (m == ".byte") {
                for (const auto &op : ops)
                    bytes.push_back(
                        static_cast<std::uint8_t>(evalOp(op)));
                emit(stmt.address, SegmentKind::Data, bytes);
            } else if (m == ".space" || m == ".align") {
                bytes.assign(stmt.size, 0);
                emit(stmt.address, SegmentKind::Data, bytes);
            } else if (m == ".ascii" || m == ".asciz") {
                for (const auto &op : ops) {
                    bytes.insert(bytes.end(), op.str.begin(),
                                 op.str.end());
                    if (m == ".asciz")
                        bytes.push_back(0);
                }
                emit(stmt.address, SegmentKind::Data, bytes);
            } else if (m == ".entry") {
                if (ops.size() != 1)
                    err(stmt, ".entry takes one expression");
                entry_ = static_cast<std::uint32_t>(evalOp(ops[0]));
            }
        }
        program_.symbols = symbols_;
    }

    void
    resolveEntry()
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

    VaxAsmOptions options_;
    std::vector<VStmt> stmts_;
    std::map<std::string, std::uint32_t> symbols_;
    std::optional<std::uint32_t> entry_;
    Program program_;
};

} // namespace

Program
assembleVax(const std::string &source, const VaxAsmOptions &options)
{
    VaxAssembler assembler(source, options);
    return assembler.assemble();
}

} // namespace risc1
