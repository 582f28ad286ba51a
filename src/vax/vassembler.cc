#include "vax/vassembler.hh"

#include <optional>
#include <string>
#include <vector>

#include "asm/core.hh"
#include "common/bitfield.hh"
#include "common/logging.hh"
#include "common/name_table.hh"
#include "vax/visa.hh"

namespace risc1 {

namespace {

/** Register-name lookup (r0..r15, ap, fp, sp, pc; any case). */
std::optional<unsigned>
vaxRegName(std::string_view name)
{
    static const auto regs = [] {
        NameTable<unsigned> t;
        for (unsigned r = 0; r < vaxNumRegs; ++r)
            t.add(cat("r", r), r);
        t.add("ap", vaxAp);
        t.add("fp", vaxFp);
        t.add("sp", vaxSp);
        t.add("pc", vaxPc);
        return t;
    }();
    char lower[3];
    if (name.size() > sizeof lower)
        return std::nullopt;
    for (std::size_t i = 0; i < name.size(); ++i)
        lower[i] = asciiLower(name[i]);
    if (const unsigned *r = regs.find({lower, name.size()}))
        return *r;
    return std::nullopt;
}

/** Stmt::code of a mnemonic that names no opcode. */
constexpr std::uint32_t kUnknownOp = 0x100;

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

/** Data directives only the VAX has: CALLS entry masks, as code. */
constexpr DataDirective kVaxData[] = {
    {".mask", 2, 1, SegmentKind::Code},
};

class VaxAssembler final : public AsmCore
{
  public:
    VaxAssembler()
        : AsmCore(1, "insert .align 4 — code here is variable-length",
                  kVaxData)
    {}

  private:
    std::optional<unsigned>
    regName(std::string_view name) const override
    {
        return vaxRegName(name);
    }

    std::uint32_t
    resolve(std::string_view mnemonic) const override
    {
        const auto op = vaxOpcodeFromMnemonic(mnemonic);
        return op ? static_cast<std::uint32_t>(*op) : kUnknownOp;
    }

    /** Parse one operand in any of the VAX forms. */
    Operand
    parseOperand(TokenCursor &cur) const override
    {
        Operand op;
        const Token &tok = cur.peek();
        if (tok.kind == TokKind::Hash || tok.kind == TokKind::At) {
            op.kind = cur.get().kind == TokKind::Hash ? OperandKind::Imm
                                                      : OperandKind::Abs;
            op.expr = cur.parseExpr();
            return op;
        }
        if (tok.kind == TokKind::Minus) {
            // -(rN) autodecrement, or a negative expression: -8(r2).
            cur.get();
            if (cur.peek().kind == TokKind::LParen) {
                op.kind = OperandKind::AutoDec;
                op.reg = parenReg(cur);
                return op;
            }
            op = exprOrMem(cur);
            for (auto &t : op.expr.terms)
                t.sign = -t.sign;
            return op;
        }
        if (tok.kind == TokKind::LParen) {
            op.reg = parenReg(cur);
            op.kind = cur.accept(TokKind::Plus) ? OperandKind::AutoInc
                                                : OperandKind::Deferred;
            return op;
        }
        if (tok.kind == TokKind::Ident) {
            if (auto r = vaxRegName(tok.text)) {
                cur.get();
                op.kind = OperandKind::Reg;
                op.reg = *r;
                return op;
            }
        }
        return exprOrMem(cur);
    }

    /** Pick an encoding (and size) for one operand in pass 1. */
    VEnc
    chooseEncoding(const Stmt &stmt, const Operand &op,
                   VaxOpndUse use) const
    {
        const bool branch = use == VaxOpndUse::Branch8 ||
                            use == VaxOpndUse::Branch16;
        switch (op.kind) {
          case OperandKind::Imm: {
            if (branch)
                err(stmt, "immediate used as branch target");
            const auto v = known(stmt, op.expr);
            return v && *v >= 0 && *v <= 63 ? VEnc::ShortLit : VEnc::Imm32;
          }
          case OperandKind::Reg:
            if (branch)
                err(stmt, "register used as branch target");
            return VEnc::Reg;
          case OperandKind::Deferred:
            return VEnc::Deferred;
          case OperandKind::AutoInc:
            return VEnc::AutoInc;
          case OperandKind::AutoDec:
            return VEnc::AutoDec;
          case OperandKind::Mem: {
            const auto v = known(stmt, op.expr);
            if (v && fitsSigned(*v, 8))
                return VEnc::Disp8;
            if (v && fitsSigned(*v, 16))
                return VEnc::Disp16;
            return VEnc::Disp32;
          }
          case OperandKind::Abs:
            return VEnc::Abs32;
          case OperandKind::Expr:
            if (use == VaxOpndUse::Branch8)
                return VEnc::Branch8;
            if (use == VaxOpndUse::Branch16)
                return VEnc::Branch16;
            return VEnc::Abs32;
          case OperandKind::Str:
            break;
        }
        panic("bad operand shape");
    }

    unsigned
    instructionSize(Stmt &stmt) override
    {
        if (stmt.code == kUnknownOp)
            err(stmt, cat("unknown mnemonic '", stmt.mnemonic, "'"));
        const VaxOpInfo *info =
            vaxOpcodeInfo(static_cast<VaxOpcode>(stmt.code));
        const auto ops = operands(stmt);
        if (ops.size() != info->numOperands)
            err(stmt, cat("'", stmt.mnemonic, "' takes ",
                          unsigned{info->numOperands}, " operand(s), got ",
                          ops.size()));
        unsigned size = 1;
        for (unsigned i = 0; i < info->numOperands; ++i) {
            Operand &op = ops[i];
            const VEnc enc = chooseEncoding(stmt, op, info->operands[i]);
            op.enc = static_cast<std::uint8_t>(enc);
            size += encBytes(enc);
        }
        return size;
    }

    void
    encodeOperand(const Stmt &stmt, const Operand &op,
                  std::uint32_t specAddr,
                  std::vector<std::uint8_t> &out) const
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

        switch (static_cast<VEnc>(op.enc)) {
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
            const std::int64_t disp =
                displacement(stmt, target, specAddr + 1);
            if (!fitsSigned(disp, 8))
                err(stmt, cat("branch displacement ", disp,
                              " exceeds byte range; restructure or use "
                              "brw/jmp"));
            out.push_back(static_cast<std::uint8_t>(disp));
            break;
          }
          case VEnc::Branch16: {
            const std::int64_t target = evalExpr(stmt, op.expr);
            const std::int64_t disp =
                displacement(stmt, target, specAddr + 2);
            if (!fitsSigned(disp, 16))
                err(stmt, cat("branch displacement ", disp,
                              " exceeds word range"));
            out.push_back(static_cast<std::uint8_t>(disp));
            out.push_back(static_cast<std::uint8_t>(disp >> 8));
            break;
          }
        }
    }

    unsigned
    encode(const Stmt &stmt, std::vector<std::uint8_t> &out) override
    {
        const auto op = static_cast<VaxOpcode>(stmt.code);
        const VaxOpInfo *info = vaxOpcodeInfo(op);
        const auto ops = operands(stmt);
        const std::size_t start = out.size();
        out.push_back(static_cast<std::uint8_t>(op));
        for (unsigned i = 0; i < info->numOperands; ++i)
            encodeOperand(stmt, ops[i],
                          stmt.address + static_cast<std::uint32_t>(
                                             out.size() - start),
                          out);
        return 1;
    }
};

} // namespace

Program
assembleVax(const std::string &source, std::optional<std::uint64_t> memBytes)
{
    return VaxAssembler().assemble(source, memBytes);
}

} // namespace risc1
