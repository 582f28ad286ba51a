#include "asm/assembler.hh"

#include <optional>
#include <vector>

#include "asm/core.hh"
#include "common/bitfield.hh"
#include "common/logging.hh"
#include "isa/instruction.hh"

namespace risc1 {

namespace {

/** Pseudo-branch table: b<cond> label -> jmpr cond, label. */
std::optional<Cond>
branchPseudo(const std::string &mnemonic)
{
    if (mnemonic == "bra")
        return Cond::Alw;
    if (mnemonic.size() < 2 || mnemonic[0] != 'b')
        return std::nullopt;
    return condFromName(mnemonic.substr(1));
}

/** ALU mnemonic lookup with optional trailing-'s' scc suffix. */
struct AluMatch
{
    Opcode op;
    bool scc;
};

std::optional<AluMatch>
aluMnemonic(const std::string &mnemonic)
{
    if (auto op = opcodeFromMnemonic(mnemonic)) {
        if (opcodeInfo(*op)->cls == InstClass::Alu &&
            *op != Opcode::Ldhi)
            return AluMatch{*op, false};
        return std::nullopt;
    }
    if (mnemonic.size() > 1 && mnemonic.back() == 's') {
        const std::string base = mnemonic.substr(0, mnemonic.size() - 1);
        if (auto op = opcodeFromMnemonic(base)) {
            if (opcodeInfo(*op)->cls == InstClass::Alu &&
                *op != Opcode::Ldhi)
                return AluMatch{*op, true};
        }
    }
    return std::nullopt;
}

/** Split a 32-bit constant into ldhi/add parts that recombine exactly. */
struct SplitImm
{
    std::int32_t hi19;
    std::int32_t lo13;
};

SplitImm
splitImmediate(std::int64_t value)
{
    const auto v = static_cast<std::uint32_t>(value);
    const std::int32_t lo = sext(v & 0x1fff, 13);
    const std::uint32_t hiPart =
        v - static_cast<std::uint32_t>(lo);
    SplitImm s;
    s.lo13 = lo;
    s.hi19 = static_cast<std::int32_t>(hiPart >> 13) & 0x7ffff;
    // ldhi sign-extends its 19-bit field before shifting; keep the raw
    // field value in signed range for the encoder.
    s.hi19 = sext(static_cast<std::uint32_t>(s.hi19), 19);
    return s;
}

class RiscAssembler final : public AsmCore
{
  public:
    RiscAssembler() : AsmCore(4, "use .align") {}

  private:
    std::optional<unsigned>
    regName(const std::string &name) const override
    {
        return parseRegName(name);
    }

    /** Parse one operand: register, expr(reg), (reg), string, or expr. */
    Operand
    parseOperand(TokenCursor &cur) const override
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
            op.kind = OperandKind::Mem;
            op.reg = parenReg(cur);
            op.expr = Expr::constant(0);
            return op;
        }
        return exprOrMem(cur);
    }

    unsigned
    encode(const Stmt &stmt, std::vector<std::uint8_t> &out) override
    {
        // Multi-word pseudos use stmt.address as '.' for every word.
        const auto insts = expand(stmt);
        for (const auto &inst : insts) {
            const std::uint32_t w = inst.encode();
            for (int b = 0; b < 4; ++b)
                out.push_back(static_cast<std::uint8_t>(w >> (8 * b)));
        }
        return static_cast<unsigned>(insts.size());
    }

    // -- Operand interpretation ------------------------------------------
    unsigned
    wantReg(const Stmt &stmt, std::size_t idx)
    {
        if (idx >= stmt.operands.size() ||
            stmt.operands[idx].kind != OperandKind::Reg)
            err(stmt, cat("operand ", idx + 1, " of '", stmt.mnemonic,
                          "' must be a register"));
        return stmt.operands[idx].reg;
    }

    std::int64_t
    wantExpr(const Stmt &stmt, std::size_t idx)
    {
        if (idx >= stmt.operands.size() ||
            stmt.operands[idx].kind != OperandKind::Expr)
            err(stmt, cat("operand ", idx + 1, " of '", stmt.mnemonic,
                          "' must be an expression"));
        return evalExpr(stmt, stmt.operands[idx].expr);
    }

    Cond
    wantCond(const Stmt &stmt, std::size_t idx)
    {
        if (idx < stmt.operands.size() &&
            stmt.operands[idx].kind == OperandKind::Expr) {
            if (auto sym = stmt.operands[idx].expr.asBareSymbol())
                if (auto cond = condFromName(*sym))
                    return *cond;
        }
        err(stmt, cat("operand ", idx + 1, " of '", stmt.mnemonic,
                      "' must be a condition (alw, eq, ne, ...)"));
    }

    std::int32_t
    checkImm13(const Stmt &stmt, std::int64_t value)
    {
        if (!fitsSigned(value, 13))
            err(stmt, cat("immediate ", value,
                          " does not fit in 13 bits"));
        return static_cast<std::int32_t>(value);
    }

    std::int32_t
    checkImm19(const Stmt &stmt, std::int64_t value)
    {
        if (!fitsSigned(value, 19))
            err(stmt, cat("offset ", value,
                          " does not fit in 19 bits (too far?)"));
        return static_cast<std::int32_t>(value);
    }

    /** Fill rs1/imm/rs2 of @p inst from an s2-style operand. */
    void
    applyS2(const Stmt &stmt, Instruction &inst, const Operand &op)
    {
        if (op.kind == OperandKind::Reg) {
            inst.imm = false;
            inst.rs2 = static_cast<std::uint8_t>(op.reg);
        } else if (op.kind == OperandKind::Expr) {
            inst.imm = true;
            inst.simm13 = checkImm13(stmt, evalExpr(stmt, op.expr));
        } else {
            err(stmt, "bad s2 operand (register or expression expected)");
        }
    }

    /**
     * Fill address operands (rs1 + s2) from the tail of the operand
     * list starting at @p idx: accepts "expr(rN)", "(rN)", "expr"
     * (absolute, rs1 = r0), or "rN, s2".
     */
    void
    applyAddress(const Stmt &stmt, Instruction &inst, std::size_t idx)
    {
        if (idx >= stmt.operands.size())
            err(stmt, "missing address operand");
        const Operand &op = stmt.operands[idx];
        if (op.kind == OperandKind::Mem) {
            if (idx + 1 != stmt.operands.size())
                err(stmt, "trailing operands after address");
            inst.rs1 = static_cast<std::uint8_t>(op.reg);
            inst.imm = true;
            inst.simm13 = checkImm13(stmt, evalExpr(stmt, op.expr));
        } else if (op.kind == OperandKind::Expr &&
                   idx + 1 == stmt.operands.size()) {
            inst.rs1 = 0;
            inst.imm = true;
            inst.simm13 = checkImm13(stmt, evalExpr(stmt, op.expr));
        } else if (op.kind == OperandKind::Reg &&
                   idx + 2 == stmt.operands.size()) {
            inst.rs1 = static_cast<std::uint8_t>(op.reg);
            applyS2(stmt, inst, stmt.operands[idx + 1]);
        } else {
            err(stmt, "bad address operand: use off(rN), rN, s2, or "
                      "an absolute expression");
        }
    }

    // -- Instruction expansion -------------------------------------------

    /** Bytes a statement expands to (pass 1): one word, or two. */
    unsigned
    instructionSize(Stmt &stmt) override
    {
        const std::string &m = stmt.mnemonic;
        if (m == "ldi" || m == "mov") {
            // mov rd, rN is a single add; constants may need ldhi+add.
            if (stmt.operands.size() == 2 &&
                stmt.operands[1].kind == OperandKind::Reg)
                return 4;
            if (stmt.operands.size() == 2 &&
                stmt.operands[1].kind == OperandKind::Expr) {
                const auto v = known(stmt, stmt.operands[1].expr);
                if (v && fitsSigned(*v, 13))
                    return 4;
            }
            return 8;
        }
        return 4;
    }

    /** Expand one instruction statement to machine instructions. */
    std::vector<Instruction>
    expand(const Stmt &stmt)
    {
        const std::string &m = stmt.mnemonic;
        std::vector<Instruction> out;
        auto countIs = [&](std::size_t n) {
            if (stmt.operands.size() != n)
                err(stmt, cat("'", m, "' takes ", n, " operand(s), got ",
                              stmt.operands.size()));
        };

        // ---- ALU (with scc suffix handling) ----
        if (auto alu = aluMnemonic(m)) {
            countIs(3);
            Instruction inst;
            inst.op = alu->op;
            inst.scc = alu->scc;
            inst.rd = static_cast<std::uint8_t>(wantReg(stmt, 0));
            inst.rs1 = static_cast<std::uint8_t>(wantReg(stmt, 1));
            applyS2(stmt, inst, stmt.operands[2]);
            out.push_back(inst);
            return out;
        }

        // ---- Pseudo-instructions ----
        if (m == "nop") {
            countIs(0);
            out.push_back(Instruction::nop());
            return out;
        }
        if (m == "halt") {
            countIs(0);
            out.push_back(Instruction::jmpr(Cond::Alw, 0));
            return out;
        }
        if (m == "clr") {
            countIs(1);
            out.push_back(Instruction::aluImm(Opcode::Add,
                                              wantReg(stmt, 0), 0, 0));
            return out;
        }
        if (m == "inc" || m == "dec") {
            const unsigned rd = wantReg(stmt, 0);
            std::int64_t amount = 1;
            if (stmt.operands.size() == 2)
                amount = wantExpr(stmt, 1);
            else if (stmt.operands.size() != 1)
                err(stmt, cat("'", m, "' takes 1 or 2 operands"));
            out.push_back(Instruction::aluImm(
                m == "inc" ? Opcode::Add : Opcode::Sub, rd, rd,
                checkImm13(stmt, amount)));
            return out;
        }
        if (m == "cmp") {
            countIs(2);
            Instruction inst;
            inst.op = Opcode::Sub;
            inst.scc = true;
            inst.rd = 0;
            inst.rs1 = static_cast<std::uint8_t>(wantReg(stmt, 0));
            applyS2(stmt, inst, stmt.operands[1]);
            out.push_back(inst);
            return out;
        }
        if (m == "not") {
            countIs(2);
            out.push_back(Instruction::aluImm(
                Opcode::Xor, wantReg(stmt, 0), wantReg(stmt, 1), -1));
            return out;
        }
        if (m == "neg") {
            countIs(2);
            out.push_back(Instruction::aluImm(
                Opcode::Subr, wantReg(stmt, 0), wantReg(stmt, 1), 0));
            return out;
        }
        if (m == "ldi" || m == "mov") {
            countIs(2);
            const unsigned rd = wantReg(stmt, 0);
            if (stmt.operands[1].kind == OperandKind::Reg) {
                out.push_back(Instruction::aluImm(
                    Opcode::Add, rd, stmt.operands[1].reg, 0));
                return out;
            }
            if (stmt.operands[1].kind != OperandKind::Expr)
                err(stmt, "second operand of ldi/mov must be a register "
                          "or expression");
            const std::int64_t value =
                evalExpr(stmt, stmt.operands[1].expr);
            if (stmt.size == 4) {
                out.push_back(Instruction::aluImm(
                    Opcode::Add, rd, 0, checkImm13(stmt, value)));
            } else {
                const SplitImm split = splitImmediate(value);
                out.push_back(Instruction::ldhi(rd, split.hi19));
                out.push_back(Instruction::aluImm(Opcode::Add, rd, rd,
                                                  split.lo13));
            }
            return out;
        }
        if (auto cond = branchPseudo(m)) {
            countIs(1);
            if (stmt.operands[0].kind != OperandKind::Expr)
                err(stmt, "branch target must be an expression");
            const std::int64_t target =
                evalExpr(stmt, stmt.operands[0].expr);
            out.push_back(Instruction::jmpr(
                *cond, checkImm19(stmt, target - stmt.address)));
            return out;
        }

        // ---- Real opcodes ----
        if (m == "ldhis") {
            countIs(2);
            const unsigned rd = wantReg(stmt, 0);
            Instruction inst =
                Instruction::ldhi(rd, checkImm19(stmt, wantExpr(stmt, 1)));
            inst.scc = true;
            out.push_back(inst);
            return out;
        }
        const auto opOpt = opcodeFromMnemonic(m);
        if (!opOpt)
            err(stmt, cat("unknown mnemonic '", m, "'"));
        const Opcode op = *opOpt;
        const OpcodeInfo *info = opcodeInfo(op);

        Instruction inst;
        inst.op = op;

        switch (op) {
          case Opcode::Ldhi:
            countIs(2);
            inst.rd = static_cast<std::uint8_t>(wantReg(stmt, 0));
            inst.imm19 = checkImm19(stmt, wantExpr(stmt, 1));
            break;
          case Opcode::Ldl:
          case Opcode::Ldsu:
          case Opcode::Ldss:
          case Opcode::Ldbu:
          case Opcode::Ldbs:
          case Opcode::Stl:
          case Opcode::Sts:
          case Opcode::Stb:
            inst.rd = static_cast<std::uint8_t>(wantReg(stmt, 0));
            applyAddress(stmt, inst, 1);
            break;
          case Opcode::Jmp:
            inst.rd = static_cast<std::uint8_t>(wantCond(stmt, 0));
            applyAddress(stmt, inst, 1);
            break;
          case Opcode::Jmpr: {
            countIs(2);
            inst.rd = static_cast<std::uint8_t>(wantCond(stmt, 0));
            if (stmt.operands[1].kind != OperandKind::Expr)
                err(stmt, "jmpr target must be an expression");
            const std::int64_t target =
                evalExpr(stmt, stmt.operands[1].expr);
            inst.imm19 = checkImm19(stmt, target - stmt.address);
            break;
          }
          case Opcode::Call:
            if (stmt.operands.size() == 1 &&
                stmt.operands[0].kind == OperandKind::Expr) {
                // call <label>  ==>  callr r31, <label>
                inst.op = Opcode::Callr;
                inst.rd = 31;
                const std::int64_t target =
                    evalExpr(stmt, stmt.operands[0].expr);
                inst.imm19 = checkImm19(stmt, target - stmt.address);
                break;
            }
            inst.rd = static_cast<std::uint8_t>(wantReg(stmt, 0));
            applyAddress(stmt, inst, 1);
            break;
          case Opcode::Callr: {
            countIs(2);
            inst.rd = static_cast<std::uint8_t>(wantReg(stmt, 0));
            if (stmt.operands[1].kind != OperandKind::Expr)
                err(stmt, "callr target must be an expression");
            const std::int64_t target =
                evalExpr(stmt, stmt.operands[1].expr);
            inst.imm19 = checkImm19(stmt, target - stmt.address);
            break;
          }
          case Opcode::Ret:
          case Opcode::Reti:
            if (stmt.operands.empty()) {
                // Plain "ret": return to r31 + 8 (skip call + slot).
                inst.rs1 = 31;
                inst.imm = true;
                inst.simm13 = 8;
                break;
            }
            if (stmt.operands.size() != 2)
                err(stmt, cat("'", m, "' takes 0 or 2 operands"));
            inst.rs1 = static_cast<std::uint8_t>(wantReg(stmt, 0));
            applyS2(stmt, inst, stmt.operands[1]);
            break;
          case Opcode::Calli:
          case Opcode::Gtlpc:
          case Opcode::Getpsw:
            countIs(1);
            inst.rd = static_cast<std::uint8_t>(wantReg(stmt, 0));
            break;
          case Opcode::Putpsw:
            countIs(1);
            inst.rs1 = static_cast<std::uint8_t>(wantReg(stmt, 0));
            break;
          default:
            err(stmt, cat("mnemonic '", m, "' (", info->mnemonic,
                          ") needs ALU operand form"));
        }
        out.push_back(inst);
        return out;
    }
};

} // namespace

Program
assembleRisc(const std::string &source)
{
    return RiscAssembler().assemble(source);
}

} // namespace risc1
