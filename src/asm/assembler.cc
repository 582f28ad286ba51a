#include "asm/assembler.hh"

#include <bit>
#include <optional>
#include <vector>

#include "asm/core.hh"
#include "common/bitfield.hh"
#include "common/logging.hh"
#include "common/name_table.hh"
#include "isa/instruction.hh"

namespace risc1 {

namespace {

/** What a mnemonic names. */
enum class Form : std::uint8_t
{
    Unknown,
    Alu,     ///< an ALU opcode but ldhi; a trailing 's' sets scc
    Op,      ///< any other opcode; ldhis is ldhi with scc
    Nop,
    Halt,
    Clr,
    Inc,
    Dec,
    Cmp,
    Not,
    Neg,
    Ldi,     ///< ldi and mov
    Branch,  ///< bra and b<cond>: jmpr cond, label
};

/** A resolved mnemonic; it travels in Stmt::code. */
struct Mnemonic
{
    Form form = Form::Unknown;
    Opcode op = Opcode::Add;
    bool scc = false;
    Cond cond = Cond::Alw;
};
static_assert(sizeof(Mnemonic) == sizeof(Stmt::code));

/**
 * Every mnemonic, built once from the opcode and condition tables the
 * decoder and disassembler use, plus the pseudo-instructions.
 */
const NameTable<Mnemonic> &
mnemonicTable()
{
    static const auto table = [] {
        NameTable<Mnemonic> t;
        for (std::size_t i = 0; i < numOpcodes; ++i) {
            const OpcodeInfo &info = allOpcodes()[i];
            if (info.cls == InstClass::Alu && info.op != Opcode::Ldhi) {
                t.add(info.mnemonic, {Form::Alu, info.op});
                t.add(cat(info.mnemonic, "s"), {Form::Alu, info.op, true});
            } else {
                t.add(info.mnemonic, {Form::Op, info.op});
            }
        }
        t.add("ldhis", {Form::Op, Opcode::Ldhi, true});
        constexpr std::pair<std::string_view, Form> kPseudos[] = {
            {"nop", Form::Nop}, {"halt", Form::Halt}, {"clr", Form::Clr},
            {"inc", Form::Inc}, {"dec", Form::Dec},   {"cmp", Form::Cmp},
            {"not", Form::Not}, {"neg", Form::Neg},   {"ldi", Form::Ldi},
            {"mov", Form::Ldi},
        };
        for (const auto &[name, form] : kPseudos)
            t.add(name, {form});
        t.add("bra", {Form::Branch});
        for (unsigned c = 0; c < 16; ++c) {
            const auto cond = static_cast<Cond>(c);
            t.add(cat("b", condName(cond)),
                  {Form::Branch, Opcode::Add, false, cond});
        }
        return t;
    }();
    return table;
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
    regName(std::string_view name) const override
    {
        return parseRegName(name);
    }

    std::uint32_t
    resolve(std::string_view mnemonic) const override
    {
        const Mnemonic *m = mnemonicTable().find(mnemonic);
        return std::bit_cast<std::uint32_t>(m ? *m : Mnemonic{});
    }

    static Mnemonic
    mnemonic(const Stmt &stmt)
    {
        return std::bit_cast<Mnemonic>(stmt.code);
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
        const auto ops = operands(stmt);
        if (idx >= ops.size() || ops[idx].kind != OperandKind::Reg)
            err(stmt, cat("operand ", idx + 1, " of '", stmt.mnemonic,
                          "' must be a register"));
        return ops[idx].reg;
    }

    std::int64_t
    wantExpr(const Stmt &stmt, std::size_t idx)
    {
        const auto ops = operands(stmt);
        if (idx >= ops.size() || ops[idx].kind != OperandKind::Expr)
            err(stmt, cat("operand ", idx + 1, " of '", stmt.mnemonic,
                          "' must be an expression"));
        return evalExpr(stmt, ops[idx].expr);
    }

    Cond
    wantCond(const Stmt &stmt, std::size_t idx)
    {
        const auto ops = operands(stmt);
        if (idx < ops.size() && ops[idx].kind == OperandKind::Expr) {
            if (auto sym = ops[idx].expr.asBareSymbol())
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
        const auto ops = operands(stmt);
        if (idx >= ops.size())
            err(stmt, "missing address operand");
        const Operand &op = ops[idx];
        if (op.kind == OperandKind::Mem) {
            if (idx + 1 != ops.size())
                err(stmt, "trailing operands after address");
            inst.rs1 = static_cast<std::uint8_t>(op.reg);
            inst.imm = true;
            inst.simm13 = checkImm13(stmt, evalExpr(stmt, op.expr));
        } else if (op.kind == OperandKind::Expr && idx + 1 == ops.size()) {
            inst.rs1 = 0;
            inst.imm = true;
            inst.simm13 = checkImm13(stmt, evalExpr(stmt, op.expr));
        } else if (op.kind == OperandKind::Reg && idx + 2 == ops.size()) {
            inst.rs1 = static_cast<std::uint8_t>(op.reg);
            applyS2(stmt, inst, ops[idx + 1]);
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
        if (mnemonic(stmt).form != Form::Ldi)
            return 4;
        // mov rd, rN is a single add; constants may need ldhi+add.
        const auto ops = operands(stmt);
        if (ops.size() == 2 && ops[1].kind == OperandKind::Reg)
            return 4;
        if (ops.size() == 2 && ops[1].kind == OperandKind::Expr) {
            const auto v = known(stmt, ops[1].expr);
            if (v && fitsSigned(*v, 13))
                return 4;
        }
        return 8;
    }

    /** Expand one instruction statement to machine instructions. */
    std::vector<Instruction>
    expand(const Stmt &stmt)
    {
        const std::string_view m = stmt.mnemonic;
        const Mnemonic mn = mnemonic(stmt);
        const auto ops = operands(stmt);
        std::vector<Instruction> out;
        auto countIs = [&](std::size_t n) {
            if (ops.size() != n)
                err(stmt, cat("'", m, "' takes ", n, " operand(s), got ",
                              ops.size()));
        };

        switch (mn.form) {
          case Form::Alu: {
            countIs(3);
            Instruction inst;
            inst.op = mn.op;
            inst.scc = mn.scc;
            inst.rd = static_cast<std::uint8_t>(wantReg(stmt, 0));
            inst.rs1 = static_cast<std::uint8_t>(wantReg(stmt, 1));
            applyS2(stmt, inst, ops[2]);
            out.push_back(inst);
            return out;
          }
          case Form::Nop:
            countIs(0);
            out.push_back(Instruction::nop());
            return out;
          case Form::Halt:
            countIs(0);
            out.push_back(Instruction::jmpr(Cond::Alw, 0));
            return out;
          case Form::Clr:
            countIs(1);
            out.push_back(Instruction::aluImm(Opcode::Add,
                                              wantReg(stmt, 0), 0, 0));
            return out;
          case Form::Inc:
          case Form::Dec: {
            const unsigned rd = wantReg(stmt, 0);
            std::int64_t amount = 1;
            if (ops.size() == 2)
                amount = wantExpr(stmt, 1);
            else if (ops.size() != 1)
                err(stmt, cat("'", m, "' takes 1 or 2 operands"));
            out.push_back(Instruction::aluImm(
                mn.form == Form::Inc ? Opcode::Add : Opcode::Sub, rd, rd,
                checkImm13(stmt, amount)));
            return out;
          }
          case Form::Cmp: {
            countIs(2);
            Instruction inst;
            inst.op = Opcode::Sub;
            inst.scc = true;
            inst.rd = 0;
            inst.rs1 = static_cast<std::uint8_t>(wantReg(stmt, 0));
            applyS2(stmt, inst, ops[1]);
            out.push_back(inst);
            return out;
          }
          case Form::Not:
            countIs(2);
            out.push_back(Instruction::aluImm(
                Opcode::Xor, wantReg(stmt, 0), wantReg(stmt, 1), -1));
            return out;
          case Form::Neg:
            countIs(2);
            out.push_back(Instruction::aluImm(
                Opcode::Subr, wantReg(stmt, 0), wantReg(stmt, 1), 0));
            return out;
          case Form::Ldi: {
            countIs(2);
            const unsigned rd = wantReg(stmt, 0);
            if (ops[1].kind == OperandKind::Reg) {
                out.push_back(
                    Instruction::aluImm(Opcode::Add, rd, ops[1].reg, 0));
                return out;
            }
            if (ops[1].kind != OperandKind::Expr)
                err(stmt, "second operand of ldi/mov must be a register "
                          "or expression");
            const std::int64_t value = evalExpr(stmt, ops[1].expr);
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
          case Form::Branch: {
            countIs(1);
            if (ops[0].kind != OperandKind::Expr)
                err(stmt, "branch target must be an expression");
            const std::int64_t target = evalExpr(stmt, ops[0].expr);
            out.push_back(Instruction::jmpr(
                mn.cond,
                checkImm19(stmt, displacement(stmt, target, stmt.address))));
            return out;
          }
          case Form::Unknown:
            err(stmt, cat("unknown mnemonic '", m, "'"));
          case Form::Op:
            break;
        }

        // ---- Real opcodes ----
        const Opcode op = mn.op;
        const OpcodeInfo *info = opcodeInfo(op);

        Instruction inst;
        inst.op = op;
        inst.scc = mn.scc;

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
            if (ops[1].kind != OperandKind::Expr)
                err(stmt, "jmpr target must be an expression");
            const std::int64_t target = evalExpr(stmt, ops[1].expr);
            inst.imm19 = checkImm19(
                stmt, displacement(stmt, target, stmt.address));
            break;
          }
          case Opcode::Call:
            if (ops.size() == 1 && ops[0].kind == OperandKind::Expr) {
                // call <label>  ==>  callr r31, <label>
                inst.op = Opcode::Callr;
                inst.rd = 31;
                const std::int64_t target = evalExpr(stmt, ops[0].expr);
                inst.imm19 = checkImm19(
                    stmt, displacement(stmt, target, stmt.address));
                break;
            }
            inst.rd = static_cast<std::uint8_t>(wantReg(stmt, 0));
            applyAddress(stmt, inst, 1);
            break;
          case Opcode::Callr: {
            countIs(2);
            inst.rd = static_cast<std::uint8_t>(wantReg(stmt, 0));
            if (ops[1].kind != OperandKind::Expr)
                err(stmt, "callr target must be an expression");
            const std::int64_t target = evalExpr(stmt, ops[1].expr);
            inst.imm19 = checkImm19(
                stmt, displacement(stmt, target, stmt.address));
            break;
          }
          case Opcode::Ret:
          case Opcode::Reti:
            if (ops.empty()) {
                // Plain "ret": return to r31 + 8 (skip call + slot).
                inst.rs1 = 31;
                inst.imm = true;
                inst.simm13 = 8;
                break;
            }
            if (ops.size() != 2)
                err(stmt, cat("'", m, "' takes 0 or 2 operands"));
            inst.rs1 = static_cast<std::uint8_t>(wantReg(stmt, 0));
            applyS2(stmt, inst, ops[1]);
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
assembleRisc(const std::string &source,
             std::optional<std::uint64_t> memBytes)
{
    return RiscAssembler().assemble(source, memBytes);
}

} // namespace risc1
