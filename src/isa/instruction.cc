#include "isa/instruction.hh"

#include <array>

#include "common/bitfield.hh"
#include "common/logging.hh"
#include "common/name_table.hh"

namespace risc1 {

namespace {

/** The full opcode metadata table (31 entries, mnemonic order). */
constexpr std::array<OpcodeInfo, numOpcodes> opcodeTable = {{
    {Opcode::Add,    "add",    Format::Short, InstClass::Alu,    false, true},
    {Opcode::Addc,   "addc",   Format::Short, InstClass::Alu,    false, true},
    {Opcode::Sub,    "sub",    Format::Short, InstClass::Alu,    false, true},
    {Opcode::Subc,   "subc",   Format::Short, InstClass::Alu,    false, true},
    {Opcode::Subr,   "subr",   Format::Short, InstClass::Alu,    false, true},
    {Opcode::Subcr,  "subcr",  Format::Short, InstClass::Alu,    false, true},
    {Opcode::And,    "and",    Format::Short, InstClass::Alu,    false, true},
    {Opcode::Or,     "or",     Format::Short, InstClass::Alu,    false, true},
    {Opcode::Xor,    "xor",    Format::Short, InstClass::Alu,    false, true},
    {Opcode::Sll,    "sll",    Format::Short, InstClass::Alu,    false, true},
    {Opcode::Srl,    "srl",    Format::Short, InstClass::Alu,    false, true},
    {Opcode::Sra,    "sra",    Format::Short, InstClass::Alu,    false, true},
    {Opcode::Ldhi,   "ldhi",   Format::Long,  InstClass::Alu,    false, true},
    {Opcode::Ldl,    "ldl",    Format::Short, InstClass::Load,   false, false},
    {Opcode::Ldsu,   "ldsu",   Format::Short, InstClass::Load,   false, false},
    {Opcode::Ldss,   "ldss",   Format::Short, InstClass::Load,   false, false},
    {Opcode::Ldbu,   "ldbu",   Format::Short, InstClass::Load,   false, false},
    {Opcode::Ldbs,   "ldbs",   Format::Short, InstClass::Load,   false, false},
    {Opcode::Stl,    "stl",    Format::Short, InstClass::Store,  false, false},
    {Opcode::Sts,    "sts",    Format::Short, InstClass::Store,  false, false},
    {Opcode::Stb,    "stb",    Format::Short, InstClass::Store,  false, false},
    {Opcode::Jmp,    "jmp",    Format::Short, InstClass::Jump,   true,  false},
    {Opcode::Jmpr,   "jmpr",   Format::Long,  InstClass::Jump,   true,  false},
    {Opcode::Call,   "call",   Format::Short, InstClass::CallRet, false,
     false},
    {Opcode::Callr,  "callr",  Format::Long,  InstClass::CallRet, false,
     false},
    {Opcode::Ret,    "ret",    Format::Short, InstClass::CallRet, false,
     false},
    {Opcode::Calli,  "calli",  Format::Short, InstClass::CallRet, false,
     false},
    {Opcode::Reti,   "reti",   Format::Short, InstClass::CallRet, false,
     false},
    {Opcode::Gtlpc,  "gtlpc",  Format::Short, InstClass::Special, false,
     false},
    {Opcode::Getpsw, "getpsw", Format::Short, InstClass::Special, false,
     false},
    {Opcode::Putpsw, "putpsw", Format::Short, InstClass::Special, false,
     false},
}};

/** Dense lookup by 7-bit opcode value; nullptr for illegal values. */
const OpcodeInfo *
buildDenseTable(int value)
{
    for (const auto &info : opcodeTable)
        if (static_cast<int>(info.op) == value)
            return &info;
    return nullptr;
}

} // namespace

const OpcodeInfo *
opcodeInfo(Opcode op)
{
    static const auto dense = [] {
        std::array<const OpcodeInfo *, 128> t{};
        for (int v = 0; v < 128; ++v)
            t[static_cast<std::size_t>(v)] = buildDenseTable(v);
        return t;
    }();
    return dense[static_cast<std::uint8_t>(op) & 0x7f];
}

std::optional<Opcode>
opcodeFromMnemonic(std::string_view mnemonic)
{
    static const auto byName = [] {
        NameTable<Opcode> t;
        for (const auto &info : opcodeTable)
            t.add(info.mnemonic, info.op);
        return t;
    }();
    if (const Opcode *op = byName.find(mnemonic))
        return *op;
    return std::nullopt;
}

const OpcodeInfo *
allOpcodes()
{
    return opcodeTable.data();
}

std::uint32_t
Instruction::encode() const
{
    const OpcodeInfo *info = opcodeInfo(op);
    if (!info)
        panic(cat("encoding illegal opcode ", static_cast<int>(op)));

    std::uint32_t word = 0;
    word = insertBits(word, 31, 25, static_cast<std::uint32_t>(op));
    word = insertBits(word, 24, 24, scc ? 1 : 0);
    word = insertBits(word, 23, 19, rd);

    if (info->format == Format::Long) {
        if (!fitsSigned(imm19, 19))
            fatal(cat(info->mnemonic, ": immediate ", imm19,
                      " does not fit in 19 bits"));
        word = insertBits(word, 18, 0,
                          static_cast<std::uint32_t>(imm19));
    } else {
        word = insertBits(word, 18, 14, rs1);
        word = insertBits(word, 13, 13, imm ? 1 : 0);
        if (imm) {
            if (!fitsSigned(simm13, 13))
                fatal(cat(info->mnemonic, ": immediate ", simm13,
                          " does not fit in 13 bits"));
            word = insertBits(word, 12, 0,
                              static_cast<std::uint32_t>(simm13));
        } else {
            word = insertBits(word, 12, 0, rs2 & 0x1f);
        }
    }
    return word;
}

Instruction
Instruction::decode(std::uint32_t word)
{
    Instruction inst;
    const auto opVal = static_cast<Opcode>(bits(word, 31, 25));
    const OpcodeInfo *info = opcodeInfo(opVal);
    if (!info)
        fatal(cat("illegal opcode field 0x", std::hex,
                  bits(word, 31, 25), " in instruction word 0x", word));

    inst.op = opVal;
    inst.scc = bits(word, 24, 24) != 0;
    inst.rd = static_cast<std::uint8_t>(bits(word, 23, 19));

    if (info->format == Format::Long) {
        inst.imm19 = sext(bits(word, 18, 0), 19);
    } else {
        inst.rs1 = static_cast<std::uint8_t>(bits(word, 18, 14));
        inst.imm = bits(word, 13, 13) != 0;
        if (inst.imm)
            inst.simm13 = sext(bits(word, 12, 0), 13);
        else
            inst.rs2 = static_cast<std::uint8_t>(bits(word, 4, 0));
    }
    return inst;
}

bool
Instruction::isLegal(std::uint32_t word)
{
    return opcodeInfo(static_cast<Opcode>(bits(word, 31, 25))) != nullptr;
}

Instruction
Instruction::alu(Opcode op, unsigned rd, unsigned rs1, unsigned rs2,
                 bool scc)
{
    Instruction inst;
    inst.op = op;
    inst.scc = scc;
    inst.rd = static_cast<std::uint8_t>(rd);
    inst.rs1 = static_cast<std::uint8_t>(rs1);
    inst.imm = false;
    inst.rs2 = static_cast<std::uint8_t>(rs2);
    return inst;
}

Instruction
Instruction::aluImm(Opcode op, unsigned rd, unsigned rs1, std::int32_t imm,
                    bool scc)
{
    Instruction inst;
    inst.op = op;
    inst.scc = scc;
    inst.rd = static_cast<std::uint8_t>(rd);
    inst.rs1 = static_cast<std::uint8_t>(rs1);
    inst.imm = true;
    inst.simm13 = imm;
    return inst;
}

Instruction
Instruction::ldhi(unsigned rd, std::int32_t imm19)
{
    Instruction inst;
    inst.op = Opcode::Ldhi;
    inst.rd = static_cast<std::uint8_t>(rd);
    inst.imm19 = imm19;
    return inst;
}

Instruction
Instruction::load(Opcode op, unsigned rd, unsigned rs1, std::int32_t offset)
{
    Instruction inst = aluImm(op, rd, rs1, offset);
    inst.op = op;
    return inst;
}

Instruction
Instruction::store(Opcode op, unsigned rm, unsigned rs1,
                   std::int32_t offset)
{
    Instruction inst = aluImm(op, rm, rs1, offset);
    inst.op = op;
    return inst;
}

Instruction
Instruction::jmp(Cond cond, unsigned rs1, std::int32_t offset)
{
    Instruction inst = aluImm(Opcode::Jmp,
                              static_cast<unsigned>(cond), rs1, offset);
    return inst;
}

Instruction
Instruction::jmpr(Cond cond, std::int32_t offset)
{
    Instruction inst;
    inst.op = Opcode::Jmpr;
    inst.rd = static_cast<std::uint8_t>(cond);
    inst.imm19 = offset;
    return inst;
}

Instruction
Instruction::call(unsigned rd, unsigned rs1, std::int32_t offset)
{
    return aluImm(Opcode::Call, rd, rs1, offset);
}

Instruction
Instruction::callr(unsigned rd, std::int32_t offset)
{
    Instruction inst;
    inst.op = Opcode::Callr;
    inst.rd = static_cast<std::uint8_t>(rd);
    inst.imm19 = offset;
    return inst;
}

Instruction
Instruction::ret(unsigned rs1, std::int32_t offset)
{
    return aluImm(Opcode::Ret, 0, rs1, offset);
}

Instruction
Instruction::nop()
{
    return aluImm(Opcode::Add, 0, 0, 0);
}

bool
isNop(const Instruction &inst)
{
    return inst == Instruction::nop();
}

} // namespace risc1
