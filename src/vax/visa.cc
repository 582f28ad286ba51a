#include "vax/visa.hh"

#include <array>

#include "common/logging.hh"
#include "common/name_table.hh"

namespace risc1 {

namespace {

using U = VaxOpndUse;
using C = VaxClass;

/**
 * Opcode table.  Base cycle costs are patterned on published
 * VAX-11/780 microcycle counts: simple register moves ~2, memory-form
 * ALU ~3, multiply ~15, divide ~25, taken branch ~4, CALLS ~15 plus
 * per-register cost (charged by the machine), RET ~12.
 */
constexpr std::array<VaxOpInfo, 50> table = {{
    {VaxOpcode::Halt,  "halt",  C::Misc,    2, 0, {}},
    {VaxOpcode::Nop,   "nop",   C::Misc,    2, 0, {}},

    {VaxOpcode::Movl,  "movl",  C::Move,    2, 2, {U::Read, U::Write}},
    {VaxOpcode::Movb,  "movb",  C::Move,    2, 2,
     {U::ReadByte, U::WriteByte}},
    {VaxOpcode::Movw,  "movw",  C::Move,    2, 2,
     {U::ReadHalf, U::WriteHalf}},
    {VaxOpcode::Moval, "moval", C::Move,    2, 2, {U::Address, U::Write}},
    {VaxOpcode::Movzbl, "movzbl", C::Move,  2, 2,
     {U::ReadByte, U::Write}},
    {VaxOpcode::Movzwl, "movzwl", C::Move,  2, 2,
     {U::ReadHalf, U::Write}},
    {VaxOpcode::Clrl,  "clrl",  C::Move,    2, 1, {U::Write}},
    {VaxOpcode::Pushl, "pushl", C::Move,    3, 1, {U::Read}},
    {VaxOpcode::Mnegl, "mnegl", C::Alu,     3, 2, {U::Read, U::Write}},
    {VaxOpcode::Mcoml, "mcoml", C::Alu,     3, 2, {U::Read, U::Write}},

    {VaxOpcode::Addl2, "addl2", C::Alu,     3, 2, {U::Read, U::Modify}},
    {VaxOpcode::Addl3, "addl3", C::Alu,     3, 3,
     {U::Read, U::Read, U::Write}},
    {VaxOpcode::Subl2, "subl2", C::Alu,     3, 2, {U::Read, U::Modify}},
    {VaxOpcode::Subl3, "subl3", C::Alu,     3, 3,
     {U::Read, U::Read, U::Write}},
    {VaxOpcode::Mull2, "mull2", C::Alu,    15, 2, {U::Read, U::Modify}},
    {VaxOpcode::Mull3, "mull3", C::Alu,    15, 3,
     {U::Read, U::Read, U::Write}},
    {VaxOpcode::Divl2, "divl2", C::Alu,    25, 2, {U::Read, U::Modify}},
    {VaxOpcode::Divl3, "divl3", C::Alu,    25, 3,
     {U::Read, U::Read, U::Write}},
    {VaxOpcode::Incl,  "incl",  C::Alu,     3, 1, {U::Modify}},
    {VaxOpcode::Decl,  "decl",  C::Alu,     3, 1, {U::Modify}},
    {VaxOpcode::Bisl2, "bisl2", C::Alu,     3, 2, {U::Read, U::Modify}},
    {VaxOpcode::Bicl2, "bicl2", C::Alu,     3, 2, {U::Read, U::Modify}},
    {VaxOpcode::Xorl2, "xorl2", C::Alu,     3, 2, {U::Read, U::Modify}},
    {VaxOpcode::Ashl,  "ashl",  C::Alu,     6, 3,
     {U::Read, U::Read, U::Write}},
    {VaxOpcode::Cmpl,  "cmpl",  C::Alu,     3, 2, {U::Read, U::Read}},
    {VaxOpcode::Tstl,  "tstl",  C::Alu,     2, 1, {U::Read}},
    {VaxOpcode::Cmpb,  "cmpb",  C::Alu,     3, 2,
     {U::ReadByte, U::ReadByte}},

    {VaxOpcode::Brb,   "brb",   C::Branch,  4, 1, {U::Branch8}},
    {VaxOpcode::Brw,   "brw",   C::Branch,  4, 1, {U::Branch16}},
    {VaxOpcode::Beql,  "beql",  C::Branch,  3, 1, {U::Branch8}},
    {VaxOpcode::Bneq,  "bneq",  C::Branch,  3, 1, {U::Branch8}},
    {VaxOpcode::Blss,  "blss",  C::Branch,  3, 1, {U::Branch8}},
    {VaxOpcode::Bleq,  "bleq",  C::Branch,  3, 1, {U::Branch8}},
    {VaxOpcode::Bgtr,  "bgtr",  C::Branch,  3, 1, {U::Branch8}},
    {VaxOpcode::Bgeq,  "bgeq",  C::Branch,  3, 1, {U::Branch8}},
    {VaxOpcode::Blssu, "blssu", C::Branch,  3, 1, {U::Branch8}},
    {VaxOpcode::Blequ, "blequ", C::Branch,  3, 1, {U::Branch8}},
    {VaxOpcode::Bgtru, "bgtru", C::Branch,  3, 1, {U::Branch8}},
    {VaxOpcode::Bgequ, "bgequ", C::Branch,  3, 1, {U::Branch8}},
    {VaxOpcode::Bvs,   "bvs",   C::Branch,  3, 1, {U::Branch8}},
    {VaxOpcode::Bvc,   "bvc",   C::Branch,  3, 1, {U::Branch8}},
    {VaxOpcode::Jmp,   "jmp",   C::Branch,  4, 1, {U::Address}},

    {VaxOpcode::Sobgtr, "sobgtr", C::Loop,  5, 2,
     {U::Modify, U::Branch8}},
    {VaxOpcode::Sobgeq, "sobgeq", C::Loop,  5, 2,
     {U::Modify, U::Branch8}},
    {VaxOpcode::Aoblss, "aoblss", C::Loop,  6, 3,
     {U::Read, U::Modify, U::Branch8}},
    {VaxOpcode::Aobleq, "aobleq", C::Loop,  6, 3,
     {U::Read, U::Modify, U::Branch8}},

    {VaxOpcode::Calls, "calls", C::CallRet, 15, 2,
     {U::Read, U::Address}},
    {VaxOpcode::Ret,   "ret",   C::CallRet, 12, 0, {}},
}};

// Jsb/Rsb/Pushr/Popr appended separately to keep the array literal
// within the declared size; see dense table construction below.
constexpr std::array<VaxOpInfo, 4> extras = {{
    {VaxOpcode::Jsb,   "jsb",   C::CallRet, 5, 1, {U::Address}},
    {VaxOpcode::Rsb,   "rsb",   C::CallRet, 5, 0, {}},
    {VaxOpcode::Pushr, "pushr", C::CallRet, 4, 1, {U::Read}},
    {VaxOpcode::Popr,  "popr",  C::CallRet, 4, 1, {U::Read}},
}};

std::array<const VaxOpInfo *, 256>
buildDense()
{
    std::array<const VaxOpInfo *, 256> dense{};
    for (const auto &info : table)
        dense[static_cast<std::uint8_t>(info.op)] = &info;
    for (const auto &info : extras)
        dense[static_cast<std::uint8_t>(info.op)] = &info;
    return dense;
}

std::array<VaxOpInfo, table.size() + extras.size()>
buildAll()
{
    std::array<VaxOpInfo, table.size() + extras.size()> all{};
    std::size_t i = 0;
    for (const auto &info : table)
        all[i++] = info;
    for (const auto &info : extras)
        all[i++] = info;
    return all;
}

} // namespace

const VaxOpInfo *
vaxOpcodeInfo(VaxOpcode op)
{
    static const auto dense = buildDense();
    return dense[static_cast<std::uint8_t>(op)];
}

std::optional<VaxOpcode>
vaxOpcodeFromMnemonic(std::string_view mnemonic)
{
    static const auto byName = [] {
        NameTable<VaxOpcode> t;
        std::size_t count = 0;
        const VaxOpInfo *all = vaxAllOpcodes(count);
        for (std::size_t i = 0; i < count; ++i)
            t.add(all[i].mnemonic, all[i].op);
        return t;
    }();
    if (const VaxOpcode *op = byName.find(mnemonic))
        return *op;
    return std::nullopt;
}

const VaxOpInfo *
vaxAllOpcodes(std::size_t &count)
{
    static const auto all = buildAll();
    count = all.size();
    return all.data();
}

unsigned
vaxSpecCycles(VaxMode mode)
{
    switch (mode) {
      case VaxMode::Literal0:
      case VaxMode::Literal1:
      case VaxMode::Literal2:
      case VaxMode::Literal3:
      case VaxMode::Register:
        return 0;
      case VaxMode::Deferred:
      case VaxMode::AutoInc:
      case VaxMode::AutoDec:
        return 1;
      case VaxMode::DispByte:
      case VaxMode::DispWord:
        return 1;
      case VaxMode::DispLong:
      case VaxMode::AutoIncDef:
        return 2;
    }
    panic("bad addressing mode");
}

} // namespace risc1
