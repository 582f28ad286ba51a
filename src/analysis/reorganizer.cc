#include "analysis/reorganizer.hh"

#include <set>
#include <vector>

#include "common/bitfield.hh"
#include "common/logging.hh"
#include "isa/instruction.hh"

namespace risc1 {

namespace {

std::uint32_t
wordAt(const Segment &seg, std::size_t offset)
{
    return static_cast<std::uint32_t>(seg.bytes[offset]) |
           (static_cast<std::uint32_t>(seg.bytes[offset + 1]) << 8) |
           (static_cast<std::uint32_t>(seg.bytes[offset + 2]) << 16) |
           (static_cast<std::uint32_t>(seg.bytes[offset + 3]) << 24);
}

void
setWordAt(Segment &seg, std::size_t offset, std::uint32_t word)
{
    seg.bytes[offset] = static_cast<std::uint8_t>(word);
    seg.bytes[offset + 1] = static_cast<std::uint8_t>(word >> 8);
    seg.bytes[offset + 2] = static_cast<std::uint8_t>(word >> 16);
    seg.bytes[offset + 3] = static_cast<std::uint8_t>(word >> 24);
}

/** Register/memory effect summary used for dependence checks. */
struct Effects
{
    std::uint64_t reads = 0;   ///< bitmask of visible registers read
    std::uint64_t writes = 0;  ///< bitmask written (r0 excluded)
    bool memRead = false;
    bool memWrite = false;
    bool setsCc = false;
    bool transfer = false;
};

Effects
effectsOf(const Instruction &inst)
{
    Effects e;
    const OpcodeInfo *info = opcodeInfo(inst.op);
    const auto bit = [](unsigned r) {
        return r == 0 ? 0ull : 1ull << r;
    };
    e.setsCc = inst.scc && info->maySetCc;
    switch (info->cls) {
      case InstClass::Alu:
        if (inst.op != Opcode::Ldhi) {
            e.reads |= bit(inst.rs1);
            if (!inst.imm)
                e.reads |= bit(inst.rs2);
        }
        e.writes |= bit(inst.rd);
        break;
      case InstClass::Load:
        e.reads |= bit(inst.rs1);
        if (!inst.imm)
            e.reads |= bit(inst.rs2);
        e.writes |= bit(inst.rd);
        e.memRead = true;
        break;
      case InstClass::Store:
        e.reads |= bit(inst.rs1) | bit(inst.rd);
        if (!inst.imm)
            e.reads |= bit(inst.rs2);
        e.memWrite = true;
        break;
      case InstClass::Jump:
      case InstClass::CallRet:
        e.transfer = true;
        break;
      case InstClass::Special:
        // PSW/PC access: never moved, never moved across.
        e.transfer = true;
        break;
    }
    return e;
}

/** True when executing @p moved after @p other changes either. */
bool
conflicts(const Effects &moved, const Effects &other)
{
    if (moved.writes & (other.reads | other.writes))
        return true;
    if (moved.reads & other.writes)
        return true;
    if ((moved.memRead || moved.memWrite) &&
        (other.memRead || other.memWrite) &&
        (moved.memWrite || other.memWrite))
        return true;
    return false;
}

/**
 * Addresses the pass must not disturb: the entry point, every symbol
 * (a label is a potential target of computed transfers), every
 * pc-relative branch/call target, and every call-return address
 * (call site + 8).
 */
std::set<std::uint32_t>
protectedAddresses(const Program &program)
{
    std::set<std::uint32_t> fixed;
    fixed.insert(program.entry);
    for (const auto &[name, addr] : program.symbols)
        fixed.insert(addr);

    for (const auto &seg : program.segments) {
        if (seg.kind != SegmentKind::Code)
            continue;
        for (std::size_t off = 0; off + 4 <= seg.bytes.size();
             off += 4) {
            const std::uint32_t word = wordAt(seg, off);
            if (!Instruction::isLegal(word))
                continue;
            const Instruction inst = Instruction::decode(word);
            const std::uint32_t addr =
                seg.base + static_cast<std::uint32_t>(off);
            if (inst.op == Opcode::Jmpr || inst.op == Opcode::Callr)
                fixed.insert(addr +
                             static_cast<std::uint32_t>(inst.imm19));
            if (inst.op == Opcode::Call || inst.op == Opcode::Callr)
                fixed.insert(addr + 8); // conventional return point
        }
    }
    return fixed;
}

/** Register-indirect jumps make static target sets unknowable. */
bool
hasIndirectJumps(const Program &program)
{
    for (const auto &seg : program.segments) {
        if (seg.kind != SegmentKind::Code)
            continue;
        for (std::size_t off = 0; off + 4 <= seg.bytes.size();
             off += 4) {
            const std::uint32_t word = wordAt(seg, off);
            if (!Instruction::isLegal(word))
                continue;
            const Instruction inst = Instruction::decode(word);
            if (inst.op == Opcode::Jmp || inst.op == Opcode::Calli ||
                inst.op == Opcode::Reti)
                return true;
            // ret targets are the call-return addresses, which the
            // protected set already covers.
        }
    }
    return false;
}

/** Max instructions scanned above a branch for a movable candidate. */
constexpr std::size_t lookbackLimit = 8;

} // namespace

ReorgResult
fillDelaySlots(const Program &program)
{
    ReorgResult result;
    result.program = program;

    // With arbitrary computed jumps we cannot prove any move safe.
    if (hasIndirectJumps(program))
        return result;

    const std::set<std::uint32_t> fixed = protectedAddresses(program);

    for (auto &seg : result.program.segments) {
        if (seg.kind != SegmentKind::Code)
            continue;
        for (std::size_t bOff = 4; bOff + 8 <= seg.bytes.size();
             bOff += 4) {
            const std::uint32_t bWord = wordAt(seg, bOff);
            const std::uint32_t nWord = wordAt(seg, bOff + 4);
            if (!Instruction::isLegal(bWord) ||
                !Instruction::isLegal(nWord))
                continue;
            const Instruction branch = Instruction::decode(bWord);
            if (branch.op != Opcode::Jmpr)
                continue;
            if (!isNop(Instruction::decode(nWord)))
                continue;
            ++result.candidates;

            const std::uint32_t bAddr =
                seg.base + static_cast<std::uint32_t>(bOff);
            // A transfer targeting the branch itself would execute
            // the moved instruction instead of branching: skip.
            if (fixed.contains(bAddr))
                continue;

            // Scan upward for a movable instruction X with no
            // conflicts against anything between X and the branch.
            std::vector<Effects> between;
            for (std::size_t back = 1; back <= lookbackLimit; ++back) {
                if (bOff < 4 * back)
                    break;
                const std::size_t xOff = bOff - 4 * back;
                const std::uint32_t xAddr =
                    seg.base + static_cast<std::uint32_t>(xOff);

                // Nothing may jump into the shifted region
                // [xAddr, bAddr]; the branch's own slot keeps its
                // address.  Every jmpr target is in `fixed`, so this
                // also keeps the branch from landing on moved code.
                if (fixed.contains(xAddr))
                    break; // a label: code above is another block

                const std::uint32_t xWord = wordAt(seg, xOff);
                if (!Instruction::isLegal(xWord))
                    break;
                const Instruction cand = Instruction::decode(xWord);
                const Effects eff = effectsOf(cand);
                if (eff.transfer)
                    break; // never move across control flow

                // X must not sit in the delay slot of an earlier
                // transfer.
                bool inSlot = false;
                if (xOff >= 4) {
                    const std::uint32_t prev = wordAt(seg, xOff - 4);
                    if (Instruction::isLegal(prev)) {
                        const auto prevCls = opcodeInfo(
                            Instruction::decode(prev).op)->cls;
                        inSlot = prevCls == InstClass::Jump ||
                                 prevCls == InstClass::CallRet;
                    }
                }

                const bool movable = !eff.setsCc && !isNop(cand) &&
                                     !inSlot;
                bool clean = movable;
                for (const Effects &other : between)
                    if (conflicts(eff, other))
                        clean = false;

                if (clean) {
                    // Shift [xOff+4 .. bOff) up one word, put the
                    // branch one word earlier, X into the slot.
                    for (std::size_t o = xOff; o + 4 < bOff; o += 4)
                        setWordAt(seg, o, wordAt(seg, o + 4));
                    Instruction newBranch = branch;
                    const std::int64_t newOffset =
                        static_cast<std::int64_t>(branch.imm19) + 4;
                    if (!fitsSigned(newOffset, 19))
                        break;
                    newBranch.imm19 =
                        static_cast<std::int32_t>(newOffset);
                    setWordAt(seg, bOff - 4, newBranch.encode());
                    setWordAt(seg, bOff, cand.encode());
                    // Old nop at bOff+4 remains (fall-through path).
                    ++result.slotsFilled;
                    break;
                }
                between.push_back(eff);
            }
        }
    }
    return result;
}

} // namespace risc1
