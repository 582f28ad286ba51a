#include "vax/vmachine.hh"

#include <algorithm>

#include "common/bitfield.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "obs/trace.hh"

namespace risc1 {

void
VaxStats::writeJson(JsonWriter &w) const
{
    static constexpr std::string_view classNames[] = {
        "move", "alu", "branch", "loop", "callret", "misc"};
    w.beginObject()
        .field("cycles", cycles)
        .field("instructions", instructions);
    w.key("perClass").beginObject();
    for (std::size_t i = 0; i < perClass.size(); ++i)
        w.field(classNames[i], perClass[i]);
    w.endObject();
    w.field("branchesTaken", branchesTaken)
        .field("branchesUntaken", branchesUntaken)
        .field("calls", calls)
        .field("returns", returns)
        .field("callDepth", callDepth)
        .field("maxCallDepth", maxCallDepth)
        .field("memOperandReads", memOperandReads)
        .field("memOperandWrites", memOperandWrites)
        .field("regOperandReads", regOperandReads)
        .field("regOperandWrites", regOperandWrites)
        .field("instrBytes", instrBytes)
        .endObject();
}

VaxMachine::VaxMachine(const VaxConfig &config)
    : config_(config), mem_(config.memorySize)
{
    if (config_.stackTop % 4 != 0 || config_.stackTop > config_.memorySize)
        fatal("stackTop must be word-aligned and inside memory");
    if (config_.caches.any())
        hier_.emplace(config_.caches);
}

void
VaxMachine::loadProgram(const Program &program)
{
    for (const auto &seg : program.segments)
        mem_.load(seg.base, seg.bytes.data(), seg.bytes.size());
    reset(program.entry);
}

void
VaxMachine::reset(std::uint32_t entry)
{
    regs_.fill(0);
    regs_[vaxPc] = entry;
    regs_[vaxSp] = config_.stackTop;
    regs_[vaxFp] = config_.stackTop;
    regs_[vaxAp] = config_.stackTop;
    cc_ = CondCodes{};
    stats_.reset();
    mem_.resetStats();
    halted_ = false;
    if (hier_)
        hier_->reset();
}

std::uint32_t
VaxMachine::reg(unsigned r) const
{
    if (r >= vaxNumRegs)
        panic(cat("register out of range: ", r));
    return regs_[r];
}

void
VaxMachine::setReg(unsigned r, std::uint32_t value)
{
    if (r >= vaxNumRegs)
        panic(cat("register out of range: ", r));
    regs_[r] = value;
}

std::uint8_t
VaxMachine::fetchByte()
{
    const std::uint8_t b = mem_.fetchByte(regs_[vaxPc]);
    regs_[vaxPc] += 1;
    ++stats_.instrBytes;
    return b;
}

std::uint16_t
VaxMachine::fetchHalf()
{
    const std::uint16_t lo = fetchByte();
    const std::uint16_t hi = fetchByte();
    return static_cast<std::uint16_t>(lo | (hi << 8));
}

std::uint32_t
VaxMachine::fetchLong()
{
    const std::uint32_t lo = fetchHalf();
    const std::uint32_t hi = fetchHalf();
    return lo | (hi << 16);
}

std::uint32_t
VaxMachine::readRef(const Ref &ref, Width width)
{
    switch (ref.kind) {
      case Ref::Kind::Literal:
      case Ref::Kind::Branch:
        return ref.value;
      case Ref::Kind::Reg:
        ++stats_.regOperandReads;
        return regs_[ref.reg];
      case Ref::Kind::Mem:
        ++stats_.memOperandReads;
        stats_.cycles += config_.memAccessCycles;
        if (hier_)
            stats_.cycles += hier_->data(ref.addr, false);
        switch (width) {
          case Width::Byte: return mem_.readByte(ref.addr);
          case Width::Half: return mem_.readHalf(ref.addr);
          case Width::Long: return mem_.readWord(ref.addr);
        }
    }
    panic("unreachable");
}

void
VaxMachine::writeRef(const Ref &ref, std::uint32_t value, Width width)
{
    switch (ref.kind) {
      case Ref::Kind::Literal:
      case Ref::Kind::Branch:
        fatal("write to a literal operand");
      case Ref::Kind::Reg:
        ++stats_.regOperandWrites;
        if (ref.reg == vaxPc)
            fatal("write to PC via operand (use JMP)");
        regs_[ref.reg] = value;
        return;
      case Ref::Kind::Mem:
        ++stats_.memOperandWrites;
        stats_.cycles += config_.memAccessCycles;
        if (hier_)
            stats_.cycles += hier_->data(ref.addr, true);
        switch (width) {
          case Width::Byte:
            mem_.writeByte(ref.addr, static_cast<std::uint8_t>(value));
            return;
          case Width::Half:
            mem_.writeHalf(ref.addr, static_cast<std::uint16_t>(value));
            return;
          case Width::Long:
            mem_.writeWord(ref.addr, value);
            return;
        }
    }
    panic("unreachable");
}

void
VaxMachine::setNZ(std::uint32_t value)
{
    cc_.n = (value >> 31) != 0;
    cc_.z = value == 0;
    cc_.v = false;
    cc_.c = false;
}

void
VaxMachine::push(std::uint32_t value)
{
    regs_[vaxSp] -= 4;
    mem_.writeWord(regs_[vaxSp], value);
    ++stats_.memOperandWrites;
    stats_.cycles += config_.memAccessCycles;
    if (hier_)
        stats_.cycles += hier_->data(regs_[vaxSp], true);
}

std::uint32_t
VaxMachine::pop()
{
    const std::uint32_t addr = regs_[vaxSp];
    const std::uint32_t value = mem_.readWord(addr);
    regs_[vaxSp] += 4;
    ++stats_.memOperandReads;
    stats_.cycles += config_.memAccessCycles;
    if (hier_)
        stats_.cycles += hier_->data(addr, false);
    return value;
}

void
VaxMachine::doCalls(std::uint32_t numArgs, std::uint32_t dst)
{
    ++stats_.calls;
    ++stats_.callDepth;
    stats_.maxCallDepth =
        std::max(stats_.maxCallDepth, stats_.callDepth);

    // Argument count sits just above the frame; AP will point at it.
    push(numArgs);
    const std::uint32_t argBase = regs_[vaxSp];

    // Entry mask: 16 bits at the procedure's first two bytes.  Code
    // is variable-length, so the mask may sit at any alignment; read
    // it byte-wise as the microcode would.
    const auto mask = static_cast<std::uint16_t>(
        mem_.readByte(dst) | (mem_.readByte(dst + 1) << 8));
    ++stats_.memOperandReads;
    stats_.cycles += config_.memAccessCycles;
    if (hier_)
        stats_.cycles += hier_->data(dst, false);

    // Save registers R11..R0 per mask (R0 ends nearest the top).
    unsigned saved = 0;
    for (int r = 11; r >= 0; --r) {
        if (mask & (1u << r)) {
            push(regs_[static_cast<unsigned>(r)]);
            ++saved;
        }
    }
    stats_.cycles += saved * config_.perRegSaveCycles;

    push(regs_[vaxPc]);   // return address
    push(regs_[vaxFp]);
    push(regs_[vaxAp]);
    push(static_cast<std::uint32_t>(mask) << 16);  // PSW+mask word

    regs_[vaxFp] = regs_[vaxSp];
    regs_[vaxAp] = argBase;
    regs_[vaxPc] = dst + 2;  // skip the entry mask
}

void
VaxMachine::doRet()
{
    if (stats_.callDepth == 0)
        fatal("RET executed with no active CALLS frame");
    ++stats_.returns;
    --stats_.callDepth;

    regs_[vaxSp] = regs_[vaxFp];
    const std::uint32_t maskWord = pop();
    const std::uint16_t mask = static_cast<std::uint16_t>(maskWord >> 16);
    regs_[vaxAp] = pop();
    regs_[vaxFp] = pop();
    const std::uint32_t retPc = pop();

    unsigned restored = 0;
    for (unsigned r = 0; r <= 11; ++r) {
        if (mask & (1u << r)) {
            regs_[r] = pop();
            ++restored;
        }
    }
    stats_.cycles += restored * config_.perRegSaveCycles;

    const std::uint32_t numArgs = pop();
    regs_[vaxSp] += numArgs * 4;  // discard arguments
    regs_[vaxPc] = retPc;
}

void
VaxMachine::execute(const VaxOpInfo &info, Ref *ops)
{
    auto branchIf = [&](bool taken, const Ref &target) {
        if (taken) {
            regs_[vaxPc] = target.value;
            ++stats_.branchesTaken;
            ++stats_.cycles;  // taken-branch penalty
        } else {
            ++stats_.branchesUntaken;
        }
    };
    auto setAddFlags = [&](std::uint32_t a, std::uint32_t b,
                           std::uint32_t r) {
        cc_.n = (r >> 31) != 0;
        cc_.z = r == 0;
        cc_.c = (static_cast<std::uint64_t>(a) + b) >> 32 != 0;
        cc_.v = ((~(a ^ b) & (a ^ r)) >> 31) != 0;
    };
    auto setSubFlags = [&](std::uint32_t a, std::uint32_t b,
                           std::uint32_t r) {
        cc_.n = (r >> 31) != 0;
        cc_.z = r == 0;
        cc_.c = a < b;
        cc_.v = (((a ^ b) & (a ^ r)) >> 31) != 0;
    };

    switch (info.op) {
      case VaxOpcode::Halt:
        halted_ = true;
        break;
      case VaxOpcode::Nop:
        break;

      case VaxOpcode::Movl: {
        const std::uint32_t v = readRef(ops[0], Width::Long);
        writeRef(ops[1], v, Width::Long);
        setNZ(v);
        break;
      }
      case VaxOpcode::Movb: {
        const std::uint32_t v = readRef(ops[0], Width::Byte) & 0xff;
        writeRef(ops[1], v, Width::Byte);
        setNZ(static_cast<std::uint32_t>(sext(v, 8)));
        break;
      }
      case VaxOpcode::Movw: {
        const std::uint32_t v = readRef(ops[0], Width::Half) & 0xffff;
        writeRef(ops[1], v, Width::Half);
        setNZ(static_cast<std::uint32_t>(sext(v, 16)));
        break;
      }
      case VaxOpcode::Moval: {
        if (ops[0].kind != Ref::Kind::Mem)
            fatal("moval needs an addressable source operand");
        writeRef(ops[1], ops[0].addr, Width::Long);
        setNZ(ops[0].addr);
        break;
      }
      case VaxOpcode::Movzbl: {
        const std::uint32_t v = readRef(ops[0], Width::Byte) & 0xff;
        writeRef(ops[1], v, Width::Long);
        setNZ(v);
        break;
      }
      case VaxOpcode::Movzwl: {
        const std::uint32_t v = readRef(ops[0], Width::Half) & 0xffff;
        writeRef(ops[1], v, Width::Long);
        setNZ(v);
        break;
      }
      case VaxOpcode::Clrl:
        writeRef(ops[0], 0, Width::Long);
        setNZ(0);
        break;
      case VaxOpcode::Pushl:
        push(readRef(ops[0], Width::Long));
        break;
      case VaxOpcode::Mnegl: {
        const std::uint32_t v = readRef(ops[0], Width::Long);
        const std::uint32_t r = 0u - v;
        writeRef(ops[1], r, Width::Long);
        setSubFlags(0, v, r);
        break;
      }
      case VaxOpcode::Mcoml: {
        const std::uint32_t r = ~readRef(ops[0], Width::Long);
        writeRef(ops[1], r, Width::Long);
        setNZ(r);
        break;
      }

      case VaxOpcode::Addl2:
      case VaxOpcode::Addl3: {
        const std::uint32_t a = readRef(ops[0], Width::Long);
        const std::uint32_t b = readRef(ops[1], Width::Long);
        const std::uint32_t r = a + b;
        writeRef(info.op == VaxOpcode::Addl2 ? ops[1] : ops[2], r,
                 Width::Long);
        setAddFlags(a, b, r);
        break;
      }
      case VaxOpcode::Subl2:
      case VaxOpcode::Subl3: {
        // VAX order: SUBL src, dst => dst -= src.
        const std::uint32_t src = readRef(ops[0], Width::Long);
        const std::uint32_t dst = readRef(ops[1], Width::Long);
        const std::uint32_t r = dst - src;
        writeRef(info.op == VaxOpcode::Subl2 ? ops[1] : ops[2], r,
                 Width::Long);
        setSubFlags(dst, src, r);
        break;
      }
      case VaxOpcode::Mull2:
      case VaxOpcode::Mull3: {
        const std::uint32_t a = readRef(ops[0], Width::Long);
        const std::uint32_t b = readRef(ops[1], Width::Long);
        const std::uint32_t r = a * b;
        writeRef(info.op == VaxOpcode::Mull2 ? ops[1] : ops[2], r,
                 Width::Long);
        setNZ(r);
        break;
      }
      case VaxOpcode::Divl2:
      case VaxOpcode::Divl3: {
        const auto divisor =
            static_cast<std::int32_t>(readRef(ops[0], Width::Long));
        const auto dividend =
            static_cast<std::int32_t>(readRef(ops[1], Width::Long));
        if (divisor == 0)
            fatal("integer divide by zero");
        const auto r = static_cast<std::uint32_t>(dividend / divisor);
        writeRef(info.op == VaxOpcode::Divl2 ? ops[1] : ops[2], r,
                 Width::Long);
        setNZ(r);
        break;
      }
      case VaxOpcode::Incl: {
        const std::uint32_t v = readRef(ops[0], Width::Long);
        const std::uint32_t r = v + 1;
        writeRef(ops[0], r, Width::Long);
        setAddFlags(v, 1, r);
        break;
      }
      case VaxOpcode::Decl: {
        const std::uint32_t v = readRef(ops[0], Width::Long);
        const std::uint32_t r = v - 1;
        writeRef(ops[0], r, Width::Long);
        setSubFlags(v, 1, r);
        break;
      }
      case VaxOpcode::Bisl2: {
        const std::uint32_t r = readRef(ops[0], Width::Long) |
                                readRef(ops[1], Width::Long);
        writeRef(ops[1], r, Width::Long);
        setNZ(r);
        break;
      }
      case VaxOpcode::Bicl2: {
        const std::uint32_t r = ~readRef(ops[0], Width::Long) &
                                readRef(ops[1], Width::Long);
        writeRef(ops[1], r, Width::Long);
        setNZ(r);
        break;
      }
      case VaxOpcode::Xorl2: {
        const std::uint32_t r = readRef(ops[0], Width::Long) ^
                                readRef(ops[1], Width::Long);
        writeRef(ops[1], r, Width::Long);
        setNZ(r);
        break;
      }
      case VaxOpcode::Ashl: {
        const auto cnt =
            static_cast<std::int32_t>(readRef(ops[0], Width::Long));
        const std::uint32_t src = readRef(ops[1], Width::Long);
        std::uint32_t r;
        if (cnt >= 0)
            r = cnt >= 32 ? 0 : src << cnt;
        else {
            const int sh = std::min(-cnt, 31);
            r = static_cast<std::uint32_t>(
                static_cast<std::int32_t>(src) >> sh);
        }
        writeRef(ops[2], r, Width::Long);
        setNZ(r);
        break;
      }
      case VaxOpcode::Cmpl: {
        const std::uint32_t a = readRef(ops[0], Width::Long);
        const std::uint32_t b = readRef(ops[1], Width::Long);
        setSubFlags(a, b, a - b);
        break;
      }
      case VaxOpcode::Tstl:
        setNZ(readRef(ops[0], Width::Long));
        break;
      case VaxOpcode::Cmpb: {
        const std::uint32_t a = readRef(ops[0], Width::Byte) & 0xff;
        const std::uint32_t b = readRef(ops[1], Width::Byte) & 0xff;
        setSubFlags(a, b, a - b);
        break;
      }

      case VaxOpcode::Brb:
      case VaxOpcode::Brw:
        branchIf(true, ops[0]);
        break;
      case VaxOpcode::Beql:
        branchIf(condHolds(Cond::Eq, cc_), ops[0]);
        break;
      case VaxOpcode::Bneq:
        branchIf(condHolds(Cond::Ne, cc_), ops[0]);
        break;
      case VaxOpcode::Blss:
        branchIf(condHolds(Cond::Lt, cc_), ops[0]);
        break;
      case VaxOpcode::Bleq:
        branchIf(condHolds(Cond::Le, cc_), ops[0]);
        break;
      case VaxOpcode::Bgtr:
        branchIf(condHolds(Cond::Gt, cc_), ops[0]);
        break;
      case VaxOpcode::Bgeq:
        branchIf(condHolds(Cond::Ge, cc_), ops[0]);
        break;
      case VaxOpcode::Blssu:
        branchIf(condHolds(Cond::Ltu, cc_), ops[0]);
        break;
      case VaxOpcode::Blequ:
        branchIf(condHolds(Cond::Leu, cc_), ops[0]);
        break;
      case VaxOpcode::Bgtru:
        branchIf(condHolds(Cond::Gtu, cc_), ops[0]);
        break;
      case VaxOpcode::Bgequ:
        branchIf(condHolds(Cond::Geu, cc_), ops[0]);
        break;
      case VaxOpcode::Bvs:
        branchIf(cc_.v, ops[0]);
        break;
      case VaxOpcode::Bvc:
        branchIf(!cc_.v, ops[0]);
        break;
      case VaxOpcode::Jmp:
        if (ops[0].kind != Ref::Kind::Mem)
            fatal("jmp needs an addressable destination");
        regs_[vaxPc] = ops[0].addr;
        ++stats_.branchesTaken;
        break;

      case VaxOpcode::Sobgtr:
      case VaxOpcode::Sobgeq: {
        const std::uint32_t v = readRef(ops[0], Width::Long) - 1;
        writeRef(ops[0], v, Width::Long);
        setNZ(v);
        const auto sv = static_cast<std::int32_t>(v);
        branchIf(info.op == VaxOpcode::Sobgtr ? sv > 0 : sv >= 0,
                 ops[1]);
        break;
      }
      case VaxOpcode::Aoblss:
      case VaxOpcode::Aobleq: {
        const std::uint32_t limit = readRef(ops[0], Width::Long);
        const std::uint32_t v = readRef(ops[1], Width::Long) + 1;
        writeRef(ops[1], v, Width::Long);
        setNZ(v);
        const auto sv = static_cast<std::int32_t>(v);
        const auto sl = static_cast<std::int32_t>(limit);
        branchIf(info.op == VaxOpcode::Aoblss ? sv < sl : sv <= sl,
                 ops[1 + 1]);
        break;
      }

      case VaxOpcode::Calls: {
        const std::uint32_t numArgs = readRef(ops[0], Width::Long);
        if (ops[1].kind != Ref::Kind::Mem)
            fatal("calls needs an addressable destination");
        doCalls(numArgs, ops[1].addr);
        break;
      }
      case VaxOpcode::Ret:
        doRet();
        break;
      case VaxOpcode::Jsb:
        if (ops[0].kind != Ref::Kind::Mem)
            fatal("jsb needs an addressable destination");
        push(regs_[vaxPc]);
        regs_[vaxPc] = ops[0].addr;
        ++stats_.calls;
        ++stats_.callDepth;
        stats_.maxCallDepth =
            std::max(stats_.maxCallDepth, stats_.callDepth);
        break;
      case VaxOpcode::Rsb:
        if (stats_.callDepth == 0)
            fatal("RSB with no active JSB frame");
        regs_[vaxPc] = pop();
        ++stats_.returns;
        --stats_.callDepth;
        break;
      case VaxOpcode::Pushr: {
        const std::uint32_t mask = readRef(ops[0], Width::Long);
        for (int r = 11; r >= 0; --r)
            if (mask & (1u << r))
                push(regs_[static_cast<unsigned>(r)]);
        break;
      }
      case VaxOpcode::Popr: {
        const std::uint32_t mask = readRef(ops[0], Width::Long);
        for (unsigned r = 0; r <= 11; ++r)
            if (mask & (1u << r))
                regs_[r] = pop();
        break;
      }
    }
}

[[gnu::cold, gnu::noinline]] void
VaxMachine::traceInstruction(const VaxOpInfo &info, std::uint32_t pc)
{
    trace_->record({obs::EventKind::Instruction, stats_.instructions,
                    stats_.cycles, pc, std::string(info.mnemonic)});
}

[[gnu::always_inline]] inline void
VaxMachine::beginInstruction(const VaxOpInfo &info, std::uint32_t pc)
{
    // Recorded before execution, so a faulting instruction is the last
    // event in the ring when its fault unwinds (obs/postmortem.hh).
    if (trace_) [[unlikely]]
        traceInstruction(info, pc);
    ++stats_.instructions;
    ++stats_.perClass[static_cast<std::size_t>(info.cls)];
    stats_.cycles += info.baseCycles;
}

[[gnu::always_inline]] inline void
VaxMachine::applySpec(const PredecodedSpec &spec, Ref &ref)
{
    switch (spec.kind) {
      case PredecodedSpec::Kind::ShortLiteral:
      case PredecodedSpec::Kind::Immediate:
        ref.kind = Ref::Kind::Literal;
        ref.value = spec.value;
        break;
      case PredecodedSpec::Kind::Register:
        ref.kind = Ref::Kind::Reg;
        ref.reg = spec.rn;
        break;
      case PredecodedSpec::Kind::Deferred:
        ref.kind = Ref::Kind::Mem;
        ref.reg = spec.rn;
        ref.addr = regs_[spec.rn];
        ++stats_.regOperandReads;
        break;
      case PredecodedSpec::Kind::AutoDec:
        regs_[spec.rn] -= spec.step;
        ref.kind = Ref::Kind::Mem;
        ref.addr = regs_[spec.rn];
        ++stats_.regOperandReads;
        ++stats_.regOperandWrites;
        break;
      case PredecodedSpec::Kind::AutoInc:
        ref.kind = Ref::Kind::Mem;
        ref.addr = regs_[spec.rn];
        regs_[spec.rn] += spec.step;
        ++stats_.regOperandReads;
        ++stats_.regOperandWrites;
        break;
      case PredecodedSpec::Kind::Absolute:
        ref.kind = Ref::Kind::Mem;
        ref.addr = spec.value;
        break;
      case PredecodedSpec::Kind::Disp:
        ref.kind = Ref::Kind::Mem;
        ref.addr = regs_[spec.rn] + spec.value;
        ++stats_.regOperandReads;
        break;
      case PredecodedSpec::Kind::Branch:
        ref.kind = Ref::Kind::Branch;
        ref.value = spec.value;
        break;
    }
}

bool
VaxMachine::decode(PredecodePayload &out, Ref *ops)
{
    using Kind = PredecodedSpec::Kind;
    const std::uint32_t ipc = regs_[vaxPc];
    const auto opByte = static_cast<VaxOpcode>(fetchByte());
    const VaxOpInfo *info = vaxOpcodeInfo(opByte);
    if (!info)
        fatal(cat("illegal opcode byte 0x", std::hex,
                  static_cast<int>(opByte), " at pc 0x",
                  regs_[vaxPc] - 1));
    out.info = info;
    beginInstruction(*info, ipc);

    bool storable = true;
    for (unsigned i = 0; i < info->numOperands; ++i) {
        const VaxOpndUse use = info->operands[i];
        PredecodedSpec &spec = out.specs[i];
        spec = PredecodedSpec{};

        if (use == VaxOpndUse::Branch8 || use == VaxOpndUse::Branch16) {
            const auto disp = use == VaxOpndUse::Branch8
                                  ? sext(fetchByte(), 8)
                                  : sext(fetchHalf(), 16);
            spec.kind = Kind::Branch;
            spec.value = regs_[vaxPc] + static_cast<std::uint32_t>(disp);
            applySpec(spec, ops[i]);
            continue;
        }

        const std::uint8_t specByte = fetchByte();
        const auto modeNibble = static_cast<std::uint8_t>(specByte >> 4);
        const auto rn = static_cast<std::uint8_t>(specByte & 0x0f);
        if (modeNibble <= 3) {
            // Short literal 0..63.
            spec.kind = Kind::ShortLiteral;
            spec.value = specByte & 0x3f;
            applySpec(spec, ops[i]);
            continue;
        }

        const auto mode = static_cast<VaxMode>(modeNibble);
        spec.rn = rn;
        spec.step = 4;
        if (use == VaxOpndUse::ReadByte || use == VaxOpndUse::WriteByte)
            spec.step = 1;
        else if (use == VaxOpndUse::ReadHalf || use == VaxOpndUse::WriteHalf)
            spec.step = 2;

        switch (mode) {
          case VaxMode::Register:
            // Rn = PC reads the PC at execute time, past the whole
            // instruction — a static quantity.
            spec.kind = Kind::Register;
            break;
          case VaxMode::Deferred:
            spec.kind = Kind::Deferred;
            break;
          case VaxMode::AutoDec:
            spec.kind = Kind::AutoDec;
            break;
          case VaxMode::AutoInc:
            // (PC)+ is an immediate: a 4-byte literal in the stream.
            spec.kind = rn == vaxPc ? Kind::Immediate : Kind::AutoInc;
            break;
          case VaxMode::AutoIncDef:
            // @(PC)+ is an absolute: a 4-byte address in the stream.
            spec.kind = Kind::Absolute;
            break;
          case VaxMode::DispByte:
          case VaxMode::DispWord:
          case VaxMode::DispLong:
            spec.kind = Kind::Disp;
            break;
          default:
            fatal(cat("illegal addressing mode nibble 0x", std::hex,
                      static_cast<int>(modeNibble)));
        }
        // Specifier cycles land before any extension byte is fetched,
        // so a stream running off memory faults with them counted.
        spec.specCycles = static_cast<std::uint8_t>(vaxSpecCycles(mode));
        stats_.cycles += spec.specCycles;
        if (spec.kind == Kind::Absolute && rn != vaxPc)
            fatal("autoincrement-deferred supported only as absolute (@)");

        if (spec.kind == Kind::Immediate || spec.kind == Kind::Absolute ||
            mode == VaxMode::DispLong)
            spec.value = fetchLong();
        else if (mode == VaxMode::DispByte)
            spec.value = static_cast<std::uint32_t>(sext(fetchByte(), 8));
        else if (mode == VaxMode::DispWord)
            spec.value = static_cast<std::uint32_t>(sext(fetchHalf(), 16));

        // (PC), -(PC) and disp(PC) read the PC mid-stream.
        if (rn == vaxPc &&
            (spec.kind == Kind::Deferred || spec.kind == Kind::AutoDec ||
             spec.kind == Kind::Disp))
            storable = false;
        applySpec(spec, ops[i]);
    }
    out.len = static_cast<std::uint8_t>(regs_[vaxPc] - ipc);
    return storable;
}

bool
VaxMachine::step()
{
    if (halted_)
        return false;

    // One instruction-cache consultation per instruction, at its
    // start address, before any fetch fault.
    if (hier_)
        stats_.cycles += hier_->fetch(regs_[vaxPc]);

    PredecodePayload inst;
    Ref ops[vaxMaxOperands];
    decode(inst, ops);
    execute(*inst.info, ops);
    return !halted_;
}

void
VaxMachine::run(std::uint64_t maxSteps)
{
    std::uint64_t steps = 0;
    while (!halted_ && steps < maxSteps) {
        step();
        ++steps;
    }
    if (!halted_)
        fatal(cat("baseline program did not halt within ", maxSteps,
                  " steps"));
}

RunOutcome
VaxMachine::runFast(std::uint64_t maxSteps)
{
    RunOutcome outcome;
    predecode_.sync(mem_);

    PredecodeCache::Cursor cursor(predecode_);

    while (!halted_ && outcome.steps < maxSteps) {
        const std::uint32_t pc = regs_[vaxPc];
        if (hier_)
            stats_.cycles += hier_->fetch(pc);

        // A PC outside memory has no index: the decoder below raises
        // step()'s fetch fault.
        std::uint32_t *idx =
            pc < mem_.size() ? &cursor.index(pc) : nullptr;
        PredecodeCache::Record *e =
            idx && *idx ? &predecode_.record(*idx) : nullptr;
        bool hit = false;
        if (e) {
            hit = PredecodeCache::valid(*e, mem_, pc, e->len);
            if (!hit) {
                // The lines were written (data and code often share
                // pages): an unchanged encoding keeps its record.
                hit = true;
                for (unsigned i = 0; i < e->len && hit; ++i)
                    hit = e->raw[i] == mem_.peekByte(pc + i);
                if (hit)
                    PredecodeCache::revalidate(*e, mem_, pc, e->len);
            }
        }

        Ref ops[vaxMaxOperands];
        if (hit) {
            // Replay: the stream accounting of the byte-wise fetch,
            // then each specifier in stream order.
            const PredecodePayload &p = *e;
            mem_.countFetch(p.len);
            stats_.instrBytes += p.len;
            beginInstruction(*p.info, pc);
            for (unsigned i = 0; i < p.info->numOperands; ++i) {
                stats_.cycles += p.specs[i].specCycles;
                applySpec(p.specs[i], ops[i]);
            }
            regs_[vaxPc] = pc + p.len;
            execute(*p.info, ops);
        } else {
            // Miss: decode live.  A faulting decode leaves the cache as
            // it was; a stored one is revalidated before execute(),
            // which may overwrite the instruction's own bytes.  A
            // changed instruction is rewritten in its own record.
            PredecodePayload inst;
            if (decode(inst, ops) && idx) {
                for (unsigned i = 0; i < inst.len; ++i)
                    inst.raw[i] = mem_.peekByte(pc + i);
                PredecodeCache::Record &r =
                    *idx ? predecode_.record(*idx) : predecode_.add(*idx);
                static_cast<PredecodePayload &>(r) = inst;
                PredecodeCache::revalidate(r, mem_, pc, inst.len);
            }
            execute(*inst.info, ops);
        }
        ++outcome.steps;
    }
    outcome.halted = halted_;
    return outcome;
}

VaxSnapshot
VaxMachine::snapshot() const
{
    VaxSnapshot s;
    s.memorySize = config_.memorySize;
    s.regs = regs_;
    s.cc = cc_;
    s.halted = halted_;
    s.stats = stats_;
    s.memStats = mem_.stats();
    s.pages = mem_.dirtyPages();
    if (hier_)
        s.caches = hier_->snapshot();
    return s;
}

void
VaxMachine::restore(const VaxSnapshot &snap)
{
    if (snap.memorySize != config_.memorySize)
        fatal(cat("snapshot restore: memory size ", snap.memorySize,
                  " != machine's ", config_.memorySize));

    regs_ = snap.regs;
    cc_ = snap.cc;
    halted_ = snap.halted;
    stats_ = snap.stats;

    // restoreContents() adopts the snapshot's page handles in O(pages
    // that differ) and bumps write generations only where content
    // really moved — so the decode cache stays warm across a
    // same-content restore and revalidates itself anywhere it isn't.
    mem_.restoreContents(snap.pages);
    mem_.setStats(snap.memStats);

    // Caches are timing state, not architectural state: each level
    // whose geometry matches the snapshot resumes warm, any other
    // level starts cold (same fork semantics as the RISC machine).
    if (hier_)
        hier_->restore(snap.caches);
}

} // namespace risc1
