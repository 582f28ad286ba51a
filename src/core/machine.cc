#include "core/machine.hh"

#include <algorithm>

#include "common/bitfield.hh"
#include "common/logging.hh"
#include "isa/disasm.hh"
#include "obs/trace.hh"

namespace risc1 {

std::uint32_t
Psw::pack() const
{
    std::uint32_t v = 0;
    v |= cc.c ? 1u << 0 : 0;
    v |= cc.v ? 1u << 1 : 0;
    v |= cc.z ? 1u << 2 : 0;
    v |= cc.n ? 1u << 3 : 0;
    v |= intEnable ? 1u << 4 : 0;
    v |= static_cast<std::uint32_t>(cwp) << 8;
    v |= static_cast<std::uint32_t>(swp) << 16;
    return v;
}

void
Psw::unpackUserBits(std::uint32_t value)
{
    cc.c = (value & (1u << 0)) != 0;
    cc.v = (value & (1u << 1)) != 0;
    cc.z = (value & (1u << 2)) != 0;
    cc.n = (value & (1u << 3)) != 0;
    intEnable = (value & (1u << 4)) != 0;
}

Machine::Machine(const MachineConfig &config)
    : config_(config),
      mem_(config.memorySize),
      regs_(config.windows),
      spillSp_(config.saveAreaTop),
      softSp_(config.softAreaTop)
{
    if (config_.saveAreaTop % 4 != 0 ||
        config_.saveAreaTop > config_.memorySize ||
        config_.softAreaTop % 4 != 0 ||
        config_.softAreaTop > config_.memorySize)
        fatal("save areas must be word-aligned and inside memory");
    if (config_.caches.any())
        hier_.emplace(config_.caches);
}

void
Machine::loadProgram(const Program &program)
{
    for (const auto &seg : program.segments)
        mem_.load(seg.base, seg.bytes.data(), seg.bytes.size());
    reset(program.entry);
}

void
Machine::reset(std::uint32_t entry)
{
    regs_.reset();
    psw_ = Psw{};
    stats_.reset();
    mem_.resetStats();
    pc_ = entry;
    npc_ = entry + 4;
    lastPc_ = entry;
    halted_ = false;
    inDelaySlot_ = false;
    resident_ = 1;
    saved_ = 0;
    spillSp_ = config_.saveAreaTop;
    softSp_ = config_.softAreaTop;
    callTrace_.clear();
    interruptPending_ = false;
    interruptsTaken_ = 0;
    if (hier_)
        hier_->reset();
    psw_.cwp = static_cast<std::uint8_t>(regs_.cwp());
    psw_.swp = static_cast<std::uint8_t>(
        (regs_.cwp() + resident_) % config_.windows.numWindows);
}

namespace {

/** Value + condition codes one ALU operation produces. */
struct AluOut
{
    std::uint32_t value = 0;
    CondCodes cc;
};

/**
 * The single source of truth for ALU semantics, instantiated at compile
 * time by the per-opcode ALU handlers (FastOps::alu).
 */
template <Opcode OP>
inline AluOut
aluCore(const Instruction &inst, std::uint32_t a, std::uint32_t b,
        std::uint64_t cin)
{
    AluOut res;

    auto addFlags = [&](std::uint64_t wide, std::uint32_t x,
                        std::uint32_t y) {
        res.value = static_cast<std::uint32_t>(wide);
        res.cc.c = (wide >> 32) != 0;
        res.cc.v = ((~(x ^ y) & (x ^ res.value)) >> 31) != 0;
    };
    auto subFlags = [&](std::uint32_t x, std::uint32_t y,
                        std::uint64_t borrow) {
        const std::uint64_t wide = static_cast<std::uint64_t>(x) -
                                   static_cast<std::uint64_t>(y) - borrow;
        res.value = static_cast<std::uint32_t>(wide);
        res.cc.c = static_cast<std::uint64_t>(x) <
                   static_cast<std::uint64_t>(y) + borrow;
        res.cc.v = (((x ^ y) & (x ^ res.value)) >> 31) != 0;
    };

    if constexpr (OP == Opcode::Add)
        addFlags(static_cast<std::uint64_t>(a) + b, a, b);
    else if constexpr (OP == Opcode::Addc)
        addFlags(static_cast<std::uint64_t>(a) + b + cin, a, b);
    else if constexpr (OP == Opcode::Sub)
        subFlags(a, b, 0);
    else if constexpr (OP == Opcode::Subc)
        subFlags(a, b, cin);
    else if constexpr (OP == Opcode::Subr)
        subFlags(b, a, 0);
    else if constexpr (OP == Opcode::Subcr)
        subFlags(b, a, cin);
    else if constexpr (OP == Opcode::And)
        res.value = a & b;
    else if constexpr (OP == Opcode::Or)
        res.value = a | b;
    else if constexpr (OP == Opcode::Xor)
        res.value = a ^ b;
    else if constexpr (OP == Opcode::Sll)
        res.value = a << (b & 31);
    else if constexpr (OP == Opcode::Srl)
        res.value = a >> (b & 31);
    else if constexpr (OP == Opcode::Sra)
        res.value = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(a) >> (b & 31));
    else if constexpr (OP == Opcode::Ldhi)
        res.value = static_cast<std::uint32_t>(inst.imm19) << 13;
    else
        static_assert(OP == Opcode::Add, "non-ALU opcode");

    res.cc.z = res.value == 0;
    res.cc.n = (res.value >> 31) != 0;
    return res;
}

} // namespace

void
Machine::transferTo(std::uint32_t target, bool haltOnSelf)
{
    if (haltOnSelf && target == pc_) {
        // Self-jump: the simulator's halt convention.  Applies to
        // jumps only — a RET whose caller issued the CALL as its last
        // instruction before its own RET legitimately targets the
        // returning instruction's address.
        halted_ = true;
        return;
    }
    ++stats_.takenTransfers;
    npcOverride_ = target;
    hasNpcOverride_ = true;
}

void
Machine::spillOldestFrame()
{
    const unsigned nwin = config_.windows.numWindows;
    const unsigned fsize = config_.windows.frameSize();
    const unsigned oldest = (regs_.cwp() + resident_ - 1) % nwin;

    for (unsigned i = 0; i < fsize; ++i) {
        spillSp_ -= 4;
        if (config_.windowedCalls)
            mem_.writeWord(spillSp_, regs_.frameReg(oldest, i));
        else
            mem_.pokeWord(spillSp_, regs_.frameReg(oldest, i));
    }
    --resident_;
    ++saved_;
    if (config_.windowedCalls) {
        ++stats_.windowOverflows;
        stats_.spillWords += fsize;
        stats_.cycles += config_.timing.trapOverheadCycles +
                         fsize * config_.timing.trapPerWordCycles;
        if (trace_)
            trace_->record({obs::EventKind::Trap, stats_.instructions,
                            stats_.cycles, pc_,
                            cat("window overflow: spilled ", fsize,
                                " words, ", saved_, " frame(s) saved")});
    }
}

void
Machine::fillCurrentFrame()
{
    if (saved_ == 0)
        panic("window underfill with empty save stack");
    const unsigned fsize = config_.windows.frameSize();
    const unsigned w = regs_.cwp();

    for (unsigned i = fsize; i-- > 0;) {
        const std::uint32_t v = config_.windowedCalls
                                    ? mem_.readWord(spillSp_)
                                    : mem_.peekWord(spillSp_);
        regs_.setFrameReg(w, i, v);
        spillSp_ += 4;
    }
    --saved_;
    resident_ = 1;
    if (config_.windowedCalls) {
        ++stats_.windowUnderflows;
        stats_.fillWords += fsize;
        stats_.cycles += config_.timing.trapOverheadCycles +
                         fsize * config_.timing.trapPerWordCycles;
        if (trace_)
            trace_->record({obs::EventKind::Trap, stats_.instructions,
                            stats_.cycles, pc_,
                            cat("window underflow: filled ", fsize,
                                " words, ", saved_,
                                " frame(s) still saved")});
    }
}

void
Machine::doCall(std::uint32_t target, unsigned rd, bool isInterrupt)
{
    ++stats_.calls;
    ++stats_.callDepth;
    stats_.maxCallDepth = std::max(stats_.maxCallDepth, stats_.callDepth);
    if (recordCalls_)
        callTrace_.push_back(CallEvent::Call);

    if (resident_ == config_.windows.capacity())
        spillOldestFrame();
    regs_.pushWindow();
    ++resident_;

    // The return address lands in the NEW window (the callee's HIGHs
    // alias the caller's LOWs, so rd = r31 writes the caller's r15).
    regs_.write(rd, isInterrupt ? lastPc_ : pc_);

    if (!config_.windowedCalls) {
        // Conventional calling sequence: save registers to memory.
        for (unsigned i = 0; i < config_.softFrameWords; ++i) {
            softSp_ -= 4;
            mem_.writeWord(softSp_, regs_.read(16 + (i % 10)));
        }
        stats_.softSaveWords += config_.softFrameWords;
        stats_.cycles +=
            config_.softFrameWords * config_.timing.softPerWordCycles;
    }

    if (isInterrupt)
        psw_.intEnable = false;
    else
        transferTo(target);

    psw_.cwp = static_cast<std::uint8_t>(regs_.cwp());
    psw_.swp = static_cast<std::uint8_t>(
        (regs_.cwp() + resident_) % config_.windows.numWindows);
}

void
Machine::doReturn(std::uint32_t target, bool isInterrupt)
{
    if (stats_.callDepth == 0)
        fatal(cat("RETURN executed at top level (pc=0x", std::hex, pc_,
                  ")"));
    ++stats_.returns;
    --stats_.callDepth;
    if (recordCalls_)
        callTrace_.push_back(CallEvent::Return);

    regs_.popWindow();
    --resident_;
    if (resident_ == 0)
        fillCurrentFrame();

    if (!config_.windowedCalls) {
        for (unsigned i = config_.softFrameWords; i-- > 0;) {
            (void)mem_.readWord(softSp_);
            softSp_ += 4;
        }
        stats_.softRestoreWords += config_.softFrameWords;
        stats_.cycles +=
            config_.softFrameWords * config_.timing.softPerWordCycles;
    }

    if (isInterrupt)
        psw_.intEnable = true;
    transferTo(target);

    psw_.cwp = static_cast<std::uint8_t>(regs_.cwp());
    psw_.swp = static_cast<std::uint8_t>(
        (regs_.cwp() + resident_) % config_.windows.numWindows);
}

namespace {

/**
 * Register-operand traffic one instruction contributes to the
 * operand-locality counters; the decoder stores it in the record.
 */
void
operandCounts(const Instruction &inst, const OpcodeInfo *info,
              unsigned &reads, unsigned &writes)
{
    reads = 0;
    writes = 0;
    switch (info->cls) {
      case InstClass::Alu:
        if (inst.op == Opcode::Ldhi) {
            writes = 1;
        } else {
            reads = 1 + (inst.imm ? 0 : 1);
            writes = 1;
        }
        break;
      case InstClass::Load:
        reads = 1 + (inst.imm ? 0 : 1);
        writes = 1;
        break;
      case InstClass::Store:
        reads = 2 + (inst.imm ? 0 : 1);
        break;
      case InstClass::Jump:
        if (inst.op == Opcode::Jmp)
            reads = 1 + (inst.imm ? 0 : 1);
        break;
      case InstClass::CallRet:
        if (inst.op == Opcode::Call || inst.op == Opcode::Ret ||
            inst.op == Opcode::Reti)
            reads = 1 + (inst.imm ? 0 : 1);
        if (inst.op != Opcode::Ret && inst.op != Opcode::Reti)
            writes = 1;
        break;
      case InstClass::Special:
        if (inst.op == Opcode::Putpsw)
            reads = 1;
        else
            writes = 1;
        break;
    }
}

} // namespace

void
Machine::raiseInterrupt(std::uint32_t vector)
{
    interruptPending_ = true;
    interruptVector_ = vector;
}

void
Machine::maybeAcceptInterrupt()
{
    // Callers test interruptPending_ first, so an instruction with
    // nothing pending pays one flag test.  Accept the interrupt at a
    // sequential boundary only (no taken transfer in flight),
    // mirroring CALLINT entry.
    if (psw_.intEnable && npc_ == pc_ + 4) {
        interruptPending_ = false;
        ++interruptsTaken_;
        if (resident_ == config_.windows.capacity())
            spillOldestFrame();
        regs_.pushWindow();
        ++resident_;
        ++stats_.callDepth;
        stats_.maxCallDepth =
            std::max(stats_.maxCallDepth, stats_.callDepth);
        ++stats_.calls;
        if (recordCalls_)
            callTrace_.push_back(CallEvent::Call);
        regs_.write(31, pc_); // interrupted instruction's address
        psw_.intEnable = false;
        psw_.cwp = static_cast<std::uint8_t>(regs_.cwp());
        psw_.swp = static_cast<std::uint8_t>(
            (regs_.cwp() + resident_) % config_.windows.numWindows);
        pc_ = interruptVector_;
        npc_ = interruptVector_ + 4;
        inDelaySlot_ = false; // the handler entry is not a slot
        stats_.cycles += config_.timing.trapOverheadCycles;
        if (trace_)
            trace_->record({obs::EventKind::Interrupt,
                            stats_.instructions, stats_.cycles, pc_,
                            cat("interrupt accepted: vector 0x",
                                std::hex, interruptVector_)});
    }
}

/**
 * Opcode handlers: one monomorphic function per opcode, resolved once
 * at decode time and dispatched through a function pointer.  They are
 * the only statement of RISC I semantics; step() and runFast() both
 * reach them through issue().
 */
struct FastOps
{
    static std::uint32_t
    s2(Machine &m, const Instruction &inst)
    {
        return inst.imm ? static_cast<std::uint32_t>(inst.simm13)
                        : m.regs_.read(inst.rs2);
    }

    template <Opcode OP>
    static void
    alu(Machine &m, const DecodedInst &d)
    {
        const Instruction &inst = d.inst;
        std::uint32_t a = 0, b = 0;
        if constexpr (OP != Opcode::Ldhi) {
            a = m.regs_.read(inst.rs1);
            b = s2(m, inst);
        }
        const AluOut res = aluCore<OP>(inst, a, b, m.psw_.cc.c ? 1 : 0);
        m.regs_.write(inst.rd, res.value);
        if (inst.scc)
            m.psw_.cc = res.cc;
        m.stats_.cycles += m.config_.timing.aluCycles;
    }

    template <Opcode OP>
    static void
    load(Machine &m, const DecodedInst &d)
    {
        const Instruction &inst = d.inst;
        const std::uint32_t addr = m.regs_.read(inst.rs1) + s2(m, inst);
        if (m.hier_)
            m.stats_.cycles += m.hier_->data(addr, false);
        std::uint32_t value = 0;
        if constexpr (OP == Opcode::Ldl)
            value = m.mem_.readWord(addr);
        else if constexpr (OP == Opcode::Ldsu)
            value = m.mem_.readHalf(addr);
        else if constexpr (OP == Opcode::Ldss)
            value = static_cast<std::uint32_t>(
                sext(m.mem_.readHalf(addr), 16));
        else if constexpr (OP == Opcode::Ldbu)
            value = m.mem_.readByte(addr);
        else
            value = static_cast<std::uint32_t>(
                sext(m.mem_.readByte(addr), 8));
        m.regs_.write(inst.rd, value);
        ++m.stats_.loadCount;
        m.stats_.cycles += m.config_.timing.loadCycles;
    }

    template <Opcode OP>
    static void
    store(Machine &m, const DecodedInst &d)
    {
        const Instruction &inst = d.inst;
        const std::uint32_t addr = m.regs_.read(inst.rs1) + s2(m, inst);
        if (m.hier_)
            m.stats_.cycles += m.hier_->data(addr, true);
        const std::uint32_t data = m.regs_.read(inst.rd);
        if constexpr (OP == Opcode::Stl)
            m.mem_.writeWord(addr, data);
        else if constexpr (OP == Opcode::Sts)
            m.mem_.writeHalf(addr, static_cast<std::uint16_t>(data));
        else
            m.mem_.writeByte(addr, static_cast<std::uint8_t>(data));
        ++m.stats_.storeCount;
        m.stats_.cycles += m.config_.timing.storeCycles;
    }

    template <Opcode OP>
    static void
    jump(Machine &m, const DecodedInst &d)
    {
        const Instruction &inst = d.inst;
        std::uint32_t target;
        if constexpr (OP == Opcode::Jmpr)
            target = m.pc_ + static_cast<std::uint32_t>(inst.imm19);
        else
            target = m.regs_.read(inst.rs1) + s2(m, inst);
        if (condHolds(inst.cond(), m.psw_.cc))
            m.transferTo(target, true);
        else
            ++m.stats_.untakenJumps;
        m.stats_.cycles += m.config_.timing.jumpCycles;
    }

    template <Opcode OP>
    static void
    callRet(Machine &m, const DecodedInst &d)
    {
        const Instruction &inst = d.inst;
        if constexpr (OP == Opcode::Call) {
            m.doCall(m.regs_.read(inst.rs1) + s2(m, inst), inst.rd,
                     false);
            m.stats_.cycles += m.config_.timing.callCycles;
        } else if constexpr (OP == Opcode::Callr) {
            m.doCall(m.pc_ + static_cast<std::uint32_t>(inst.imm19),
                     inst.rd, false);
            m.stats_.cycles += m.config_.timing.callCycles;
        } else if constexpr (OP == Opcode::Calli) {
            m.doCall(0, inst.rd, true);
            m.stats_.cycles += m.config_.timing.callCycles;
        } else if constexpr (OP == Opcode::Ret) {
            m.doReturn(m.regs_.read(inst.rs1) + s2(m, inst), false);
            m.stats_.cycles += m.config_.timing.retCycles;
        } else {
            m.doReturn(m.regs_.read(inst.rs1) + s2(m, inst), true);
            m.stats_.cycles += m.config_.timing.retCycles;
        }
    }

    template <Opcode OP>
    static void
    special(Machine &m, const DecodedInst &d)
    {
        const Instruction &inst = d.inst;
        if constexpr (OP == Opcode::Gtlpc)
            m.regs_.write(inst.rd, m.lastPc_);
        else if constexpr (OP == Opcode::Getpsw)
            m.regs_.write(inst.rd, m.psw_.pack());
        else
            m.psw_.unpackUserBits(m.regs_.read(inst.rs1));
        m.stats_.cycles += m.config_.timing.specialCycles;
    }

    /** Resolve the fast handler for a (legal) opcode. */
    static void (*resolve(Opcode op))(Machine &, const DecodedInst &)
    {
        switch (op) {
          case Opcode::Add:    return &alu<Opcode::Add>;
          case Opcode::Addc:   return &alu<Opcode::Addc>;
          case Opcode::Sub:    return &alu<Opcode::Sub>;
          case Opcode::Subc:   return &alu<Opcode::Subc>;
          case Opcode::Subr:   return &alu<Opcode::Subr>;
          case Opcode::Subcr:  return &alu<Opcode::Subcr>;
          case Opcode::And:    return &alu<Opcode::And>;
          case Opcode::Or:     return &alu<Opcode::Or>;
          case Opcode::Xor:    return &alu<Opcode::Xor>;
          case Opcode::Sll:    return &alu<Opcode::Sll>;
          case Opcode::Srl:    return &alu<Opcode::Srl>;
          case Opcode::Sra:    return &alu<Opcode::Sra>;
          case Opcode::Ldhi:   return &alu<Opcode::Ldhi>;
          case Opcode::Ldl:    return &load<Opcode::Ldl>;
          case Opcode::Ldsu:   return &load<Opcode::Ldsu>;
          case Opcode::Ldss:   return &load<Opcode::Ldss>;
          case Opcode::Ldbu:   return &load<Opcode::Ldbu>;
          case Opcode::Ldbs:   return &load<Opcode::Ldbs>;
          case Opcode::Stl:    return &store<Opcode::Stl>;
          case Opcode::Sts:    return &store<Opcode::Sts>;
          case Opcode::Stb:    return &store<Opcode::Stb>;
          case Opcode::Jmp:    return &jump<Opcode::Jmp>;
          case Opcode::Jmpr:   return &jump<Opcode::Jmpr>;
          case Opcode::Call:   return &callRet<Opcode::Call>;
          case Opcode::Callr:  return &callRet<Opcode::Callr>;
          case Opcode::Calli:  return &callRet<Opcode::Calli>;
          case Opcode::Ret:    return &callRet<Opcode::Ret>;
          case Opcode::Reti:   return &callRet<Opcode::Reti>;
          case Opcode::Gtlpc:  return &special<Opcode::Gtlpc>;
          case Opcode::Getpsw: return &special<Opcode::Getpsw>;
          case Opcode::Putpsw: return &special<Opcode::Putpsw>;
        }
        panic(cat("no fast handler for opcode ", static_cast<int>(op)));
    }
};

DecodedInst
Machine::predecodeWord(std::uint32_t word)
{
    DecodedInst d;
    d.inst = Instruction::decode(word); // throws the decoder's fault
    d.info = opcodeInfo(d.inst.op);
    d.nop = isNop(d.inst);
    // Every transfer instruction is followed by one architectural
    // delay slot (CALLI does not transfer and has none).
    d.hasDelaySlot = (d.info->cls == InstClass::Jump ||
                      d.info->cls == InstClass::CallRet) &&
                     d.inst.op != Opcode::Calli;
    d.writesMemory = d.info->cls == InstClass::Store ||
                     d.inst.op == Opcode::Call ||
                     d.inst.op == Opcode::Callr ||
                     d.inst.op == Opcode::Calli;
    unsigned reads = 0, writes = 0;
    operandCounts(d.inst, d.info, reads, writes);
    d.regReads = static_cast<std::uint8_t>(reads);
    d.regWrites = static_cast<std::uint8_t>(writes);
    d.exec = FastOps::resolve(d.inst.op);
    return d;
}

[[gnu::always_inline]] inline void
Machine::count(const DecodedInst &d, bool inSlot, std::uint64_t times)
{
    stats_.instructions += times;
    stats_.perOpcode[static_cast<std::uint8_t>(d.inst.op)] += times;
    stats_.perClass[static_cast<std::size_t>(d.info->cls)] += times;
    if (inSlot) {
        stats_.delaySlotsExecuted += times;
        if (d.nop)
            stats_.delaySlotNops += times;
    }
    stats_.regOperandReads += times * d.regReads;
    stats_.regOperandWrites += times * d.regWrites;
}

[[gnu::cold, gnu::noinline]] void
Machine::traceInstruction(const DecodedInst &d)
{
    trace_->record({obs::EventKind::Instruction, stats_.instructions,
                    stats_.cycles, pc_, disassemble(d.inst)});
}

[[gnu::always_inline]] inline void
Machine::issue(const DecodedInst &d)
{
    const std::uint32_t pc = pc_;

    // Recorded before execution, so a faulting instruction is the last
    // event in the ring when its fault unwinds (postmortem.hh).
    if (trace_) [[unlikely]]
        traceInstruction(d);

    count(d, inDelaySlot_, 1);

    hasNpcOverride_ = false;
    d.exec(*this, d);

    lastPc_ = pc;
    if (halted_)
        return;

    pc_ = npc_;
    npc_ = hasNpcOverride_ ? npcOverride_ : npc_ + 4;
    inDelaySlot_ = d.hasDelaySlot;
}

[[gnu::always_inline]] inline void
Machine::fetchAndIssue()
{
    if (hier_)
        stats_.cycles += hier_->fetch(pc_);
    issue(predecodeWord(mem_.fetchWord(pc_)));
}

bool
Machine::step()
{
    if (halted_)
        return false;

    if (interruptPending_)
        maybeAcceptInterrupt();

    fetchAndIssue();
    return !halted_;
}

void
Machine::buildBlock(Block &b, std::uint32_t pc)
{
    // Decode up to the first transfer's delay slot, stopping before a
    // page end, the end of memory or a word that does not decode.  The
    // run is appended to the pool; a rebuild that fits the block's old
    // range moves it back there.
    const std::uint64_t pageEnd =
        (static_cast<std::uint64_t>(pc) / Memory::pageBytes + 1) *
        Memory::pageBytes;
    const std::uint64_t end = std::min<std::uint64_t>(pageEnd, mem_.size());
    const std::size_t base = blockInsts_.size();
    unsigned xfer = maxBlock;
    for (std::uint64_t addr = pc;
         blockInsts_.size() - base < maxBlock && addr + 4 <= end;
         addr += 4) {
        const std::uint32_t word =
            mem_.peekWord(static_cast<std::uint32_t>(addr));
        if (!Instruction::isLegal(word))
            break;
        const unsigned i = static_cast<unsigned>(blockInsts_.size() - base);
        blockInsts_.push_back({predecodeWord(word), word});
        if (i > xfer)
            break;  // the delay slot
        if (xfer == maxBlock && blockInsts_.back().d.hasDelaySlot)
            xfer = i;
    }

    const auto n = static_cast<unsigned>(blockInsts_.size() - base);
    if (n <= b.cap) {
        std::copy_n(blockInsts_.begin() + static_cast<std::ptrdiff_t>(base),
                    n, blockInsts_.begin() + b.first);
        blockInsts_.resize(base);
    } else {
        b.first = static_cast<std::uint32_t>(base);
        b.cap = static_cast<std::uint8_t>(n);
    }
    b.n = static_cast<std::uint8_t>(n);
    b.xfer = static_cast<std::uint8_t>(std::min(xfer, n));
}

bool
Machine::sameWords(BlockRecord &b, std::uint32_t pc)
{
    // The lines were written (data and code often share pages): an
    // unchanged run keeps its decode.
    const BlockInst *in = blockInsts_.data() + b.first;
    for (unsigned i = 0; i < b.n; ++i)
        if (mem_.peekWord(pc + 4 * i) != in[i].word)
            return false;
    PredecodeCache::revalidate(b, mem_, pc, 4u * b.n);
    return true;
}

[[gnu::always_inline]] inline bool
Machine::current(BlockRecord &b, std::uint32_t pc)
{
    return PredecodeCache::valid(b, mem_, pc, 4u * b.n) ||
           sameWords(b, pc);
}

Machine::BlockRecord *
Machine::refreshBlock(std::uint32_t &idx, std::uint32_t pc)
{
    if (idx) {
        BlockRecord &b = predecode_.record(idx);
        if (b.n > 0 && current(b, pc))
            return &b;
        // Its words changed: charge the runs of the old decode first.
        chargePending();
        buildBlock(b, pc);
        PredecodeCache::revalidate(b, mem_, pc,
                                   4u * std::max<unsigned>(b.n, 1));
        return b.n > 0 ? &b : nullptr;
    }
    Block fresh;
    buildBlock(fresh, pc);
    if (fresh.n == 0)
        return nullptr;
    BlockRecord &b = predecode_.add(idx);
    static_cast<Block &>(b) = fresh;
    PredecodeCache::revalidate(b, mem_, pc, 4u * b.n);
    return &b;
}

void
Machine::chargeRuns(const Block &b, unsigned n, std::uint64_t times)
{
    // Only a transfer's successor in the block is a delay slot; a
    // block entered at one counts it when it runs.
    const BlockInst *in = blockInsts_.data() + b.first;
    for (unsigned i = 0; i < n; ++i)
        count(in[i].d, i > 0 && in[i - 1].d.hasDelaySlot, times);
    mem_.countFetch(times * n);
}

void
Machine::chargePending()
{
    for (const std::uint32_t idx : ran_) {
        BlockRecord &b = predecode_.record(idx);
        chargeRuns(b, b.n, b.runs);
        b.runs = 0;
    }
    ran_.clear();
}

template <bool Hier>
[[gnu::always_inline]] inline std::uint64_t
Machine::runBlock(BlockRecord &b, std::uint32_t idx)
{
    const BlockInst *in = blockInsts_.data() + b.first;
    const std::uint32_t start = pc_;

    // Entered at the delay slot of an untaken transfer (a run resumed
    // there, or the transfer ended the previous page): the slot's
    // counters are dynamic.
    if (inDelaySlot_) {
        ++stats_.delaySlotsExecuted;
        if (in[0].d.nop)
            ++stats_.delaySlotNops;
    }

    // A block cut short charges what ran at once, as issue() would
    // have.  @p done instructions completed or faulted; @p advanced
    // says whether the last one moved the pc.
    auto leave = [&](unsigned done, bool advanced) {
        chargeRuns(b, done, 1);
        if (advanced)
            inDelaySlot_ = in[done - 1].d.hasDelaySlot;
        else if (done > 1)
            inDelaySlot_ = in[done - 2].d.hasDelaySlot;
        return std::uint64_t{done};
    };

    // Per instruction: the L1I fetch, the handler and the pc advance.
    // Before the transfer nothing can jump or halt, so the pc advance
    // is three stores.
    unsigned i = 0;
    std::uint32_t pc = start;
    hasNpcOverride_ = false;
    try {
        for (; i < b.xfer; ++i, pc += 4) {
            const DecodedInst &d = in[i].d;
            if constexpr (Hier)
                stats_.cycles += hier_->fetch(pc);
            d.exec(*this, d);
            lastPc_ = pc;
            pc_ = pc + 4;
            npc_ = pc + 8;
            // A write may have rewritten the rest of the block.
            if (d.writesMemory && !current(b, start)) [[unlikely]]
                return leave(i + 1, true);
        }
        for (; i < b.n; ++i) {
            const DecodedInst &d = in[i].d;
            pc = pc_;
            if constexpr (Hier)
                stats_.cycles += hier_->fetch(pc);
            hasNpcOverride_ = false;
            d.exec(*this, d);
            lastPc_ = pc;
            if (halted_) [[unlikely]]
                return leave(i + 1, false);  // before the slot
            pc_ = npc_;
            npc_ = hasNpcOverride_ ? npcOverride_ : npc_ + 4;
            if (d.writesMemory && !current(b, start)) [[unlikely]]
                return leave(i + 1, true);
        }
    } catch (...) {
        // step()'s state at a fault: counted through the faulting
        // instruction, its pc not advanced.
        leave(i + 1, false);
        throw;
    }

    // The whole block ran: its counters are charged once, when runFast
    // returns (chargePending()).
    if (b.runs++ == 0)
        ran_.push_back(idx);
    inDelaySlot_ = in[b.n - 1].d.hasDelaySlot;
    return b.n;
}

std::uint64_t
Machine::stepBlock(BlockRecord &b, std::uint64_t budget)
{
    const BlockInst *in = blockInsts_.data() + b.first;
    const std::uint32_t start = pc_;
    std::uint64_t done = 0;
    for (unsigned i = 0; i < b.n; ++i) {
        if (i > 0) {
            if (halted_ || done == budget)
                break;
            if (in[i - 1].d.writesMemory && !current(b, start))
                break;
            if (interruptPending_)
                maybeAcceptInterrupt();
            // An accepted interrupt or a taken transfer leaves the run.
            if (pc_ != start + 4 * i)
                break;
        }
        if (hier_)
            stats_.cycles += hier_->fetch(pc_);
        mem_.countFetch();
        issue(in[i].d);
        ++done;
    }
    return done;
}

RunOutcome
Machine::runFast(std::uint64_t maxSteps)
{
    RunOutcome outcome;
    predecode_.sync(mem_);
    // Whole block runs are charged when the loop ends, however it ends.
    struct ChargeOnExit
    {
        Machine &m;
        ~ChargeOnExit() { m.chargePending(); }
    } charge{*this};

    PredecodeCache::Cursor cursor(predecode_);

    while (!halted_ && outcome.steps < maxSteps) {
        if (interruptPending_)
            maybeAcceptInterrupt();

        const std::uint32_t pc = pc_;
        BlockRecord *b = nullptr;
        std::uint32_t *idx = nullptr;
        if ((pc & 3u) == 0 &&
            static_cast<std::uint64_t>(pc) + 4 <= mem_.size()) {
            idx = &cursor.index(pc);
            b = *idx ? &predecode_.record(*idx) : nullptr;
            // A block whose first word stopped decoding is rebuilt on
            // every visit, so its fault is raised again.
            if (!b || b->n == 0 ||
                !PredecodeCache::valid(*b, mem_, pc, 4u * b->n))
                b = refreshBlock(*idx, pc);
        }
        if (!b) {
            // A misaligned or out-of-range PC, or a word that does not
            // decode: step()'s fetch and decode raise its exact fault.
            fetchAndIssue();
            ++outcome.steps;
            continue;
        }

        const std::uint64_t budget = maxSteps - outcome.steps;
        if (!trace_ && !interruptPending_ && npc_ == pc + 4 &&
            budget >= b->n)
            outcome.steps += hier_ ? runBlock<true>(*b, *idx)
                                   : runBlock<false>(*b, *idx);
        else
            outcome.steps += stepBlock(*b, budget);
    }
    outcome.halted = halted_;
    return outcome;
}

MachineSnapshot
Machine::snapshot() const
{
    MachineSnapshot s;
    s.windows = config_.windows;
    s.memorySize = config_.memorySize;
    s.windowedCalls = config_.windowedCalls;

    s.physRegs = regs_.physRegs();
    s.cwp = regs_.cwp();
    s.psw = psw_;
    s.pc = pc_;
    s.npc = npc_;
    s.lastPc = lastPc_;
    s.halted = halted_;
    s.inDelaySlot = inDelaySlot_;
    s.hasNpcOverride = hasNpcOverride_;
    s.npcOverride = npcOverride_;
    s.resident = resident_;
    s.saved = saved_;
    s.spillSp = spillSp_;
    s.softSp = softSp_;
    s.interruptPending = interruptPending_;
    s.interruptVector = interruptVector_;
    s.interruptsTaken = interruptsTaken_;

    s.stats = stats_;
    s.memStats = mem_.stats();
    s.callTrace = callTrace_;

    s.pages = mem_.dirtyPages();
    if (hier_)
        s.caches = hier_->snapshot();
    return s;
}

void
Machine::restore(const MachineSnapshot &snap)
{
    const WindowConfig &w = snap.windows;
    const WindowConfig &mine = config_.windows;
    if (w.numGlobals != mine.numGlobals || w.numLocals != mine.numLocals ||
        w.overlap != mine.overlap || w.numWindows != mine.numWindows)
        fatal("snapshot restore: window geometry does not match");
    if (snap.memorySize != config_.memorySize)
        fatal(cat("snapshot restore: memory size ", snap.memorySize,
                  " != machine's ", config_.memorySize));
    if (snap.windowedCalls != config_.windowedCalls)
        fatal("snapshot restore: windowed-calls mode does not match");

    regs_.restore(snap.physRegs, snap.cwp);
    psw_ = snap.psw;
    pc_ = snap.pc;
    npc_ = snap.npc;
    lastPc_ = snap.lastPc;
    halted_ = snap.halted;
    inDelaySlot_ = snap.inDelaySlot;
    hasNpcOverride_ = snap.hasNpcOverride;
    npcOverride_ = snap.npcOverride;
    resident_ = snap.resident;
    saved_ = snap.saved;
    spillSp_ = snap.spillSp;
    softSp_ = snap.softSp;
    interruptPending_ = snap.interruptPending;
    interruptVector_ = snap.interruptVector;
    interruptsTaken_ = snap.interruptsTaken;

    stats_ = snap.stats;
    callTrace_ = snap.callTrace;

    mem_.restoreContents(snap.pages);
    mem_.setStats(snap.memStats);

    // Caches are a timing model, not architectural state: each level
    // whose geometry matches the snapshot resumes warm, any other
    // level starts cold — the intended semantics when forking one
    // prologue across cache-configuration sweep points.
    if (hier_)
        hier_->restore(snap.caches);
}

RunOutcome
Machine::run(std::uint64_t maxSteps)
{
    RunOutcome outcome;
    while (!halted_ && outcome.steps < maxSteps) {
        step();
        ++outcome.steps;
    }
    outcome.halted = halted_;
    if (!halted_)
        fatal(cat("program did not halt within ", maxSteps, " steps"));
    return outcome;
}

} // namespace risc1
