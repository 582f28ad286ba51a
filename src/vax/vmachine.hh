/**
 * @file
 * The CISC baseline processor simulator.
 *
 * Execution model: microcoded.  Each instruction costs its table base
 * cycles, plus the specifier cost of each operand's addressing mode,
 * plus one memory cycle per data-memory access (including all stack
 * traffic generated by CALLS/RET/PUSHL/JSB...).
 *
 * Procedure linkage: CALLS reads a 16-bit register-save mask at the
 * procedure entry, pushes the argument count, saved registers, return
 * PC, FP, AP and the mask word, then establishes the new frame — the
 * conventional memory-frame discipline the paper's register windows
 * are measured against.
 */

#ifndef RISC1_VAX_VMACHINE_HH
#define RISC1_VAX_VMACHINE_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/program.hh"
#include "core/outcome.hh"
#include "isa/condition.hh"
#include "mem/hierarchy.hh"
#include "memory/memory.hh"
#include "target/decode_cache.hh"
#include "vax/visa.hh"

namespace risc1::obs {
class Trace;
} // namespace risc1::obs

namespace risc1 {

/** Run statistics for the baseline machine. */
struct VaxStats
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::array<std::uint64_t, 6> perClass{};
    std::uint64_t branchesTaken = 0;
    std::uint64_t branchesUntaken = 0;
    std::uint64_t calls = 0;
    std::uint64_t returns = 0;
    std::int64_t callDepth = 0;
    std::int64_t maxCallDepth = 0;

    /** Data-memory accesses at operand level (incl. stack traffic). */
    std::uint64_t memOperandReads = 0;
    std::uint64_t memOperandWrites = 0;
    /** Register operand accesses (for the locality experiment). */
    std::uint64_t regOperandReads = 0;
    std::uint64_t regOperandWrites = 0;
    /** Instruction-stream bytes consumed. */
    std::uint64_t instrBytes = 0;

    std::uint64_t
    classCount(VaxClass cls) const
    {
        return perClass[static_cast<std::size_t>(cls)];
    }

    std::uint64_t
    dataAccesses() const
    {
        return memOperandReads + memOperandWrites;
    }

    void reset() { *this = VaxStats{}; }

    /** Counter-for-counter equality (the lockstep tests' oracle). */
    bool operator==(const VaxStats &) const = default;

    /** Serialize to @p w as a JSON object (see docs/SIM.md). */
    void writeJson(class JsonWriter &w) const;
};

/** Baseline machine configuration. */
struct VaxConfig
{
    std::size_t memorySize = 16u << 20;
    /** Initial stack pointer (stack grows down). */
    std::uint32_t stackTop = 0x00f00000;
    /** Cycles per data-memory access. */
    unsigned memAccessCycles = 1;
    /** Extra cycles per register saved/restored by CALLS/RET. */
    unsigned perRegSaveCycles = 2;
    /**
     * Memory-hierarchy configuration (mem/hierarchy.hh) — the same
     * composable model the RISC machine uses: the L1I is consulted
     * once per instruction at its start address, the L1D on every
     * data-memory operand access (including stack traffic); misses
     * add penalty cycles on top of memAccessCycles.  Disabled by
     * default.
     */
    mem::HierarchyConfig caches;
};

/**
 * Full architectural + accounting state captured by
 * VaxMachine::snapshot().
 *
 * A snapshot can be restored into any machine whose memory size
 * matches the machine it was taken from; timing parameters
 * (memAccessCycles, perRegSaveCycles) may differ — the fork primitive
 * the batch engine uses to run one prologue and sweep the epilogue
 * across timing calibrations.  Memory is captured as dirty pages only
 * (memory starts zeroed, so the dirty set is a complete content
 * snapshot).
 */
struct VaxSnapshot
{
    // -- Compatibility fingerprint ---------------------------------------
    std::size_t memorySize = 0;

    // -- Processor state -------------------------------------------------
    std::array<std::uint32_t, vaxNumRegs> regs{};
    CondCodes cc;
    bool halted = false;

    // -- Accounting ------------------------------------------------------
    VaxStats stats;
    MemoryStats memStats;

    // -- Memory and caches -----------------------------------------------
    /** Shared-page view of the dirty contents (no bytes copied). */
    MemoryImage pages;
    mem::HierarchySnapshot caches;

    /**
     * Field-for-field equality over the complete captured state — the
     * oracle the fast-path lockstep tests assert with.
     */
    bool operator==(const VaxSnapshot &) const = default;
};

/** The CISC baseline simulator. */
class VaxMachine
{
  public:
    explicit VaxMachine(const VaxConfig &config = VaxConfig{});

    Memory &memory() { return mem_; }
    const Memory &memory() const { return mem_; }
    const VaxConfig &config() const { return config_; }

    void loadProgram(const Program &program);
    void reset(std::uint32_t entry = 0);

    /** Execute one instruction. @return false once halted. */
    bool step();

    /** Run to HALT; throws FatalError past @p maxSteps. */
    void run(std::uint64_t maxSteps = 200'000'000);

    /**
     * Execute up to @p maxSteps instructions through the predecoded
     * fast path and report how far it got (no runaway throw — callers
     * that need a budget, like the batch engine, check `halted`).
     *
     * step() is this loop without the decode cache: a miss runs the
     * same byte-wise decoder step() does, and a hit replays the stored
     * specifiers through the same specifier routine, so registers,
     * condition codes, memory, every VaxStats/MemoryStats counter,
     * faults and trace events are identical.  The cache keys on
     * Memory's per-line write generations (target/decode_cache.hh),
     * so self-modifying code and snapshot restore invalidate it.
     * Encodings whose effective address reads the PC mid-stream —
     * `(PC)`, `-(PC)`, `disp(PC)` — are never stored and decode live
     * every time.
     */
    RunOutcome runFast(std::uint64_t maxSteps = 200'000'000);

    /**
     * Capture the complete machine state (registers, condition codes,
     * statistics, dirty memory pages).  The snapshot is self-contained
     * and may outlive this machine.
     */
    VaxSnapshot snapshot() const;

    /**
     * Replace this machine's state with @p snap, as if execution had
     * run to the capture point here.  @throws FatalError when the
     * snapshot's memory size does not match this machine's
     * configuration; timing parameters may differ freely.
     */
    void restore(const VaxSnapshot &snap);

    bool halted() const { return halted_; }
    std::uint32_t pc() const { return regs_[vaxPc]; }

    std::uint32_t reg(unsigned r) const;
    void setReg(unsigned r, std::uint32_t value);

    const CondCodes &cc() const { return cc_; }
    const VaxStats &stats() const { return stats_; }

    /** Per-level memory-hierarchy statistics (empty when none fitted). */
    mem::HierarchyStats memHierarchyStats() const
    {
        return hier_ ? hier_->stats() : mem::HierarchyStats{};
    }

    /** Bytes the fast path's decode cache has allocated (0 until the
     *  first runFast()). */
    std::uint64_t decodeBytes() const { return predecode_.bytes(); }

    /**
     * Install (or clear, with nullptr) an execution tracer.  While
     * installed, every executed instruction is recorded into @p trace
     * (obs/trace.hh; pc + mnemonic — the variable-length encoding
     * makes full operand rendering a disassembler job), from step()
     * and runFast() alike.  Non-owning — the Trace must outlive the
     * registration.  One predictable branch per instruction when none
     * is installed.
     */
    void setTrace(obs::Trace *trace) { trace_ = trace; }
    obs::Trace *trace() const { return trace_; }

  private:
    /** A decoded operand reference. */
    struct Ref
    {
        enum class Kind : std::uint8_t { Reg, Mem, Literal, Branch };
        Kind kind = Kind::Literal;
        unsigned reg = 0;
        std::uint32_t addr = 0;
        std::uint32_t value = 0;  ///< literal value / branch target
    };

    std::uint8_t fetchByte();
    std::uint16_t fetchHalf();
    std::uint32_t fetchLong();

    enum class Width : std::uint8_t { Byte, Half, Long };

    std::uint32_t readRef(const Ref &ref, Width width);
    void writeRef(const Ref &ref, std::uint32_t value, Width width);

    void setNZ(std::uint32_t value);
    void execute(const VaxOpInfo &info, Ref *ops);
    void doCalls(std::uint32_t numArgs, std::uint32_t dst);
    void doRet();
    void push(std::uint32_t value);
    std::uint32_t pop();

    /** Longest encodable instruction: opcode + 3 specifiers of up to
     *  5 bytes each (specifier byte + 32-bit extension). */
    static constexpr unsigned maxInstrBytes = 1 + vaxMaxOperands * 5;

    /**
     * One decoded operand specifier.  Everything static about the
     * specifier — its addressing-mode kind, register number, stream
     * constants (displacement / immediate / absolute address / branch
     * target), access step and specifier cycles — is captured at
     * decode time; the register-dependent parts (effective addresses,
     * auto-inc/dec register updates, operand counters) are applied by
     * applySpec(), as each specifier is parsed and again, in stream
     * order, on every decode-cache hit.
     */
    struct PredecodedSpec
    {
        enum class Kind : std::uint8_t
        {
            ShortLiteral, ///< value
            Register,     ///< rn
            Deferred,     ///< (Rn)
            AutoDec,      ///< -(Rn)
            AutoInc,      ///< (Rn)+
            Immediate,    ///< (PC)+ : value from the stream
            Absolute,     ///< @(PC)+ : value is the address
            Disp,         ///< disp(Rn) : value is the displacement
            Branch,       ///< value is the resolved target
        };
        Kind kind = Kind::ShortLiteral;
        std::uint8_t rn = 0;
        std::uint8_t step = 0;        ///< auto-inc/dec stride
        std::uint8_t specCycles = 0;  ///< decode/EA cycles
        std::uint32_t value = 0;
    };

    /** One decoded instruction: what decode() produces and the
     *  decode cache stores at the address it starts at. */
    struct PredecodePayload
    {
        const VaxOpInfo *info = nullptr;
        std::uint8_t len = 0;  ///< encoded length in bytes
        std::array<std::uint8_t, maxInstrBytes> raw{};  ///< for revalidation
        std::array<PredecodedSpec, vaxMaxOperands> specs{};
    };

    /** One index per byte address (variable-length encoding), naming
     *  the record of the instruction that starts there; see
     *  target/decode_cache.hh for the shared machinery. */
    using PredecodeCache = target::DecodeCache<PredecodePayload, 0>;

    /**
     * Decode the instruction at the PC with counted fetches into
     * @p out (all but its raw bytes), counting the instruction and
     * applying each specifier to @p ops as it is parsed, so a fault
     * mid-instruction leaves exactly the partial state it reached.
     * Leaves the PC past the instruction.  @return false when the
     * encoding reads the PC mid-stream and so must not be stored.
     */
    bool decode(PredecodePayload &out, Ref *ops);
    /** Count one instruction about to execute at @p pc (and trace
     *  it); shared by decode() and runFast()'s cache hits. */
    void beginInstruction(const VaxOpInfo &info, std::uint32_t pc);
    /** Apply one decoded specifier's effect, producing @p ref. */
    void applySpec(const PredecodedSpec &spec, Ref &ref);
    /** Record an instruction's trace event (cold: only with a tracer). */
    void traceInstruction(const VaxOpInfo &info, std::uint32_t pc);

    VaxConfig config_;
    Memory mem_;
    std::array<std::uint32_t, vaxNumRegs> regs_{};
    CondCodes cc_;
    VaxStats stats_;
    bool halted_ = false;
    obs::Trace *trace_ = nullptr;

    std::optional<mem::Hierarchy> hier_;

    /** Lazily populated decode cache: per-page record indexes. */
    PredecodeCache predecode_;
};

} // namespace risc1

#endif // RISC1_VAX_VMACHINE_HH
