/**
 * @file
 * The ISA-agnostic simulation target: one polymorphic interface both
 * simulated machines implement, so the batch engine, the experiment
 * runner, and every future engine feature (tracing, sharding, new
 * backends) are written once against `Target` instead of branching per
 * machine.
 *
 * A Target owns one machine instance and exposes the engine-facing
 * lifecycle — assemble and load a source program, step/run,
 * snapshot/restore for warm-start forking, and a unified stats view
 * with per-ISA extensions.  Backends are constructed by name through
 * the registry (registry.hh); adding a backend means adding a Target
 * implementation under src/target/ plus one registry entry — nothing
 * in src/sim/ changes.
 */

#ifndef RISC1_TARGET_TARGET_HH
#define RISC1_TARGET_TARGET_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/program.hh"
#include "core/machine.hh"
#include "core/outcome.hh"
#include "mem/hierarchy.hh"
#include "memory/memory.hh"
#include "vax/vmachine.hh"

namespace risc1 {
class JsonWriter;
} // namespace risc1

namespace risc1::obs {
class Trace;
} // namespace risc1::obs

namespace risc1::target {

/**
 * Construction parameters for any backend.  Each Target reads only
 * its own slice; carrying both keeps job descriptions (SimJob, job
 * files) backend-agnostic.
 */
struct TargetOptions
{
    MachineConfig risc{};
    VaxConfig vax{};
};

/**
 * Unified run-statistics view.  The shared accessors cover the
 * counters every ISA has (the comparative tables' common axis); the
 * concrete subclasses carry the full per-ISA counter sets and render
 * their own artifact JSON blocks.
 */
class TargetStats
{
  public:
    virtual ~TargetStats() = default;

    virtual std::uint64_t cycles() const = 0;
    virtual std::uint64_t instructions() const = 0;
    virtual std::uint64_t calls() const = 0;
    virtual std::uint64_t returns() const = 0;

    /**
     * Per-level memory-hierarchy statistics (mem/hierarchy.hh) —
     * identical on every backend, so cache experiments and the engine
     * metrics read them without downcasting.  Empty when the job ran
     * without a hierarchy.
     */
    virtual const mem::HierarchyStats &memHierarchy() const = 0;

    /**
     * Write this backend's statistics blocks — `"stats"`, the shared
     * `"mem"` hierarchy block, plus any per-ISA extensions — as keyed
     * fields into the enclosing result object of @p w (see
     * docs/SIM.md and docs/MEMORY.md for the artifact schema).
     */
    virtual void writeJson(JsonWriter &w) const = 0;
};

/** The RISC I backend's full statistics (downcast via risc1::target::riscStats). */
struct RiscTargetStats final : TargetStats
{
    RunStats run;
    mem::HierarchyStats caches;

    std::uint64_t cycles() const override { return run.cycles; }
    std::uint64_t instructions() const override { return run.instructions; }
    std::uint64_t calls() const override { return run.calls; }
    std::uint64_t returns() const override { return run.returns; }
    const mem::HierarchyStats &memHierarchy() const override
    {
        return caches;
    }
    void writeJson(JsonWriter &w) const override;
};

/** The CISC baseline's full statistics (downcast via risc1::target::vaxStats). */
struct VaxTargetStats final : TargetStats
{
    VaxStats vax;
    mem::HierarchyStats caches;

    std::uint64_t cycles() const override { return vax.cycles; }
    std::uint64_t instructions() const override { return vax.instructions; }
    std::uint64_t calls() const override { return vax.calls; }
    std::uint64_t returns() const override { return vax.returns; }
    const mem::HierarchyStats &memHierarchy() const override
    {
        return caches;
    }
    void writeJson(JsonWriter &w) const override;
};

/** Checked downcast to the RISC I counters; fatal on a non-RISC result. */
const RiscTargetStats &riscStats(const TargetStats &stats);

/** Checked downcast to the baseline counters; fatal on a non-VAX result. */
const VaxTargetStats &vaxStats(const TargetStats &stats);

/**
 * An opaque captured machine state.  Snapshots are produced by
 * Target::snapshot() and consumed by Target::restore() of the same
 * backend (restore checks and fails fast on a backend mismatch), and
 * are self-contained: they may outlive the Target that captured them
 * and be restored into many Targets concurrently.
 */
class TargetSnapshot
{
  public:
    virtual ~TargetSnapshot() = default;

    /** Canonical name of the backend that captured this snapshot. */
    virtual std::string_view backend() const = 0;
};

/**
 * One simulation target: a machine instance behind the ISA-agnostic
 * lifecycle interface.  Construct through makeTarget() (registry.hh).
 */
class Target
{
  public:
    virtual ~Target() = default;

    /** Canonical backend name ("risc", "vax"). */
    virtual std::string_view name() const = 0;

    /**
     * Assemble @p source with this ISA's assembler.  Touches no
     * machine state, so one image can be loaded into many targets of
     * the same backend.  @throws FatalError on an assembly error.
     */
    virtual Program assemble(const std::string &source) const = 0;

    /** Load an image this backend's assemble() produced, and reset
     *  the machine to its entry point. */
    virtual void loadProgram(const Program &program) = 0;

    /** Assemble @p source for this ISA and load it. */
    void load(const std::string &source) { loadProgram(assemble(source)); }

    /** Static code bytes of the most recently loaded program. */
    virtual std::uint64_t codeBytes() const = 0;

    /** Execute one instruction. @return false once halted. */
    virtual bool step() = 0;

    /**
     * Run until halt or @p maxSteps instructions, through the
     * backend's predecoded fast path when @p fast is set and through
     * the per-step reference interpreter otherwise (the two are
     * bit-for-bit equivalent; the slow path exists as a cross-check).
     * Never throws on exhausting the budget — callers inspect
     * RunOutcome::halted.
     */
    virtual RunOutcome run(std::uint64_t maxSteps, bool fast) = 0;

    virtual bool halted() const = 0;

    /**
     * Install (or clear, with nullptr) an execution tracer
     * (obs/trace.hh): every executed instruction — plus backend
     * events like window traps — is recorded into @p trace, and
     * run(fast=true) falls back to the reference interpreter so the
     * trace observes every instruction.  Non-owning; the Trace must
     * outlive the registration.  Zero overhead when none is installed.
     */
    virtual void setTrace(obs::Trace *trace) = 0;

    /** The workload checksum convention for this ISA (RISC I: r1,
     *  baseline: r0). */
    virtual std::uint32_t checksum() const = 0;

    /**
     * Visible (window-relative) register count — the debug view the
     * riscserved `regs` command exposes (RISC I: 32, baseline: 16).
     */
    virtual unsigned numRegs() const = 0;

    /** Read visible register @p r.  @throws FatalError out of range. */
    virtual std::uint32_t readReg(unsigned r) const = 0;

    /** Current program counter (debug view). */
    virtual std::uint32_t pc() const = 0;

    /**
     * Uncounted debug read of the aligned word at @p addr (the
     * riscserved `peek` command) — never disturbs statistics or
     * caches.  @throws FatalError on a misaligned or out-of-range
     * address.
     */
    virtual std::uint32_t peekWord(std::uint32_t addr) const = 0;

    /** Current run statistics (a copy; safe past the Target). */
    virtual std::shared_ptr<const TargetStats> stats() const = 0;

    /** Current memory-system counters. */
    virtual MemoryStats memStats() const = 0;

    /** Capture the complete machine state. */
    virtual std::shared_ptr<const TargetSnapshot> snapshot() const = 0;

    /**
     * Replace this machine's state with @p snap.  @throws FatalError
     * when the snapshot's backend or geometry does not match.
     */
    virtual void restore(const TargetSnapshot &snap) = 0;

    /**
     * Clone this machine into an independent runnable Target of the
     * same backend and configuration.  Memory pages are shared
     * copy-on-write with this machine (memory/memory.hh), so the cost
     * is O(pages touched) handle adoption rather than a content copy;
     * the two machines then diverge page by page as either writes.
     * Decode caches are rebuilt lazily in the clone, which does not
     * change any counted statistic (they model no architectural or
     * timing state).
     */
    virtual std::unique_ptr<Target> fork() const = 0;

    /**
     * Owned/shared page accounting for this machine's memory
     * (Memory::usage()): residentBytes is the copy-on-write delta
     * only this machine holds; sharedBytes the non-zero pages it
     * aliases with snapshots and forks.
     */
    virtual MemoryUsage memUsage() const = 0;
};

} // namespace risc1::target

#endif // RISC1_TARGET_TARGET_HH
