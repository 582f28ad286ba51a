/**
 * @file
 * Both simulated machines behind the Target interface: one adapter
 * template over a per-ISA traits struct.  The traits name all that
 * differs between the backends — the machine, snapshot and statistics
 * types, the backend name, the checksum register, the visible
 * register count, the TargetOptions slice, the assembler and the
 * statistics field — and everything else is written once.
 */

#ifndef RISC1_TARGET_MACHINE_TARGET_HH
#define RISC1_TARGET_MACHINE_TARGET_HH

#include "target/target.hh"

namespace risc1::target {

/** RISC I: core/Machine, checksum in r1. */
struct RiscIsa
{
    using Machine = risc1::Machine;
    using Snapshot = MachineSnapshot;
    using Stats = RiscTargetStats;
    static constexpr std::string_view name = "risc";
    static constexpr unsigned checksumReg = 1;
    static constexpr unsigned numRegs = 32;
    static constexpr auto options = &TargetOptions::risc;
    static constexpr auto counters = &RiscTargetStats::run;
    static Program assemble(const std::string &source,
                            std::uint64_t memBytes);
};

/** The CISC baseline: vax/VaxMachine, checksum in r0. */
struct VaxIsa
{
    using Machine = VaxMachine;
    using Snapshot = VaxSnapshot;
    using Stats = VaxTargetStats;
    static constexpr std::string_view name = "vax";
    static constexpr unsigned checksumReg = 0;
    static constexpr unsigned numRegs = vaxNumRegs;
    static constexpr auto options = &TargetOptions::vax;
    static constexpr auto counters = &VaxTargetStats::vax;
    static Program assemble(const std::string &source,
                            std::uint64_t memBytes);
};

/** An ISA's machine snapshot behind the opaque TargetSnapshot interface. */
template <class Isa>
class MachineTargetSnapshot final : public TargetSnapshot
{
  public:
    explicit MachineTargetSnapshot(typename Isa::Snapshot snap)
        : snap_(std::move(snap))
    {
    }

    std::string_view backend() const override { return Isa::name; }
    const typename Isa::Snapshot &machineSnapshot() const { return snap_; }

  private:
    typename Isa::Snapshot snap_;
};

/** One simulation target over an ISA's machine. */
template <class Isa>
class MachineTarget final : public Target
{
  public:
    explicit MachineTarget(const TargetOptions &options)
        : machine_(options.*Isa::options)
    {
    }

    std::string_view name() const override { return Isa::name; }
    Program assemble(const std::string &source) const override
    {
        return Isa::assemble(source, machine_.config().memorySize);
    }
    void loadProgram(const Program &program) override;
    std::uint64_t codeBytes() const override { return codeBytes_; }
    bool step() override { return machine_.step(); }
    RunOutcome run(std::uint64_t maxSteps, bool fast) override;
    bool halted() const override { return machine_.halted(); }
    void setTrace(obs::Trace *trace) override
    {
        machine_.setTrace(trace);
    }
    std::uint32_t checksum() const override
    {
        return machine_.reg(Isa::checksumReg);
    }
    unsigned numRegs() const override { return Isa::numRegs; }
    std::uint32_t readReg(unsigned r) const override;
    std::uint32_t pc() const override { return machine_.pc(); }
    std::uint32_t peekWord(std::uint32_t addr) const override
    {
        return machine_.memory().peekWord(addr);
    }
    std::shared_ptr<const TargetStats> stats() const override;
    MemoryStats memStats() const override
    {
        return machine_.memory().stats();
    }
    std::shared_ptr<const TargetSnapshot> snapshot() const override;
    void restore(const TargetSnapshot &snap) override;
    std::unique_ptr<Target> fork() const override;
    MemoryUsage memUsage() const override
    {
        MemoryUsage usage = machine_.memory().usage();
        usage.decodeBytes = machine_.decodeBytes();
        return usage;
    }

    /** The wrapped machine, for callers that need ISA specifics. */
    typename Isa::Machine &machine() { return machine_; }

  private:
    typename Isa::Machine machine_;
    std::uint64_t codeBytes_ = 0;
};

// Instantiated once each, in machine_target.cc.
extern template class MachineTarget<RiscIsa>;
extern template class MachineTarget<VaxIsa>;

using RiscTarget = MachineTarget<RiscIsa>;
using VaxTarget = MachineTarget<VaxIsa>;
using RiscTargetSnapshot = MachineTargetSnapshot<RiscIsa>;
using VaxTargetSnapshot = MachineTargetSnapshot<VaxIsa>;

} // namespace risc1::target

#endif // RISC1_TARGET_MACHINE_TARGET_HH
