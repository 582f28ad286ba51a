/**
 * @file
 * The RISC I backend behind the Target interface: wraps core/Machine.
 */

#ifndef RISC1_TARGET_RISC_TARGET_HH
#define RISC1_TARGET_RISC_TARGET_HH

#include "target/target.hh"

namespace risc1::target {

/** MachineSnapshot behind the opaque TargetSnapshot interface. */
class RiscTargetSnapshot final : public TargetSnapshot
{
  public:
    explicit RiscTargetSnapshot(MachineSnapshot snap)
        : snap_(std::move(snap))
    {
    }

    std::string_view backend() const override { return "risc"; }
    const MachineSnapshot &machineSnapshot() const { return snap_; }

  private:
    MachineSnapshot snap_;
};

/** The RISC I simulation target. */
class RiscTarget final : public Target
{
  public:
    explicit RiscTarget(const TargetOptions &options)
        : machine_(options.risc)
    {
    }

    std::string_view name() const override { return "risc"; }
    Program assemble(const std::string &source) const override;
    void loadProgram(const Program &program) override;
    std::uint64_t codeBytes() const override { return codeBytes_; }
    bool step() override { return machine_.step(); }
    RunOutcome run(std::uint64_t maxSteps, bool fast) override;
    bool halted() const override { return machine_.halted(); }
    void setTrace(obs::Trace *trace) override
    {
        machine_.setTrace(trace);
    }
    std::uint32_t checksum() const override { return machine_.reg(1); }
    unsigned numRegs() const override { return 32; }
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
        return machine_.memory().usage();
    }

    /** The wrapped machine, for callers that need ISA specifics. */
    Machine &machine() { return machine_; }

  private:
    Machine machine_;
    std::uint64_t codeBytes_ = 0;
};

} // namespace risc1::target

#endif // RISC1_TARGET_RISC_TARGET_HH
