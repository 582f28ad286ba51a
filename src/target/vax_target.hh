/**
 * @file
 * The CISC baseline backend behind the Target interface: wraps
 * vax/VaxMachine.
 */

#ifndef RISC1_TARGET_VAX_TARGET_HH
#define RISC1_TARGET_VAX_TARGET_HH

#include "target/target.hh"

namespace risc1::target {

/** VaxSnapshot behind the opaque TargetSnapshot interface. */
class VaxTargetSnapshot final : public TargetSnapshot
{
  public:
    explicit VaxTargetSnapshot(VaxSnapshot snap) : snap_(std::move(snap))
    {
    }

    std::string_view backend() const override { return "vax"; }
    const VaxSnapshot &machineSnapshot() const { return snap_; }

  private:
    VaxSnapshot snap_;
};

/** The CISC baseline simulation target. */
class VaxTarget final : public Target
{
  public:
    explicit VaxTarget(const TargetOptions &options)
        : machine_(options.vax)
    {
    }

    std::string_view name() const override { return "vax"; }
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
    std::uint32_t checksum() const override { return machine_.reg(0); }
    unsigned numRegs() const override { return vaxNumRegs; }
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
    VaxMachine &machine() { return machine_; }

  private:
    VaxMachine machine_;
    std::uint64_t codeBytes_ = 0;
};

} // namespace risc1::target

#endif // RISC1_TARGET_VAX_TARGET_HH
