#include "target/risc_target.hh"

#include "asm/assembler.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace risc1::target {

void
RiscTargetStats::writeJson(JsonWriter &w) const
{
    w.key("stats");
    run.writeJson(w);
    w.key("mem");
    caches.writeJson(w);
}

const RiscTargetStats &
riscStats(const TargetStats &stats)
{
    const auto *risc = dynamic_cast<const RiscTargetStats *>(&stats);
    if (!risc)
        fatal("result does not carry RISC I statistics");
    return *risc;
}

Program
RiscTarget::assemble(const std::string &source) const
{
    return assembleRisc(source);
}

void
RiscTarget::loadProgram(const Program &program)
{
    codeBytes_ = program.codeBytes();
    machine_.loadProgram(program);
}

RunOutcome
RiscTarget::run(std::uint64_t maxSteps, bool fast)
{
    if (fast)
        return machine_.runFast(maxSteps);
    RunOutcome outcome;
    while (!machine_.halted() && outcome.steps < maxSteps) {
        machine_.step();
        ++outcome.steps;
    }
    outcome.halted = machine_.halted();
    return outcome;
}

std::shared_ptr<const TargetStats>
RiscTarget::stats() const
{
    auto stats = std::make_shared<RiscTargetStats>();
    stats->run = machine_.stats();
    stats->caches = machine_.memHierarchyStats();
    return stats;
}

std::uint32_t
RiscTarget::readReg(unsigned r) const
{
    if (r >= numRegs())
        fatal(cat("readReg: r", r, " out of range (risc has ", numRegs(),
                  " visible registers)"));
    return machine_.reg(r);
}

std::shared_ptr<const TargetSnapshot>
RiscTarget::snapshot() const
{
    return std::make_shared<RiscTargetSnapshot>(machine_.snapshot());
}

void
RiscTarget::restore(const TargetSnapshot &snap)
{
    const auto *risc = dynamic_cast<const RiscTargetSnapshot *>(&snap);
    if (!risc)
        fatal(cat("cannot restore a '", snap.backend(),
                  "' snapshot into the 'risc' backend"));
    machine_.restore(risc->machineSnapshot());
}

std::unique_ptr<Target>
RiscTarget::fork() const
{
    // snapshot() + restore() move page handles, not page content, so
    // the clone costs O(pages touched) regardless of memory size.
    TargetOptions options;
    options.risc = machine_.config();
    auto clone = std::make_unique<RiscTarget>(options);
    clone->machine_.restore(machine_.snapshot());
    clone->codeBytes_ = codeBytes_;
    return clone;
}

} // namespace risc1::target
