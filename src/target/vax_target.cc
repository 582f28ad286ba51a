#include "target/vax_target.hh"

#include "common/json.hh"
#include "common/logging.hh"
#include "vax/vassembler.hh"

namespace risc1::target {

void
VaxTargetStats::writeJson(JsonWriter &w) const
{
    w.key("stats");
    vax.writeJson(w);
    // Same "mem" schema as the RISC backend — the artifact's
    // memory-stats block is backend-agnostic (docs/MEMORY.md).
    w.key("mem");
    caches.writeJson(w);
}

const VaxTargetStats &
vaxStats(const TargetStats &stats)
{
    const auto *v = dynamic_cast<const VaxTargetStats *>(&stats);
    if (!v)
        fatal("result does not carry baseline (VAX) statistics");
    return *v;
}

Program
VaxTarget::assemble(const std::string &source) const
{
    return assembleVax(source);
}

void
VaxTarget::loadProgram(const Program &program)
{
    codeBytes_ = program.codeBytes();
    machine_.loadProgram(program);
}

RunOutcome
VaxTarget::run(std::uint64_t maxSteps, bool fast)
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
VaxTarget::stats() const
{
    auto stats = std::make_shared<VaxTargetStats>();
    stats->vax = machine_.stats();
    stats->caches = machine_.memHierarchyStats();
    return stats;
}

std::uint32_t
VaxTarget::readReg(unsigned r) const
{
    if (r >= numRegs())
        fatal(cat("readReg: r", r, " out of range (vax has ", numRegs(),
                  " visible registers)"));
    return machine_.reg(r);
}

std::shared_ptr<const TargetSnapshot>
VaxTarget::snapshot() const
{
    return std::make_shared<VaxTargetSnapshot>(machine_.snapshot());
}

void
VaxTarget::restore(const TargetSnapshot &snap)
{
    const auto *v = dynamic_cast<const VaxTargetSnapshot *>(&snap);
    if (!v)
        fatal(cat("cannot restore a '", snap.backend(),
                  "' snapshot into the 'vax' backend"));
    machine_.restore(v->machineSnapshot());
}

std::unique_ptr<Target>
VaxTarget::fork() const
{
    // snapshot() + restore() move page handles, not page content, so
    // the clone costs O(pages touched) regardless of memory size.
    TargetOptions options;
    options.vax = machine_.config();
    auto clone = std::make_unique<VaxTarget>(options);
    clone->machine_.restore(machine_.snapshot());
    clone->codeBytes_ = codeBytes_;
    return clone;
}

} // namespace risc1::target
