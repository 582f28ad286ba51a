#include "target/machine_target.hh"

#include "asm/assembler.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "vax/vassembler.hh"

namespace risc1::target {

void
RiscTargetStats::writeJson(JsonWriter &w) const
{
    w.key("stats");
    run.writeJson(w);
    w.key("mem");
    caches.writeJson(w);
}

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

const RiscTargetStats &
riscStats(const TargetStats &stats)
{
    const auto *risc = dynamic_cast<const RiscTargetStats *>(&stats);
    if (!risc)
        fatal("result does not carry RISC I statistics");
    return *risc;
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
RiscIsa::assemble(const std::string &source, std::uint64_t memBytes)
{
    return assembleRisc(source, memBytes);
}

Program
VaxIsa::assemble(const std::string &source, std::uint64_t memBytes)
{
    return assembleVax(source, memBytes);
}

template <class Isa>
void
MachineTarget<Isa>::loadProgram(const Program &program)
{
    codeBytes_ = program.codeBytes();
    machine_.loadProgram(program);
}

template <class Isa>
RunOutcome
MachineTarget<Isa>::run(std::uint64_t maxSteps, bool fast)
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

template <class Isa>
std::shared_ptr<const TargetStats>
MachineTarget<Isa>::stats() const
{
    auto stats = std::make_shared<typename Isa::Stats>();
    (*stats).*Isa::counters = machine_.stats();
    stats->caches = machine_.memHierarchyStats();
    return stats;
}

template <class Isa>
std::uint32_t
MachineTarget<Isa>::readReg(unsigned r) const
{
    if (r >= numRegs())
        fatal(cat("readReg: r", r, " out of range (", Isa::name, " has ",
                  numRegs(), " visible registers)"));
    return machine_.reg(r);
}

template <class Isa>
std::shared_ptr<const TargetSnapshot>
MachineTarget<Isa>::snapshot() const
{
    return std::make_shared<MachineTargetSnapshot<Isa>>(
        machine_.snapshot());
}

template <class Isa>
void
MachineTarget<Isa>::restore(const TargetSnapshot &snap)
{
    const auto *own = dynamic_cast<const MachineTargetSnapshot<Isa> *>(&snap);
    if (!own)
        fatal(cat("cannot restore a '", snap.backend(),
                  "' snapshot into the '", Isa::name, "' backend"));
    machine_.restore(own->machineSnapshot());
}

template <class Isa>
std::unique_ptr<Target>
MachineTarget<Isa>::fork() const
{
    // snapshot() + restore() move page handles, not page content, so
    // the clone costs O(pages touched) regardless of memory size.
    TargetOptions options;
    options.*Isa::options = machine_.config();
    auto clone = std::make_unique<MachineTarget>(options);
    clone->machine_.restore(machine_.snapshot());
    clone->codeBytes_ = codeBytes_;
    return clone;
}

template class MachineTarget<RiscIsa>;
template class MachineTarget<VaxIsa>;

} // namespace risc1::target
