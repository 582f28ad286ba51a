#include "core/regfile.hh"

#include "common/logging.hh"

namespace risc1 {

RegGroup
regGroup(unsigned reg)
{
    if (reg < 10)
        return RegGroup::Global;
    if (reg < 16)
        return RegGroup::Low;
    if (reg < 26)
        return RegGroup::Local;
    if (reg < 32)
        return RegGroup::High;
    panic(cat("visible register out of range: ", reg));
}

RegFile::RegFile(const WindowConfig &config)
    : config_(config)
{
    if (config_.numGlobals + config_.numLocals + 2 * config_.overlap != 32)
        fatal("window config must expose exactly 32 visible registers");
    if (config_.numWindows < 2)
        fatal("window config needs at least 2 windows");
    phys_.assign(config_.physRegs(), 0);
    setCwp(0);
}

void
RegFile::badRegister(unsigned reg)
{
    panic(cat("visible register out of range: ", reg));
}

void
RegFile::badFrameReg(const char *what, unsigned window, unsigned index)
{
    panic(cat(what, "(", window, ", ", index, ") out of range"));
}

void
RegFile::reset()
{
    phys_.assign(config_.physRegs(), 0);
    setCwp(0);
}

void
RegFile::restore(const std::vector<std::uint32_t> &phys, unsigned cwp)
{
    if (phys.size() != phys_.size())
        fatal(cat("regfile restore: snapshot has ", phys.size(),
                  " physical registers, this file has ", phys_.size()));
    if (cwp >= config_.numWindows)
        fatal(cat("regfile restore: CWP ", cwp, " out of range for ",
                  config_.numWindows, " windows"));
    if (phys[0] != 0)
        fatal(cat("regfile restore: r0 holds 0x", std::hex, phys[0],
                  ", not 0"));
    phys_ = phys;
    setCwp(cwp);
}

} // namespace risc1
