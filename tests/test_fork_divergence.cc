/**
 * Fork-divergence determinism suite (docs/MEMORY.md, docs/SIM.md).
 *
 * Target::fork() clones a machine by adopting shared copy-on-write
 * page handles instead of copying memory content.  These tests pin
 * the contract that makes that safe: fork one warmed machine into a
 * thousand jobs, poke each fork a different parameter, run it to
 * halt, and require the final state to be bit-identical to a control
 * machine restored from a *deep copy* of the same warm point — on
 * both backends and through both execution tiers.  Any page aliasing
 * bug (a fork observing another fork's writes, a write leaking back
 * into the shared snapshot, a stale decode cache surviving a content
 * change) breaks the checksum or the full-snapshot equality oracle.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "target/machine_target.hh"
#include "target/registry.hh"

namespace risc1 {
namespace {

/** Parameter mailbox each fork gets a divergent value poked into. */
constexpr std::uint32_t kParamAddr = 0x8000;
/** Flag word the programs raise when their warm-up stores are done. */
constexpr std::uint32_t kFlagAddr = 0x7000;
constexpr std::uint32_t kFlagValue = 0xabcd;

// Both programs have the same shape: dirty a spread of pages
// (0x10000 upward), raise the warm flag, then read the parameter at
// kParamAddr and fold it into the ISA's checksum register over a
// short loop — so divergent pokes yield divergent checksums.
constexpr const char *kRiscProgram = R"(
start:  ldi   r5, 0x10000
        ldi   r6, 64
warm:   stl   r6, (r5)
        add   r5, r5, 260
        dec   r6
        cmp   r6, 0
        bne   warm
        nop
        ldi   r5, 0x7000
        ldi   r6, 0xabcd
        stl   r6, (r5)
        ldi   r5, 0x8000
        ldl   r7, (r5)
        clr   r1
        ldi   r6, 100
loop:   add   r1, r1, r7
        add   r7, r7, 3
        dec   r6
        cmp   r6, 0
        bne   loop
        nop
        halt
)";

constexpr const char *kVaxProgram = R"(
start:  movl  #0x10000, r5
        movl  #64, r6
warm:   movl  r6, (r5)
        addl2 #260, r5
        sobgtr r6, warm
        movl  #0xabcd, 0x7000
        movl  0x8000, r7
        clrl  r0
        movl  #100, r6
loop:   addl2 r7, r0
        addl2 #3, r7
        sobgtr r6, loop
        halt
)";

/** Deep-copy an image: fresh Page objects, no sharing with the source. */
MemoryImage
materialize(const MemoryImage &image)
{
    MemoryImage copy;
    copy.entries.reserve(image.entries.size());
    for (const auto &entry : image.entries) {
        MemoryImage::Entry e;
        e.base = entry.base;
        e.length = entry.length;
        e.page = std::make_shared<Page>(*entry.page);
        copy.entries.push_back(std::move(e));
    }
    return copy;
}

/**
 * The control fork point: a snapshot whose pages share nothing with
 * the live machine — the deep-copy semantics forks had before the
 * copy-on-write store.
 */
std::shared_ptr<const target::TargetSnapshot>
deepCopySnapshot(const target::Target &src)
{
    const auto snap = src.snapshot();
    if (const auto *risc =
            dynamic_cast<const target::RiscTargetSnapshot *>(snap.get())) {
        MachineSnapshot s = risc->machineSnapshot();
        s.pages = materialize(s.pages);
        return std::make_shared<target::RiscTargetSnapshot>(std::move(s));
    }
    const auto &vax =
        dynamic_cast<const target::VaxTargetSnapshot &>(*snap);
    VaxSnapshot s = vax.machineSnapshot();
    s.pages = materialize(s.pages);
    return std::make_shared<target::VaxTargetSnapshot>(std::move(s));
}

void
pokeWord(target::Target &t, std::uint32_t addr, std::uint32_t value)
{
    if (auto *risc = dynamic_cast<target::RiscTarget *>(&t)) {
        risc->machine().memory().pokeWord(addr, value);
        return;
    }
    dynamic_cast<target::VaxTarget &>(t).machine().memory().pokeWord(
        addr, value);
}

/** Field-for-field equality over the complete captured state. */
bool
snapshotsEqual(const target::Target &a, const target::Target &b)
{
    const auto sa = a.snapshot();
    const auto sb = b.snapshot();
    if (const auto *ra =
            dynamic_cast<const target::RiscTargetSnapshot *>(sa.get())) {
        const auto &rb =
            dynamic_cast<const target::RiscTargetSnapshot &>(*sb);
        return ra->machineSnapshot() == rb.machineSnapshot();
    }
    const auto &va = dynamic_cast<const target::VaxTargetSnapshot &>(*sa);
    const auto &vb = dynamic_cast<const target::VaxTargetSnapshot &>(*sb);
    return va.machineSnapshot() == vb.machineSnapshot();
}

/** Build a machine and step it to the warm flag (parameter unread). */
std::unique_ptr<target::Target>
warmBase(const std::string &backend)
{
    auto base = target::makeTarget(backend, target::TargetOptions{});
    base->load(backend == "risc" ? kRiscProgram : kVaxProgram);
    int guard = 0;
    while (base->peekWord(kFlagAddr) != kFlagValue) {
        EXPECT_TRUE(base->step());
        if (++guard > 100'000)
            fatal("warm-up did not reach the flag");
    }
    return base;
}

void
runDivergenceSuite(const std::string &backend, bool fast, int forks)
{
    const auto base = warmBase(backend);
    const auto deepBase = deepCopySnapshot(*base);

    // A few forks stay alive across later iterations so page sharing
    // is exercised between many concurrent machines, not just
    // base+fork pairs.
    std::vector<std::unique_ptr<target::Target>> survivors;
    std::set<std::uint32_t> checksums;
    for (int i = 0; i < forks; ++i) {
        const std::uint32_t param = std::uint32_t(i) * 2654435761u;

        auto fork = base->fork();
        pokeWord(*fork, kParamAddr, param);
        ASSERT_TRUE(fork->run(10'000'000, fast).halted);

        auto control = target::makeTarget(backend, target::TargetOptions{});
        control->restore(*deepBase);
        pokeWord(*control, kParamAddr, param);
        ASSERT_TRUE(control->run(10'000'000, fast).halted);

        ASSERT_EQ(fork->checksum(), control->checksum())
            << backend << " fork " << i << " diverged from its deep-copy "
            << "control";
        ASSERT_TRUE(snapshotsEqual(*fork, *control))
            << backend << " fork " << i << " final state differs from its "
            << "deep-copy control";

        checksums.insert(fork->checksum());
        if (i % 37 == 0)
            survivors.push_back(std::move(fork));
    }
    // The pokes really diverged the population.
    EXPECT_GT(checksums.size(), 1u);
    // And the shared base never observed any fork's writes.
    EXPECT_EQ(base->peekWord(kParamAddr), 0u);
    EXPECT_EQ(base->peekWord(kFlagAddr), kFlagValue);
}

TEST(ForkDivergence, RiscReferenceTier)
{
    runDivergenceSuite("risc", /*fast=*/false, 1000);
}

TEST(ForkDivergence, RiscFastTier)
{
    runDivergenceSuite("risc", /*fast=*/true, 1000);
}

TEST(ForkDivergence, VaxReferenceTier)
{
    runDivergenceSuite("vax", /*fast=*/false, 1000);
}

TEST(ForkDivergence, VaxFastTier)
{
    runDivergenceSuite("vax", /*fast=*/true, 1000);
}

TEST(ForkDivergence, ForkSharesPagesCopyOnWrite)
{
    const auto base = warmBase("risc");
    const MemoryUsage before = base->memUsage();
    EXPECT_GT(before.residentBytes, 0u);
    EXPECT_EQ(before.sharedBytes, 0u);

    const auto fork = base->fork();
    // Every dirty page is now aliased by both machines: neither owns
    // a private copy, and the totals match the pre-fork footprint.
    EXPECT_EQ(base->memUsage().residentBytes, 0u);
    EXPECT_EQ(fork->memUsage().residentBytes, 0u);
    EXPECT_EQ(fork->memUsage().sharedBytes, before.residentBytes);

    // First divergent write: the fork pays for exactly the pages it
    // touches (the parameter page was clean, so it materializes new).
    pokeWord(*fork, kParamAddr, 1);
    EXPECT_EQ(fork->memUsage().residentBytes, Memory::pageBytes);
    EXPECT_EQ(base->peekWord(kParamAddr), 0u);
}

} // namespace
} // namespace risc1
