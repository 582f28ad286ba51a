/** Tests for the Machine snapshot/checkpoint API. */

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "helpers.hh"
#include "workloads/workloads.hh"

namespace risc1 {
namespace {

std::string
statsJson(const RunStats &stats)
{
    JsonWriter w;
    stats.writeJson(w);
    return w.str();
}

std::string
memJson(const MemoryStats &stats)
{
    JsonWriter w;
    stats.writeJson(w);
    return w.str();
}

/** Run @p m to completion, returning the executed step count. */
std::uint64_t
finish(Machine &m)
{
    std::uint64_t steps = 0;
    while (m.step())
        ++steps;
    return steps;
}

/**
 * The core round-trip property: snapshot mid-run, restore into a
 * fresh machine, and the restored run must finish with exactly the
 * final state of both the interrupted machine and an uninterrupted
 * reference run.
 */
void
checkRoundTripAt(const std::string &source, const MachineConfig &config,
                 std::uint64_t snapshotAfter)
{
    // Uninterrupted reference.
    Machine ref(config);
    test::loadAsm(ref, source);
    finish(ref);

    // Interrupted run: stop, snapshot, continue.
    Machine a(config);
    test::loadAsm(a, source);
    for (std::uint64_t i = 0; i < snapshotAfter && !a.halted(); ++i)
        a.step();
    ASSERT_FALSE(a.halted()) << "snapshot point is past the program end";
    const MachineSnapshot snap = a.snapshot();
    finish(a);

    // Restored run in a brand-new machine.
    Machine b(config);
    b.restore(snap);
    EXPECT_EQ(b.pc(), snap.pc);
    finish(b);

    for (const Machine *m : {&a, &b}) {
        EXPECT_EQ(statsJson(m->stats()), statsJson(ref.stats()));
        EXPECT_EQ(memJson(m->memory().stats()),
                  memJson(ref.memory().stats()));
        EXPECT_EQ(m->reg(1), ref.reg(1));
        EXPECT_EQ(m->psw().pack(), ref.psw().pack());
        EXPECT_EQ(m->residentFrames(), ref.residentFrames());
        EXPECT_EQ(m->savedFrames(), ref.savedFrames());
    }
}

TEST(Snapshot, RoundTripSimpleLoop)
{
    checkRoundTripAt(R"(
start:  clr   r1
        ldi   r2, 100
loop:   add   r1, r1, r2
        dec   r2
        cmp   r2, 0
        bne   loop
        nop
        halt
)",
                     MachineConfig{}, 50);
}

TEST(Snapshot, RoundTripWithSpilledFrames)
{
    // Deep recursion on a 3-window file: at any mid-run point there
    // are frames on the register-save stack, so the snapshot must
    // carry both the spill memory and the window bookkeeping.
    const Workload &w = findWorkload("fib_rec");
    MachineConfig config;
    config.windows.numWindows = 3;

    // Verify the precondition: the chosen snapshot point really has
    // spilled frames.
    Machine probe(config);
    test::loadAsm(probe, w.riscSource);
    for (int i = 0; i < 500; ++i)
        probe.step();
    ASSERT_GT(probe.savedFrames(), 0u);

    checkRoundTripAt(w.riscSource, config, 500);
}

TEST(Snapshot, RoundTripNoWindowAblation)
{
    const Workload &w = findWorkload("hanoi");
    MachineConfig config;
    config.windowedCalls = false;
    checkRoundTripAt(w.riscSource, config, 1000);
}

TEST(Snapshot, RoundTripWithCaches)
{
    const Workload &w = findWorkload("sieve");
    MachineConfig config;
    config.caches.l1i = mem::LevelConfig{256, 16, 4};
    config.caches.l1d = mem::LevelConfig{512, 16, 4};
    checkRoundTripAt(w.riscSource, config, 2000);

    // Cache hit/miss totals must survive the round trip too.
    Machine a(config);
    test::loadAsm(a, w.riscSource);
    for (int i = 0; i < 2000; ++i)
        a.step();
    const MachineSnapshot snap = a.snapshot();
    finish(a);

    Machine b(config);
    b.restore(snap);
    finish(b);
    const mem::HierarchyStats sa = a.memHierarchyStats();
    const mem::HierarchyStats sb = b.memHierarchyStats();
    EXPECT_EQ(sa.l1i->hits, sb.l1i->hits);
    EXPECT_EQ(sa.l1i->misses, sb.l1i->misses);
    EXPECT_EQ(sa.l1d->hits, sb.l1d->hits);
    EXPECT_EQ(sa.l1d->misses, sb.l1d->misses);
}

TEST(Snapshot, PendingInterruptSurvivesRestore)
{
    const char *const source = R"(
        .org  0x1000
start:  clr   r1
        clr   r2
loop:   inc   r1
        cmp   r1, 50
        bne   loop
        nop
        halt

        .org  0x2000
vector: inc   r2
        reti  r31, 0
        nop
)";
    Machine a;
    test::loadAsm(a, source);
    for (int i = 0; i < 20; ++i)
        a.step();
    a.raiseInterrupt(0x2000);
    // Snapshot BEFORE the interrupt is accepted: the pending flag and
    // vector must travel with the snapshot.
    const MachineSnapshot snap = a.snapshot();
    ASSERT_TRUE(snap.interruptPending);
    finish(a);

    Machine b;
    b.restore(snap);
    finish(b);

    EXPECT_EQ(b.interruptsTaken(), 1u);
    EXPECT_EQ(b.reg(1), 50u);
    EXPECT_EQ(b.reg(2), 1u);  // the handler ran exactly once
    EXPECT_EQ(statsJson(b.stats()), statsJson(a.stats()));
    EXPECT_EQ(b.interruptsTaken(), a.interruptsTaken());
}

TEST(Snapshot, DirtyMemoryIsCaptured)
{
    Machine a;
    test::loadAsm(a, R"(
start:  ldi   r2, 0x4000
        ldi   r1, 1234
        stl   r1, 0(r2)
        stl   r1, 4(r2)
        halt
)");
    finish(a);
    const MachineSnapshot snap = a.snapshot();

    Machine b;
    b.restore(snap);
    EXPECT_EQ(b.memory().peekWord(0x4000), 1234u);
    EXPECT_EQ(b.memory().peekWord(0x4004), 1234u);
    EXPECT_TRUE(b.halted());
}

TEST(Snapshot, RestoreRejectsMismatchedGeometry)
{
    Machine eightWindows; // default: 8 windows
    const MachineSnapshot snap = eightWindows.snapshot();

    MachineConfig goldCfg;
    goldCfg.windows = WindowConfig::gold();
    Machine gold(goldCfg);
    EXPECT_THROW(gold.restore(snap), FatalError);

    MachineConfig smallMem;
    smallMem.memorySize = 1u << 20;
    smallMem.saveAreaTop = 0x000f0000;
    smallMem.softAreaTop = 0x000e0000;
    Machine small(smallMem);
    EXPECT_THROW(small.restore(snap), FatalError);

    MachineConfig noWin;
    noWin.windowedCalls = false;
    Machine ablated(noWin);
    EXPECT_THROW(ablated.restore(snap), FatalError);
}

TEST(Snapshot, MismatchedCacheRestartsCold)
{
    MachineConfig cached;
    cached.caches.l1i = mem::LevelConfig{256, 16, 4};
    Machine a(cached);
    test::loadAsm(a, R"(
start:  clr   r1
        ldi   r2, 20
loop:   add   r1, r1, r2
        dec   r2
        cmp   r2, 0
        bne   loop
        nop
        halt
)");
    for (int i = 0; i < 30; ++i)
        a.step();
    const MachineSnapshot snap = a.snapshot();
    ASSERT_GT(a.memHierarchyStats().l1i->accesses(), 0u);

    // Same run forked onto a machine with a *different* i-cache: the
    // architectural state transfers, the cache starts cold.
    MachineConfig other;
    other.caches.l1i = mem::LevelConfig{1024, 32, 8};
    Machine b(other);
    b.restore(snap);
    EXPECT_EQ(b.memHierarchyStats().l1i->accesses(), 0u);
    EXPECT_EQ(b.pc(), a.pc());
    finish(a);
    finish(b);
    EXPECT_EQ(b.reg(1), a.reg(1));
}

} // namespace
} // namespace risc1
