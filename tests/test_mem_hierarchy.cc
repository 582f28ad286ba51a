/**
 * @file
 * Tests for the composable memory-hierarchy subsystem (src/mem/):
 * multi-level access semantics, snapshot/restore round-trips with the
 * warm-or-cold rule, warm-vs-cold epilogue forking determinism, and
 * fast-path lockstep with an L1+L2 hierarchy fitted on both backends.
 * The single-level timing semantics are covered by tests/test_cache.cc;
 * everything here is about composition.  See docs/MEMORY.md.
 */

#include <gtest/gtest.h>

#include <string>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "core/machine.hh"
#include "mem/config.hh"
#include "mem/hierarchy.hh"
#include "vax/vassembler.hh"
#include "vax/vmachine.hh"
#include "workloads/workloads.hh"

namespace risc1 {
namespace {

mem::HierarchyConfig
smallTwoLevel()
{
    mem::HierarchyConfig h;
    h.l1i = mem::LevelConfig{128, 16, 4};
    h.l1d = mem::LevelConfig{128, 16, 4};
    h.l2 = mem::LevelConfig{512, 32, 12, mem::WritePolicy::WriteBack};
    return h;
}

// -- Hierarchy access semantics ---------------------------------------

TEST(MemHierarchy, MissFallsThroughToL2)
{
    mem::Hierarchy h(smallTwoLevel());
    // Cold: miss in L1I and L2 — both penalties charged.
    EXPECT_EQ(h.fetch(0x1000), 4u + 12u);
    // Warm in both: free.
    EXPECT_EQ(h.fetch(0x1000), 0u);
    // Conflicting L1 line (128 B apart) but same L2 line set, larger
    // cache: L1 misses, L2 can still hit only if the line was filled —
    // 0x1080 maps to a new L2 line, so both miss again.
    EXPECT_EQ(h.fetch(0x1080), 4u + 12u);
    // 0x1000 was evicted from L1 by 0x1080 but survives in L2.
    EXPECT_EQ(h.fetch(0x1000), 4u);

    const mem::HierarchyStats s = h.stats();
    ASSERT_TRUE(s.l1i && s.l2);
    EXPECT_EQ(s.l1i->misses, 3u);
    EXPECT_EQ(s.l1i->hits, 1u);
    EXPECT_EQ(s.l2->misses, 2u);
    EXPECT_EQ(s.l2->hits, 1u);
    EXPECT_EQ(s.penaltyCycles(), 4u + 12u + 4u + 12u + 4u);
}

TEST(MemHierarchy, AbsentL1GoesStraightToL2)
{
    mem::HierarchyConfig cfg;
    cfg.l2 = mem::LevelConfig{256, 16, 8};
    mem::Hierarchy h(cfg);
    EXPECT_EQ(h.data(0x2000, true), 8u);
    EXPECT_EQ(h.data(0x2000, false), 0u);
    EXPECT_FALSE(h.stats().l1d.has_value());
    ASSERT_TRUE(h.stats().l2.has_value());
    EXPECT_EQ(h.stats().l2->accesses(), 2u);
}

TEST(MemHierarchy, DirtyEvictionOnlyInL2Here)
{
    mem::Hierarchy h(smallTwoLevel());
    // Write-miss travels L1D (write-through: stays clean) into the
    // write-back L2 (allocates dirty).
    h.data(0x0, true);
    // 512 B apart: same L2 index, different tag — evicting the dirty
    // line charges the L2 penalty twice.
    EXPECT_EQ(h.data(0x200, false), 4u + 12u + 12u);
    const mem::HierarchyStats s = h.stats();
    EXPECT_EQ(s.l1d->writebacks, 0u);
    EXPECT_EQ(s.l2->writebacks, 1u);
}

// -- Snapshot / restore -----------------------------------------------

TEST(MemHierarchy, SnapshotRestoreRoundTrip)
{
    mem::Hierarchy a(smallTwoLevel());
    a.fetch(0x1000);
    a.data(0x2000, true);
    a.data(0x2200, false);
    const mem::HierarchySnapshot snap = a.snapshot();

    // A fresh hierarchy restored from the snapshot resumes warm: the
    // same access sequence from here on costs the same cycles and
    // lands on identical stats and identical re-snapshots.
    mem::Hierarchy b(smallTwoLevel());
    b.restore(snap);
    EXPECT_EQ(b.stats(), a.stats());
    for (std::uint32_t addr = 0; addr < 0x400; addr += 4) {
        EXPECT_EQ(a.fetch(addr), b.fetch(addr));
        EXPECT_EQ(a.data(addr, addr % 8 == 0), b.data(addr, addr % 8 == 0));
    }
    EXPECT_EQ(a.stats(), b.stats());
    EXPECT_TRUE(a.snapshot() == b.snapshot());
}

TEST(MemHierarchy, RestoreRejectsVectorsNotOnePerLine)
{
    // The hit path indexes tags/valid/dirty by line with no bounds
    // check, so a matching level whose snapshot is short by even one
    // entry in any of them must be refused, naming the level.
    mem::Hierarchy a(smallTwoLevel());
    a.data(0x2000, true);
    const mem::HierarchySnapshot good = a.snapshot();
    const auto rejects = [&](auto shorten, const std::string &what) {
        mem::HierarchySnapshot bad = good;
        shorten(*bad.l1d);
        mem::Hierarchy b(smallTwoLevel());
        try {
            b.restore(bad);
            ADD_FAILURE() << "accepted: " << what;
        } catch (const FatalError &e) {
            EXPECT_EQ(std::string(e.what()), what);
        }
    };
    rejects([](mem::LevelSnapshot &l) { l.tags.pop_back(); },
            "cache restore: l1d snapshot has 7 tags, 8 valid and 8 "
            "dirty entries for 8 lines");
    rejects([](mem::LevelSnapshot &l) { l.valid.pop_back(); },
            "cache restore: l1d snapshot has 8 tags, 7 valid and 8 "
            "dirty entries for 8 lines");
    rejects([](mem::LevelSnapshot &l) { l.dirty.push_back(0); },
            "cache restore: l1d snapshot has 8 tags, 8 valid and 9 "
            "dirty entries for 8 lines");

    mem::Hierarchy c(smallTwoLevel());
    c.restore(good);
    EXPECT_TRUE(c.snapshot() == good);
}

TEST(MemHierarchy, MismatchedGeometryRestartsCold)
{
    mem::Hierarchy a(smallTwoLevel());
    a.fetch(0x1000);
    const mem::HierarchySnapshot snap = a.snapshot();

    mem::HierarchyConfig other = smallTwoLevel();
    other.l1i = mem::LevelConfig{256, 16, 4}; // different geometry
    mem::Hierarchy c(other);
    c.fetch(0x3000); // make it non-trivially warm first
    c.restore(snap);

    // L1I restarted cold (geometry mismatch); L2 matched and is warm.
    const mem::HierarchyStats s = c.stats();
    EXPECT_EQ(s.l1i->accesses(), 0u);
    EXPECT_EQ(s.l2->misses, 1u);
    EXPECT_EQ(c.fetch(0x1000), 4u); // L1I cold miss, L2 warm hit
}

// -- Machine-level forking --------------------------------------------

/** Run @p m until halted (bounded), stepping one instruction at a time. */
template <typename M>
void
stepToHalt(M &m, std::uint64_t maxSteps = 50'000'000)
{
    std::uint64_t steps = 0;
    while (!m.halted() && steps < maxSteps) {
        m.step();
        ++steps;
    }
    ASSERT_TRUE(m.halted()) << "machine did not halt";
}

TEST(MemHierarchy, WarmVsColdEpilogueSweepIsDeterministic)
{
    const Workload &w = findWorkload("qsort_rec");
    const Program prog = assembleRisc(w.riscSource);

    MachineConfig cfg;
    cfg.caches = smallTwoLevel();

    // Prologue: run partway with the hierarchy warming up.
    Machine base(cfg);
    base.loadProgram(prog);
    for (int i = 0; i < 500 && !base.halted(); ++i)
        base.step();
    const MachineSnapshot mid = base.snapshot();

    // Two forks of the epilogue from the same snapshot are
    // bit-identical, including the warm cache state they inherit.
    Machine warmA(cfg), warmB(cfg);
    warmA.restore(mid);
    warmB.restore(mid);
    warmA.run();
    warmB.run();
    EXPECT_TRUE(warmA.snapshot() == warmB.snapshot());

    // A cold fork (mismatched L1D geometry) replays the same
    // architectural epilogue — same registers and memory — but pays
    // cold-start misses, so it can only cost more cycles.
    MachineConfig coldCfg = cfg;
    coldCfg.caches.l1d = mem::LevelConfig{256, 16, 4};
    Machine cold(coldCfg);
    cold.restore(mid);
    cold.run();
    EXPECT_EQ(cold.reg(1), warmA.reg(1)); // checksum convention: r1
    EXPECT_EQ(cold.stats().instructions, warmA.stats().instructions);
    EXPECT_NE(cold.snapshot().caches, warmA.snapshot().caches);
}

// -- Fast-path lockstep with a hierarchy fitted -----------------------

TEST(MemHierarchy, RiscFastPathLockstepWithTwoLevels)
{
    for (const Workload &w : allWorkloads()) {
        SCOPED_TRACE(w.id);
        const Program prog = assembleRisc(w.riscSource);

        MachineConfig cfg;
        cfg.caches = smallTwoLevel();

        Machine slow(cfg);
        slow.loadProgram(prog);
        stepToHalt(slow);

        Machine fast(cfg);
        fast.loadProgram(prog);
        const RunOutcome out = fast.runFast();
        EXPECT_TRUE(out.halted);
        EXPECT_TRUE(slow.snapshot() == fast.snapshot())
            << "fast path diverged with an L1+L2 hierarchy fitted";
    }
}

TEST(MemHierarchy, VaxFastPathLockstepWithTwoLevels)
{
    for (const Workload &w : allWorkloads()) {
        SCOPED_TRACE(w.id);
        const Program prog = assembleVax(w.vaxSource);

        VaxConfig cfg;
        cfg.caches = smallTwoLevel();

        VaxMachine slow(cfg);
        slow.loadProgram(prog);
        stepToHalt(slow);

        VaxMachine fast(cfg);
        fast.loadProgram(prog);
        const RunOutcome out = fast.runFast();
        EXPECT_TRUE(out.halted);
        EXPECT_TRUE(slow.snapshot() == fast.snapshot())
            << "VAX fast path diverged with an L1+L2 hierarchy fitted";
    }
}

// -- Shared spec parser -----------------------------------------------

TEST(MemHierarchy, ParseLevelSpecRoundTrips)
{
    const mem::LevelConfig wt = mem::parseLevelSpec("1024,16,4", "test");
    EXPECT_EQ(wt.sizeBytes, 1024u);
    EXPECT_EQ(wt.lineBytes, 16u);
    EXPECT_EQ(wt.missPenaltyCycles, 4u);
    EXPECT_EQ(wt.policy, mem::WritePolicy::WriteThrough);

    const mem::LevelConfig wb =
        mem::parseLevelSpec(" 512 , 32 , 12 , wb ", "test");
    EXPECT_EQ(wb.policy, mem::WritePolicy::WriteBack);
    EXPECT_EQ(mem::formatLevelSpec(wb), "512,32,12,wb");
    EXPECT_EQ(mem::parseLevelSpec(mem::formatLevelSpec(wt), "test"), wt);

    EXPECT_THROW(mem::parseLevelSpec("1024,16", "test"), FatalError);
    EXPECT_THROW(mem::parseLevelSpec("1024,16,4,zz", "test"), FatalError);
    EXPECT_THROW(mem::parseLevelSpec("a,b,c", "test"), FatalError);
}

} // namespace
} // namespace risc1
