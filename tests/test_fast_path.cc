/**
 * Differential (lockstep) tests for the predecoded fast path.
 *
 * Machine::runFast promises bit-for-bit equivalence with calling
 * step() in a loop: registers, PSW, memory contents, every
 * RunStats/MemoryStats counter, interrupt acceptance, and delay-slot
 * behavior.  These tests run the same program on two machines — one
 * through each path — and assert the complete MachineSnapshots are
 * equal, over every example program, every benchmark workload, and
 * the cases that stress decode-cache invalidation (self-modifying
 * code, snapshot restore) and mixed stepping.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "helpers.hh"
#include "workloads/workloads.hh"

namespace risc1 {
namespace {

/** Read one file from the source tree (dies loudly when missing). */
std::string
readSourceFile(const std::string &relative)
{
    const std::string path = std::string(RISC1_SOURCE_DIR) + "/" + relative;
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/**
 * Assert two snapshots are equal, pointing at the first interesting
 * field that differs (the defaulted operator== is the real oracle;
 * the per-field checks just make failures readable).
 */
void
expectSameState(const MachineSnapshot &slow, const MachineSnapshot &fast)
{
    EXPECT_EQ(slow.physRegs, fast.physRegs);
    EXPECT_EQ(slow.cwp, fast.cwp);
    EXPECT_EQ(slow.pc, fast.pc);
    EXPECT_EQ(slow.npc, fast.npc);
    EXPECT_EQ(slow.lastPc, fast.lastPc);
    EXPECT_EQ(slow.halted, fast.halted);
    EXPECT_EQ(slow.inDelaySlot, fast.inDelaySlot);
    EXPECT_EQ(slow.psw.pack(), fast.psw.pack());
    EXPECT_EQ(slow.stats.instructions, fast.stats.instructions);
    EXPECT_EQ(slow.stats.cycles, fast.stats.cycles);
    EXPECT_EQ(slow.stats.regOperandReads, fast.stats.regOperandReads);
    EXPECT_EQ(slow.stats.regOperandWrites, fast.stats.regOperandWrites);
    EXPECT_EQ(slow.memStats.fetches, fast.memStats.fetches);
    EXPECT_EQ(slow.memStats.reads, fast.memStats.reads);
    EXPECT_EQ(slow.memStats.writes, fast.memStats.writes);
    EXPECT_EQ(slow.pages.size(), fast.pages.size());
    // The full field-for-field oracle (stats arrays, memory pages,
    // window bookkeeping, caches, ...).
    EXPECT_TRUE(slow == fast) << "snapshots differ beyond the fields "
                                 "reported above";
}

/** Run @p source through both paths and compare the final states. */
void
expectLockstep(const std::string &source, const MachineConfig &config =
                                              MachineConfig{},
               std::uint64_t maxSteps = 50'000'000)
{
    const Program prog = assembleRisc(source);

    Machine slow(config);
    slow.loadProgram(prog);
    std::uint64_t steps = 0;
    while (!slow.halted() && steps < maxSteps) {
        slow.step();
        ++steps;
    }
    ASSERT_TRUE(slow.halted()) << "reference interpreter did not halt";

    Machine fast(config);
    fast.loadProgram(prog);
    const RunOutcome out = fast.runFast(maxSteps);
    EXPECT_TRUE(out.halted);
    EXPECT_EQ(out.steps, steps);
    expectSameState(slow.snapshot(), fast.snapshot());
}

TEST(FastPath, ExamplePrograms)
{
    for (const char *name : {"fib.s", "sum.s"}) {
        SCOPED_TRACE(name);
        expectLockstep(
            readSourceFile(std::string("examples/programs/") + name));
    }
}

TEST(FastPath, AllWorkloads)
{
    for (const Workload &w : allWorkloads()) {
        SCOPED_TRACE(w.id);
        expectLockstep(w.riscSource);

        // And the fast path alone still produces the reference
        // checksum in global r1.
        Machine m;
        m.loadProgram(assembleRisc(w.riscSource));
        ASSERT_TRUE(m.runFast().halted);
        EXPECT_EQ(m.reg(1), w.expected);
    }
}

TEST(FastPath, WorkloadsUnderCachesAndAblation)
{
    // Exercise the L1I/L1D accounting and the no-window ablation
    // through both paths (fib_rec covers window traffic).
    MachineConfig cached;
    cached.caches.l1i = mem::LevelConfig{512, 16, 8};
    cached.caches.l1d = mem::LevelConfig{256, 16, 10};
    MachineConfig soft;
    soft.windowedCalls = false;

    const Workload &w = findWorkload("fib_rec");
    {
        SCOPED_TRACE("caches");
        expectLockstep(w.riscSource, cached);
    }
    {
        SCOPED_TRACE("ablation");
        expectLockstep(w.riscSource, soft);
    }
}

/**
 * Self-modifying code, patch ahead of the program counter: the
 * `patch:` slot starts as `inc r1` and is overwritten — before it is
 * ever executed, but possibly after the fast path cached neighboring
 * words on the same page — with the encoding of `add r1, r0, 7`
 * parked at `newinst:`.
 */
TEST(FastPath, SelfModifyingPatchAhead)
{
    const std::uint32_t patched =
        Instruction::aluImm(Opcode::Add, 1, 0, 7).encode();
    std::ostringstream src;
    src << R"(
        .org  0x1000
start:  clr   r1
        ldi   r2, newinst
        ldl   r3, (r2)
        ldi   r4, patch
        stl   r3, (r4)
        nop
patch:  inc   r1          ; replaced by "add r1, r0, 7" at run time
        halt
newinst: .word 0x)" << std::hex << patched << "\n";

    expectLockstep(src.str());

    Machine m;
    m.loadProgram(assembleRisc(src.str()));
    ASSERT_TRUE(m.runFast().halted);
    EXPECT_EQ(m.reg(1), 7u); // the patched instruction ran, not `inc`
}

/**
 * Self-modifying code, patch behind the program counter: the `target:`
 * instruction executes once (and is now hot in the decode cache), is
 * then overwritten, and the loop jumps back through it.  A stale cache
 * would replay the old decode; the reference interpreter re-fetches
 * every step, so lockstep equality proves the invalidation works.
 */
TEST(FastPath, SelfModifyingLoopBack)
{
    const std::uint32_t patched =
        Instruction::aluImm(Opcode::Add, 1, 1, 100).encode();
    std::ostringstream src;
    src << R"(
        .org  0x1000
start:  clr   r1
        clr   r5
        ldi   r2, newinst
        ldl   r3, (r2)
        ldi   r4, target
target: add   r1, r1, 1   ; second pass executes "add r1, r1, 100"
        cmp   r5, 0
        bne   done
        nop
        inc   r5
        stl   r3, (r4)    ; overwrite the already-executed target
        bra   target
        nop
done:   halt
newinst: .word 0x)" << std::hex << patched << "\n";

    expectLockstep(src.str());

    Machine m;
    m.loadProgram(assembleRisc(src.str()));
    ASSERT_TRUE(m.runFast().halted);
    EXPECT_EQ(m.reg(1), 101u); // 1 (first pass) + 100 (patched pass)
}

/**
 * Snapshot restore must invalidate the decode cache: run program A to
 * completion through the fast path (cache hot for its code), restore a
 * snapshot of a machine holding program B at the same addresses, and
 * continue through the fast path.
 */
TEST(FastPath, SnapshotRestoreInvalidates)
{
    const char *const progA = R"(
        .org  0x1000
start:  ldi   r1, 111
        halt
)";
    const char *const progB = R"(
        .org  0x1000
start:  ldi   r1, 222
        halt
)";

    Machine donor;
    donor.loadProgram(assembleRisc(progB));
    const MachineSnapshot snapB = donor.snapshot();

    Machine fast;
    fast.loadProgram(assembleRisc(progA));
    ASSERT_TRUE(fast.runFast().halted);
    EXPECT_EQ(fast.reg(1), 111u);
    fast.restore(snapB);
    ASSERT_TRUE(fast.runFast().halted);
    EXPECT_EQ(fast.reg(1), 222u); // B's code, not A's cached decodes

    Machine slow;
    slow.loadProgram(assembleRisc(progA));
    while (slow.step()) {}
    slow.restore(snapB);
    while (slow.step()) {}
    expectSameState(slow.snapshot(), fast.snapshot());
}

/**
 * Interrupt acceptance and mixed stepping: deliver an interrupt after
 * exactly 20 executed instructions on both machines — the reference
 * stepping one at a time, the fast path running in bounded chunks —
 * then run both to completion.
 */
TEST(FastPath, InterruptsAndChunkedStepping)
{
    const char *const src = R"(
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
    const Program prog = assembleRisc(src);

    Machine slow;
    slow.loadProgram(prog);
    int steps = 0;
    while (slow.step()) {
        if (++steps == 20)
            slow.raiseInterrupt(0x2000);
    }

    Machine fast;
    fast.loadProgram(prog);
    RunOutcome out = fast.runFast(20);
    EXPECT_EQ(out.steps, 20u);
    EXPECT_FALSE(out.halted);
    fast.raiseInterrupt(0x2000);
    // Finish in small chunks to stress pause/resume at arbitrary
    // points (delay slots, interrupt entry, window traps).
    while (!fast.halted())
        fast.runFast(7);

    EXPECT_EQ(fast.interruptsTaken(), 1u);
    expectSameState(slow.snapshot(), fast.snapshot());
}

/** Chunked runFast must stop mid-program with identical state. */
TEST(FastPath, StepLimitStateMatches)
{
    const char *const src = R"(
        .org  0x1000
start:  clr   r1
loop:   inc   r1
        bra   loop
        nop
)";
    const Program prog = assembleRisc(src);

    Machine slow;
    slow.loadProgram(prog);
    for (int i = 0; i < 100; ++i)
        slow.step();

    Machine fast;
    fast.loadProgram(prog);
    const RunOutcome out = fast.runFast(100);
    EXPECT_EQ(out.steps, 100u);
    EXPECT_FALSE(out.halted);
    expectSameState(slow.snapshot(), fast.snapshot());
}

/** The call-trace recorder must capture the same events on both paths. */
TEST(FastPath, CallTraceRecorded)
{
    const Workload &w = findWorkload("hanoi");
    const Program prog = assembleRisc(w.riscSource);

    Machine slow;
    slow.setRecordCallTrace(true);
    slow.loadProgram(prog);
    while (slow.step()) {}

    Machine fast;
    fast.setRecordCallTrace(true);
    fast.loadProgram(prog);
    ASSERT_TRUE(fast.runFast().halted);

    EXPECT_FALSE(fast.callTrace().empty());
    EXPECT_EQ(slow.callTrace(), fast.callTrace());
    expectSameState(slow.snapshot(), fast.snapshot());
}

/**
 * With a tracer installed, runFast stays on the decode cache and
 * records from inside its own loop: the hook observes every
 * instruction in decode order.
 */
TEST(FastPath, TraceSeesEveryInstruction)
{
    const Workload &w = findWorkload("sieve");
    const Program prog = assembleRisc(w.riscSource);

    Machine m;
    std::uint64_t hookCalls = 0;
    test::ProbeTrace probe(
        [&hookCalls](const obs::TraceEvent &) { ++hookCalls; });
    m.setTrace(probe.get());
    m.loadProgram(prog);
    const RunOutcome out = m.runFast();
    ASSERT_TRUE(out.halted);
    EXPECT_EQ(hookCalls, out.steps);
    EXPECT_EQ(hookCalls, m.stats().instructions);
}

} // namespace
} // namespace risc1
