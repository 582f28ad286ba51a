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

#include "common/logging.hh"
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

/** How a run ended: halted, stopped by its budget, or faulted. */
struct Ending
{
    bool faulted = false;
    std::string error;
};

/** Run @p m to halt (or @p maxSteps) one step() at a time. */
Ending
stepToEnd(Machine &m, std::uint64_t maxSteps)
{
    Ending e;
    try {
        for (std::uint64_t i = 0; i < maxSteps && m.step(); ++i) {
        }
    } catch (const FatalError &err) {
        e.faulted = true;
        e.error = err.what();
    }
    return e;
}

/** Run @p m to halt (or @p maxSteps) through the fast path. */
Ending
runFastToEnd(Machine &m, std::uint64_t maxSteps)
{
    Ending e;
    try {
        m.runFast(maxSteps);
    } catch (const FatalError &err) {
        e.faulted = true;
        e.error = err.what();
    }
    return e;
}

/**
 * Block edges.  runFast() runs a straight-line run through a delay
 * slot as one block, charging its counters once; these cases sit on
 * the edges of that rule and must still match step() snapshot for
 * snapshot.
 */

/** A store rewrites a later word of the block it sits in, on a cold
 *  pass and again once the block is built, each time with another
 *  opcode, so the rebuilt block counts differently. */
TEST(FastPathBlocks, StoreRewritesLaterWordOfItsOwnBlock)
{
    const std::uint32_t other =
        Instruction::aluImm(Opcode::Add, 1, 1, 100).encode();
    const std::uint32_t orig =
        Instruction::aluImm(Opcode::Sub, 1, 1, 1).encode();
    std::ostringstream src;
    src << std::hex << R"(
        .org  0x1000
start:  clr   r1
        clr   r5
        ldi   r2, words
        ldi   r4, patch
loop:   ldl   r3, (r2)
        stl   r3, (r4)    ; rewrites `patch`, three words on
        add   r2, r2, 4
        add   r5, r5, 1
patch:  add   r1, r1, 1
        cmp   r5, 4
        bne   loop
        nop
        halt
        .org  0x1800
words:  .word 0x)" << other << ", 0x" << orig << ", 0x" << other
        << ", 0x" << orig << "\n";
    expectLockstep(src.str());

    Machine m;
    m.loadProgram(assembleRisc(src.str()));
    ASSERT_TRUE(m.runFast().halted);
    EXPECT_EQ(m.reg(1), 198u);  // 100 - 1 + 100 - 1
}

/** With two windows every call spills; here the spill lands on the
 *  calling block's own delay slot, which then runs as the spilled
 *  register value: `add r1, r1, 100`. */
TEST(FastPathBlocks, WindowSpillOverwritesTheCallersDelaySlot)
{
    MachineConfig config;
    config.windows.numWindows = 2;
    config.saveAreaTop = 0x3000;
    const std::uint32_t spilled =
        Instruction::aluImm(Opcode::Add, 1, 1, 100).encode();
    std::ostringstream src;
    src << R"(
        .org  0x2fb0
start:  ldi   r2, value
        ldl   r16, (r2)
        mov   r17, r16
        mov   r18, r16
        mov   r19, r16
        mov   r20, r16
        mov   r21, r16
        mov   r22, r16
        mov   r23, r16
        mov   r24, r16
        mov   r25, r16
        mov   r26, r16
        mov   r27, r16
        mov   r28, r16
        mov   r29, r16
        mov   r30, r16
        mov   r31, r16
caller: call  callee      ; spills its frame over 0x2fc0..0x2fff
slot:   nop               ; ...so this runs as `add r1, r1, 100`
done:   halt
callee: add   r1, r1, 1
        ret
        nop
        .org  0x4000
value:  .word 0x)" << std::hex << spilled << "\n";
    const Program prog = assembleRisc(src.str());
    ASSERT_EQ(prog.symbol("slot"), config.saveAreaTop - 4);
    expectLockstep(src.str(), config);

    Machine m(config);
    m.loadProgram(prog);
    ASSERT_TRUE(m.runFast().halted);
    EXPECT_EQ(m.reg(1), 101u);
    EXPECT_EQ(m.stats().windowOverflows, 1u);
}

/** A misaligned load faults in the middle of a built block: the fault
 *  text and the state it leaves are step()'s. */
TEST(FastPathBlocks, FaultMidBlockLeavesStepsState)
{
    const char *const src = R"(
        .org  0x1000
start:  ldi   r3, 0x2000
        clr   r5
loop:   add   r5, r5, 1
        ldl   r4, (r3)    ; r3 = 0x2006 on the second pass
        add   r6, r6, 1
        add   r3, r3, 6
        cmp   r5, 10
        bne   loop
        nop
        halt
)";
    const Program prog = assembleRisc(src);
    for (const bool cached : {false, true}) {
        SCOPED_TRACE(cached ? "fitted L1I" : "no hierarchy");
        MachineConfig config;
        if (cached)
            config.caches.l1i = mem::LevelConfig{256, 16, 4};
        Machine slow(config), fast(config);
        slow.loadProgram(prog);
        fast.loadProgram(prog);
        const Ending ds = stepToEnd(slow, 1000);
        const Ending df = runFastToEnd(fast, 1000);
        ASSERT_TRUE(ds.faulted);
        EXPECT_EQ(df.faulted, ds.faulted);
        EXPECT_EQ(df.error, ds.error);
        // ldi (two words) and clr, one whole pass, then the add and
        // the faulting load of the second.
        EXPECT_EQ(slow.stats().instructions, 3u + 7u + 2u);
        expectSameState(slow.snapshot(), fast.snapshot());
    }
}

/** A store turns the first word of a built block into one that does
 *  not decode: the jump back faults, and so does every later run from
 *  there, on both tiers alike. */
TEST(FastPathBlocks, BlockWhoseFirstWordStopsDecodingFaultsAgain)
{
    std::uint32_t illegal = 0;
    while (Instruction::isLegal(illegal))
        illegal += 1u << 25;
    std::ostringstream src;
    src << R"(
        .org  0x1000
start:  ldi   r2, bad
        ldl   r3, (r2)
        ldi   r4, target
        bra   target
        nop
target: add   r1, r1, 1
        stl   r3, (r4)    ; the block's own first word
        bra   target
        nop
        .org  0x1800
bad:    .word 0x)" << std::hex << illegal << "\n";
    const Program prog = assembleRisc(src.str());
    ASSERT_NE(prog.symbol("target") % 64, 0u);  // mid-line, one line span
    Machine slow, fast;
    slow.loadProgram(prog);
    fast.loadProgram(prog);
    for (int run = 0; run < 3; ++run) {
        SCOPED_TRACE(::testing::Message() << "run " << run);
        const Ending ds = stepToEnd(slow, 1000);
        const Ending df = runFastToEnd(fast, 1000);
        ASSERT_TRUE(ds.faulted);
        EXPECT_EQ(df.faulted, ds.faulted);
        EXPECT_EQ(df.error, ds.error);
        expectSameState(slow.snapshot(), fast.snapshot());
    }
}

/** A branch into the middle of a block already built from an earlier
 *  start address. */
TEST(FastPathBlocks, JumpIntoTheMiddleOfABuiltBlock)
{
    expectLockstep(R"(
        .org  0x1000
start:  clr   r1
        clr   r2
top:    add   r1, r1, 1
mid:    add   r2, r2, 3
        cmp   r2, 30
        blt   mid         ; into the block that started at `start`
        add   r1, r1, 2
        cmp   r1, 40
        blt   top         ; and into the one that started at `mid`
        nop
        halt
)");
}

/** Transfers in a page's last word put their delay slots on the next
 *  page: the next block is entered at a slot, once after an untaken
 *  branch (sequential) and many times after taken ones. */
TEST(FastPathBlocks, TransferInAPagesLastWord)
{
    const char *const src = R"(
        .org  0x1fec
start:  clr   r1
loop:   add   r1, r1, 1
        add   r2, r2, 3
        cmp   r1, 5
        bne   loop        ; 0x1ffc: its slot is on the next page
        add   r2, r2, 1
        ldi   r3, 0
        bra   next
        nop
        .org  0x2ff0
next:   add   r3, r3, 1
        cmp   r3, 3
        bne   next        ; 0x2ff8
        nop               ; 0x2ffc: a NOP slot in the page's last word
        bra   out         ; 0x3000: the next page opens on a transfer
        nop
out:    halt
)";
    const Program prog = assembleRisc(src);
    ASSERT_EQ(prog.symbol("loop") + 12, 0x1ffcu);
    ASSERT_EQ(prog.symbol("next") + 8, 0x2ff8u);
    expectLockstep(src);
}

/** A run stopped after every k instructions, k = 1..32 — inside
 *  blocks, on transfers, on delay slots, between calls — and resumed
 *  to halt matches step() at every stop. */
TEST(FastPathBlocks, EveryStepBudgetMatchesAtEveryStop)
{
    const Program prog = assembleRisc(findWorkload("fib_rec").riscSource);
    for (std::uint64_t k = 1; k <= 32; ++k) {
        SCOPED_TRACE(::testing::Message() << "k=" << k);
        Machine slow, fast;
        slow.loadProgram(prog);
        fast.loadProgram(prog);
        while (!fast.halted()) {
            for (std::uint64_t i = 0; i < k && slow.step(); ++i) {
            }
            const RunOutcome out = fast.runFast(k);
            ASSERT_EQ(out.halted, slow.halted());
            ASSERT_TRUE(slow.snapshot() == fast.snapshot())
                << "diverged at instruction " << slow.stats().instructions;
        }
        EXPECT_TRUE(slow.halted());
    }
}

} // namespace
} // namespace risc1
