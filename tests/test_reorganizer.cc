/**
 * Tests for the delay-slot reorganiser: every transformed program must
 * produce identical architectural results in fewer (or equal) cycles,
 * and unsafe moves must be refused.
 */

#include <gtest/gtest.h>

#include "analysis/delay_slots.hh"
#include "analysis/reorganizer.hh"
#include "asm/assembler.hh"
#include "helpers.hh"
#include "lang/diff.hh"
#include "lang/gen.hh"
#include "workloads/workloads.hh"

namespace risc1 {
namespace {

struct RunResult
{
    std::uint32_t r1;
    std::uint64_t cycles;
    std::uint64_t nopSlots;
};

RunResult
runProgram(const Program &prog)
{
    Machine m;
    m.loadProgram(prog);
    m.run(10'000'000);
    return {m.reg(1), m.stats().cycles, m.stats().delaySlotNops};
}

TEST(Reorganizer, FillsThePlainLoopPattern)
{
    // The canonical shape: an independent bookkeeping instruction can
    // hop over the compare into the slot (the sum/dec/cmp chain is
    // entangled with the branch condition and must stay put).
    const Program naive = assembleRisc(R"(
start:  clr   r1
        ldi   r2, 20
        clr   r3
loop:   add   r1, r1, r2
        add   r3, r3, 1      ; independent: movable into the slot
        dec   r2
        cmp   r2, 0
        bne   loop
        nop
        add   r1, r1, r3     ; fold r3 in so it is observable
        halt
)");
    const ReorgResult reorg = fillDelaySlots(naive);
    EXPECT_EQ(reorg.slotsFilled, 1u);

    const RunResult before = runProgram(naive);
    const RunResult after = runProgram(reorg.program);
    EXPECT_EQ(before.r1, after.r1);
    EXPECT_LT(after.cycles, before.cycles);
    EXPECT_LT(after.nopSlots, before.nopSlots);
}

TEST(Reorganizer, TransformsNaiveKernelLikeHandScheduling)
{
    const Program naive = assembleRisc(naiveKernelSource());
    const ReorgResult reorg = fillDelaySlots(naive);
    EXPECT_GE(reorg.slotsFilled, 1u);

    const RunResult before = runProgram(naive);
    const RunResult after = runProgram(reorg.program);
    EXPECT_EQ(before.r1, after.r1);
    EXPECT_LT(after.cycles, before.cycles);
}

TEST(Reorganizer, RefusesCcSettingPredecessorOnly)
{
    // Only the compare precedes the branch: nothing can move.
    const Program prog = assembleRisc(R"(
start:  clr   r1
loop:   cmp   r1, 0
        beq   out
        nop
        halt
out:    halt
)");
    const ReorgResult reorg = fillDelaySlots(prog);
    EXPECT_EQ(reorg.slotsFilled, 0u);
    EXPECT_GE(reorg.candidates, 1u);
}

TEST(Reorganizer, RefusesWhenLabelSplitsTheBlock)
{
    // The add carries a label (a potential jump target): moving it
    // past the label would change what that target executes.
    const Program prog = assembleRisc(R"(
start:  clr   r1
mid:    add   r1, r1, 1
        cmp   r1, 5
        bne   mid
        nop
        halt
)");
    const ReorgResult reorg = fillDelaySlots(prog);
    EXPECT_EQ(reorg.slotsFilled, 0u);
    runProgram(prog); // still valid
}

TEST(Reorganizer, RefusesDependentInstructions)
{
    // add writes r2 which the cmp reads: the add may not cross it...
    // but the earlier ldi writes r3 which nothing below reads, so the
    // pass must pick nothing (ldi of a label would be 2 words) —
    // use a clean single-word producer consumed by the compare.
    const Program prog = assembleRisc(R"(
start:  clr   r1
loop:   add   r2, r1, 1
        cmp   r2, 5
        beq   done
        nop
        inc   r1
        bra   loop
        nop
done:   halt
)");
    const ReorgResult reorg = fillDelaySlots(prog);
    // 'add r2' feeds the cmp; 'inc r1' before bra IS movable into
    // bra's slot.  Verify semantics hold regardless of fill count.
    const RunResult before = runProgram(prog);
    const RunResult after = runProgram(reorg.program);
    EXPECT_EQ(before.r1, after.r1);
    EXPECT_LE(after.cycles, before.cycles);
}

TEST(Reorganizer, SkipsProgramsWithIndirectJumps)
{
    const Program prog = assembleRisc(R"(
start:  ldi   r2, start
        jmp   alw, (r2)
        nop
        halt
)");
    const ReorgResult reorg = fillDelaySlots(prog);
    EXPECT_EQ(reorg.slotsFilled, 0u);
}

TEST(Reorganizer, HandlesCallHeavyProgramsSafely)
{
    // Returns are permitted (their targets are protected); results
    // must be preserved.
    const Program prog = assembleRisc(R"(
start:  ldi   r10, 12
        call  fib
        nop
        mov   r1, r10
        halt
fib:    cmp   r26, 2
        bge   rec
        nop
        ret
        nop
rec:    sub   r10, r26, 1
        call  fib
        nop
        mov   r16, r10
        sub   r10, r26, 2
        call  fib
        nop
        add   r26, r16, r10
        ret
        nop
)");
    const ReorgResult reorg = fillDelaySlots(prog);
    const RunResult before = runProgram(prog);
    const RunResult after = runProgram(reorg.program);
    EXPECT_EQ(before.r1, after.r1);
    EXPECT_LE(after.cycles, before.cycles);
}

/**
 * Property: reorganisation preserves what an RL program computes.  Each
 * sampled program is lowered to RISC I (every transfer with an explicit
 * `nop` slot), assembled and reorganised; both images must halt with
 * the same r1 and `gvars` block, in no more cycles, within the
 * differential harness's budget.
 */
TEST(ReorganizerDifferential, GeneratedProgramsSurviveReorganisation)
{
    const lang::DiffLimits limits;
    unsigned filled = 0;
    for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
        SCOPED_TRACE(seed);
        const lang::CompiledProgram lowered =
            lang::compileRisc(lang::generateProgram(seed));
        const Program prog = assembleRisc(lowered.source);
        const ReorgResult reorg = fillDelaySlots(prog);
        filled += reorg.slotsFilled;

        Machine before, after;
        before.loadProgram(prog);
        after.loadProgram(reorg.program);
        ASSERT_TRUE(before.runFast(limits.maxSimSteps).halted);
        ASSERT_TRUE(after.runFast(limits.maxSimSteps).halted);
        EXPECT_EQ(before.reg(1), after.reg(1));
        const std::uint32_t gvars = prog.symbol(lang::kDataLabel);
        for (std::uint32_t w = 0; w < lowered.layout.totalWords; ++w)
            ASSERT_EQ(before.memory().peekWord(gvars + 4 * w),
                      after.memory().peekWord(gvars + 4 * w))
                << "gvars word " << w;
        EXPECT_LE(after.stats().cycles, before.stats().cycles);
    }
    // Otherwise the property would hold without testing the pass.
    EXPECT_GT(filled, 0u);
}

/** Property: every workload survives reorganisation untouched or
 *  improved. */
class ReorganizerWorkloads
    : public ::testing::TestWithParam<std::string>
{};

TEST_P(ReorganizerWorkloads, ChecksumPreservedCyclesNotWorse)
{
    const Workload &w = findWorkload(GetParam());
    const Program prog = assembleRisc(w.riscSource);
    const ReorgResult reorg = fillDelaySlots(prog);

    Machine m;
    m.loadProgram(reorg.program);
    m.run();
    EXPECT_EQ(m.reg(1), w.expected);

    Machine base;
    base.loadProgram(prog);
    base.run();
    EXPECT_LE(m.stats().cycles, base.stats().cycles);
}

INSTANTIATE_TEST_SUITE_P(
    All, ReorganizerWorkloads,
    ::testing::Values("e_strsearch", "f_bittest", "h_linkedlist",
                      "k_bitmatrix", "ackermann", "fib_rec", "hanoi",
                      "qsort_rec", "sieve", "puzzle_like", "puzzle_sub"),
    [](const auto &info) { return info.param; });

} // namespace
} // namespace risc1
