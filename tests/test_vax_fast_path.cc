/**
 * Differential (lockstep) tests for the VAX predecoded fast path.
 *
 * VaxMachine::runFast promises bit-for-bit equivalence with calling
 * step() in a loop: registers, condition codes, memory contents, and
 * every VaxStats/MemoryStats counter.  These tests run the same
 * program on two machines — one through each path — and assert the
 * complete VaxSnapshots are equal, over every benchmark workload and
 * the cases that stress decode-cache invalidation (self-modifying
 * code, snapshot restore) and mixed stepping.  The mirror of
 * tests/test_fast_path.cc for the CISC baseline.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "vax/vassembler.hh"
#include "vax/vmachine.hh"
#include "workloads/workloads.hh"

namespace risc1 {
namespace {

/**
 * Assert two snapshots are equal, pointing at the first interesting
 * field that differs (the defaulted operator== is the real oracle;
 * the per-field checks just make failures readable).
 */
void
expectSameState(const VaxSnapshot &slow, const VaxSnapshot &fast)
{
    EXPECT_EQ(slow.regs, fast.regs);
    EXPECT_EQ(slow.halted, fast.halted);
    EXPECT_TRUE(slow.cc == fast.cc);
    EXPECT_EQ(slow.stats.instructions, fast.stats.instructions);
    EXPECT_EQ(slow.stats.cycles, fast.stats.cycles);
    EXPECT_EQ(slow.stats.instrBytes, fast.stats.instrBytes);
    EXPECT_EQ(slow.stats.regOperandReads, fast.stats.regOperandReads);
    EXPECT_EQ(slow.stats.regOperandWrites, fast.stats.regOperandWrites);
    EXPECT_EQ(slow.stats.memOperandReads, fast.stats.memOperandReads);
    EXPECT_EQ(slow.stats.memOperandWrites, fast.stats.memOperandWrites);
    EXPECT_EQ(slow.memStats.fetches, fast.memStats.fetches);
    EXPECT_EQ(slow.memStats.reads, fast.memStats.reads);
    EXPECT_EQ(slow.memStats.writes, fast.memStats.writes);
    EXPECT_EQ(slow.pages.size(), fast.pages.size());
    // The full field-for-field oracle (class mix, call depths, memory
    // pages, ...).
    EXPECT_TRUE(slow == fast) << "snapshots differ beyond the fields "
                                 "reported above";
}

/** Run @p source through both paths and compare the final states. */
void
expectLockstep(const std::string &source,
               const VaxConfig &config = VaxConfig{},
               std::uint64_t maxSteps = 50'000'000)
{
    const Program prog = assembleVax(source);

    VaxMachine slow(config);
    slow.loadProgram(prog);
    std::uint64_t steps = 0;
    while (!slow.halted() && steps < maxSteps) {
        slow.step();
        ++steps;
    }
    ASSERT_TRUE(slow.halted()) << "reference interpreter did not halt";

    VaxMachine fast(config);
    fast.loadProgram(prog);
    const RunOutcome out = fast.runFast(maxSteps);
    EXPECT_TRUE(out.halted);
    EXPECT_EQ(out.steps, steps);
    expectSameState(slow.snapshot(), fast.snapshot());
}

TEST(VaxFastPath, AllWorkloads)
{
    for (const Workload &w : allWorkloads()) {
        SCOPED_TRACE(w.id);
        expectLockstep(w.vaxSource);

        // And the fast path alone still produces the reference
        // checksum in r0.
        VaxMachine m;
        m.loadProgram(assembleVax(w.vaxSource));
        ASSERT_TRUE(m.runFast().halted);
        EXPECT_EQ(m.reg(0), w.expected);
    }
}

TEST(VaxFastPath, TimingCalibrations)
{
    // The specifier/memory cycle accounting must replay exactly under
    // every calibration the baseline-family experiment sweeps.
    VaxConfig slowMem;
    slowMem.memAccessCycles = 3;
    slowMem.perRegSaveCycles = 3;
    for (const Workload &w : allWorkloads()) {
        SCOPED_TRACE(w.id);
        expectLockstep(w.vaxSource, slowMem);
    }
}

TEST(VaxFastPath, AddressingModeSweep)
{
    // One program touching every statically replayable specifier kind:
    // short literal, register, immediate, absolute, deferred,
    // displacement, auto-increment/decrement, and both branch widths.
    expectLockstep(R"(
start:  movl   #0x11223344, r1  ; 32-bit immediate
        movl   #5, r2           ; short literal
        movl   r1, 0x4000       ; absolute write
        moval  0x4000, r3
        movl   (r3), r4         ; deferred read
        movl   #3, r5
loop:   movl   r4, (r3)+        ; auto-increment
        sobgtr r5, loop         ; byte branch
        movl   -(r3), r6        ; auto-decrement
        movl   4(r3), r7        ; byte displacement
        brw    join             ; word branch
        halt                    ; skipped
join:   addl3  r6, r7, r0
        halt
)");
}

TEST(VaxFastPath, ChunkedRunMatchesMonolithic)
{
    // runFast in dribs and drabs — interleaved with plain step() —
    // must land on exactly the same state as one monolithic call.
    const Workload &w = findWorkload("fib_rec");
    const Program prog = assembleVax(w.vaxSource);

    VaxMachine mono;
    mono.loadProgram(prog);
    ASSERT_TRUE(mono.runFast().halted);

    VaxMachine mixed;
    mixed.loadProgram(prog);
    std::uint64_t budget = 1;
    while (!mixed.halted()) {
        mixed.runFast(budget);
        budget = budget * 2 + 1;
        if (!mixed.halted())
            mixed.step();
    }
    expectSameState(mono.snapshot(), mixed.snapshot());
}

TEST(VaxFastPath, SelfModifyingCodeInvalidates)
{
    // Patch an instruction's immediate bytes mid-run on both machines:
    // the fast path's decode cache must notice the code-line write and
    // re-decode, keeping lockstep with the reference interpreter.
    const char *const source = R"(
start:  clrl   r0
        movl   #40, r2
loop:   movl   #0x11223344, r1
        addl2  r1, r0
        sobgtr r2, loop
        halt
)";
    const Program prog = assembleVax(source);

    VaxMachine slow, fast;
    slow.loadProgram(prog);
    fast.loadProgram(prog);

    // Locate the immediate's low byte: specifier 0x8f ((PC)+ on the
    // PC, i.e. 32-bit immediate) followed by 44 33 22 11.
    std::uint32_t patchAddr = 0;
    for (std::uint32_t a = 0; a < 0x2000; ++a) {
        if (slow.memory().peekByte(a) == 0x8f &&
            slow.memory().peekByte(a + 1) == 0x44 &&
            slow.memory().peekByte(a + 2) == 0x33 &&
            slow.memory().peekByte(a + 3) == 0x22 &&
            slow.memory().peekByte(a + 4) == 0x11) {
            patchAddr = a + 1;
            break;
        }
    }
    ASSERT_NE(patchAddr, 0u) << "immediate not found in code";

    // Warm the decode cache through a few loop iterations, then patch
    // the immediate on both machines and run to completion.
    for (int i = 0; i < 20; ++i) {
        slow.step();
        fast.runFast(1);
    }
    slow.memory().pokeByte(patchAddr, 0x55);
    fast.memory().pokeByte(patchAddr, 0x55);

    while (slow.step())
        ;
    ASSERT_TRUE(fast.runFast().halted);
    expectSameState(slow.snapshot(), fast.snapshot());

    // The patch really took effect through the fast path: later loop
    // iterations accumulated the patched constant.
    VaxMachine unpatched;
    unpatched.loadProgram(prog);
    ASSERT_TRUE(unpatched.runFast().halted);
    EXPECT_NE(fast.reg(0), unpatched.reg(0));
}

TEST(VaxFastPath, SnapshotRestoreInvalidates)
{
    // Restoring a snapshot replaces memory contents wholesale; a warm
    // decode cache from the pre-restore program must not leak in.
    const Workload &sieve = findWorkload("sieve");
    const Workload &fib = findWorkload("fib_rec");

    VaxMachine donor;
    donor.loadProgram(assembleVax(fib.vaxSource));
    const VaxSnapshot fibStart = donor.snapshot();

    VaxMachine m;
    m.loadProgram(assembleVax(sieve.vaxSource));
    ASSERT_TRUE(m.runFast().halted); // warm cache on sieve's code
    EXPECT_EQ(m.reg(0), sieve.expected);

    m.restore(fibStart);
    ASSERT_TRUE(m.runFast().halted); // must decode fib's code fresh
    EXPECT_EQ(m.reg(0), fib.expected);

    VaxMachine ref;
    ref.loadProgram(assembleVax(fib.vaxSource));
    while (ref.step())
        ;
    expectSameState(ref.snapshot(), m.snapshot());
}

TEST(VaxFastPath, InstructionRewritingItsOwnBytes)
{
    // `addl2 #imm, @self+2` adds its own immediate into the immediate's
    // bytes, doubling it each pass.  The cache must store its record
    // before execute() writes those bytes, so the next pass decodes
    // the new immediate instead of replaying the old one.
    const char *const source = R"(
start:  movl   #4, r2             ; 3 bytes at 0x1000
        nop
        nop
        nop
self:   addl2  #0x1000000, @self+2  ; immediate at 0x1008, aligned
        sobgtr r2, self
        movl   @self+2, r0
        halt
)";
    expectLockstep(source);
    VaxMachine fast;
    fast.loadProgram(assembleVax(source));
    ASSERT_TRUE(fast.runFast().halted);
    EXPECT_EQ(fast.reg(0), 0x10000000u);
}

TEST(VaxFastPath, PcRelativeEncodingsDecodeLive)
{
    // `disp(PC)` and `(PC)` read the PC mid-stream, so the cache never
    // stores them; looping over them must read the same bytes as step().
    expectLockstep(R"(
start:  clrl   r0
        movl   #3, r2
loop:   movzbl 4(pc), r1
        addl2  r1, r0
        movzbl (pc), r1
        addl2  r1, r0
        sobgtr r2, loop
        halt
)");
}

/** Outcome of driving one machine to halt, fault, or a step budget. */
struct Drive
{
    bool halted = false;
    bool faulted = false;
    std::uint64_t steps = 0;
    std::string error;
};

// A guest byte stream may only raise FatalError; anything else
// (a PanicError, a crash) escapes the drivers and fails the test.
Drive
driveStep(VaxMachine &m, std::uint64_t cap)
{
    Drive d;
    try {
        while (!m.halted() && d.steps < cap) {
            m.step();
            ++d.steps;
        }
        d.halted = m.halted();
    } catch (const FatalError &e) {
        d.faulted = true;
        d.error = e.what();
    }
    return d;
}

Drive
driveFast(VaxMachine &m, std::uint64_t cap)
{
    Drive d;
    try {
        const RunOutcome out = m.runFast(cap);
        d.steps = out.steps;
        d.halted = out.halted;
    } catch (const FatalError &e) {
        d.faulted = true;
        d.error = e.what();
    }
    return d;
}

/**
 * A random instruction stream: opcode bytes drawn from the opcode
 * table (now and then an arbitrary, possibly illegal, byte), each
 * followed by one random specifier per operand and up to four random
 * extension bytes.  Specifiers name the PC a quarter of the time, so
 * the PC-relative modes, `@(Rn)+` on a register and illegal mode
 * nibbles all turn up.  With @p loop set the stream ends in a `brw`
 * back to its start, so instructions run again from the cache.
 */
std::vector<std::uint8_t>
randomStream(Rng &rng, bool loop)
{
    std::size_t count = 0;
    const VaxOpInfo *ops = vaxAllOpcodes(count);
    std::vector<std::uint8_t> bytes;
    const std::size_t n = 2 + rng.below(10);
    for (std::size_t i = 0; i < n; ++i) {
        if (rng.chance(1, 16)) {
            bytes.push_back(static_cast<std::uint8_t>(rng.below(256)));
            continue;
        }
        const VaxOpInfo &info = ops[rng.below(count)];
        bytes.push_back(static_cast<std::uint8_t>(info.op));
        for (unsigned k = 0; k < info.numOperands; ++k) {
            const auto mode = static_cast<unsigned>(rng.below(16));
            const auto rn = rng.chance(1, 4)
                                ? 15u
                                : static_cast<unsigned>(rng.below(16));
            bytes.push_back(static_cast<std::uint8_t>(mode << 4 | rn));
            for (auto e = rng.below(5); e > 0; --e)
                bytes.push_back(static_cast<std::uint8_t>(rng.below(256)));
        }
    }
    if (loop) {
        // brw: the displacement counts from the end of the branch.
        const auto disp = static_cast<std::uint16_t>(-(bytes.size() + 3));
        bytes.push_back(static_cast<std::uint8_t>(VaxOpcode::Brw));
        bytes.push_back(static_cast<std::uint8_t>(disp));
        bytes.push_back(static_cast<std::uint8_t>(disp >> 8));
    }
    return bytes;
}

class VaxFuzz : public ::testing::TestWithParam<std::uint64_t>
{};

/**
 * Hostile input: random streams run on both tiers under a step
 * budget.  Half sit in the last bytes of a small memory, so decodes
 * run past its end; the other half loop, so cached records replay;
 * r1 points at the code, so stores through it rewrite instructions
 * the decode cache holds.  Both tiers must end with the same fault
 * text (or none), the same halted flag and equal snapshots.
 */
TEST_P(VaxFuzz, RandomStreamsFaultIdentically)
{
    Rng rng(GetParam() ^ 0xc15cull);
    VaxConfig cfg;
    cfg.memorySize = 0x10000;
    cfg.stackTop = 0x8000;
    for (int round = 0; round < 300; ++round) {
        SCOPED_TRACE(::testing::Message() << "seed=" << GetParam()
                                          << " round=" << round);
        const bool atEnd = rng.chance(1, 2);
        const std::vector<std::uint8_t> code = randomStream(rng, !atEnd);
        const auto org = static_cast<std::uint32_t>(
            atEnd ? cfg.memorySize - code.size() : 0x4000);

        VaxMachine slow(cfg), fast(cfg);
        for (VaxMachine *m : {&slow, &fast}) {
            m->memory().load(org, code.data(), code.size());
            m->reset(org);
            m->setReg(1, org);
            m->setReg(2, 0x2000);
        }
        const Drive ds = driveStep(slow, 200);
        const Drive df = driveFast(fast, 200);
        EXPECT_EQ(ds.faulted, df.faulted);
        EXPECT_EQ(ds.error, df.error);
        EXPECT_EQ(ds.halted, df.halted);
        if (!ds.faulted) {
            EXPECT_EQ(ds.steps, df.steps);
        }
        expectSameState(slow.snapshot(), fast.snapshot());
        if (::testing::Test::HasFailure())
            break;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VaxFuzz,
                         ::testing::Values(1u, 2u, 42u, 0xdeadbeefu,
                                           20260806u));

} // namespace
} // namespace risc1
