/** Unit tests for the CISC baseline machine and its assembler. */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.hh"
#include "vax/vassembler.hh"
#include "vax/vmachine.hh"

namespace risc1 {
namespace {

VaxMachine
runVax(const std::string &source, std::uint64_t maxSteps = 10'000'000)
{
    VaxMachine m;
    m.loadProgram(assembleVax(source));
    m.run(maxSteps);
    return m;
}

TEST(VaxMachine, MovlImmediateAndRegister)
{
    const VaxMachine m = runVax(R"(
start:  movl  #5, r0
        movl  r0, r1
        movl  #100000, r2     ; too big for a short literal
        halt
)");
    EXPECT_EQ(m.reg(0), 5u);
    EXPECT_EQ(m.reg(1), 5u);
    EXPECT_EQ(m.reg(2), 100000u);
}

TEST(VaxMachine, ThreeOperandArithmetic)
{
    const VaxMachine m = runVax(R"(
start:  movl  #30, r1
        movl  #12, r2
        addl3 r1, r2, r3
        subl3 r2, r1, r4      ; r4 = r1 - r2
        mull3 r1, r2, r5
        divl3 r2, r1, r6      ; r6 = r1 / r2
        halt
)");
    EXPECT_EQ(m.reg(3), 42u);
    EXPECT_EQ(m.reg(4), 18u);
    EXPECT_EQ(m.reg(5), 360u);
    EXPECT_EQ(m.reg(6), 2u);
}

TEST(VaxMachine, TwoOperandFormsModifyInPlace)
{
    const VaxMachine m = runVax(R"(
start:  movl  #10, r0
        addl2 #5, r0
        subl2 #3, r0
        mull2 #4, r0
        incl  r0
        decl  r0
        halt
)");
    EXPECT_EQ(m.reg(0), 48u);
}

TEST(VaxMachine, MemoryOperandsDirectlyAddressable)
{
    // The defining CISC property: ALU ops touch memory directly.
    const VaxMachine m = runVax(R"(
start:  movl  #7, var
        addl2 #10, var        ; memory-to-memory arithmetic
        movl  var, r0
        halt
        .align 4
var:    .word 0
)");
    EXPECT_EQ(m.reg(0), 17u);
    EXPECT_GT(m.stats().memOperandReads, 0u);
    EXPECT_GT(m.stats().memOperandWrites, 0u);
}

TEST(VaxMachine, AddressingModes)
{
    const VaxMachine m = runVax(R"(
start:  moval table, r1
        movl  (r1), r2        ; deferred
        movl  4(r1), r3       ; displacement
        movl  (r1)+, r4       ; autoincrement
        movl  (r1), r5        ; now the second element
        movl  @ptr, r6        ; absolute... loads the word at ptr
        halt
table:  .word 11, 22, 33
ptr:    .word 44
)");
    EXPECT_EQ(m.reg(2), 11u);
    EXPECT_EQ(m.reg(3), 22u);
    EXPECT_EQ(m.reg(4), 11u);
    EXPECT_EQ(m.reg(5), 22u);
    EXPECT_EQ(m.reg(6), 44u);
}

TEST(VaxMachine, PushPopViaAutoModes)
{
    const VaxMachine m = runVax(R"(
start:  movl  #77, -(sp)      ; push
        movl  (sp)+, r0       ; pop
        halt
)");
    EXPECT_EQ(m.reg(0), 77u);
}

TEST(VaxMachine, BranchesAndLoops)
{
    const VaxMachine m = runVax(R"(
start:  clrl  r0
        movl  #10, r1
loop:   addl2 r1, r0
        sobgtr r1, loop
        halt
)");
    EXPECT_EQ(m.reg(0), 55u);
}

TEST(VaxMachine, ConditionalBranchFamily)
{
    const VaxMachine m = runVax(R"(
start:  movl  #5, r1
        cmpl  r1, #5
        beql  eq_ok
        halt
eq_ok:  movl  #1, r2
        cmpl  r1, #9
        blss  lt_ok
        halt
lt_ok:  movl  #1, r3
        cmpl  r1, #3
        bgtr  gt_ok
        halt
gt_ok:  movl  #1, r4
        halt
)");
    EXPECT_EQ(m.reg(2), 1u);
    EXPECT_EQ(m.reg(3), 1u);
    EXPECT_EQ(m.reg(4), 1u);
}

TEST(VaxMachine, CallsBuildsFrameAndRetUnwinds)
{
    const VaxMachine m = runVax(R"(
start:  pushl #12
        pushl #30
        calls #2, addfn
        halt                  ; result in r0

addfn:  .mask 0x0004          ; save r2
        movl  4(ap), r2       ; first arg (30)
        addl2 8(ap), r2       ; second arg (12)
        movl  r2, r0
        ret
)");
    EXPECT_EQ(m.reg(0), 42u);
    EXPECT_EQ(m.stats().calls, 1u);
    EXPECT_EQ(m.stats().returns, 1u);
    // Stack fully unwound (args included).
    EXPECT_EQ(m.reg(vaxSp), 0x00f00000u);
}

TEST(VaxMachine, CallsPreservesSavedRegisters)
{
    const VaxMachine m = runVax(R"(
start:  movl  #111, r2
        movl  #222, r3
        calls #0, clobber
        halt

clobber: .mask 0x000c         ; save r2, r3
        movl  #9, r2
        movl  #9, r3
        ret
)");
    EXPECT_EQ(m.reg(2), 111u);
    EXPECT_EQ(m.reg(3), 222u);
}

TEST(VaxMachine, NestedCallsRecursion)
{
    // Recursive factorial via CALLS.
    const VaxMachine m = runVax(R"(
start:  pushl #10
        calls #1, fact
        halt

fact:   .mask 0x0004          ; save r2
        movl  4(ap), r2
        cmpl  r2, #1
        bgtr  rec
        movl  #1, r0
        ret
rec:    subl3 #1, r2, r0
        pushl r0
        calls #1, fact
        mull2 r2, r0          ; n * fact(n-1)
        ret
)");
    EXPECT_EQ(m.reg(0), 3628800u);
    EXPECT_EQ(m.stats().calls, 10u);
    EXPECT_EQ(m.stats().maxCallDepth, 10);
}

TEST(VaxMachine, CallsGeneratesMemoryTraffic)
{
    // Every CALLS/RET moves a frame through memory — the cost the
    // paper's register windows eliminate.
    const VaxMachine m = runVax(R"(
start:  pushl #3
        calls #1, leaf
        halt
leaf:   .mask 0x0000
        movl  4(ap), r0
        ret
)");
    // N, PC, FP, AP, mask+PSW pushed and popped, plus arg + mask read.
    EXPECT_GE(m.stats().memOperandWrites, 6u);
    EXPECT_GE(m.stats().memOperandReads, 6u);
}

TEST(VaxMachine, JsbRsbCheapLinkage)
{
    const VaxMachine m = runVax(R"(
start:  movl  #5, r0
        jsb   double
        halt
double: addl2 r0, r0
        rsb
)");
    EXPECT_EQ(m.reg(0), 10u);
}

TEST(VaxMachine, PushrPoprRegisterMasks)
{
    const VaxMachine m = runVax(R"(
start:  movl  #1, r1
        movl  #2, r2
        pushr #0x06           ; push r1, r2
        movl  #9, r1
        movl  #9, r2
        popr  #0x06
        halt
)");
    EXPECT_EQ(m.reg(1), 1u);
    EXPECT_EQ(m.reg(2), 2u);
}

TEST(VaxMachine, ByteOpsAndZeroExtension)
{
    const VaxMachine m = runVax(R"(
start:  movzbl str, r0       ; 'A' = 65
        movb  str+1, r1
        cmpb  str, #65
        beql  ok
        halt
ok:     movl  #1, r2
        halt
str:    .asciz "AB"
)");
    EXPECT_EQ(m.reg(0), 65u);
    EXPECT_EQ(m.reg(1) & 0xff, 66u);
    EXPECT_EQ(m.reg(2), 1u);
}

TEST(VaxMachine, ShiftsBothDirections)
{
    const VaxMachine m = runVax(R"(
start:  movl  #1, r1
        ashl  #4, r1, r2      ; left 4
        movl  #-2, r3
        ashl  r3, r2, r4      ; right 2 (negative count)
        halt
)");
    EXPECT_EQ(m.reg(2), 16u);
    EXPECT_EQ(m.reg(4), 4u);
}

TEST(VaxMachine, VariableLengthEncodingIsDense)
{
    // movl #5, r0 = opcode + shortlit + regspec = 3 bytes; the
    // equivalent RISC I instruction is always 4.
    const Program prog = assembleVax("start: movl #5, r0\n halt\n");
    EXPECT_EQ(prog.codeBytes(), 4u); // 3 + 1-byte halt
}

TEST(VaxMachine, MicrocodedTimingCostsMoreThanOneCycle)
{
    const VaxMachine m = runVax(R"(
start:  movl  #3, r0
        addl2 #4, r0
        halt
)");
    EXPECT_GT(m.stats().cycles, m.stats().instructions);
}

TEST(VaxMachine, IllegalOpcodeRejected)
{
    VaxMachine m;
    m.memory().pokeByte(0x1000, 0xff);
    m.reset(0x1000);
    EXPECT_THROW(m.step(), FatalError);
}

TEST(VaxMachine, IllegalAddressingModeIsAFatalError)
{
    // movl with specifier nibble 4 (index mode, not modelled): a
    // program error, raised before the specifier costs any cycles.
    for (const std::uint8_t nibble : {0x4, 0xb, 0xd, 0xf}) {
        VaxMachine m;
        m.memory().pokeByte(0x1000, 0x10);  // movl
        m.memory().pokeByte(0x1001, static_cast<std::uint8_t>(nibble << 4));
        m.reset(0x1000);
        try {
            m.step();
            ADD_FAILURE() << "no fault for nibble " << int{nibble};
        } catch (const FatalError &e) {
            EXPECT_EQ(std::string(e.what()),
                      cat("illegal addressing mode nibble 0x", std::hex,
                          int{nibble}));
        }
        EXPECT_EQ(m.stats().instructions, 1u);
        EXPECT_EQ(m.stats().cycles, 2u);  // movl's base cost only
        EXPECT_EQ(m.stats().instrBytes, 2u);
    }
}

/**
 * A stream that runs off the end of memory mid-instruction faults
 * with exactly the partial state it reached: the instruction counted,
 * each parsed specifier's cycles charged before its extension bytes
 * are fetched, and an auto-decrement already applied.
 */
TEST(VaxMachine, FaultMidInstructionKeepsPartialState)
{
    VaxConfig cfg;
    cfg.memorySize = 0x10000;
    cfg.stackTop = 0x8000;
    struct Case
    {
        std::vector<std::uint8_t> bytes;
        std::uint64_t cycles, regReads, regWrites;
        std::uint32_t r1;
    };
    const Case cases[] = {
        // movl #imm, ...: 2 base + 1 (immediate); 2 of 4 bytes there.
        {{0x10, 0x8f, 0x01, 0x02}, 3, 0, 0, 0x100},
        // movl -(r1), 0xbbaa....(r2): 2 + 1 (autodec) + 2 (long disp).
        {{0x10, 0x71, 0xe2, 0xaa, 0xbb}, 5, 1, 1, 0xfc},
    };
    for (const Case &c : cases) {
        for (const bool fast : {false, true}) {
            SCOPED_TRACE(cat(c.bytes.size(), fast ? " (runFast)" : " (step)"));
            VaxMachine m(cfg);
            const auto org =
                static_cast<std::uint32_t>(cfg.memorySize - c.bytes.size());
            m.memory().load(org, c.bytes.data(), c.bytes.size());
            m.reset(org);
            m.setReg(1, 0x100);
            try {
                if (fast)
                    m.runFast(1);
                else
                    m.step();
                ADD_FAILURE() << "no fault";
            } catch (const FatalError &e) {
                EXPECT_EQ(std::string(e.what()),
                          "out-of-range 1-byte access at address 0x10000 "
                          "(memory size 0x10000)");
            }
            const VaxStats &s = m.stats();
            EXPECT_EQ(s.instructions, 1u);
            EXPECT_EQ(s.cycles, c.cycles);
            EXPECT_EQ(s.instrBytes, c.bytes.size());
            EXPECT_EQ(m.memory().stats().fetches, c.bytes.size());
            EXPECT_EQ(s.regOperandReads, c.regReads);
            EXPECT_EQ(s.regOperandWrites, c.regWrites);
            EXPECT_EQ(m.reg(1), c.r1);
            EXPECT_EQ(m.pc(), 0x10000u);
        }
    }
}

TEST(VaxMachine, RetWithoutFrameRejected)
{
    VaxMachine m;
    Program prog = assembleVax("start: ret\n");
    m.loadProgram(prog);
    EXPECT_THROW(m.run(), FatalError);
}

TEST(VaxAssembler, ErrorsCarryLineNumbers)
{
    try {
        assembleVax("start: movl #1, r0\n frobnicate r1\n");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(VaxAssembler, OperandArityChecked)
{
    EXPECT_THROW(assembleVax("start: addl3 r1, r2\n"), FatalError);
    EXPECT_THROW(assembleVax("start: movl r1\n"), FatalError);
    EXPECT_THROW(assembleVax("start: beql #5\n"), FatalError);
}

TEST(VaxAssembler, ForwardReferencesResolve)
{
    const VaxMachine m = runVax(R"(
start:  movl  fwd, r0
        halt
fwd:    .word 1234
)");
    EXPECT_EQ(m.reg(0), 1234u);
}

TEST(VaxMachine, AutoIncrementStepsByOperandWidth)
{
    // Regression: byte-width autoincrement must advance by 1, not 4;
    // autodecrement steps back by the same width.
    const Program prog = assembleVax(R"(
start:  moval bytes, r1
        movzbl (r1)+, r2
        movzbl (r1)+, r3
        moval words, r4
        movl  (r4)+, r5
        movl  (r4)+, r6
        moval halves, r7
        movzwl (r7)+, r8
        movzwl (r7)+, r9
        movzwl -(r7), r10
        movzbl -(r1), r11
        movl  -(r4), r0
        halt
bytes:  .byte 7, 9
        .align 2
halves: .half 300, 400
        .align 4
words:  .word 100, 200
)");
    for (const bool fast : {false, true}) {
        SCOPED_TRACE(fast ? "runFast" : "step");
        VaxMachine m;
        m.loadProgram(prog);
        if (fast)
            ASSERT_TRUE(m.runFast().halted);
        else
            m.run();
        EXPECT_EQ(m.reg(2), 7u);
        EXPECT_EQ(m.reg(3), 9u);
        EXPECT_EQ(m.reg(5), 100u);
        EXPECT_EQ(m.reg(6), 200u);
        EXPECT_EQ(m.reg(8), 300u);
        EXPECT_EQ(m.reg(9), 400u);
        EXPECT_EQ(m.reg(10), 400u);  // -(r7) steps back one half
        EXPECT_EQ(m.reg(11), 9u);    // -(r1) steps back one byte
        EXPECT_EQ(m.reg(0), 200u);   // -(r4) steps back one long
        EXPECT_EQ(m.reg(1), prog.symbol("bytes") + 1);
        EXPECT_EQ(m.reg(7), prog.symbol("halves") + 2);
        EXPECT_EQ(m.reg(4), prog.symbol("words") + 4);
    }
}

/**
 * Operand counters and cycles of one `tstl` (or `clrl`) per
 * addressing mode, hand-computed from the cost model: tstl/clrl base
 * 2 cycles, plus the mode's specifier cycles (0 literal/register, 1
 * deferred/auto/immediate/byte and word displacement, 2 absolute and
 * long displacement), plus memAccessCycles (10 here) per memory
 * operand.  Both execution tiers must read the same figures.
 */
TEST(VaxMachine, OperandCountsAndCyclesPerAddressingMode)
{
    struct Case
    {
        const char *inst;
        std::uint64_t cycles, regReads, regWrites, memReads, memWrites;
        std::uint32_t r1After;
    };
    constexpr std::uint32_t base = 0x20000;
    const Case cases[] = {
        {"tstl #5", 2, 0, 0, 0, 0, base},
        {"tstl #100000", 3, 0, 0, 0, 0, base},
        {"tstl r1", 2, 1, 0, 0, 0, base},
        {"tstl (r1)", 13, 1, 0, 1, 0, base},
        {"tstl (r1)+", 13, 1, 1, 1, 0, base + 4},
        {"tstl -(r1)", 13, 1, 1, 1, 0, base - 4},
        {"tstl @0x20000", 14, 0, 0, 1, 0, base},
        {"tstl 4(r1)", 13, 1, 0, 1, 0, base},
        {"tstl 300(r1)", 13, 1, 0, 1, 0, base},
        {"tstl 100000(r1)", 14, 1, 0, 1, 0, base},
        // PC-relative: the PC after the specifier (and displacement)
        // bytes, 0x1004 from `.org 0x1002` and 0x1003 + 1 from 0x1000.
        {".org 0x1002\nstart: tstl (pc)", 13, 1, 0, 1, 0, base},
        {"tstl 1(pc)", 13, 1, 0, 1, 0, base},
        {"clrl r2", 2, 0, 1, 0, 0, base},
        {"clrl (r1)", 13, 1, 0, 0, 1, base},
        {"clrl (r1)+", 13, 1, 1, 0, 1, base + 4},
    };
    VaxConfig cfg;
    cfg.memAccessCycles = 10;
    for (const Case &c : cases) {
        const std::string line = c.inst;
        const Program prog = assembleVax(
            cat(line.find("start:") == std::string::npos ? "start: " : "",
                line, "\n        halt\n"));
        for (const bool fast : {false, true}) {
            SCOPED_TRACE(cat(c.inst, fast ? " (runFast)" : " (step)"));
            VaxMachine m(cfg);
            m.loadProgram(prog);
            m.setReg(1, base);
            if (fast)
                EXPECT_EQ(m.runFast(1).steps, 1u);
            else
                m.step();
            const VaxStats &s = m.stats();
            EXPECT_EQ(s.instructions, 1u);
            EXPECT_EQ(s.cycles, c.cycles);
            EXPECT_EQ(s.regOperandReads, c.regReads);
            EXPECT_EQ(s.regOperandWrites, c.regWrites);
            EXPECT_EQ(s.memOperandReads, c.memReads);
            EXPECT_EQ(s.memOperandWrites, c.memWrites);
            EXPECT_EQ(m.reg(1), c.r1After);
        }
    }
}

TEST(VaxMachine, DeepJsbNesting)
{
    const VaxMachine m = runVax(R"(
start:  movl  #0, r0
        jsb   level1
        halt
level1: incl  r0
        jsb   level2
        rsb
level2: incl  r0
        jsb   level3
        rsb
level3: incl  r0
        rsb
)");
    EXPECT_EQ(m.reg(0), 3u);
    EXPECT_EQ(m.stats().maxCallDepth, 3);
}

} // namespace
} // namespace risc1
