/** Tests for the PSW pack/unpack contract and GETPSW/PUTPSW flows. */

#include <gtest/gtest.h>

#include "helpers.hh"

namespace risc1 {
namespace {

TEST(Psw, PackLayout)
{
    Psw psw;
    psw.cc.c = true;
    psw.cc.v = false;
    psw.cc.z = true;
    psw.cc.n = false;
    psw.intEnable = true;
    psw.cwp = 3;
    psw.swp = 5;
    const std::uint32_t packed = psw.pack();
    EXPECT_EQ(packed & 0x1u, 1u);          // C
    EXPECT_EQ((packed >> 1) & 1u, 0u);     // V
    EXPECT_EQ((packed >> 2) & 1u, 1u);     // Z
    EXPECT_EQ((packed >> 3) & 1u, 0u);     // N
    EXPECT_EQ((packed >> 4) & 1u, 1u);     // I
    EXPECT_EQ((packed >> 8) & 0x1fu, 3u);  // CWP
    EXPECT_EQ((packed >> 16) & 0x1fu, 5u); // SWP
}

TEST(Psw, UnpackWritesUserBitsOnly)
{
    Psw psw;
    psw.cwp = 7;
    psw.swp = 2;
    psw.unpackUserBits(0xffffffff);
    EXPECT_TRUE(psw.cc.c);
    EXPECT_TRUE(psw.cc.v);
    EXPECT_TRUE(psw.cc.z);
    EXPECT_TRUE(psw.cc.n);
    EXPECT_TRUE(psw.intEnable);
    // Window pointers are privileged and untouched.
    EXPECT_EQ(psw.cwp, 7);
    EXPECT_EQ(psw.swp, 2);
}

TEST(Psw, RoundTripUserBits)
{
    for (unsigned bitsVal = 0; bitsVal < 32; ++bitsVal) {
        Psw a;
        a.cc.c = bitsVal & 1;
        a.cc.v = bitsVal & 2;
        a.cc.z = bitsVal & 4;
        a.cc.n = bitsVal & 8;
        a.intEnable = bitsVal & 16;
        Psw b;
        b.unpackUserBits(a.pack());
        EXPECT_EQ(a.cc, b.cc) << bitsVal;
        EXPECT_EQ(a.intEnable, b.intEnable) << bitsVal;
    }
}

TEST(Psw, SaveRestoreAcrossClobber)
{
    // The classic handler idiom: capture PSW, trash the flags, restore.
    const Machine m = test::runAsm(R"(
start:  cmp   r0, 1          ; set borrow/negative flags (0 - 1)
        getpsw r5
        cmp   r0, r0          ; Z := 1, flags differ now
        putpsw r5            ; restore original flags
        blt   ok             ; the restored 'lt' state must hold
        nop
        ldi   r1, 111
        halt
ok:     ldi   r1, 222
        halt
)");
    EXPECT_EQ(m.reg(1), 222u);
}

/**
 * GETPSW's whole packed word, hand-computed for known condition codes,
 * interrupt enable and window pointers, on both execution tiers.
 */
TEST(Psw, GetpswReadsWholeWord)
{
    const std::vector<Instruction> prog = {
        Instruction::aluImm(Opcode::Sub, 0, 0, 1, true), // 0 - 1: C, N
        Instruction{.op = Opcode::Getpsw, .rd = 2},
        Instruction{.op = Opcode::Putpsw, .rs1 = 0},     // cc, I := 0
        Instruction{.op = Opcode::Getpsw, .rd = 3},
        Instruction::callr(31, 8),                       // to kOrg+24
        Instruction::nop(),                              // delay slot
        Instruction{.op = Opcode::Putpsw, .rs1 = 2},     // C, N, I back
        Instruction{.op = Opcode::Getpsw, .rd = 4},
    };
    for (const bool fast : {false, true}) {
        SCOPED_TRACE(fast ? "runFast" : "step");
        Machine m;
        test::loadRaw(m, prog);
        if (fast)
            ASSERT_TRUE(m.runFast().halted);
        else
            m.run();
        // C (bit 0), N (bit 3), I (bit 4); CWP 0, SWP 1 at reset.
        EXPECT_EQ(m.reg(2), 0x00010019u);
        // Everything user-writable cleared.
        EXPECT_EQ(m.reg(3), 0x00010000u);
        // One call deeper: CWP 7 (windows slide down), SWP still 1.
        EXPECT_EQ(m.reg(4), 0x00010719u);
    }
}

TEST(Psw, CwpVisibleThroughGetpsw)
{
    const Machine m = test::runAsm(R"(
start:  getpsw r2
        call  probe
        nop
        mov   r1, r10
        halt
probe:  getpsw r16
        mov   r26, r16       ; return the callee-side PSW (HIGH -> caller LOW)
        ret
        nop
)");
    // The callee saw a different CWP field than the caller.
    Machine outer;
    (void)outer;
    const std::uint32_t callerPsw = m.reg(2);
    const std::uint32_t calleePsw = m.reg(1);
    EXPECT_NE((callerPsw >> 8) & 0x1f, (calleePsw >> 8) & 0x1f);
}

} // namespace
} // namespace risc1
