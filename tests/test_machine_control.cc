/** Control-transfer, delay-slot, and special-instruction tests. */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "helpers.hh"

namespace risc1 {
namespace {

using test::kOrg;
using test::loadRaw;
using test::runAsm;

TEST(MachineControl, DelaySlotAlwaysExecutes)
{
    // jmpr over an add; the add in the delay slot still runs.
    Machine m;
    loadRaw(m, {
        Instruction::jmpr(Cond::Alw, 12),              // to kOrg+12
        Instruction::aluImm(Opcode::Add, 1, 0, 11),    // delay slot: runs
        Instruction::aluImm(Opcode::Add, 2, 0, 22),    // skipped
        Instruction::aluImm(Opcode::Add, 3, 0, 33),    // target
    });
    m.run();
    EXPECT_EQ(m.reg(1), 11u);
    EXPECT_EQ(m.reg(2), 0u);
    EXPECT_EQ(m.reg(3), 33u);
}

TEST(MachineControl, UntakenJumpFallsThrough)
{
    Machine m;
    loadRaw(m, {
        Instruction::jmpr(Cond::Never, 12),
        Instruction::aluImm(Opcode::Add, 1, 0, 1),
        Instruction::aluImm(Opcode::Add, 2, 0, 2),
    });
    m.run();
    EXPECT_EQ(m.reg(1), 1u);
    EXPECT_EQ(m.reg(2), 2u);
    EXPECT_EQ(m.stats().untakenJumps, 1u);
}

TEST(MachineControl, ConditionalBranchOnFlags)
{
    const Machine m = runAsm(R"(
start:  ldi   r1, 5
        ldi   r2, 5
        cmp   r1, r2
        beq   equal
        nop
        ldi   r3, 111        ; must be skipped
        halt
equal:  ldi   r3, 222
        halt
)");
    EXPECT_EQ(m.reg(3), 222u);
}

TEST(MachineControl, BackwardLoop)
{
    const Machine m = runAsm(R"(
start:  clr   r1
        ldi   r2, 10
loop:   inc   r1
        cmp   r1, r2
        bne   loop
        nop
        halt
)");
    EXPECT_EQ(m.reg(1), 10u);
}

TEST(MachineControl, IndirectJumpThroughRegister)
{
    Machine m;
    loadRaw(m, {
        Instruction::jmp(Cond::Alw, 1, 4),             // to r1+4
        Instruction::nop(),                            // delay slot
        Instruction::aluImm(Opcode::Add, 2, 0, 1),     // skipped
        Instruction::aluImm(Opcode::Add, 3, 0, 7),     // r1+4 target
    });
    m.setReg(1, kOrg + 8);
    m.run();
    EXPECT_EQ(m.reg(2), 0u);
    EXPECT_EQ(m.reg(3), 7u);
}

TEST(MachineControl, HaltStopsBeforeDelaySlot)
{
    Machine m;
    loadRaw(m, {
        Instruction::jmpr(Cond::Alw, 0),               // halt
        Instruction::aluImm(Opcode::Add, 1, 0, 9),     // must NOT run
    }, false);
    m.run();
    EXPECT_TRUE(m.halted());
    EXPECT_EQ(m.reg(1), 0u);
}

TEST(MachineControl, CallWritesReturnAddressInNewWindow)
{
    Machine m;
    loadRaw(m, {
        Instruction::callr(31, 16),                    // call kOrg+16
        Instruction::nop(),                            // delay slot
        Instruction::aluImm(Opcode::Add, 1, 0, 5),     // after return
        Instruction::jmpr(Cond::Alw, 0),               // halt
        // callee at kOrg+16:
        Instruction::aluImm(Opcode::Add, 16, 31, 0),   // r16 = retaddr
        Instruction::ret(31, 8),
        Instruction::nop(),                            // delay slot
    });
    m.run();
    EXPECT_EQ(m.reg(1), 5u);
    EXPECT_EQ(m.stats().calls, 1u);
    EXPECT_EQ(m.stats().returns, 1u);
}

TEST(MachineControl, ReturnAddressIsCallSite)
{
    Machine m;
    loadRaw(m, {
        Instruction::callr(31, 16),
        Instruction::nop(),
        Instruction::nop(),                            // return lands here
        Instruction::jmpr(Cond::Alw, 0),               // halt
        Instruction::aluImm(Opcode::Add, 17, 31, 0),   // capture r31
        Instruction::ret(31, 8),
        Instruction::nop(),
    });
    m.setRecordCallTrace(true);
    m.run();
    // r31 in the callee equals the address of the CALL itself.
    // We can't read the callee's window after return; instead verify
    // via depth bookkeeping and that execution resumed at call+8.
    EXPECT_EQ(m.stats().maxCallDepth, 1);
    ASSERT_EQ(m.callTrace().size(), 2u);
    EXPECT_EQ(m.callTrace()[0], CallEvent::Call);
    EXPECT_EQ(m.callTrace()[1], CallEvent::Return);
}

TEST(MachineControl, CalleeSeesCallerArgs)
{
    const Machine m = runAsm(R"(
start:  ldi   r10, 30        ; outgoing arg 0
        ldi   r11, 12        ; outgoing arg 1
        call  addfn
        nop
        mov   r1, r10        ; result comes back in caller's LOW
        halt
addfn:  add   r26, r26, r27  ; HIGHs are the incoming args
        ret
        nop
)");
    EXPECT_EQ(m.reg(1), 42u);
}

TEST(MachineControl, ReturnFromTopLevelIsFatal)
{
    Machine m;
    loadRaw(m, {Instruction::ret(31, 8)});
    EXPECT_THROW(m.run(), FatalError);
}

TEST(MachineControl, RunawayProgramHitsStepLimit)
{
    // An infinite loop that is not a self-jump (two-instruction cycle).
    Machine m;
    loadRaw(m, {
        Instruction::jmpr(Cond::Alw, 8),
        Instruction::nop(),
        Instruction::jmpr(Cond::Alw, -8),
        Instruction::nop(),
    }, false);
    EXPECT_THROW(m.run(1000), FatalError);
}

TEST(MachineControl, GtlpcReadsPreviousPc)
{
    Machine m;
    loadRaw(m, {
        Instruction::nop(),
        Instruction{.op = Opcode::Gtlpc, .rd = 5},
    });
    m.run();
    EXPECT_EQ(m.reg(5), kOrg);
}

TEST(MachineControl, GetPutPsw)
{
    Machine m;
    loadRaw(m, {
        Instruction::aluImm(Opcode::Sub, 0, 0, 0, true),  // Z := 1
        Instruction{.op = Opcode::Getpsw, .rd = 5},
        Instruction::aluImm(Opcode::Add, 6, 0, 0x1, true), // clobber cc
        Instruction{.op = Opcode::Putpsw, .rs1 = 5},       // restore
    });
    m.run();
    EXPECT_TRUE(m.psw().cc.z);
    EXPECT_NE(m.reg(5) & 0x4, 0u); // Z bit was captured
}

TEST(MachineControl, CalliRetiInterruptFlow)
{
    Machine m;
    loadRaw(m, {
        Instruction::nop(),
        Instruction{.op = Opcode::Calli, .rd = 16},  // enter "handler"
        Instruction{.op = Opcode::Reti,
                    .rs1 = 16,
                    .imm = true,
                    .simm13 = 16},                   // resume at r16+16
        Instruction::nop(),                          // delay slot
        Instruction::aluImm(Opcode::Add, 1, 0, 3),   // r16+16 target
    });
    m.run();
    EXPECT_EQ(m.reg(1), 3u);
    EXPECT_TRUE(m.psw().intEnable);
}

TEST(MachineControl, DelaySlotStatsCountNops)
{
    Machine m;
    loadRaw(m, {
        Instruction::jmpr(Cond::Alw, 12),
        Instruction::nop(),                           // nop slot
        Instruction::nop(),
        Instruction::jmpr(Cond::Alw, 8),              // kOrg+12
        Instruction::aluImm(Opcode::Add, 1, 0, 1),    // useful slot
        Instruction::nop(),                           // kOrg+20 target
    });
    m.run();
    // Slots: after first jmpr (nop), after second jmpr (add), after
    // the final halt none executes.
    EXPECT_EQ(m.stats().delaySlotsExecuted, 2u);
    EXPECT_EQ(m.stats().delaySlotNops, 1u);
}

/**
 * One instruction of every class (and both s2 forms where a class has
 * them) under a Timing whose class costs all differ: the operand
 * counters, cycles, and delay-slot counts are hand-computed, so a
 * slip in either tier's accounting shows without a second copy to
 * compare against.
 */
TEST(MachineControl, EveryClassCountsOperandsCyclesAndSlots)
{
    const auto regIndexed = [](Opcode op, unsigned rd) {
        return Instruction{.op = op, .rd = static_cast<std::uint8_t>(rd),
                           .rs1 = 1, .rs2 = 0};
    };
    const std::vector<Instruction> prog = {
        Instruction::ldhi(1, 4),                      // 00 r1 = 0x8000
        Instruction::alu(Opcode::Add, 2, 1, 1),       // 04
        Instruction::aluImm(Opcode::Add, 3, 1, 8),    // 08
        Instruction::load(Opcode::Ldl, 4, 1, 0),      // 0c
        regIndexed(Opcode::Ldl, 5),                   // 10
        Instruction::store(Opcode::Stl, 4, 1, 4),     // 14
        regIndexed(Opcode::Stl, 4),                   // 18
        Instruction::jmpr(Cond::Never, 8),            // 1c untaken
        Instruction::nop(),                           // 20 slot (nop)
        Instruction{.op = Opcode::Jmp,                // 24 untaken
                    .rd = static_cast<std::uint8_t>(Cond::Never),
                    .rs1 = 1, .rs2 = 0},
        Instruction{.op = Opcode::Getpsw, .rd = 6},   // 28 slot
        Instruction{.op = Opcode::Gtlpc, .rd = 7},    // 2c
        Instruction{.op = Opcode::Putpsw, .rs1 = 6},  // 30
        Instruction::callr(31, 12),                   // 34 to 40
        Instruction::nop(),                           // 38 slot (nop)
        Instruction::jmpr(Cond::Alw, 0),              // 3c halt
        Instruction{.op = Opcode::Calli, .rd = 25},   // 40 r25 = kOrg+38
        Instruction{.op = Opcode::Reti, .rs1 = 25,    // 44 to 4c (no slot
                    .imm = true, .simm13 = 0x14},     //    before it)
        Instruction::nop(),                           // 48 slot (nop)
        Instruction::ret(31, 8),                      // 4c to 3c
        Instruction::nop(),                           // 50 slot (nop)
    };
    MachineConfig cfg;
    cfg.timing.aluCycles = 2;
    cfg.timing.loadCycles = 3;
    cfg.timing.storeCycles = 5;
    cfg.timing.jumpCycles = 7;
    cfg.timing.callCycles = 11;
    cfg.timing.retCycles = 13;
    cfg.timing.specialCycles = 17;

    for (const bool fast : {false, true}) {
        SCOPED_TRACE(fast ? "runFast" : "step");
        Machine m(cfg);
        loadRaw(m, prog);
        if (fast)
            ASSERT_TRUE(m.runFast().halted);
        else
            m.run();
        const RunStats &s = m.stats();
        EXPECT_EQ(m.pc(), kOrg + 0x3c);
        EXPECT_EQ(s.instructions, 21u);
        EXPECT_EQ(s.classCount(InstClass::Alu), 7u);     // 3 + 4 nops
        EXPECT_EQ(s.classCount(InstClass::Load), 2u);
        EXPECT_EQ(s.classCount(InstClass::Store), 2u);
        EXPECT_EQ(s.classCount(InstClass::Jump), 3u);    // incl. halt
        EXPECT_EQ(s.classCount(InstClass::CallRet), 4u);
        EXPECT_EQ(s.classCount(InstClass::Special), 3u);
        // 7*2 + 2*3 + 2*5 + 3*7 + 2*11 (callr, calli)
        //     + 2*13 (reti, ret) + 3*17
        EXPECT_EQ(s.cycles, 150u);
        // ALU 2+1+1+1+1 (nops read r0), loads 1+2, stores 2+3,
        // jmp 2, putpsw 1, reti 1, ret 1.
        EXPECT_EQ(s.regOperandReads, 20u);
        // Every ALU/load/getpsw/gtlpc destination (11), plus each
        // call's return-address write (2), counted once, as its
        // decoded rd.
        EXPECT_EQ(s.regOperandWrites, 13u);
        // After jmpr, jmp, callr, reti and ret; never after CALLI.
        EXPECT_EQ(s.delaySlotsExecuted, 5u);
        EXPECT_EQ(s.delaySlotNops, 4u);
        EXPECT_EQ(s.untakenJumps, 2u);
        EXPECT_EQ(s.takenTransfers, 3u);
        EXPECT_EQ(s.loadCount, 2u);
        EXPECT_EQ(s.storeCount, 2u);
        EXPECT_EQ(s.calls, 2u);
        EXPECT_EQ(s.returns, 2u);
        EXPECT_EQ(m.reg(25), 0u); // back in the outer window
        EXPECT_TRUE(m.psw().intEnable);
    }
}

TEST(MachineControl, TraceSeesEveryInstruction)
{
    Machine m;
    loadRaw(m, {
        Instruction::nop(),
        Instruction::aluImm(Opcode::Add, 1, 0, 1),
    });
    std::vector<std::uint32_t> pcs;
    test::ProbeTrace probe([&](const obs::TraceEvent &ev) {
        pcs.push_back(ev.pc);
    });
    m.setTrace(probe.get());
    m.run();
    ASSERT_EQ(pcs.size(), 3u); // nop, add, halt
    EXPECT_EQ(pcs[0], kOrg);
    EXPECT_EQ(pcs[1], kOrg + 4);
    EXPECT_EQ(pcs[2], kOrg + 8);
}

} // namespace
} // namespace risc1
