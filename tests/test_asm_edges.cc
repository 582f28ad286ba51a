/** Edge-case tests for both assemblers' directives and layouts. */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "helpers.hh"
#include "vax/vassembler.hh"
#include "vax/vmachine.hh"

namespace risc1 {
namespace {

TEST(AsmEdges, MultipleOrgSegments)
{
    const Program prog = assembleRisc(R"(
        .org 0x1000
start:  bra   over
        nop
        halt
        .org 0x3000
over:   ldi   r1, 7
        jmpr  alw, back
        nop
        .org 0x1100
back:   halt
)");
    // jmpr across segments: 0x3000-region to 0x1100.
    Machine m;
    m.loadProgram(prog);
    m.run();
    EXPECT_EQ(m.reg(1), 7u);
    EXPECT_GE(prog.segments.size(), 3u);
}

TEST(AsmEdges, DotExpressionInDirectives)
{
    const Program prog = assembleRisc(R"(
start:  halt
here:   .word . , . + 4
)");
    Machine m;
    m.loadProgram(prog);
    const std::uint32_t here = prog.symbol("here");
    EXPECT_EQ(m.memory().peekWord(here), here);
    EXPECT_EQ(m.memory().peekWord(here + 4), here + 4);
}

TEST(AsmEdges, EquChains)
{
    const Program prog = assembleRisc(R"(
        .equ a, 10
        .equ b, a + 5
        .equ c, b + a
start:  ldi   r1, c
        halt
)");
    Machine m;
    m.loadProgram(prog);
    m.run();
    EXPECT_EQ(m.reg(1), 25u);
}

TEST(AsmEdges, AlignFromOddAddress)
{
    const Program prog = assembleRisc(R"(
start:  halt
bytes:  .byte 1
        .align 8
aligned: .word 42
)");
    EXPECT_EQ(prog.symbol("aligned") % 8, 0u);
}

TEST(AsmEdges, MaxWidthImmediates)
{
    Machine m;
    test::loadAsm(m, R"(
start:  add   r1, r0, 4095    ; largest positive simm13
        add   r2, r0, -4096   ; most negative
        ldhi  r3, 0x3ffff     ; large positive imm19
        halt
)");
    m.run();
    EXPECT_EQ(m.reg(1), 4095u);
    EXPECT_EQ(m.reg(2), static_cast<std::uint32_t>(-4096));
    EXPECT_EQ(m.reg(3), 0x3ffffu << 13);
}

TEST(AsmEdges, JmprRangeLimits)
{
    // A branch further than +-256 KiB must be rejected cleanly.
    EXPECT_THROW(assembleRisc(R"(
start:  bra   far
        nop
        .org 0x100000
far:    halt
)"),
                 FatalError);
}

TEST(AsmEdges, NegativeOrgRejected)
{
    EXPECT_THROW(assembleRisc(".org 0 - 4\nstart: halt\n"),
                 FatalError);
    EXPECT_THROW(assembleRisc(".org 2\nstart: halt\n"), FatalError);
}

TEST(AsmEdges, ExpressionsInOperands)
{
    Machine m;
    test::loadAsm(m, R"(
        .equ  base, 0x2000
start:  ldi   r2, base
        ldi   r3, 99
        stl   r3, base + 8 - base(r2)  ; displacement 8
        ldl   r1, 8(r2)
        halt
)");
    m.run();
    EXPECT_EQ(m.reg(1), 99u);
}

TEST(AsmEdges, VaxStringAndBytesLayout)
{
    const Program prog = assembleVax(R"(
start:  halt
msg:    .ascii "AB", "CD"
term:   .asciz "!"
nums:   .byte 1, 2, 255
)");
    VaxMachine vm;
    vm.loadProgram(prog);
    const std::uint32_t msg = prog.symbol("msg");
    EXPECT_EQ(vm.memory().peekByte(msg + 0), 'A');
    EXPECT_EQ(vm.memory().peekByte(msg + 3), 'D');
    EXPECT_EQ(vm.memory().peekByte(prog.symbol("term") + 1), 0);
    EXPECT_EQ(vm.memory().peekByte(prog.symbol("nums") + 2), 255);
}

TEST(AsmEdges, VaxShortLiteralBoundary)
{
    // 63 fits the 1-byte short-literal form; 64 needs an immediate.
    const Program p63 = assembleVax("start: movl #63, r0\n");
    const Program p64 = assembleVax("start: movl #64, r0\n");
    // The 1-byte short literal becomes a 5-byte immediate: +4 bytes.
    EXPECT_EQ(p63.codeBytes() + 4, p64.codeBytes());
    VaxMachine m;
    m.loadProgram(assembleVax("start: movl #63, r0\n movl #64, r1\n"
                              " halt\n"));
    m.run();
    EXPECT_EQ(m.reg(0), 63u);
    EXPECT_EQ(m.reg(1), 64u);
}

TEST(AsmEdges, RiscEntryFallsBackToFirstCode)
{
    const Program prog = assembleRisc(R"(
main_loop:  halt
)");
    EXPECT_EQ(prog.entry, 0x1000u);
}

TEST(AsmEdges, CaseInsensitiveConditionsAndRegisters)
{
    Machine m;
    test::loadAsm(m, R"(
start:  LDI   R1, 5
        CMP   R1, 5
        BEQ   ok
        NOP
        CLR   R1
ok:     HALT
)");
    m.run();
    EXPECT_EQ(m.reg(1), 5u);
}

/** The bytes and entry of @p prog, the parts an image is made of. */
std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>>
imageOf(const Program &prog)
{
    std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> out;
    out.emplace_back(prog.entry, std::vector<std::uint8_t>{});
    for (const Segment &seg : prog.segments)
        out.emplace_back(seg.base, seg.bytes);
    return out;
}

TEST(AsmEdges, CaseIsIgnoredInNames)
{
    // Mnemonics and register names match in any case, on both ISAs.
    EXPECT_EQ(imageOf(assembleRisc("ADD R1, R2, 3\nHALT\n")),
              imageOf(assembleRisc("add r1, r2, 3\nhalt\n")));
    EXPECT_EQ(
        imageOf(assembleVax("MOVL #1, R0\npushl AP\nmovl Fp, sP\n")),
        imageOf(assembleVax("movl #1, r0\npushl ap\nmovl fp, sp\n")));

    // A register name in any case is still no label, and the error
    // prints the label as written.
    const std::pair<bool, const char *> labels[] = {
        {false, "R5"}, {true, "SP"}, {true, "Pc"}};
    for (const auto &[vax, label] : labels) {
        const std::string src = std::string(label) + ": halt\n";
        try {
            vax ? assembleVax(src) : assembleRisc(src);
            ADD_FAILURE() << "assembled: " << src;
        } catch (const FatalError &e) {
            EXPECT_EQ(std::string(e.what()),
                      std::string("line 1: register name '") + label +
                          "' used as a label");
        }
    }
}

TEST(AsmEdges, ValuesAtTheEdgesOfTheirRanges)
{
    // `.equ` takes [-2^31, 2^32), stored as the low 32 bits; data
    // values fit their width as signed or unsigned; `.entry` takes any
    // 32-bit address.
    for (const bool vax : {false, true}) {
        const std::string src =
            ".equ neg, 0 - 4\n.equ lo, 0 - 0x80000000\n"
            ".equ hi, 0xffffffff\nstart: halt\n.align 4\n"
            "data: .word 0xffffffff, 0 - 0x80000000\n"
            ".half 0xffff, 0 - 0x8000\n.byte 255, 0 - 128\n"
            ".entry 0xffffffff\n";
        const Program prog = vax ? assembleVax(src) : assembleRisc(src);
        EXPECT_EQ(prog.symbol("neg"), 0xfffffffcu);
        EXPECT_EQ(prog.symbol("lo"), 0x80000000u);
        EXPECT_EQ(prog.symbol("hi"), 0xffffffffu);
        EXPECT_EQ(prog.entry, 0xffffffffu);
        const std::vector<std::uint8_t> data = {
            0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x80,
            0xff, 0xff, 0x00, 0x80, 0xff, 0x80};
        // The VAX's data segment starts with the .align padding.
        const std::vector<std::uint8_t> &seg = prog.segments.back().bytes;
        ASSERT_GE(seg.size(), data.size());
        EXPECT_TRUE(std::equal(data.rbegin(), data.rend(), seg.rbegin()));
    }
}

TEST(AsmEdges, VaxOrgIsByteGranular)
{
    // Only RISC I needs word-aligned code; VAX code may start anywhere.
    const Program prog = assembleVax(".org 0x1001\nstart: halt\n");
    EXPECT_EQ(prog.entry, 0x1001u);
    ASSERT_EQ(prog.segments.size(), 1u);
    EXPECT_EQ(prog.segments[0].base, 0x1001u);
}

/** One rejected source and the exact text the assembler raises. */
struct ErrorRow
{
    bool vax;
    const char *source;
    const char *what;
    /** The loading machine's memory size (nullopt: the free
     *  functions' 32-bit bound). */
    std::optional<std::uint64_t> memBytes = std::nullopt;
};

/**
 * Every error an input can reach in the assembler core, the token
 * cursor and both ISA grammars/encoders, with its full text.
 */
const ErrorRow kErrorRows[] = {
    // Token cursor and parse loop, once per ISA grammar.
    {false, "start: ldl r1, (5)\n", "line 1: expected register, got '5'"},
    {false, "start: ldl r1, 4(r2\n", "line 1: expected ')', got ''"},
    {false, "start: add r1, r2, ,\n", "line 1: expected expression, got ','"},
    {false, "start: add r1, r2, 5 +\n",
     "line 1: expected expression term after sign"},
    {false, "start: ldl r1, (r40)\n", "line 1: 'r40' is not a register"},
    {false, "start: ldl r1, 4(x)\n", "line 1: 'x' is not a register"},
    {false, "r5: nop\n", "line 1: register name 'r5' used as a label"},
    {false, "start: add r1, r2, r3 )\n",
     "line 1: trailing junk after statement: ')'"},
    {false, "start: halt\n, nop\n",
     "line 2: expected label or mnemonic, got ','"},
    {false, "start: halt\n.word 1,\n", "line 2: expected expression, got ''"},
    {true, "start: movl -(5), r0\n", "line 1: expected register, got '5'"},
    {true, "start: movl r0, 4(r1\n", "line 1: expected ')', got ''"},
    {true, "start: movl #, r0\n", "line 1: expected expression, got ','"},
    {true, "start: movl #1 +, r0\n",
     "line 1: expected expression term after sign"},
    {true, "start: movl -(r20), r0\n", "line 1: 'r20' is not a register"},
    {true, "start: movl -8(x), r0\n", "line 1: 'x' is not a register"},
    {true, "start: movl (r16), r0\n", "line 1: 'r16' is not a register"},
    {true, "start: movl 8(q), r0\n", "line 1: 'q' is not a register"},
    {true, "sp: halt\n", "line 1: register name 'sp' used as a label"},
    {true, "start: movl r0, r1 r2\n",
     "line 1: trailing junk after statement: 'r2'"},
    {true, "start: halt\n# halt\n",
     "line 2: expected label or mnemonic, got '#'"},
    {true, "start: halt\n.word 1,\n", "line 2: expected expression, got ''"},

    // Symbols and layout directives.
    {false, "a: nop\na: nop\n", "line 2: duplicate label 'a'"},
    {true, "a: halt\na: halt\n", "line 2: duplicate label 'a'"},
    {false, "start: ldi r1, nowhere\n", "line 1: undefined symbol 'nowhere'"},
    {false, "start: halt\n.word later\n",
     "line 2: undefined symbol 'later'"},
    {true, "start: movl @nowhere, r0\n",
     "line 1: undefined symbol 'nowhere'"},
    {true, "start: halt\n.align 4\n.word later\n",
     "line 3: undefined symbol 'later'"},
    {false, ".org\nstart: halt\n", "line 1: .org needs one resolvable expression"},
    {false, ".org later\nstart: halt\nlater: halt\n",
     "line 1: .org needs one resolvable expression"},
    {false, ".org 2\nstart: halt\n",
     "line 1: .org address must be non-negative and word-aligned"},
    {false, ".org 0 - 4\nstart: halt\n",
     "line 1: .org address must be non-negative and word-aligned"},
    {true, ".org 1, 2\nstart: halt\n",
     "line 1: .org needs one resolvable expression"},
    {false, ".equ x\nstart: halt\n", "line 1: .equ takes: name, expression"},
    {false, ".equ 5, 3\nstart: halt\n",
     "line 1: .equ first operand must be a name"},
    {false, ".equ r5, 3\nstart: halt\n",
     "line 1: .equ first operand must be a name"},
    {false, ".equ x, later\nstart: halt\nlater: halt\n",
     "line 1: .equ expression must be resolvable"},
    {false, ".equ x, 1\n.equ x, 2\nstart: halt\n",
     "line 2: duplicate symbol 'x'"},
    {false, "x: halt\n.equ x, 2\n", "line 2: duplicate symbol 'x'"},
    {true, ".equ x\nstart: halt\n", "line 1: .equ takes: name, expression"},
    {true, ".equ 5, 3\nstart: halt\n",
     "line 1: .equ first operand must be a name"},
    {true, ".equ x, later\nstart: halt\nlater: halt\n",
     "line 1: .equ expression must be resolvable"},
    {true, ".equ x, 1\n.equ x, 2\nstart: halt\n",
     "line 2: duplicate symbol 'x'"},
    {false, "start: halt\n.entry\n", "line 2: .entry takes one expression"},
    {true, "start: halt\n.entry 1, 2\n",
     "line 2: .entry takes one expression"},
    {false, "", "program has no code and no entry point"},
    {true, "x: .word 1\n", "program has no code and no entry point"},
    {false, "start: halt\n.mask 3\n", "line 2: unknown directive '.mask'"},
    {true, "start: halt\n.bogus 3\n", "line 2: unknown directive '.bogus'"},

    // Data directives.
    {false, "start: halt\n.space 1, 2\n",
     "line 2: .space needs one resolvable expression"},
    {false, "start: halt\n.space later\nlater: halt\n",
     "line 2: .space needs one resolvable expression"},
    {false, "start: halt\n.space 0 - 1\n", "line 2: .space with negative size"},
    {true, "start: halt\n.space later\nlater: halt\n",
     "line 2: .space needs one resolvable expression"},
    {false, "start: halt\n.align\n",
     "line 2: .align needs one resolvable expression"},
    {false, "start: halt\n.align 3\n", "line 2: .align needs a power of two"},
    {false, "start: halt\n.align 0\n", "line 2: .align needs a power of two"},
    {true, "start: halt\n.align later\nlater: halt\n",
     "line 2: .align needs one resolvable expression"},
    {true, "start: halt\n.align 6\n", "line 2: .align needs a power of two"},
    {true, "start: halt\n.align 0x100000000\n",
     "line 2: .align needs a power of two"},
    {false, "start: halt\n.ascii 5\n", "line 2: .ascii takes string operands"},
    {false, "start: halt\n.asciz \"a\", x\n",
     "line 2: .asciz takes string operands"},
    {true, "start: halt\n.asciz 5\n", "line 2: .asciz takes string operands"},
    {false, "start: halt\n.byte 1\n.word 1\n",
     "line 3: .word at unaligned address (use .align)"},
    {true, "start: halt\n.byte 1\n.word 1\n",
     "line 3: .word at unaligned address (insert .align 4 — code here is "
     "variable-length)"},
    {false, "start: halt\n.byte 1\n.half 1\n",
     "line 3: .half at unaligned address (use .align)"},
    {true, "start: halt\n.half 1\n",
     "line 2: .half at unaligned address (use .align)"},

    // RISC I operands and encoder.
    {false, "start: halt\n.byte 1\nnop\n",
     "line 3: instruction at unaligned address"},
    {false, "start: bogus r1, r2\n", "line 1: unknown mnemonic 'bogus'"},
    {false, "start: add r1, r2\n", "line 1: 'add' takes 3 operand(s), got 2"},
    {false, "start: add r1, 5, r2\n",
     "line 1: operand 2 of 'add' must be a register"},
    {false, "start: jmp zz, 0(r1)\n",
     "line 1: operand 1 of 'jmp' must be a condition (alw, eq, ne, ...)"},
    {false, "start: add r1, r2, 5000\n",
     "line 1: immediate 5000 does not fit in 13 bits"},
    {false, "start: bra 0x100000\n",
     "line 1: offset 1044480 does not fit in 19 bits (too far?)"},
    {false, "start: bra 0 - 0x7fffffffffffffff - 1\n",
     "line 1: branch target -9223372036854775808 is out of range"},
    {false, "start: nop\n       jmpr alw, 0 - 0x7fffffffffffffff + 2\n",
     "line 2: branch target -9223372036854775805 is out of range"},
    {false, "start: add r1, r2, 4(r3)\n",
     "line 1: bad s2 operand (register or expression expected)"},
    {false, "start: ldl r1\n", "line 1: missing address operand"},
    {false, "start: ldl r1, 4(r2), r3\n",
     "line 1: trailing operands after address"},
    {false, "start: ldl r1, \"x\"\n",
     "line 1: bad address operand: use off(rN), rN, s2, or an absolute "
     "expression"},
    {false, "start: inc r1, 2, 3\n", "line 1: 'inc' takes 1 or 2 operands"},
    {false, "start: ldi r1, 4(r2)\n",
     "line 1: second operand of ldi/mov must be a register or expression"},
    {false, "start: beq r1\n", "line 1: branch target must be an expression"},
    {false, "start: jmpr alw, r1\n",
     "line 1: jmpr target must be an expression"},
    {false, "start: callr r31, r1\n",
     "line 1: callr target must be an expression"},
    {false, "start: ret r1\n", "line 1: 'ret' takes 0 or 2 operands"},
    {false, "start: inc r1, r2\n",
     "line 1: operand 2 of 'inc' must be an expression"},
    {false, "start: dec r3, \"x\"\n",
     "line 1: operand 2 of 'dec' must be an expression"},
    {false, "start: ldhi r1, r2\n",
     "line 1: operand 2 of 'ldhi' must be an expression"},
    {false, "start: ldhis r1, 4(r2)\n",
     "line 1: operand 2 of 'ldhis' must be an expression"},

    // VAX operands, encoding choice and encoder.
    {true, "start: bogus\n", "line 1: unknown mnemonic 'bogus'"},
    {true, "start: movl r0\n", "line 1: 'movl' takes 2 operand(s), got 1"},
    {true, "start: halt 1\n", "line 1: 'halt' takes 0 operand(s), got 1"},
    {true, "start: brb #1\n", "line 1: immediate used as branch target"},
    {true, "start: brb r0\n", "line 1: register used as branch target"},
    {true, "start: brb far\n.space 200\nfar: halt\n",
     "line 1: branch displacement 200 exceeds byte range; restructure or "
     "use brw/jmp"},
    {true, "start: brw far\n.space 40000\nfar: halt\n",
     "line 1: branch displacement 40000 exceeds word range"},
    {true, "start: brb 0 - 0x7fffffffffffffff - 1\n",
     "line 1: branch target -9223372036854775808 is out of range"},
    {true, "start: brw 0 - 0x7fffffffffffffff - 1\n",
     "line 1: branch target -9223372036854775808 is out of range"},

    // Numeric directives take expressions only: a string, a register
    // or a memory operand is an error, never a silent 0.
    {false, "start: halt\n.word \"ab\"\n",
     "line 2: .word takes expression operands"},
    {true, "start: halt\n.align 4\n.word \"ab\"\n",
     "line 3: .word takes expression operands"},
    {false, "start: halt\n.half \"ab\"\n",
     "line 2: .half takes expression operands"},
    {false, "start: halt\n.byte \"abc\"\n",
     "line 2: .byte takes expression operands"},
    {true, "start: halt\n.byte \"abc\"\n",
     "line 2: .byte takes expression operands"},
    {false, "start: halt\n.space \"abc\"\n",
     "line 2: .space takes expression operands"},
    {true, "start: halt\n.space \"abc\"\n",
     "line 2: .space takes expression operands"},
    {false, "start: halt\n.align \"x\"\n",
     "line 2: .align takes expression operands"},
    {true, ".org \"x\"\nstart: halt\n",
     "line 1: .org takes expression operands"},
    {false, ".entry \"x\"\nstart: halt\n",
     "line 1: .entry takes expression operands"},
    {true, ".entry \"x\"\nstart: halt\n",
     "line 1: .entry takes expression operands"},
    {true, "start: halt\n.mask \"x\"\n",
     "line 2: .mask takes expression operands"},
    {false, ".equ x, \"s\"\nstart: halt\n",
     "line 1: .equ takes expression operands"},
    {false, "start: halt\n.word r5\n", "line 2: undefined symbol 'r5'"},
    {false, "start: halt\n.word 4(r1)\n",
     "line 2: trailing junk after statement: '('"},
    {false, ".equ x, r5\nstart: halt\n",
     "line 1: .equ expression must be resolvable"},
    {false, ".org r5\nstart: halt\n",
     "line 1: .org needs one resolvable expression"},
    {true, ".equ sp, 3\nstart: halt\n",
     "line 1: .equ first operand must be a name"},
    {true, ".equ R3, 3\nstart: halt\n",
     "line 1: .equ first operand must be a name"},

    // Sizes, alignments and addresses are checked alike on both ISAs.
    {true, "start: halt\n.space -1\n", "line 2: .space with negative size"},
    {true, "start: halt\n.space 0 - 2\n",
     "line 2: .space with negative size"},
    {true, "start: halt\n.align 0 - 2147483648\n",
     "line 2: .align needs a power of two"},
    {true, "start: halt\n.align 0x100000002\n",
     "line 2: .align needs a power of two"},
    {false, "start: halt\n.align 0x100000000\n",
     "line 2: .align needs a power of two"},
    {true, ".org 0 - 4\nstart: halt\n",
     "line 1: .org address must be non-negative"},

    // Sizes, addresses and the location counter stay within 32 bits.
    {false, "start: halt\n.space 0x100000001\n",
     "line 2: .space size does not fit in 32 bits"},
    {true, "start: halt\n.space 0x100000001\n",
     "line 2: .space size does not fit in 32 bits"},
    {false, ".org 0x100001000\nstart: halt\n",
     "line 1: .org address does not fit in 32 bits"},
    {true, ".org 0x100001000\nstart: halt\n",
     "line 1: .org address does not fit in 32 bits"},
    {false, "start: halt\n.space 0xffffffff\n",
     "line 2: location counter passes 0xffffffff"},
    {true, "start: halt\n.space 0xffffffff\n",
     "line 2: location counter passes 0xffffffff"},
    {false, ".org 0xfffffffc\nstart: halt\n",
     "line 2: location counter passes 0xffffffff"},
    {true, ".org 0xffffffff\nstart: halt\n",
     "line 2: location counter passes 0xffffffff"},

    // Bounded by the loading machine's memory, pass 1 refuses what the
    // loader would, before pass 2 materialises any padding.
    {false, "start: halt\n.space 0x10000000\n",
     "line 2: location counter passes the end of memory (0x40000)",
     0x40000},
    {true, "start: halt\n.space 0x10000000\n",
     "line 2: location counter passes the end of memory (0x40000)",
     0x40000},
    {true, "start: halt\n.align 0x80000\n",
     "line 2: location counter passes the end of memory (0x40000)",
     0x40000},
    {false, ".org 0x40004\nstart: halt\n",
     "line 1: location counter passes the end of memory (0x40000)",
     0x40000},
    {false, ".org 0x3fffc\nstart: halt\n.word 0\n",
     "line 3: location counter passes the end of memory (0x40000)",
     0x40000},

    // Values are range-checked, never silently narrowed to 32 bits or
    // to a data directive's width.
    {false, ".equ big, 0x100000005\nstart: halt\n",
     "line 1: .equ value does not fit in 32 bits"},
    {true, ".equ big, 0x100000005\nstart: halt\n",
     "line 1: .equ value does not fit in 32 bits"},
    {false, ".equ low, 0 - 0x80000001\nstart: halt\n",
     "line 1: .equ value does not fit in 32 bits"},
    {true, ".equ low, 0 - 0x80000001\nstart: halt\n",
     "line 1: .equ value does not fit in 32 bits"},
    {false, "start: halt\n.entry 0x100001000\n",
     "line 2: .entry address does not fit in 32 bits"},
    {true, "start: halt\n.entry 0x100001000\n",
     "line 2: .entry address does not fit in 32 bits"},
    {false, "start: halt\n.entry 0 - 4\n",
     "line 2: .entry address must be non-negative"},
    {true, "start: halt\n.entry 0 - 4\n",
     "line 2: .entry address must be non-negative"},
    {false, "start: halt\n.word 0x100000000\n",
     "line 2: .word value 4294967296 does not fit in 32 bits"},
    {true, "start: halt\n.align 4\n.word 0x100000000\n",
     "line 3: .word value 4294967296 does not fit in 32 bits"},
    {false, "start: halt\n.word 1, 0 - 0x80000001\n",
     "line 2: .word value -2147483649 does not fit in 32 bits"},
    {true, "start: halt\n.align 4\n.word 1, 0 - 0x80000001\n",
     "line 3: .word value -2147483649 does not fit in 32 bits"},
    {false, "start: halt\n.half 0x10000\n",
     "line 2: .half value 65536 does not fit in 16 bits"},
    {true, "start: halt\n.align 2\n.half 0x10000\n",
     "line 3: .half value 65536 does not fit in 16 bits"},
    {false, "start: halt\n.half 0 - 0x8001\n",
     "line 2: .half value -32769 does not fit in 16 bits"},
    {true, "start: halt\n.align 2\n.half 0 - 0x8001\n",
     "line 3: .half value -32769 does not fit in 16 bits"},
    {false, "start: halt\n.byte 256\n",
     "line 2: .byte value 256 does not fit in 8 bits"},
    {true, "start: halt\n.byte 256\n",
     "line 2: .byte value 256 does not fit in 8 bits"},
    {false, "start: halt\n.byte 0 - 129\n",
     "line 2: .byte value -129 does not fit in 8 bits"},
    {true, "start: halt\n.byte 0 - 129\n",
     "line 2: .byte value -129 does not fit in 8 bits"},
    {true, "start: halt\n.mask 0x10000\n",
     "line 2: .mask value 65536 does not fit in 16 bits"},
    {true, "start: halt\n.mask 0 - 0x8001\n",
     "line 2: .mask value -32769 does not fit in 16 bits"},
    {false, ".equ big, 0x10000000000000005\nstart: halt\n",
     "line 1: number too large"},
    {true, ".equ big, 0x10000000000000005\nstart: halt\n",
     "line 1: number too large"},
    {false, "start: ldi r1, 9223372036854775808\n",
     "line 1: number too large"},
    {true, "start: movl #9223372036854775808, r0\n",
     "line 1: number too large"},
    {false, ".equ x, 0x7fffffffffffffff + 0x7fffffffffffffff + 2\n"
            "start: halt\n",
     "line 1: expression does not fit in 64 bits"},
    {true, ".equ x, 0x7fffffffffffffff + 0x7fffffffffffffff + 2\n"
           "start: halt\n",
     "line 1: expression does not fit in 64 bits"},
    {false, "start: halt\n.word 0 - 0x7fffffffffffffff - 2\n",
     "line 2: expression does not fit in 64 bits"},
    {true, "start: halt\n.byte 0 - 0x7fffffffffffffff - 2\n",
     "line 2: expression does not fit in 64 bits"},
};

TEST(AsmEdges, CodeAtTheTopOfTheAddressSpace)
{
    const Program risc = assembleRisc(".org 0xfffffff8\nstart: halt\n");
    EXPECT_EQ(risc.entry, 0xfffffff8u);
    const Program vax = assembleVax(".org 0xfffffffe\nstart: halt\n");
    EXPECT_EQ(vax.entry, 0xfffffffeu);

    // Bounded by a memory size, the last statement may end exactly at
    // the end of memory.
    EXPECT_EQ(assembleRisc(".org 0x3fffc\nstart: halt\n", 0x40000).entry,
              0x3fffcu);
    EXPECT_EQ(assembleVax(".org 0x3ffff\nstart: halt\n", 0x40000).entry,
              0x3ffffu);
}

TEST(AsmErrors, EveryTextIsPinned)
{
    for (const ErrorRow &row : kErrorRows) {
        try {
            if (row.vax)
                assembleVax(row.source, row.memBytes);
            else
                assembleRisc(row.source, row.memBytes);
            ADD_FAILURE() << (row.vax ? "vax" : "risc")
                          << " assembled without error: " << row.source;
        } catch (const FatalError &e) {
            EXPECT_EQ(std::string(e.what()), row.what)
                << (row.vax ? "vax" : "risc") << " source: " << row.source;
        }
    }
}

} // namespace
} // namespace risc1
