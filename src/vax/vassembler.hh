/**
 * @file
 * Assembler for the CISC baseline machine: its register names,
 * operand grammar, per-operand encoding choice, encoder and `.mask`,
 * on the shared two-pass core (asm/core.hh) that owns statements,
 * directives and symbols.
 *
 * Syntax (VAX-flavoured, operands src -> dst):
 *
 *     ; comment
 *             .org  0x1000
 *     start:  movl  #5, r0
 *             addl3 r0, r1, r2
 *             movl  12(r3), r4        ; displacement
 *             movl  (r5)+, r6         ; autoincrement
 *             pushl r0
 *             calls #1, func
 *             halt
 *     func:   .mask 0x0c              ; entry mask: save r2, r3
 *             movl  4(ap), r0         ; first argument
 *             ret
 *
 * Operand forms: #expr (literal/immediate), rN/ap/fp/sp/pc, (rN),
 * (rN)+, -(rN), expr(rN), @expr (absolute), bare expr (absolute, or a
 * branch displacement for branch opcodes).
 *
 * Directives: the core's set (.org .word .half .byte .space .ascii
 * .asciz .align .equ .entry) plus `.mask <expr>` emitting the 16-bit
 * procedure entry mask CALLS expects.  Code is byte-granular, so
 * `.org` takes any non-negative address and `.word` data needs an
 * explicit `.align 4`.
 */

#ifndef RISC1_VAX_VASSEMBLER_HH
#define RISC1_VAX_VASSEMBLER_HH

#include <cstdint>
#include <optional>
#include <string>

#include "common/program.hh"

namespace risc1 {

/**
 * Assemble baseline (CISC) source into a program image; with
 * @p memBytes, for a machine of that many bytes (asm/core.hh).
 * @throws FatalError with line information on any error.
 */
Program assembleVax(const std::string &source,
                    std::optional<std::uint64_t> memBytes = std::nullopt);

} // namespace risc1

#endif // RISC1_VAX_VASSEMBLER_HH
