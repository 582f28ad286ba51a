/**
 * @file
 * RL → assembly lowering, one entry point per ISA.
 *
 * Both backends consume a checked AST (see parser.hh) and emit
 * complete, self-contained assembly source for the existing
 * assemblers — the same text a target::Target::load() accepts.  The
 * two lowerings differ exactly where the paper's comparison does:
 *
 *  RISC I (compile_risc.cc): register-window calls.  CALL slides the
 *  window, so arguments move through the LOW/HIGH overlap
 *  (caller r10..r13 become callee r26..r29), locals and the
 *  expression stack live in the private LOCAL bank r16..r25, and the
 *  result rides the overlap back (callee writes its r26 = caller's
 *  r10).  Every transfer carries an explicit `nop` delay slot.
 *
 *  VAX (compile_vax.cc): CALLS memory frames.  Arguments are pushed
 *  left to right and read back off the argument pointer, the entry
 *  mask saves r2..r9 which hold parameters and locals, and
 *  expressions evaluate on the CPU stack (pushl / movl (sp)+,...).
 *
 * Shared contract: the `gvars` data block layout (layout.hh), the
 * result convention (main's return value lands in the ISA checksum
 * register: RISC r1, VAX r0), and the language semantics in
 * interp.hh.  Both lowerings derive from one base (lowering.hh) that
 * owns what they share: the output buffer and line format, labels,
 * the name-to-register map, array sizes and the data block.
 */

#ifndef RISC1_LANG_COMPILE_HH
#define RISC1_LANG_COMPILE_HH

#include <string>

#include "lang/ast.hh"
#include "lang/layout.hh"

namespace risc1::lang {

/** One lowered program: assembly text plus its data-block layout. */
struct CompiledProgram
{
    std::string source;  ///< complete assembly source
    DataLayout layout;   ///< word offsets inside the `gvars` block
};

/** Lower to RISC I assembly (register-window calling convention). */
CompiledProgram compileRisc(const Program &program);

/**
 * Registers the RISC backend's postorder evaluation needs for @p e —
 * the expression-stack budget rule.  A function with L named locals
 * has 10 - L stack registers (r16..r25 minus the locals); compileRisc
 * fails when any expression exceeds that, and an out() statement
 * needs two extra scratch slots on top of its operand.  The generator
 * calls this to keep every sampled program compilable by
 * construction.
 */
int evalStackDepth(const Expr &e);

/** Lower to VAX assembly (CALLS-frame calling convention). */
CompiledProgram compileVax(const Program &program);

} // namespace risc1::lang

#endif // RISC1_LANG_COMPILE_HH
