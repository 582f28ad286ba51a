/**
 * @file
 * The assembler core both ISAs share.  It owns the statement list, the
 * parse loop (labels, mnemonics, directive operands), both passes,
 * every shared directive, the symbol table, segment emission and entry
 * resolution.  An ISA derives from AsmCore and supplies only what
 * differs: its register names, its instruction-operand grammar, pass-1
 * instruction sizing and its encoder (asm/assembler.cc for RISC I,
 * vax/vassembler.cc for the VAX baseline, which adds `.mask`).
 *
 * Shared directives, whose operands are expressions or strings only:
 *
 *     .org   expr              move the location counter (code starts
 *                              at 0x1000); never negative, and a
 *                              multiple of the instruction alignment
 *                              that fits in 32 bits
 *     .equ   name, expr        define a constant (not a register name)
 *     .entry expr              entry point; else the first of start,
 *                              main, _start; else the first code byte
 *     .word/.half/.byte expr, ...   little-endian values
 *     .space expr              that many zero bytes
 *     .ascii/.asciz "s", ...   string bytes (.asciz adds a 0 each)
 *     .align expr              zero-pad to a power of two
 *
 * No statement may take the location counter past 0xffffffff, nor,
 * when the caller names the memory the image will load into, past its
 * end; pass 1 checks both, before pass 2 materialises any byte.  A
 * `.equ` value lies in [-2^31, 2^32) and an `.entry` in [0, 2^32); a
 * data value fits its width as a signed or an unsigned number.
 *
 * Nothing is copied out of the source.  Tokens, expression terms,
 * string operands, mnemonics and symbol names are views into it (or
 * into the lexer's store, for unescaped literals and lowercased
 * mnemonics), so the source must outlive the assembly; only the
 * finished Program owns its strings.  Each statement's operands and
 * labels are ranges of two pools the core owns, one growth sequence
 * per assembly.  Symbols live in one hash table keyed by their views,
 * so an expression term costs one lookup.  Every instruction mnemonic
 * is resolved once, as it is parsed, through the ISA's hashed table.
 */

#ifndef RISC1_ASM_CORE_HH
#define RISC1_ASM_CORE_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "asm/parser.hh"
#include "common/program.hh"

namespace risc1 {

/** Operand forms of both grammars; directives use only Expr and Str. */
enum class OperandKind : std::uint8_t
{
    Reg,       ///< register
    Expr,      ///< bare expression
    Mem,       ///< expr(rN); RISC I's (rN) is Mem with displacement 0
    Str,       ///< string literal
    Imm,       ///< VAX #expr
    Deferred,  ///< VAX (rN)
    AutoInc,   ///< VAX (rN)+
    AutoDec,   ///< VAX -(rN)
    Abs,       ///< VAX @expr
};

/** One parsed operand. */
struct Operand
{
    OperandKind kind = OperandKind::Expr;
    std::uint8_t enc = 0;  ///< the VAX encoding pass 1 chose
    unsigned reg = 0;      ///< Reg, Mem and the VAX register modes
    Expr expr;             ///< Expr, Mem, Imm, Abs
    std::string_view str;  ///< Str: its unescaped text
};

/** One statement (a line may hold labels plus a statement). */
struct Stmt
{
    int line = 0;
    bool directive = false;     ///< the mnemonic starts with '.'
    std::string_view mnemonic;  ///< lowercase
    /** An instruction's mnemonic, resolved as it is parsed (resolve()). */
    std::uint32_t code = 0;
    /** Its operands: a range of the core's operand pool. */
    std::uint32_t firstOperand = 0;
    std::uint32_t numOperands = 0;
    /** The labels bound to its address: a range of the label pool. */
    std::uint32_t firstLabel = 0;
    std::uint32_t numLabels = 0;

    // Filled in by the first pass:
    std::uint32_t address = 0;
    unsigned size = 0;  ///< bytes
};

/** A directive that stores one little-endian value per operand. */
struct DataDirective
{
    std::string_view name;
    unsigned width;    ///< bytes per operand
    unsigned align;    ///< required address alignment
    SegmentKind kind;  ///< the segment its bytes join
};

/** Two-pass assembly; an ISA subclass supplies grammar and encoder. */
class AsmCore
{
  public:
    /**
     * Assemble @p source into a program image for a machine of
     * @p memBytes bytes (nullopt: the whole 32-bit space).  Call once
     * per object.
     * @throws FatalError with line information on any error.
     */
    Program assemble(std::string_view source,
                     std::optional<std::uint64_t> memBytes);

  protected:
    /**
     * @param instAlign every instruction's alignment (4 on RISC I, 1 on
     *        the VAX); `.org` must keep it.
     * @param wordAlignHint advice in the unaligned-`.word` error.
     * @param isaData data directives only this ISA has.
     */
    AsmCore(unsigned instAlign, const char *wordAlignHint,
            std::span<const DataDirective> isaData = {})
        : instAlign_(instAlign), wordAlignHint_(wordAlignHint),
          isaData_(isaData)
    {}
    ~AsmCore() = default;

    // -- What the ISA supplies --------------------------------------------

    /** The register @p name names, or nullopt. */
    virtual std::optional<unsigned>
    regName(std::string_view name) const = 0;

    /**
     * The code for instruction mnemonic @p mnemonic (lowercase), kept
     * in Stmt::code.  An unknown mnemonic gets a code of its own; the
     * ISA reports it in the pass that meets it.
     */
    virtual std::uint32_t resolve(std::string_view mnemonic) const = 0;

    /** Parse one instruction operand. */
    virtual Operand parseOperand(TokenCursor &cur) const = 0;

    /**
     * Pass 1: the bytes @p stmt's instruction takes at stmt.address;
     * may record encodings in its operands.
     */
    virtual unsigned instructionSize(Stmt &stmt) = 0;

    /**
     * Pass 2: append @p stmt's encoding (stmt.size bytes) to @p out.
     * @return the number of machine instructions emitted.
     */
    virtual unsigned encode(const Stmt &stmt,
                            std::vector<std::uint8_t> &out) = 0;

    // -- Helpers for the ISA ----------------------------------------------

    /** Raise "line N: msg" for @p stmt. */
    [[noreturn]] static void err(const Stmt &stmt, const std::string &msg);

    /**
     * The displacement `target - from` of @p stmt's PC-relative
     * operand, computed without overflow; a target too far below
     * @p from for any 64-bit displacement is an error.
     */
    static std::int64_t displacement(const Stmt &stmt, std::int64_t target,
                                     std::uint32_t from);

    /** @p stmt's operands; valid once parsing is done. */
    std::span<const Operand>
    operands(const Stmt &stmt) const
    {
        return {operands_.data() + stmt.firstOperand, stmt.numOperands};
    }

    std::span<Operand>
    operands(const Stmt &stmt)
    {
        return {operands_.data() + stmt.firstOperand, stmt.numOperands};
    }

    /** @p expr at @p stmt's address; an undefined symbol is an error. */
    std::int64_t evalExpr(const Stmt &stmt, const Expr &expr) const;

    /** @p expr at @p stmt's address once all its symbols are defined. */
    std::optional<std::int64_t> known(const Stmt &stmt,
                                      const Expr &expr) const;

    /** "(rN)", with the '(' next: the register between the parens. */
    unsigned parenReg(TokenCursor &cur) const;

    /** "expr" (an Expr operand) or "expr(rN)" (a Mem operand). */
    Operand exprOrMem(TokenCursor &cur) const;

  private:
    void parse(TokenCursor &cur);
    Operand parseDirectiveOperand(TokenCursor &cur) const;
    void passOne(std::optional<std::uint64_t> memBytes);
    void passTwo();
    void resolveEntry();

    unsigned directiveSize(const Stmt &stmt);
    std::uint32_t orgAddress(const Stmt &stmt) const;
    void defineEqu(const Stmt &stmt);
    const Expr &numeric(const Stmt &stmt, std::size_t idx) const;
    std::int64_t knownOperand(const Stmt &stmt) const;
    const Expr::Term *sum(const Stmt &stmt, const Expr &expr,
                          std::int64_t &value) const;
    const DataDirective *dataDirective(std::string_view name) const;
    void emit(std::uint32_t addr, SegmentKind kind,
              const std::vector<std::uint8_t> &bytes);

    const unsigned instAlign_;
    const char *const wordAlignHint_;
    const std::span<const DataDirective> isaData_;

    std::vector<Stmt> stmts_;
    std::vector<Operand> operands_;         ///< every statement's, in order
    std::vector<std::string_view> labels_;  ///< every statement's, in order
    std::unordered_map<std::string_view, std::uint32_t> symbols_;
    std::optional<std::uint32_t> entry_;
    Program program_;
};

} // namespace risc1

#endif // RISC1_ASM_CORE_HH
