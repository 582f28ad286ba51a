/**
 * @file
 * Statement-level parser for the RISC I assembler: turns the token
 * stream into an AST of labels, directives, and instructions with
 * symbolic expression operands.  The CISC assembler reuses Expr and the
 * token cursor but has its own operand grammar.
 */

#ifndef RISC1_ASM_PARSER_HH
#define RISC1_ASM_PARSER_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "asm/lexer.hh"

namespace risc1 {

/**
 * A symbolic additive expression: sum of signed terms, each a number,
 * a symbol, or '.' (the statement's address).
 */
struct Expr
{
    struct Term
    {
        int sign = 1;
        bool isSymbol = false;
        bool isDot = false;
        std::int64_t number = 0;
        std::string symbol;
    };

    std::vector<Term> terms;

    /** Constant-expression convenience constructor. */
    static Expr constant(std::int64_t value);

    /** True when every symbol term is defined in @p symbols. */
    bool resolvable(
        const std::map<std::string, std::uint32_t> &symbols) const;

    /**
     * Evaluate with @p dot as the value of '.'.
     * @throws FatalError on an undefined symbol.
     */
    std::int64_t eval(const std::map<std::string, std::uint32_t> &symbols,
                      std::uint32_t dot) const;

    /** True for an expression that is a single bare symbol. */
    std::optional<std::string> asBareSymbol() const;
};

/** Operand kinds in statement ASTs. */
enum class OperandKind : std::uint8_t
{
    Reg,    ///< register rN
    Expr,   ///< symbolic expression
    Mem,    ///< expr(rN) memory reference
    Str,    ///< string literal
};

/** One parsed operand. */
struct Operand
{
    OperandKind kind = OperandKind::Expr;
    unsigned reg = 0;   ///< Reg / Mem base register
    Expr expr;          ///< Expr / Mem displacement
    std::string str;    ///< Str
};

/** One parsed statement (a line may hold a label plus a statement). */
struct Stmt
{
    enum class Type : std::uint8_t { Instruction, Directive };

    int line = 0;
    Type type = Type::Instruction;
    std::string mnemonic;           ///< lowercase, scc suffix stripped
    bool scc = false;               ///< trailing 's' was present
    std::vector<Operand> operands;
    std::vector<std::string> labels;  ///< labels defined at this address

    // Filled in by the assembler's first pass:
    std::uint32_t address = 0;
    unsigned size = 0;
};

/**
 * Token cursor with the shared helpers both assemblers use: one token
 * of lookahead over a streaming Lexer.
 */
class TokenCursor
{
  public:
    /** Parse @p source, which must outlive the cursor. */
    explicit TokenCursor(std::string_view source)
        : lexer_(source), next_(lexer_.next())
    {}

    /** The lookahead token; valid until the next get(). */
    const Token &peek() const { return next_; }

    /** Consume the lookahead token. */
    Token
    get()
    {
        Token tok = std::move(next_);
        next_ = lexer_.next();
        return tok;
    }

    bool atEnd() const { return peek().kind == TokKind::End; }

    /** Consume a token of @p kind or fail with a message. */
    Token expect(TokKind kind, const char *what);

    /** Consume if the next token is of @p kind. */
    bool accept(TokKind kind);

    /** Skip blank lines; false at end of input. */
    bool skipNewlines();

    /** Parse an additive expression (signs, numbers, symbols, '.'). */
    Expr parseExpr();

  private:
    Lexer lexer_;
    Token next_;  ///< lookahead
};

/** Parse a register name ("r0".."r31"); nullopt when not a register. */
std::optional<unsigned> parseRegName(const std::string &name);

/**
 * Parse RISC I assembly source into statements.
 * @throws FatalError with line info on syntax errors.
 */
std::vector<Stmt> parseRiscSource(const std::string &source);

} // namespace risc1

#endif // RISC1_ASM_PARSER_HH
