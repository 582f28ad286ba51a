/**
 * @file
 * The expression and token-cursor layer under the assembler core
 * (asm/core.hh): additive expressions over numbers, symbols and '.',
 * one token of lookahead over the streaming lexer, and RISC I register
 * names.  Both ISAs' operand grammars are written on top of it.
 */

#ifndef RISC1_ASM_PARSER_HH
#define RISC1_ASM_PARSER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "asm/lexer.hh"

namespace risc1 {

/**
 * A symbolic additive expression: sum of signed terms, each a number,
 * a symbol, or '.' (the statement's address).  The assembler core
 * evaluates it against its symbol table (AsmCore::evalExpr).
 */
struct Expr
{
    struct Term
    {
        int sign = 1;
        bool isSymbol = false;
        bool isDot = false;
        std::int64_t number = 0;
        std::string_view symbol;  ///< a view into the source
    };

    std::vector<Term> terms;

    /** Constant-expression convenience constructor. */
    static Expr constant(std::int64_t value);

    /** The symbol, for an expression that is a single bare symbol. */
    std::optional<std::string_view> asBareSymbol() const;
};

/**
 * Token cursor with the shared helpers both assemblers use: one token
 * of lookahead over a streaming Lexer.
 */
class TokenCursor
{
  public:
    /** Parse @p source, which must outlive the cursor and its tokens. */
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

    /** Keep @p text as long as the cursor lives (Lexer::keep). */
    std::string_view
    keep(std::string text)
    {
        return lexer_.keep(std::move(text));
    }

  private:
    Lexer lexer_;
    Token next_;  ///< lookahead
};

/** Parse a register name ("r0".."r31"); nullopt when not a register. */
std::optional<unsigned> parseRegName(std::string_view name);

} // namespace risc1

#endif // RISC1_ASM_PARSER_HH
