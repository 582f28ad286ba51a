/**
 * @file
 * Tokenizer for the RISC I assembly language (shared by the CISC
 * assembler, which layers its own operand syntax on the same tokens).
 *
 * Lexical rules:
 *  - `;` starts a comment running to end of line
 *  - identifiers: [A-Za-z_.][A-Za-z0-9_.]*  (directives start with '.')
 *  - numbers: decimal, 0x hex, 0b binary, 'c' character literals
 *  - punctuation: , : ( ) + - # @ *
 *  - strings: "..." with \n \t \0 \\ \" escapes
 *
 * Tokens copy no text: each views the source, which must outlive the
 * lexer and every token it made, or the lexer's own store.
 */

#ifndef RISC1_ASM_LEXER_HH
#define RISC1_ASM_LEXER_HH

#include <cstdint>
#include <forward_list>
#include <string>
#include <string_view>

namespace risc1 {

/** Token kinds produced by the lexer. */
enum class TokKind : std::uint8_t
{
    Ident,      ///< identifier or directive name
    Number,     ///< integer literal (value in Token::value)
    Str,        ///< string literal (unescaped text in Token::text)
    Comma,
    Colon,
    LParen,
    RParen,
    Plus,
    Minus,
    Hash,       ///< '#' (CISC immediate prefix)
    At,         ///< '@'
    Star,       ///< '*'
    Newline,
    End,
};

/**
 * One token with its source line for error reporting.  The text is a
 * view, never a copy: into the source for identifiers, numbers and
 * punctuation (empty for Newline and End), and into the lexer's store
 * for a string literal with escapes or an escaped char literal, whose
 * text is the unescaped bytes.  A token is valid while both the source
 * and the lexer that made it live.
 */
struct Token
{
    TokKind kind = TokKind::End;
    std::string_view text;
    std::int64_t value = 0;
    int line = 0;
};

/**
 * Streaming tokenizer: one token per next() call, so the parser holds
 * only its lookahead.  A whole-file token array would cost about
 * twelve times the source's size, more than the parsed statements.
 */
class Lexer
{
  public:
    /** Tokenize @p source, which must outlive the lexer and its tokens. */
    explicit Lexer(std::string_view source) : src_(source) {}

    /**
     * The next token.  The input always ends with a Newline (closing
     * the last statement), then End on every further call.
     * @throws FatalError on malformed literals, with the line number.
     */
    Token next();

    /**
     * Keep @p text for the lexer's lifetime and return a view of it.
     * Kept text never moves, so every view stays valid however much
     * more is kept.
     */
    std::string_view keep(std::string text);

  private:
    std::string_view src_;
    std::size_t pos_ = 0;
    int line_ = 1;
    bool closed_ = false;  ///< the closing Newline has been returned
    /** Text that is not in the source; list nodes never move. */
    std::forward_list<std::string> kept_;
};

} // namespace risc1

#endif // RISC1_ASM_LEXER_HH
