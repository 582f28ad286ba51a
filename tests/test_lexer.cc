/** Unit tests for the shared assembly lexer and expression parser. */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "asm/lexer.hh"
#include "asm/parser.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace risc1 {
namespace {

/**
 * A source and all of its tokens, through End.  The tokens view the
 * source and the lexer's store, so all three live and die together;
 * a Lexed neither copies nor moves.
 */
class Lexed
{
  public:
    explicit Lexed(std::string source)
        : source_(std::move(source)), lexer_(source_)
    {
        do
            tokens_.push_back(lexer_.next());
        while (tokens_.back().kind != TokKind::End);
    }

    Lexed(const Lexed &) = delete;
    Lexed &operator=(const Lexed &) = delete;

    const Token &operator[](std::size_t i) const { return tokens_[i]; }
    std::size_t size() const { return tokens_.size(); }
    auto begin() const { return tokens_.begin(); }
    auto end() const { return tokens_.end(); }

  private:
    const std::string source_;
    Lexer lexer_;
    std::vector<Token> tokens_;
};

Lexed
lexOk(std::string src)
{
    return Lexed(std::move(src));
}

TEST(Lexer, BasicTokens)
{
    const auto toks = lexOk("add r1, r2, 5\n");
    ASSERT_GE(toks.size(), 7u);
    EXPECT_EQ(toks[0].kind, TokKind::Ident);
    EXPECT_EQ(toks[0].text, "add");
    EXPECT_EQ(toks[1].kind, TokKind::Ident);
    EXPECT_EQ(toks[2].kind, TokKind::Comma);
    EXPECT_EQ(toks[5].kind, TokKind::Number);
    EXPECT_EQ(toks[5].value, 5);
}

TEST(Lexer, NumberBases)
{
    const auto toks = lexOk("10 0x1F 0b101 0\n");
    EXPECT_EQ(toks[0].value, 10);
    EXPECT_EQ(toks[1].value, 0x1f);
    EXPECT_EQ(toks[2].value, 5);
    EXPECT_EQ(toks[3].value, 0);
}

TEST(Lexer, NumbersStopAtInt64Max)
{
    // A literal either fits a signed 64-bit value or is an error; it
    // never wraps.
    const auto toks = lexOk("0x7fffffffffffffff 9223372036854775807\n");
    EXPECT_EQ(toks[0].value, std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(toks[1].value, std::numeric_limits<std::int64_t>::max());
    for (const char *src : {"0x8000000000000000\n", "9223372036854775808\n",
                            "0b1" "000000000000000000000000000000000000000"
                            "000000000000000000000000\n"}) {
        try {
            lexOk(src);
            ADD_FAILURE() << "lexed: " << src;
        } catch (const FatalError &e) {
            EXPECT_EQ(std::string(e.what()), "line 1: number too large");
        }
    }
}

TEST(Lexer, CharLiterals)
{
    const auto toks = lexOk("'A' '\\n' '\\0' '\\\\'\n");
    EXPECT_EQ(toks[0].value, 'A');
    EXPECT_EQ(toks[1].value, '\n');
    EXPECT_EQ(toks[2].value, 0);
    EXPECT_EQ(toks[3].value, '\\');
}

TEST(Lexer, StringsWithEscapes)
{
    const auto toks = lexOk("\"ab\\tc\\\"d\"\n");
    EXPECT_EQ(toks[0].kind, TokKind::Str);
    EXPECT_EQ(toks[0].text, "ab\tc\"d");
}

TEST(Lexer, CommentsVanish)
{
    const auto toks = lexOk("nop ; everything here is ignored, even 0x\n");
    EXPECT_EQ(toks[0].text, "nop");
    EXPECT_EQ(toks[1].kind, TokKind::Newline);
}

TEST(Lexer, LineNumbersTrackNewlines)
{
    const auto toks = lexOk("a\nb\n\nc\n");
    EXPECT_EQ(toks[0].line, 1);
    EXPECT_EQ(toks[2].line, 2);
    // 'c' after a blank line.
    for (const auto &t : toks) {
        if (t.kind == TokKind::Ident && t.text == "c") {
            EXPECT_EQ(t.line, 4);
        }
    }
}

TEST(Lexer, PunctuationForBothAssemblers)
{
    const auto toks = lexOk("#5 @x *y (r1)+ -(r2) a:\n");
    EXPECT_EQ(toks[0].kind, TokKind::Hash);
    EXPECT_EQ(toks[2].kind, TokKind::At);
    EXPECT_EQ(toks[4].kind, TokKind::Star);
}

TEST(Lexer, ErrorsAreFatalWithLine)
{
    try {
        lexOk("ok\n$bad\n");
        FAIL();
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
    }
    EXPECT_THROW(lexOk("\"unterminated\n"), FatalError);
    EXPECT_THROW(lexOk("'x\n"), FatalError);
    EXPECT_THROW(lexOk("0x\n"), FatalError);
    EXPECT_THROW(lexOk("0b2\n"), FatalError);
    EXPECT_THROW(lexOk("\"bad\\q\"\n"), FatalError);
}

TEST(Lexer, StreamsOneTokenAtATimeThenEndForever)
{
    // The parser reads one token ahead of the lexer and may ask again
    // at End; lexOk() is exactly the collected stream.
    Lexer lexer("add r1 ; note\n");
    const TokKind want[] = {TokKind::Ident, TokKind::Ident,
                            TokKind::Newline, TokKind::Newline,
                            TokKind::End, TokKind::End};
    std::vector<Token> streamed;
    for (const TokKind kind : want) {
        streamed.push_back(lexer.next());
        EXPECT_EQ(streamed.back().kind, kind);
    }
    const auto collected = lexOk("add r1 ; note\n");
    ASSERT_EQ(collected.size(), streamed.size() - 1);
    for (std::size_t i = 0; i < collected.size(); ++i) {
        EXPECT_EQ(collected[i].kind, streamed[i].kind);
        EXPECT_EQ(collected[i].text, streamed[i].text);
        EXPECT_EQ(collected[i].line, streamed[i].line);
    }
}

TEST(Lexer, ErrorsSurfaceWhenTheParserReachesThem)
{
    // Streaming: the earlier statement parses, and the malformed
    // token fails with its own line once the lookahead reaches it.
    TokenCursor cur("1 + 2\n$\n");
    EXPECT_EQ(cur.parseExpr().terms.size(), 2u);
    EXPECT_EQ(cur.peek().kind, TokKind::Newline);
    try {
        cur.get();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
            << e.what();
    }
}

TEST(Lexer, FuzzNeverCrashes)
{
    // Random byte soup must either lex or throw FatalError — never
    // crash or hang.
    Rng rng(999);
    const std::string alphabet =
        "abcXYZ019 \t\n,:()+-#@*;\"'\\._$%";
    for (int iter = 0; iter < 500; ++iter) {
        std::string src;
        const std::size_t len = rng.below(120);
        for (std::size_t i = 0; i < len; ++i)
            src.push_back(alphabet[rng.below(alphabet.size())]);
        try {
            const auto toks = lexOk(src);
            EXPECT_GT(toks.size(), 0u);
        } catch (const FatalError &) {
            // acceptable
        }
    }
}

TEST(Lexer, TextViewsTheSource)
{
    // Identifiers, numbers, punctuation and an escape-free string are
    // views into the source itself, not copies.
    const std::string src = "loop: .word 0x10, \"plain\"\n";
    Lexer lexer(src);
    const Token label = lexer.next();
    const Token colon = lexer.next();
    lexer.next();  // .word
    const Token number = lexer.next();
    lexer.next();  // ,
    const Token str = lexer.next();
    EXPECT_EQ(label.text, "loop");
    EXPECT_EQ(label.text.data(), src.data());
    EXPECT_EQ(colon.text.data(), src.data() + 4);
    EXPECT_EQ(number.text, "0x10");
    EXPECT_EQ(number.value, 0x10);
    EXPECT_EQ(str.text, "plain");
    EXPECT_EQ(str.text.data(), src.data() + src.find("plain"));
}

TEST(Lexer, KeptTextNeverMoves)
{
    // Escaped literals unescape into the lexer's store.  Every token is
    // kept while hundreds more are made; a store that reallocates (a
    // vector of short strings) would leave the first views dangling,
    // which ASan reports.
    std::string src;
    for (int i = 0; i < 400; ++i)
        src += "\"k\\t" + std::to_string(i) + "\" '\\n' '\\''\n";
    const Lexed toks(src);
    ASSERT_EQ(toks.size(), 4u * 400 + 2);  // then the closing Newline, End
    for (int i = 0; i < 400; ++i) {
        const std::size_t at = 4 * static_cast<std::size_t>(i);
        ASSERT_EQ(toks[at].kind, TokKind::Str);
        EXPECT_EQ(toks[at].text, "k\t" + std::to_string(i));
        EXPECT_EQ(toks[at + 1].text, "\n");
        EXPECT_EQ(toks[at + 1].value, '\n');
        EXPECT_EQ(toks[at + 2].text, "'");
        EXPECT_EQ(toks[at + 2].value, '\'');
    }
}

/** The value `.equ v, <expr>` gives v, read from the program. */
std::uint32_t
equValue(const std::string &setup, const std::string &expr)
{
    return assembleRisc(setup + ".equ v, " + expr + "\n").symbol("v");
}

TEST(Expr, AdditiveEvaluation)
{
    TokenCursor cur("1 + 2 + 3\n");
    EXPECT_EQ(cur.parseExpr().terms.size(), 3u);
    EXPECT_EQ(equValue("start: halt\n", "1 + 2 + 3"), 6u);
}

TEST(Expr, MixedSignsAndSymbols)
{
    TokenCursor cur("end - start + 4\n");
    const Expr e = cur.parseExpr();
    ASSERT_EQ(e.terms.size(), 3u);
    EXPECT_EQ(e.terms[0].symbol, "end");
    EXPECT_EQ(e.terms[1].symbol, "start");
    EXPECT_EQ(e.terms[1].sign, -1);
    EXPECT_EQ(e.terms[2].number, 4);
    EXPECT_EQ(equValue("start: halt\n.space 0x3c\nend: halt\n",
                       "end - start + 4"),
              0x44u);
}

TEST(Expr, DotIsCurrentAddress)
{
    TokenCursor cur(". + 8\n");
    EXPECT_TRUE(cur.parseExpr().terms[0].isDot);
    // The .equ statement sits after the 4-byte halt at 0x2000.
    EXPECT_EQ(equValue(".org 0x2000\nstart: halt\n", ". + 8"), 0x200cu);
}

TEST(Expr, LeadingAndDoubleMinus)
{
    TokenCursor cur("-5\n");
    EXPECT_EQ(cur.parseExpr().terms[0].sign, -1);
    TokenCursor cur2("--5\n");
    EXPECT_EQ(cur2.parseExpr().terms[0].sign, 1);
    EXPECT_EQ(equValue("start: halt\n", "-5"), 0xfffffffbu);
    EXPECT_EQ(equValue("start: halt\n", "--5"), 5u);
    EXPECT_EQ(equValue("start: halt\n", "10 - -3"), 13u);
}

TEST(Expr, UndefinedSymbolThrows)
{
    try {
        assembleRisc("start: halt\n.word mystery\n");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "line 2: undefined symbol 'mystery'");
    }
}

TEST(Expr, BareSymbolDetection)
{
    TokenCursor cur("alone\n");
    EXPECT_EQ(cur.parseExpr().asBareSymbol(), "alone");
    TokenCursor cur2("a + b\n");
    EXPECT_FALSE(cur2.parseExpr().asBareSymbol().has_value());
    TokenCursor cur3("-a\n");
    EXPECT_FALSE(cur3.parseExpr().asBareSymbol().has_value());
}

TEST(RegNames, Risc)
{
    EXPECT_EQ(parseRegName("r0"), 0u);
    EXPECT_EQ(parseRegName("r31"), 31u);
    EXPECT_EQ(parseRegName("R15"), 15u);
    EXPECT_FALSE(parseRegName("r32").has_value());
    EXPECT_FALSE(parseRegName("r01").has_value());
    EXPECT_FALSE(parseRegName("rx").has_value());
    EXPECT_FALSE(parseRegName("r").has_value());
    EXPECT_FALSE(parseRegName("loop").has_value());
}

} // namespace
} // namespace risc1
