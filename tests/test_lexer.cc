/** Unit tests for the shared assembly lexer and expression parser. */

#include <gtest/gtest.h>

#include "asm/lexer.hh"
#include "asm/parser.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace risc1 {
namespace {

std::vector<Token>
lexOk(const std::string &src)
{
    return lex(src);
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
        lex("ok\n$bad\n");
        FAIL();
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
    }
    EXPECT_THROW(lex("\"unterminated\n"), FatalError);
    EXPECT_THROW(lex("'x\n"), FatalError);
    EXPECT_THROW(lex("0x\n"), FatalError);
    EXPECT_THROW(lex("0b2\n"), FatalError);
    EXPECT_THROW(lex("\"bad\\q\"\n"), FatalError);
}

TEST(Lexer, StreamsOneTokenAtATimeThenEndForever)
{
    // The parser reads one token ahead of the lexer and may ask again
    // at End; lex() is exactly the collected stream.
    Lexer lexer("add r1 ; note\n");
    const TokKind want[] = {TokKind::Ident, TokKind::Ident,
                            TokKind::Newline, TokKind::Newline,
                            TokKind::End, TokKind::End};
    std::vector<Token> streamed;
    for (const TokKind kind : want) {
        streamed.push_back(lexer.next());
        EXPECT_EQ(streamed.back().kind, kind);
    }
    const auto collected = lex("add r1 ; note\n");
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
    EXPECT_EQ(cur.parseExpr().eval({}, 0), 3);
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
            const auto toks = lex(src);
            EXPECT_FALSE(toks.empty());
        } catch (const FatalError &) {
            // acceptable
        }
    }
}

TEST(Expr, AdditiveEvaluation)
{
    TokenCursor cur("1 + 2 + 3\n");
    const Expr e = cur.parseExpr();
    EXPECT_EQ(e.eval({}, 0), 6);
}

TEST(Expr, MixedSignsAndSymbols)
{
    TokenCursor cur("end - start + 4\n");
    const Expr e = cur.parseExpr();
    const std::map<std::string, std::uint32_t> syms = {
        {"start", 0x1000}, {"end", 0x1040}};
    EXPECT_EQ(e.eval(syms, 0), 0x44);
    EXPECT_TRUE(e.resolvable(syms));
    EXPECT_FALSE(e.resolvable({}));
}

TEST(Expr, DotIsCurrentAddress)
{
    TokenCursor cur(". + 8\n");
    const Expr e = cur.parseExpr();
    EXPECT_EQ(e.eval({}, 0x2000), 0x2008);
}

TEST(Expr, LeadingAndDoubleMinus)
{
    TokenCursor cur("-5\n");
    EXPECT_EQ(cur.parseExpr().eval({}, 0), -5);
    TokenCursor cur2("--5\n");
    EXPECT_EQ(cur2.parseExpr().eval({}, 0), 5);
    TokenCursor cur3("10 - -3\n");
    EXPECT_EQ(cur3.parseExpr().eval({}, 0), 13);
}

TEST(Expr, UndefinedSymbolThrows)
{
    TokenCursor cur("mystery\n");
    const Expr e = cur.parseExpr();
    EXPECT_THROW(e.eval({}, 0), FatalError);
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
