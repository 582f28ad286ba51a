/**
 * Unit tests for the RL front end and reference interpreter: lexing,
 * parsing, semantic checks, printer round-tripping, and the fixed
 * language semantics every backend must reproduce (docs/LANG.md).
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "lang/interp.hh"
#include "lang/parser.hh"
#include "lang/print.hh"

namespace risc1::lang {
namespace {

Observation
runRL(const std::string &source)
{
    const InterpResult r = interpret(parseProgram(source));
    EXPECT_TRUE(r.ok) << r.error;
    return r.obs;
}

TEST(LangParser, PrintedFormReparsesToItself)
{
    const char *source = R"(
        int s0 = 7;
        int a[8];
        int helper(int x, int y) {
          return ((x + y) ^ s0);
        }
        int main() {
          int v0 = helper(1, 2);
          while ((v0 > 0)) {
            a[v0] = v0;
            v0 = (v0 - 1);
          }
          if ((a[1] == 1)) {
            out(v0);
          } else {
            out(s0);
          }
          return a[2];
        }
    )";
    const std::string once = printProgram(parseProgram(source));
    const std::string twice = printProgram(parseProgram(once));
    EXPECT_EQ(once, twice);
    EXPECT_NE(once.find("int helper(int x, int y)"), std::string::npos);
}

TEST(LangParser, CommentsAndWhitespaceIgnored)
{
    const Observation obs = runRL("// leading comment\n"
                                  "int main() { // trailing\n"
                                  "  return 42; // value\n"
                                  "}\n");
    EXPECT_EQ(obs.ret, 42u);
}

TEST(LangParser, RejectsIllFormedPrograms)
{
    // No main.
    EXPECT_THROW(parseProgram("int f() { return 0; }"), FatalError);
    // main with parameters.
    EXPECT_THROW(parseProgram("int main(int x) { return x; }"),
                 FatalError);
    // Duplicate global.
    EXPECT_THROW(
        parseProgram("int g = 0; int g = 1;"
                     "int main() { return 0; }"),
        FatalError);
    // Non-power-of-two array size.
    EXPECT_THROW(
        parseProgram("int a[3]; int main() { return 0; }"),
        FatalError);
    // Shift count must be a literal.
    EXPECT_THROW(
        parseProgram("int main() { int v = 1;"
                     " return (2 << v); }"),
        FatalError);
    // Unknown callee.
    EXPECT_THROW(parseProgram("int main() { return nope(); }"),
                 FatalError);
    // Undeclared variable.
    EXPECT_THROW(parseProgram("int main() { return x; }"), FatalError);
    // Arity mismatch.
    EXPECT_THROW(
        parseProgram("int f(int x) { return x; }"
                     "int main() { return f(); }"),
        FatalError);
}

TEST(LangParser, ProgramValidMirrorsCheckProgram)
{
    Program ok = parseProgram("int main() { return 1; }");
    EXPECT_TRUE(programValid(ok));
    // Break it in memory the way the minimizer might: drop main.
    ok.functions.clear();
    EXPECT_FALSE(programValid(ok));
}

TEST(LangInterp, WrappingArithmeticAndLogicalShift)
{
    const Observation obs = runRL(R"(
        int main() {
          out((2147483647 + 1));
          out((0 - 2147483648));
          out((-1 >> 1));
          out((1 << 31));
          out((-8 >> 2));
          return 0;
        }
    )");
    ASSERT_EQ(obs.out.size(), 5u);
    EXPECT_EQ(obs.out[0], 0x80000000u);  // INT_MAX + 1 wraps
    EXPECT_EQ(obs.out[1], 0x80000000u);  // -INT_MIN wraps to itself
    EXPECT_EQ(obs.out[2], 0x7fffffffu);  // >> is logical, not arithmetic
    EXPECT_EQ(obs.out[3], 0x80000000u);
    EXPECT_EQ(obs.out[4], 0x3ffffffeu);
}

TEST(LangInterp, SignedComparisonsYieldZeroOne)
{
    const Observation obs = runRL(R"(
        int main() {
          out((-1 < 0));
          out((-1 < 1));
          out((2147483647 > -2147483648));
          out((5 == 5));
          out((5 != 5));
          out((-3 >= -3));
          return 0;
        }
    )");
    ASSERT_EQ(obs.out.size(), 6u);
    EXPECT_EQ(obs.out[0], 1u);
    EXPECT_EQ(obs.out[1], 1u);
    EXPECT_EQ(obs.out[2], 1u);
    EXPECT_EQ(obs.out[3], 1u);
    EXPECT_EQ(obs.out[4], 0u);
    EXPECT_EQ(obs.out[5], 1u);
}

TEST(LangInterp, ShortCircuitSkipsRightHandSide)
{
    const Observation obs = runRL(R"(
        int hits = 0;
        int tick(int v) {
          hits = (hits + 1);
          return v;
        }
        int main() {
          int r = 0;
          r = (0 && tick(1));
          r = (r + (1 || tick(1)));
          r = (r + (1 && tick(9)));
          return hits;
        }
    )");
    EXPECT_EQ(obs.ret, 1u);  // only the last tick() ran
    ASSERT_EQ(obs.globals.size(), 1u);
    EXPECT_EQ(obs.globals[0], 1u);
}

TEST(LangInterp, ArrayIndicesMaskWithSizeMinusOne)
{
    const Observation obs = runRL(R"(
        int a[4];
        int main() {
          a[0] = 10;
          a[5] = 20;    // 5 & 3 == 1
          a[-1] = 30;   // -1 & 3 == 3
          out(a[1]);
          out(a[3]);
          out(a[4]);    // 4 & 3 == 0
          return 0;
        }
    )");
    ASSERT_EQ(obs.out.size(), 3u);
    EXPECT_EQ(obs.out[0], 20u);
    EXPECT_EQ(obs.out[1], 30u);
    EXPECT_EQ(obs.out[2], 10u);
}

TEST(LangInterp, OutTraceCapsAtBufferButKeepsCounting)
{
    const Observation obs = runRL(R"(
        int main() {
          int i = 0;
          while ((i < 100)) {
            out(i);
            i = (i + 1);
          }
          return i;
        }
    )");
    EXPECT_EQ(obs.outTotal, 100u);
    ASSERT_EQ(obs.out.size(), static_cast<std::size_t>(kOutCap));
    EXPECT_EQ(obs.out.front(), 0u);
    EXPECT_EQ(obs.out.back(), static_cast<std::uint32_t>(kOutCap - 1));
}

TEST(LangInterp, StepFuseStopsRunawayLoops)
{
    InterpLimits limits;
    limits.maxSteps = 1000;
    const InterpResult r = interpret(
        parseProgram("int main() { while (1) { } return 0; }"),
        limits);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("step"), std::string::npos);
}

TEST(LangInterp, CallDepthFuseStopsRunawayRecursion)
{
    const InterpResult r = interpret(parseProgram(
        "int f(int n) { return f(n); }"
        "int main() { return f(1); }"));
    EXPECT_FALSE(r.ok);
}

TEST(LangInterp, DigestCoversEveryObservable)
{
    const Observation a = runRL("int g = 1; int main() { return 5; }");
    const Observation b = runRL("int g = 2; int main() { return 5; }");
    const Observation c = runRL("int g = 1; int main() { return 6; }");
    EXPECT_NE(a.digest(), b.digest());
    EXPECT_NE(a.digest(), c.digest());
    EXPECT_EQ(a.digest(),
              runRL("int g = 1; int main() { return 5; }").digest());
}

} // namespace
} // namespace risc1::lang
