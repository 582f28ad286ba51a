/**
 * Differential unit tests for the two RL lowerings: each small
 * program runs through the reference interpreter and then on both
 * backends (RISC I register windows, VAX CALLS frames) through both
 * simulator tiers, and every execution must produce the identical
 * language-level Observation.  Where the mass fuzzer (riscdiff)
 * samples broadly, these cases pin the constructs one at a time, so
 * a lowering regression fails with a named test instead of a seed.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.hh"
#include "lang/diff.hh"
#include "lang/parser.hh"

namespace risc1::lang {
namespace {

void
expectAgreement(const std::string &source)
{
    const Program program = parseProgram(source);
    const DiffOutcome verdict = diffProgram(program);
    ASSERT_FALSE(verdict.skipped) << verdict.skipReason;
    ASSERT_EQ(verdict.runs.size(), 4u);
    EXPECT_TRUE(verdict.agreed) << verdict.report();
}

TEST(LangCompile, EveryBinaryOperatorAgrees)
{
    // Operand pairs chosen to hit sign flips, wraparound, and the
    // 0/1 materialization of comparisons.
    const std::vector<std::pair<int, int>> pairs = {
        {0, 0},   {1, -1},          {-8, 3},
        {100, 7}, {2147483647, 1},  {-2147483647 - 1, -1},
        {85, 51}, {-1, 2147483647},
    };
    const char *ops[] = {"+",  "-", "&",  "|",  "^",  "==",
                         "!=", "<", "<=", ">",  ">=", "&&",
                         "||"};
    for (const char *op : ops) {
        std::string body;
        for (const auto &[a, b] : pairs)
            body += "  out((" + std::to_string(a) + " " + op + " " +
                    std::to_string(b) + "));\n";
        SCOPED_TRACE(op);
        expectAgreement("int main() {\n" + body + "  return 1;\n}\n");
    }
}

TEST(LangCompile, ShiftsAgreeForEveryLegalCount)
{
    std::string body;
    for (int k = 0; k < 32; ++k) {
        body += "  out((-2023 << " + std::to_string(k) + "));\n";
        body += "  out((-2023 >> " + std::to_string(k) + "));\n";
    }
    // 64 out() calls exactly fill the trace buffer.
    expectAgreement("int main() {\n" + body + "  return 0;\n}\n");
}

TEST(LangCompile, UnaryOperatorsAgree)
{
    expectAgreement(R"(
        int main() {
          out(-(-2147483648));
          out(~0);
          out(!0);
          out(!7);
          out(-(!(~(-1))));
          return ~(-1);
        }
    )");
}

TEST(LangCompile, GlobalsAndArraysAgree)
{
    expectAgreement(R"(
        int g = -5;
        int h = 2147483647;
        int a[8];
        int main() {
          int i = 0;
          while ((i < 12)) {
            a[i] = (g + (i << 8));
            g = (g ^ a[(i - 1)]);
            i = (i + 1);
          }
          h = (h + a[7]);
          return (g ^ h);
        }
    )");
}

TEST(LangCompile, CallsWithArgumentsAndReturnsAgree)
{
    expectAgreement(R"(
        int four(int a, int b, int c, int d) {
          return (((a + b) - c) ^ d);
        }
        int wrap(int x) {
          return four(x, (x + 1), (x - 1), -x);
        }
        int main() {
          out(four(1, 2, 3, 4));
          out(wrap(100));
          out(four(wrap(5), wrap(6), wrap(7), wrap(8)));
          return wrap(wrap(3));
        }
    )");
}

TEST(LangCompile, RecursionCrossesWindowDepthOnRisc)
{
    // Depth 24 exceeds any reasonable window count, forcing the
    // RISC I overflow/underflow spill path against VAX stack frames.
    expectAgreement(R"(
        int f(int n, int acc) {
          if ((n == 0)) {
            return acc;
          }
          return f((n - 1), ((acc << 1) ^ n));
        }
        int main() {
          return f(24, 1);
        }
    )");
}

TEST(LangCompile, ShortCircuitSideEffectsAgree)
{
    expectAgreement(R"(
        int hits = 0;
        int tick(int v) {
          hits = (hits + 1);
          out(v);
          return v;
        }
        int main() {
          int r = (tick(0) && tick(1));
          r = (r + (tick(1) || tick(2)));
          r = (r + (tick(3) && tick(0)));
          r = (r + (tick(0) || tick(4)));
          out(hits);
          return r;
        }
    )");
}

TEST(LangCompile, DeepExpressionsStayWithinRiscWindow)
{
    // A right-leaning chain is the worst case for the RISC expression
    // stack (each pending operand holds a register).
    expectAgreement(R"(
        int main() {
          return (1 + (2 - (3 ^ (4 | (5 & (6 + (7 - 8)))))));
        }
    )");
}

TEST(LangCompile, OutOverflowBehavesIdentically)
{
    expectAgreement(R"(
        int main() {
          int i = 0;
          while ((i < 80)) {
            out((i ^ -1));
            i = (i + 1);
          }
          return i;
        }
    )");
}

TEST(LangCompile, ValuesMatchHandComputedResults)
{
    // Agreement alone would pass if all five executions were wrong the
    // same way, so the out() trace is also held to literal values.
    const Program program = parseProgram(R"(
        int x = 0x12345678;
        int y = 0x0f0f0f0f;
        int a[4];
        int main() {
          a[0] = 10; a[1] = 20; a[2] = 30; a[3] = 40;
          out(0xdeadbeef);
          out(a[2]);
          out((x + y)); out((x - y)); out((x & y)); out((x | y));
          out((x ^ y));
          out((x << 0)); out((x >> 0)); out((x << 1)); out((x >> 1));
          out((x << 5)); out((x >> 5)); out((x << 7)); out((x >> 7));
          out((0xffff0000 >> 4));
          return 0;
        }
    )");
    const DiffOutcome verdict = diffProgram(program);
    EXPECT_TRUE(verdict.agreed) << verdict.report();
    const std::vector<std::uint32_t> want = {
        0xdeadbeef, 30,         0x21436587, 0x03254769, 0x02040608,
        0x1f3f5f7f, 0x1d3b5977, 0x12345678, 0x12345678, 0x2468acf0,
        0x091a2b3c, 0x468acf00, 0x0091a2b3, 0x1a2b3c00, 0x002468ac,
        0x0ffff000,  // >> is logical: the VAX's ashl needs a mask
    };
    EXPECT_EQ(verdict.reference.obs.out, want);
}

TEST(LangCompile, TooDeepExpressionIsAFindingOnRiscOnly)
{
    // A 12-deep right-leaning sum holds 13 operands at once: more than
    // RISC I's ten expression-stack registers (r16..r25), while the
    // VAX evaluates on its memory stack.
    std::string sum = "1";
    for (int i = 0; i < 12; ++i)
        sum = "(1 + " + sum + ")";
    const Program program =
        parseProgram("int main() { return " + sum + "; }");
    try {
        compileRisc(program);
        ADD_FAILURE() << "compileRisc lowered a 13-operand expression";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "lang riscgen: expression too deep in 'main' "
                  "(stack slot r26 > r25)");
    }
    EXPECT_NO_THROW(compileVax(program));
    const DiffOutcome verdict = diffProgram(program);
    ASSERT_EQ(verdict.runs.size(), 1u);
    EXPECT_EQ(verdict.runs[0].config, "compile");
    EXPECT_FALSE(verdict.agreed);
}

TEST(LangCompile, CompiledSourcesCarryTheSharedDataLabel)
{
    const Program p = parseProgram(
        "int g = 3; int main() { return g; }");
    EXPECT_NE(compileRisc(p).source.find("gvars:"),
              std::string::npos);
    EXPECT_NE(compileVax(p).source.find("gvars:"),
              std::string::npos);
    EXPECT_EQ(compileRisc(p).layout.globalWords, 1u);
    EXPECT_EQ(compileVax(p).layout.totalWords,
              1u + 1u + static_cast<std::uint32_t>(kOutCap));
}

/**
 * runBackend never throws past the verdict: a source that cannot be
 * loaded is a failed run carrying the reason, on both tiers.
 */
void
expectFailedRun(const std::string &target, const CompiledProgram &compiled,
                const std::string &reason)
{
    for (const bool fast : {false, true}) {
        SCOPED_TRACE(target + (fast ? "/fast" : "/step"));
        BackendRun run;
        ASSERT_NO_THROW(run = runBackend(target, compiled, fast, 1000));
        EXPECT_EQ(run.config, target + (fast ? "/fast" : "/step"));
        EXPECT_FALSE(run.ok);
        EXPECT_FALSE(run.match);
        EXPECT_NE(run.error.find(reason), std::string::npos) << run.error;
    }
}

TEST(LangCompile, RunBackendReportsAnAssemblerRejection)
{
    const Program p = parseProgram("int main() { return 1; }");
    CompiledProgram risc = compileRisc(p), vax = compileVax(p);
    risc.source += "\n    frobnicate r1, r2\n";
    vax.source += "\n    frobnicate r1, r2\n";
    expectFailedRun("risc", risc, "unknown mnemonic 'frobnicate'");
    expectFailedRun("vax", vax, "unknown mnemonic 'frobnicate'");
}

TEST(LangCompile, RunBackendReportsAMissingDataLabel)
{
    const Program p = parseProgram("int g = 3; int main() { return g; }");
    for (auto [target, compiled] :
         {std::pair{std::string("risc"), compileRisc(p)},
          std::pair{std::string("vax"), compileVax(p)}}) {
        // Rename every use of the label, so the source still assembles.
        std::string &src = compiled.source;
        for (std::size_t at = src.find(kDataLabel);
             at != std::string::npos; at = src.find(kDataLabel, at))
            src.replace(at, std::string(kDataLabel).size(), "gdata");
        expectFailedRun(target, compiled,
                        cat("unknown symbol '", kDataLabel, "'"));
    }
}

} // namespace
} // namespace risc1::lang
