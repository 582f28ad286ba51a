/**
 * Byte-identity gate for both assemblers: a pinned FNV-1a digest over
 * every image the repo assembles — the workloads, the example
 * programs, the RL corpus lowerings and 1000 sampled RL programs, each
 * on both ISAs.
 *
 * A digest folds, per image, the entry and the low 32 bits of
 * staticInstructions; the segment count, then each segment's base,
 * kind (Code 0, Data 1), byte count and bytes; the symbol count, then
 * each symbol's name bytes, a 0 byte and its value, in map order.
 * Words fold as their 4 little-endian bytes (Observation::digest's
 * flavour).  Any change to what either assembler emits moves a
 * digest; a change that is meant to must say why and re-pin it.  A
 * fifth digest folds the sampled programs' lowered text itself, so a
 * change to how the lowerings print moves it even where the images
 * stay the same.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "lang/compile.hh"
#include "lang/gen.hh"
#include "lang/parser.hh"
#include "vax/vassembler.hh"
#include "workloads/workloads.hh"

namespace risc1 {
namespace {

/** 32-bit FNV-1a over bytes and little-endian words. */
class ImageDigest
{
  public:
    void
    byte(std::uint8_t b)
    {
        h_ ^= b;
        h_ *= 16777619u;
    }

    void
    word(std::uint32_t w)
    {
        for (int i = 0; i < 4; ++i)
            byte(static_cast<std::uint8_t>(w >> (8 * i)));
    }

    void
    image(const Program &prog)
    {
        word(prog.entry);
        word(static_cast<std::uint32_t>(prog.staticInstructions));
        word(static_cast<std::uint32_t>(prog.segments.size()));
        for (const Segment &seg : prog.segments) {
            word(seg.base);
            word(seg.kind == SegmentKind::Code ? 0 : 1);
            word(static_cast<std::uint32_t>(seg.bytes.size()));
            for (const std::uint8_t b : seg.bytes)
                byte(b);
        }
        word(static_cast<std::uint32_t>(prog.symbols.size()));
        for (const auto &[name, value] : prog.symbols) {
            for (const char c : name)
                byte(static_cast<std::uint8_t>(c));
            byte(0);
            word(value);
        }
    }

    std::uint32_t value() const { return h_; }

  private:
    std::uint32_t h_ = 2166136261u;
};

std::string
readSourceFile(const std::string &relative)
{
    const std::string path = std::string(RISC1_SOURCE_DIR) + "/" + relative;
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Fold the RISC and VAX images of one RL program. */
void
foldLowerings(ImageDigest &d, const lang::Program &program)
{
    d.image(assembleRisc(lang::compileRisc(program).source));
    d.image(assembleVax(lang::compileVax(program).source));
}

TEST(AsmImages, Workloads)
{
    ImageDigest d;
    for (const Workload &w : allWorkloads()) {
        d.image(assembleRisc(w.riscSource));
        d.image(assembleVax(w.vaxSource));
    }
    EXPECT_EQ(d.value(), 0x5d39c118u);
}

TEST(AsmImages, ExamplePrograms)
{
    ImageDigest d;
    for (const char *name : {"fib.s", "sum.s", "fault.s"})
        d.image(assembleRisc(
            readSourceFile(std::string("examples/programs/") + name)));
    d.image(assembleVax(readSourceFile("examples/programs/hello_cisc.s")));
    EXPECT_EQ(d.value(), 0x6cf87fe2u);
}

TEST(AsmImages, CorpusLowerings)
{
    std::vector<std::string> paths;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::string(RISC1_SOURCE_DIR) + "/tests/corpus"))
        if (entry.path().extension() == ".rl")
            paths.push_back(entry.path().string());
    std::sort(paths.begin(), paths.end());
    ASSERT_FALSE(paths.empty());

    ImageDigest d;
    for (const std::string &path : paths) {
        std::ifstream in(path);
        std::ostringstream text;
        text << in.rdbuf();
        foldLowerings(d, lang::parseProgram(text.str()));
    }
    EXPECT_EQ(d.value(), 0xc53497d5u);
}

TEST(AsmImages, SampledProgramLowerings)
{
    ImageDigest d;
    for (std::uint64_t seed = 1; seed <= 1000; ++seed)
        foldLowerings(d, lang::generateProgram(seed));
    EXPECT_EQ(d.value(), 0x1e6f96cfu);
}

/** The lowerings' text itself: each source's bytes, then a 0 byte. */
TEST(AsmImages, SampledProgramLoweredText)
{
    ImageDigest d;
    const auto fold = [&d](const std::string &source) {
        for (const char c : source)
            d.byte(static_cast<std::uint8_t>(c));
        d.byte(0);
    };
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
        const lang::Program program = lang::generateProgram(seed);
        fold(lang::compileRisc(program).source);
        fold(lang::compileVax(program).source);
    }
    EXPECT_EQ(d.value(), 0x43598449u);
}

} // namespace
} // namespace risc1
