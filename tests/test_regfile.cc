/** Unit tests for the overlapping register-window file. */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.hh"
#include "core/regfile.hh"

namespace risc1 {
namespace {

TEST(WindowConfig, PaperGeometry)
{
    const WindowConfig full = WindowConfig::full();
    EXPECT_EQ(full.numWindows, 8u);
    EXPECT_EQ(full.frameSize(), 16u);
    EXPECT_EQ(full.physRegs(), 138u); // the full design's file
    EXPECT_EQ(full.capacity(), 7u);

    const WindowConfig gold = WindowConfig::gold();
    EXPECT_EQ(gold.numWindows, 6u);
    EXPECT_EQ(gold.physRegs(), 106u);
}

TEST(WindowConfig, BadGeometryRejected)
{
    WindowConfig cfg;
    cfg.numGlobals = 11; // 11 + 10 + 12 != 32
    EXPECT_THROW(RegFile{cfg}, FatalError);
    WindowConfig one;
    one.numWindows = 1;
    EXPECT_THROW(RegFile{one}, FatalError);
}

TEST(RegGroup, Classification)
{
    EXPECT_EQ(regGroup(0), RegGroup::Global);
    EXPECT_EQ(regGroup(9), RegGroup::Global);
    EXPECT_EQ(regGroup(10), RegGroup::Low);
    EXPECT_EQ(regGroup(15), RegGroup::Low);
    EXPECT_EQ(regGroup(16), RegGroup::Local);
    EXPECT_EQ(regGroup(25), RegGroup::Local);
    EXPECT_EQ(regGroup(26), RegGroup::High);
    EXPECT_EQ(regGroup(31), RegGroup::High);
}

TEST(RegFile, R0IsHardwiredZero)
{
    RegFile rf;
    rf.write(0, 0xffffffff);
    EXPECT_EQ(rf.read(0), 0u);
}

TEST(RegFile, GlobalsSurviveWindowShifts)
{
    RegFile rf;
    for (unsigned r = 1; r < 10; ++r)
        rf.write(r, 100 + r);
    rf.pushWindow();
    rf.pushWindow();
    for (unsigned r = 1; r < 10; ++r)
        EXPECT_EQ(rf.read(r), 100 + r);
    rf.popWindow();
    for (unsigned r = 1; r < 10; ++r)
        EXPECT_EQ(rf.read(r), 100 + r);
}

TEST(RegFile, CallerLowBecomesCalleeHigh)
{
    // The paper's parameter-passing mechanism: the caller writes its
    // LOW registers (r10..r15); after the window slides, the callee
    // reads the same values in its HIGH registers (r26..r31).
    RegFile rf;
    for (unsigned i = 0; i < 6; ++i)
        rf.write(10 + i, 1000 + i);
    rf.pushWindow();
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_EQ(rf.read(26 + i), 1000 + i);
    // And results written to HIGH flow back to the caller's LOW.
    rf.write(26, 4242);
    rf.popWindow();
    EXPECT_EQ(rf.read(10), 4242u);
}

TEST(RegFile, LocalsArePrivatePerWindow)
{
    RegFile rf;
    rf.write(16, 111);
    rf.pushWindow();
    EXPECT_EQ(rf.read(16), 0u);
    rf.write(16, 222);
    rf.popWindow();
    EXPECT_EQ(rf.read(16), 111u);
}

TEST(RegFile, LowRegistersArePrivateBeforeCall)
{
    RegFile rf;
    rf.write(10, 5);
    rf.pushWindow();
    rf.write(10, 7); // callee's own LOW, distinct storage
    EXPECT_EQ(rf.read(26), 5u);
    rf.popWindow();
    EXPECT_EQ(rf.read(10), 5u);
}

TEST(RegFile, WindowsWrapCircularly)
{
    RegFile rf;
    const unsigned n = rf.config().numWindows;
    for (unsigned i = 0; i < n; ++i)
        rf.pushWindow();
    EXPECT_EQ(rf.cwp(), 0u); // back to the start after N pushes
}

TEST(RegFile, FrameRegCoversHighAndLocal)
{
    RegFile rf;
    // Write the current activation's HIGHs and LOCALs, then check the
    // frame accessor sees exactly those values.
    for (unsigned i = 0; i < 6; ++i)
        rf.write(26 + i, 900 + i);
    for (unsigned i = 0; i < 10; ++i)
        rf.write(16 + i, 800 + i);
    const unsigned w = rf.cwp();
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_EQ(rf.frameReg(w, i), 900 + i);
    for (unsigned i = 0; i < 10; ++i)
        EXPECT_EQ(rf.frameReg(w, 6 + i), 800 + i);
}

TEST(RegFile, SetFrameRegRestoresActivation)
{
    RegFile rf;
    const unsigned w = rf.cwp();
    for (unsigned i = 0; i < 16; ++i)
        rf.setFrameReg(w, i, 70 + i);
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_EQ(rf.read(26 + i), 70 + i);
    for (unsigned i = 0; i < 10; ++i)
        EXPECT_EQ(rf.read(16 + i), 76 + i);
}

TEST(RegFile, OutOfRangeAccessPanics)
{
    RegFile rf;
    EXPECT_THROW(rf.read(32), PanicError);
    EXPECT_THROW(rf.frameReg(99, 0), PanicError);
    EXPECT_THROW(rf.frameReg(0, 16), PanicError);
}

TEST(RegFile, ResetClearsState)
{
    RegFile rf;
    rf.write(16, 9);
    rf.pushWindow();
    rf.reset();
    EXPECT_EQ(rf.cwp(), 0u);
    EXPECT_EQ(rf.read(16), 0u);
}

/**
 * Property: at every CWP — reached through restore(), which must
 * recompute the file's cached window bases — each visible register
 * maps to the physical index docs/ISA.md's layout gives: globals at r,
 * LOW/LOCAL at windowBase(cwp) + r - 10, HIGH at
 * windowBase((cwp + 1) % n) + r - 26, with windowBase(w) = 10 + 16w.
 */
class RegFileMapping : public ::testing::TestWithParam<unsigned>
{
  protected:
    unsigned n() const { return GetParam(); }

    static unsigned windowBase(unsigned w) { return 10 + 16 * w; }

    unsigned
    expectedIndex(unsigned cwp, unsigned r) const
    {
        if (r < 10)
            return r;
        if (r < 26)
            return windowBase(cwp) + r - 10;
        return windowBase((cwp + 1) % n()) + r - 26;
    }

    unsigned
    expectedFrameIndex(unsigned w, unsigned i) const
    {
        return i < 6 ? windowBase((w + 1) % n()) + i : windowBase(w) + i;
    }

    RegFile
    makeFile() const
    {
        WindowConfig cfg;
        cfg.numWindows = n();
        return RegFile(cfg);
    }

    /** Physical contents with a distinct value in every register. */
    std::vector<std::uint32_t>
    distinct(const RegFile &rf) const
    {
        std::vector<std::uint32_t> phys(rf.physRegs().size());
        for (std::size_t i = 0; i < phys.size(); ++i)
            phys[i] = 0x1000 + static_cast<std::uint32_t>(i);
        phys[0] = 0; // r0
        return phys;
    }
};

TEST_P(RegFileMapping, ReadAndWriteAtEveryRestoredCwp)
{
    RegFile rf = makeFile();
    const std::vector<std::uint32_t> phys = distinct(rf);
    for (unsigned cwp = 0; cwp < n(); ++cwp) {
        rf.restore(phys, cwp);
        ASSERT_EQ(rf.cwp(), cwp);
        for (unsigned r = 1; r < 32; ++r) {
            const unsigned idx = expectedIndex(cwp, r);
            EXPECT_EQ(rf.physIndex(r), idx) << "cwp " << cwp << " r" << r;
            EXPECT_EQ(rf.read(r), phys[idx]) << "cwp " << cwp << " r" << r;
        }
        for (unsigned r = 1; r < 32; ++r) {
            rf.restore(phys, cwp);
            rf.write(r, 0xabcd0000u + r);
            std::vector<std::uint32_t> want = phys;
            want[expectedIndex(cwp, r)] = 0xabcd0000u + r;
            EXPECT_EQ(rf.physRegs(), want) << "cwp " << cwp << " r" << r;
        }
    }
}

TEST_P(RegFileMapping, FrameRegAgreesWithLayout)
{
    RegFile rf = makeFile();
    const std::vector<std::uint32_t> phys = distinct(rf);
    for (unsigned cwp = 0; cwp < n(); ++cwp) {
        rf.restore(phys, cwp);
        for (unsigned w = 0; w < n(); ++w)
            for (unsigned i = 0; i < 16; ++i) {
                const unsigned idx = expectedFrameIndex(w, i);
                EXPECT_EQ(rf.frameReg(w, i), phys[idx])
                    << "window " << w << " index " << i;
                rf.setFrameReg(w, i, 0x5a5a0000u + i);
                EXPECT_EQ(rf.physRegs()[idx], 0x5a5a0000u + i);
                rf.setFrameReg(w, i, phys[idx]);
            }
        EXPECT_EQ(rf.physRegs(), phys);
        // The current frame's HIGHs and LOCALs are its r26..r31 and
        // r16..r25.
        for (unsigned i = 0; i < 6; ++i)
            EXPECT_EQ(rf.frameReg(cwp, i), rf.read(26 + i));
        for (unsigned i = 6; i < 16; ++i)
            EXPECT_EQ(rf.frameReg(cwp, i), rf.read(10 + i));
    }
}

TEST_P(RegFileMapping, PushAndPopWrapAndRemap)
{
    RegFile rf = makeFile();
    const std::vector<std::uint32_t> phys = distinct(rf);
    for (unsigned cwp = 0; cwp < n(); ++cwp) {
        rf.restore(phys, cwp);
        rf.pushWindow();
        const unsigned down = (cwp + n() - 1) % n();
        ASSERT_EQ(rf.cwp(), down);
        for (unsigned r = 1; r < 32; ++r)
            EXPECT_EQ(rf.read(r), phys[expectedIndex(down, r)])
                << "after push from cwp " << cwp << ", r" << r;

        rf.restore(phys, cwp);
        rf.popWindow();
        const unsigned up = (cwp + 1) % n();
        ASSERT_EQ(rf.cwp(), up);
        for (unsigned r = 1; r < 32; ++r)
            EXPECT_EQ(rf.read(r), phys[expectedIndex(up, r)])
                << "after pop from cwp " << cwp << ", r" << r;
    }
}

INSTANTIATE_TEST_SUITE_P(WindowCounts, RegFileMapping,
                         ::testing::Values(2u, 3u, 4u, 6u, 8u));

/** Property: nesting depth up to capacity preserves every frame. */
class RegFileNesting : public ::testing::TestWithParam<unsigned>
{};

TEST_P(RegFileNesting, DeepNestingPreservesFrames)
{
    WindowConfig cfg;
    cfg.numWindows = GetParam();
    RegFile rf(cfg);
    const unsigned depth = cfg.capacity() - 1;

    for (unsigned d = 0; d < depth; ++d) {
        for (unsigned i = 0; i < 10; ++i)
            rf.write(16 + i, d * 100 + i);
        rf.write(10, d); // outgoing arg
        rf.pushWindow();
        EXPECT_EQ(rf.read(26), d);
    }
    for (unsigned d = depth; d-- > 0;) {
        rf.popWindow();
        for (unsigned i = 0; i < 10; ++i)
            EXPECT_EQ(rf.read(16 + i), d * 100 + i) << "depth " << d;
    }
}

INSTANTIATE_TEST_SUITE_P(WindowCounts, RegFileNesting,
                         ::testing::Values(2u, 3u, 4u, 6u, 8u, 16u));

} // namespace
} // namespace risc1
