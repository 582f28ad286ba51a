/**
 * Golden-file tests for the paper experiments: for every experiment
 * `riscbench --list` names, its complete stdout must match the
 * checked-in golden tests/golden/<name>.txt, line for line, after
 * volatile lines (wall-clock timings and artifact paths) are dropped.
 * The one exception is `fig_fork_fanout`, which measures time and
 * gates itself.  The simulator is deterministic, so any diff is a real
 * behavior change — either a regression, or an intended change that
 * must be reviewed and committed alongside fresh goldens — and a new
 * experiment cannot land without a golden.
 *
 * To regenerate after an intended output change, run the test binary
 * directly with the escape hatch and commit the rewritten files:
 *
 *     build/tests/test_golden_tables --update-goldens
 *
 * Volatile lines (excluded from both golden and comparison):
 *   - "batch engine: ..."  wall-clock worker timings
 *   - "artifact: ..."      output paths written by the bench
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace risc1 {
namespace {

bool gUpdateGoldens = false;

/** Run @p command and capture its stdout (requires exit status 0). */
std::string
runTool(const std::string &command)
{
    FILE *pipe = popen(command.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << "cannot run " << command;
    if (!pipe)
        return "";
    std::string out;
    char buf[4096];
    std::size_t got;
    while ((got = fread(buf, 1, sizeof buf, pipe)) > 0)
        out.append(buf, got);
    const int status = pclose(pipe);
    EXPECT_EQ(status, 0) << command << " exited with status " << status;
    return out;
}

bool
isVolatileLine(const std::string &line)
{
    return line.rfind("batch engine:", 0) == 0 ||
           line.rfind("artifact:", 0) == 0;
}

/** Drop volatile lines and normalize to trailing-newline form. */
std::string
filterVolatile(const std::string &text)
{
    std::istringstream in(text);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line))
        if (!isVolatileLine(line))
            out << line << "\n";
    return out.str();
}

void
checkGolden(const std::string &experiment)
{
    const std::string command =
        std::string(RISC1_BIN_RISCBENCH) + " " + experiment;
    const std::string output = filterVolatile(runTool(command));
    ASSERT_FALSE(output.empty());
    const std::string goldenPath = std::string(RISC1_SOURCE_DIR) +
                                   "/tests/golden/" + experiment + ".txt";

    if (gUpdateGoldens) {
        std::ofstream out(goldenPath);
        ASSERT_TRUE(out) << "cannot write " << goldenPath;
        out << output;
        std::cout << "updated " << goldenPath << "\n";
        return;
    }

    std::ifstream in(goldenPath);
    ASSERT_TRUE(in) << "missing golden " << goldenPath
                    << " — run with --update-goldens to create it";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden.str(), output)
        << "bench output drifted from " << goldenPath
        << "; if the change is intended, regenerate with "
           "`test_golden_tables --update-goldens` and commit the diff";
}

TEST(GoldenTables, EveryDeterministicExperiment)
{
    std::istringstream list(
        runTool(std::string(RISC1_BIN_RISCBENCH) + " --list"));
    std::string line;
    int checked = 0;
    while (std::getline(list, line)) {
        const std::string name = line.substr(0, line.find('\t'));
        if (name == "fig_fork_fanout")
            continue;
        SCOPED_TRACE(name);
        checkGolden(name);
        ++checked;
    }
    EXPECT_GT(checked, 0);
}

} // namespace
} // namespace risc1

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--update-goldens")
            risc1::gUpdateGoldens = true;
    return RUN_ALL_TESTS();
}
