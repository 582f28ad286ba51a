/**
 * riscdiff — mass differential validation at engine scale
 * (docs/LANG.md).
 *
 *     riscdiff [--seeds N] [--start-seed S] [--workers W]
 *              [--max-interp-steps N] [--max-sim-steps N]
 *              [--time-budget-ms T] [--repro-dir DIR] [--verbose]
 *
 * For each seed the harness samples an RL program (riscgen's
 * generator), runs the reference interpreter as the oracle, lowers
 * the program to both ISAs, and executes it on both backends through
 * both simulator tiers (step() and runFast), asserting agreement on
 * the language-level observables: return value, global-memory image,
 * and out() trace.  Seeds fan out across a sim::Engine worker pool;
 * each worker task owns its Targets, so runs are private per seed.
 *
 * On the first divergence the harness shrinks the program with the
 * failure minimizer and writes to --repro-dir (default bench/out):
 *
 *     repro_seed<S>.rl        minimal reproducing RL source
 *     repro_seed<S>_orig.rl   the original sampled program
 *     repro_seed<S>_risc.s    RISC I assembly of the minimal repro
 *     repro_seed<S>_vax.s     VAX assembly of the minimal repro
 *     repro_seed<S>.txt       per-configuration diagnostic report
 *
 * The summary line ends with a digest folded over every seed's
 * oracle observation — byte-identical across runs, worker counts,
 * and platforms for the same seed range (determinism regression
 * check; --time-budget-ms can truncate the range, and the digest
 * then covers only the seeds that ran).
 *
 * Exit status: 0 when every judged seed agreed, 1 on any divergence
 * (or a driver error), 2 on a usage error.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "lang/compile.hh"
#include "lang/diff.hh"
#include "lang/gen.hh"
#include "lang/minimize.hh"
#include "lang/print.hh"
#include "sim/engine.hh"

using namespace risc1;

namespace {

std::atomic<bool> g_interrupted{false};

void
onSignal(int)
{
    g_interrupted.store(true);
}

int
usage()
{
    std::cerr
        << "usage: riscdiff [--seeds N] [--start-seed S]"
           " [--workers W]\n"
           "                [--max-interp-steps N] [--max-sim-steps N]\n"
           "                [--time-budget-ms T] [--repro-dir DIR]"
           " [--verbose]\n";
    return 2;
}

/** Per-seed verdict, filled in by an engine task. */
struct SeedResult
{
    bool ran = false;      ///< false when the time budget cut it off
    bool skipped = false;  ///< interpreter fuse blown
    bool agreed = false;
    std::uint32_t digest = 0;  ///< oracle observation digest
    std::string report;        ///< non-empty on disagreement
};

/** FNV-1a fold, matching Observation::digest()'s flavor. */
std::uint32_t
fold(std::uint32_t h, std::uint32_t v)
{
    for (int b = 0; b < 4; ++b) {
        h ^= (v >> (8 * b)) & 0xffu;
        h *= 16777619u;
    }
    return h;
}

void
writeFile(const std::filesystem::path &path, const std::string &text)
{
    std::ofstream os(path);
    if (!os)
        fatal(cat("riscdiff: cannot write ", path.string()));
    os << text;
}

/** Shrink the diverging program and drop repro files for @p seed. */
void
writeRepro(std::uint64_t seed, const lang::Program &original,
           const lang::DiffLimits &limits, const std::string &dir)
{
    std::filesystem::create_directories(dir);
    const std::filesystem::path base =
        std::filesystem::path(dir) / cat("repro_seed", seed);

    const lang::FailurePredicate stillFails =
        [&limits](const lang::Program &p) {
            const lang::DiffOutcome o = lang::diffProgram(p, limits);
            return !o.skipped && !o.agreed;
        };
    lang::Program minimal = original.clone();
    try {
        lang::MinimizeResult r = lang::minimize(original, stillFails);
        minimal = std::move(r.program);
        std::cerr << "riscdiff: minimized seed " << seed << " from "
                  << lang::programNodes(original) << " to "
                  << lang::programNodes(minimal) << " nodes ("
                  << r.tests << " tests)\n";
    } catch (const FatalError &e) {
        // Flaky repro; keep the original program as the repro.
        std::cerr << "riscdiff: minimizer gave up on seed " << seed
                  << ": " << e.what() << "\n";
    }

    const lang::DiffOutcome verdict =
        lang::diffProgram(minimal, limits);
    writeFile(base.string() + ".rl", lang::printProgram(minimal));
    writeFile(base.string() + "_orig.rl",
              lang::printProgram(original));
    writeFile(base.string() + "_risc.s",
              lang::compileRisc(minimal).source);
    writeFile(base.string() + "_vax.s",
              lang::compileVax(minimal).source);
    writeFile(base.string() + ".txt",
              cat("seed ", seed, "\n", verdict.report()));
    std::cerr << "riscdiff: repro files at " << base.string()
              << ".{rl,txt} and _{risc,vax}.s\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t seeds = 50;
    std::uint64_t startSeed = 1;
    unsigned workers = 0;  // Engine default: hardware concurrency
    lang::DiffLimits limits;
    std::uint64_t timeBudgetMs = 0;  // 0 = unlimited
    std::string reproDir = "bench/out";
    bool verbose = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--seeds" && i + 1 < argc) {
            seeds = std::stoull(argv[++i]);
        } else if (arg == "--start-seed" && i + 1 < argc) {
            startSeed = std::stoull(argv[++i]);
        } else if (arg == "--workers" && i + 1 < argc) {
            workers = static_cast<unsigned>(std::stoul(argv[++i]));
        } else if (arg == "--max-interp-steps" && i + 1 < argc) {
            limits.maxInterpSteps = std::stoull(argv[++i]);
        } else if (arg == "--max-sim-steps" && i + 1 < argc) {
            limits.maxSimSteps = std::stoull(argv[++i]);
        } else if (arg == "--time-budget-ms" && i + 1 < argc) {
            timeBudgetMs = std::stoull(argv[++i]);
        } else if (arg == "--repro-dir" && i + 1 < argc) {
            reproDir = argv[++i];
        } else if (arg == "--verbose") {
            verbose = true;
        } else {
            return usage();
        }
    }
    if (seeds == 0)
        return usage();

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    const auto t0 = std::chrono::steady_clock::now();
    const auto deadline =
        t0 + std::chrono::milliseconds(timeBudgetMs);
    const auto cutOff = [&] {
        if (g_interrupted.load())
            return true;
        return timeBudgetMs != 0 &&
               std::chrono::steady_clock::now() >= deadline;
    };

    std::vector<SeedResult> results(
        static_cast<std::size_t>(seeds));
    try {
        sim::Engine engine(workers);
        std::uint64_t submitted = 0;
        for (std::uint64_t i = 0; i < seeds; ++i) {
            if (cutOff())
                break;  // remaining seeds stay ran=false
            const std::uint64_t seed = startSeed + i;
            SeedResult *slot = &results[static_cast<std::size_t>(i)];
            engine.submit([seed, slot, &limits] {
                slot->ran = true;
                try {
                    const lang::Program program =
                        lang::generateProgram(seed);
                    const lang::DiffOutcome o =
                        lang::diffProgram(program, limits);
                    slot->skipped = o.skipped;
                    slot->agreed = o.agreed;
                    if (!o.skipped)
                        slot->digest = o.reference.obs.digest();
                    if (!o.skipped && !o.agreed)
                        slot->report = o.report();
                } catch (const std::exception &e) {
                    // An escaped exception is a diverged seed, never
                    // a silently dropped one.
                    slot->report = cat("exception: ", e.what(), "\n");
                }
            });
            ++submitted;
        }
        engine.drain();
    } catch (const FatalError &e) {
        std::cerr << "riscdiff: " << e.what() << "\n";
        return 1;
    }

    std::uint64_t ran = 0, agreed = 0, skipped = 0;
    std::uint32_t digest = 2166136261u;
    std::int64_t firstBad = -1;
    for (std::uint64_t i = 0; i < seeds; ++i) {
        const SeedResult &r = results[static_cast<std::size_t>(i)];
        if (!r.ran)
            continue;
        ++ran;
        if (r.skipped) {
            ++skipped;
            digest = fold(digest, 0x51u);  // skip marker
            continue;
        }
        digest = fold(digest, r.digest);
        if (r.agreed) {
            ++agreed;
        } else if (firstBad < 0) {
            firstBad = static_cast<std::int64_t>(i);
        }
        if (verbose)
            std::cout << "seed " << (startSeed + i) << ": "
                      << (r.skipped ? "skip"
                          : r.agreed ? "agree"
                                     : "DIVERGE")
                      << "\n";
    }
    const std::uint64_t divergences = ran - agreed - skipped;

    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    std::cout << "riscdiff: " << ran << "/" << seeds
              << " seeds, " << agreed << " agreed, " << skipped
              << " skipped, " << divergences << " divergence(s), "
              << elapsed << " ms, digest 0x" << std::hex << digest
              << std::dec << "\n";

    if (g_interrupted.load())
        std::cerr << "riscdiff: interrupted\n";
    if (divergences == 0)
        return g_interrupted.load() ? 1 : 0;

    // Report and minimize the first divergence only: one clean,
    // minimal repro beats a directory of overlapping ones, and the
    // exit status already fails the whole run.
    const std::uint64_t badSeed =
        startSeed + static_cast<std::uint64_t>(firstBad);
    std::cerr << "riscdiff: seed " << badSeed << " diverged:\n"
              << results[static_cast<std::size_t>(firstBad)].report;
    try {
        writeRepro(badSeed, lang::generateProgram(badSeed), limits,
                   reproDir);
    } catch (const std::exception &e) {
        std::cerr << "riscdiff: repro writing failed: " << e.what()
                  << "\n";
    }
    return 1;
}
