/**
 * @file
 * The RL differential harness: one program, five executions, one
 * verdict.
 *
 * For a program P the harness runs
 *
 *   1. the reference interpreter (interp.hh)           — the oracle
 *   2. RISC I backend, per-step reference path          (step())
 *   3. RISC I backend, predecoded fast path             (runFast)
 *   4. VAX baseline, per-step reference path
 *   5. VAX baseline, predecoded fast path
 *
 * and compares the language-level Observation (return value, global
 * memory image, out() trace) of every machine execution against the
 * oracle.  Any disagreement indicts one of: a lowering (compile_*.cc),
 * an assembler, a simulator tier, or the oracle itself — riscdiff then
 * shrinks the program (minimize.hh) to a minimal repro.
 *
 * The harness is deliberately single-threaded per program; riscdiff
 * fans out across seeds on sim::Engine, which keeps each worker's
 * Targets private (the engine's ownership rule).
 */

#ifndef RISC1_LANG_DIFF_HH
#define RISC1_LANG_DIFF_HH

#include <cstdint>
#include <string>
#include <vector>

#include "lang/compile.hh"
#include "lang/interp.hh"

namespace risc1::target {
class Target;
} // namespace risc1::target

namespace risc1::lang {

/** Harness budgets. */
struct DiffLimits
{
    /**
     * Interpreter fuse: programs that exceed this many interpreter
     * steps are skipped, not judged — the sampler occasionally emits
     * a legal but very long-running nest of loops and calls, and the
     * harness only needs agreement on programs it can afford to run
     * on four machine configurations.
     */
    std::uint64_t maxInterpSteps = 200'000;

    /** Per-backend-run instruction budget. */
    std::uint64_t maxSimSteps = 50'000'000;
};

/** One backend execution, judged against the oracle. */
struct BackendRun
{
    std::string config;   ///< "risc/step", "risc/fast", "vax/step", ...
    bool ok = false;      ///< loaded, ran to halt, observables read
    bool match = false;   ///< ok and observation equals the oracle's
    std::string error;    ///< failure or first-difference description
    Observation obs;
    std::uint64_t steps = 0;  ///< machine instructions executed
};

/** The verdict for one program. */
struct DiffOutcome
{
    bool skipped = false;  ///< interpreter fuse blown; nothing judged
    bool agreed = false;   ///< every backend run ok and matching
    std::string skipReason;
    InterpResult reference;
    /**
     * One entry per backend run (4), none when skipped, or a single
     * "compile" entry when a lowering failed.
     */
    std::vector<BackendRun> runs;

    /** Multi-line diagnostic report (empty when agreed). */
    std::string report() const;
};

/**
 * Run the full 1-oracle × 4-configuration differential for @p program.
 * Each lowering is assembled once; its step-tier and fast-tier runs
 * load that one image into fresh targets.
 */
DiffOutcome diffProgram(const Program &program,
                        const DiffLimits &limits = {});

/**
 * Run @p compiled on backend @p targetName ("risc" or "vax") through
 * the step() path (@p fast false) or runFast (@p fast true), reading
 * the Observation back through Target::peekWord.  The source is
 * assembled once (Target::assemble); the `gvars` address comes from
 * that image's symbol table.  Never throws a FatalError: an assembly
 * error, a missing `gvars`, or a load or run fault is returned as a
 * run with `ok` false and the error text.
 */
BackendRun runBackend(const std::string &targetName,
                      const CompiledProgram &compiled, bool fast,
                      std::uint64_t maxSimSteps);

/** First difference between @p got and the oracle's @p want, or "". */
std::string describeMismatch(const Observation &want,
                             const Observation &got);

} // namespace risc1::lang

#endif // RISC1_LANG_DIFF_HH
