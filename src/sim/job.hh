/**
 * @file
 * Declarative job and result types for the batch-simulation engine.
 *
 * A SimJob names everything needed to run one simulation: the backend
 * (by canonical name — the engine constructs it through the target
 * registry), the assembly source (or a pre-captured snapshot to fork
 * from), the machine configuration, and a step budget.  The engine
 * turns a vector of jobs into an equally long, insertion-ordered
 * vector of SimResults; a job that fails (assembler error, runaway
 * program, checksum mismatch, simulator fault) is captured in its
 * result and never disturbs its batch mates.
 */

#ifndef RISC1_SIM_JOB_HH
#define RISC1_SIM_JOB_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "memory/memory.hh"
#include "obs/metrics.hh"
#include "target/target.hh"

namespace risc1::sim {

/** One simulation to run. */
struct SimJob
{
    /** Free-form identifier echoed into the result and artifacts. */
    std::string id;

    /**
     * Backend name, canonical or alias (see target/registry.hh) —
     * resolved to a Target when the job runs.
     */
    std::string backend = "risc";

    /**
     * Assembly source for the target machine.  Ignored when @ref base
     * is set (the snapshot already contains the loaded program).
     */
    std::string source;

    /** Machine parameters; each backend reads its own slice. */
    target::TargetOptions config{};

    /** Abort the job with JobStatus::StepLimit past this many steps. */
    std::uint64_t maxSteps = 200'000'000;

    /**
     * Execute through the backend's decode cache instead of calling
     * step() per instruction.  On by default — both tiers run the same
     * decoder and semantics, so they are bit-for-bit equivalent
     * (tests/test_fast_path.cc, tests/test_vax_fast_path.cc) — but
     * sweep authors can clear it to cross-check a suspicious run
     * without the cache.
     */
    bool fast = true;

    /**
     * Expected checksum (per-ISA convention: RISC r1, VAX r0).  A
     * halted job whose checksum differs is reported as
     * JobStatus::Error.
     */
    std::optional<std::uint32_t> expected;

    /**
     * Ring depth for the postmortem replay: when the job faults during
     * execution (a simulator exception — not an assembler error, step
     * limit, or checksum mismatch), the engine re-runs it with a
     * Trace of this capacity installed and renders the last events
     * before the fault into SimResult::postmortem.  0 disables the
     * replay.  Healthy jobs never pay for this — the simulator is
     * deterministic, so the history is reconstructed only on demand.
     */
    std::size_t postmortem = 16;

    /**
     * Warm-start fork point: instead of assembling @ref source into a
     * fresh machine, the worker restores this snapshot into a target
     * built from @ref config and continues from there.  The snapshot
     * holds shared copy-on-write page handles (memory/memory.hh), so
     * restoring it into any number of concurrent jobs adopts pages in
     * O(pages touched) — no per-job content copy; each job's memory
     * then diverges page by page as it writes.  The snapshot must
     * come from the same backend and be geometry-compatible with
     * @ref config (see Target::restore); caches may differ freely,
     * which is the point — one executed prologue, many sweep points.
     */
    std::shared_ptr<const target::TargetSnapshot> base;
};

/** How a job ended. */
enum class JobStatus : std::uint8_t
{
    Ok,        ///< program halted (and matched `expected`, if set)
    StepLimit, ///< still running at maxSteps
    Error,     ///< assembler/simulator fault or checksum mismatch
    Canceled,  ///< drained unrun after BatchOptions::cancel fired
};

/** @return "ok" / "stepLimit" / "error" / "canceled". */
std::string_view jobStatusName(JobStatus status);

/** Everything collected from one finished (or failed) job. */
struct SimResult
{
    std::size_t index = 0;  ///< position in the submitted job vector
    std::string id;
    std::string backend = "risc";  ///< canonical backend name
    JobStatus status = JobStatus::Ok;
    std::string error;      ///< non-empty unless status == Ok

    /**
     * Instruction history leading up to a runtime fault, rendered by
     * obs::renderPostmortem from a deterministic replay of the job.
     * Empty unless the job faulted during execution and
     * SimJob::postmortem was nonzero.  Deterministic (replay of a
     * deterministic simulator), so it appears in the default artifact.
     */
    std::string postmortem;

    std::uint64_t steps = 0;
    std::uint32_t checksum = 0;
    std::uint64_t codeBytes = 0;  ///< 0 for snapshot-forked jobs

    /**
     * Per-ISA run statistics (downcast via target::riscStats /
     * target::vaxStats).  Always non-null: a job that fails before its
     * target can report carries the backend's all-zero counters.
     */
    std::shared_ptr<const target::TargetStats> stats;

    MemoryStats mem;

    /**
     * Wall-clock timing for this job (the batch engine fills it in;
     * a bare runJob() call leaves it zeroed).  Non-deterministic, so
     * it is excluded from the default artifact rendering and emitted
     * only via sim::ArtifactOptions::metrics.
     */
    obs::JobMetrics metrics;
};

} // namespace risc1::sim

#endif // RISC1_SIM_JOB_HH
