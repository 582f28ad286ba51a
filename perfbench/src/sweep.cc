/**
 * @file
 * The `sweep` workload: the paper-reproduction batch path (riscbatch /
 * riscbench).  One pass runs every paper workload on both ISAs as a
 * cold job, four warm-start jobs forked from a snapshot of the freshly
 * loaded machine (each with another of riscbench's cache hierarchies)
 * and, on RISC,
 * the window-ablation jobs — about 165 jobs through
 * sim::runBatchReport on kWorkers workers.
 */
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "mem/config.hh"
#include "sim/engine.hh"
#include "target/registry.hh"
#include "trace.hh"
#include "workloads.hh"
#include "workloads/workloads.hh"

namespace perfbench {

namespace {

using risc1::sim::JobStatus;
using risc1::sim::SimJob;
using risc1::sim::SimResult;
using risc1::target::TargetSnapshot;
using risc1::target::TargetStats;

/** Distinct pass variants drawn per set-up; the timed phase cycles them. */
constexpr std::size_t kPassVariants = 8;

/** Warm-start jobs per program, each with its own hierarchy. */
constexpr std::size_t kWarmJobs = 4;

/**
 * The cache hierarchies riscbench runs, as L1I / L1D / L2 specs ("" =
 * no such level); each warm job draws one.  X1 (bench/fig_icache_sweep.cc)
 * forks its no-cache baseline and seven L1I-only points, 64 B to 8 KiB
 * with 16 B lines and a 4-cycle miss, from one loaded snapshot.  X2
 * (bench/fig_mem_hierarchy.cc) adds its split L1 and that L1 over a
 * write-back L2.  riscbench runs X1 on RISC only; here both ISAs draw
 * from the whole menu, as X2 runs its points on both.
 */
const char *const kHierarchyMenu[][3] = {
    {"", "", ""},  // X1 no-cache baseline
    {"64,16,4", "", ""},
    {"128,16,4", "", ""},
    {"256,16,4", "", ""},
    {"512,16,4", "", ""},
    {"1024,16,4", "", ""},
    {"4096,16,4", "", ""},
    {"8192,16,4", "", ""},
    {"256,16,4", "256,16,4", ""},               // X2 l1
    {"256,16,4", "256,16,4", "1024,32,12,wb"},  // X2 l1+l2
};
constexpr std::size_t kMenuSize = std::size(kHierarchyMenu);

/** Window counts of the RISC ablation jobs (plus one with windows off). */
constexpr unsigned kAblationWindows[] = {2, 3, 4, 6};

/** One paper workload on one ISA, with its freshly loaded snapshot. */
struct Program
{
    const risc1::Workload *workload = nullptr;
    std::string isa;
    std::shared_ptr<const TargetSnapshot> fresh;
};

/** One pass: its jobs in run order, and each job's canonical slot. */
struct PassVariant
{
    std::vector<SimJob> jobs;
    std::vector<std::size_t> canonical;
};

risc1::mem::HierarchyConfig
menuHierarchy(std::size_t index)
{
    risc1::mem::HierarchyConfig h;
    const auto level = [](const char *spec)
        -> std::optional<risc1::mem::LevelConfig> {
        if (!*spec)
            return std::nullopt;
        return risc1::mem::parseLevelSpec(spec, "sweep hierarchy menu");
    };
    h.l1i = level(kHierarchyMenu[index][0]);
    h.l1d = level(kHierarchyMenu[index][1]);
    h.l2 = level(kHierarchyMenu[index][2]);
    return h;
}

std::vector<Program>
loadPrograms()
{
    std::vector<Program> programs;
    for (const risc1::Workload &w : risc1::allWorkloads()) {
        for (const char *isa : {"risc", "vax"}) {
            auto t = risc1::target::makeTarget(isa);
            t->load(risc1::target::workloadSource(isa, w));
            programs.push_back(Program{&w, isa, t->snapshot()});
        }
    }
    return programs;
}

/** Fisher-Yates with the seeded generator (portable across libraries). */
template <typename T>
void
permute(std::vector<T> &items, Rng &rng)
{
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng() % i]);
}

PassVariant
makeVariant(const std::vector<Program> &programs, Rng &rng)
{
    std::vector<SimJob> canonical;
    for (const Program &p : programs) {
        SimJob cold;
        cold.id = risc1::cat(p.workload->id, "/", p.isa, "/cold");
        cold.backend = p.isa;
        cold.source = risc1::target::workloadSource(p.isa, *p.workload);
        cold.expected = p.workload->expected;
        canonical.push_back(cold);

        std::vector<std::size_t> menu(kMenuSize);
        for (std::size_t i = 0; i < kMenuSize; ++i)
            menu[i] = i;
        permute(menu, rng);
        for (std::size_t k = 0; k < kWarmJobs; ++k) {
            SimJob warm;
            warm.id = risc1::cat(p.workload->id, "/", p.isa, "/warm",
                                 menu[k]);
            warm.backend = p.isa;
            warm.base = p.fresh;
            warm.config.risc.caches = warm.config.vax.caches =
                menuHierarchy(menu[k]);
            warm.expected = p.workload->expected;
            canonical.push_back(warm);
        }
        if (p.isa != "risc")
            continue;
        for (const unsigned windows : kAblationWindows) {
            SimJob job = cold;
            job.id = risc1::cat(p.workload->id, "/risc/w", windows);
            job.config.risc.windows.numWindows = windows;
            canonical.push_back(job);
        }
        SimJob flat = cold;
        flat.id = risc1::cat(p.workload->id, "/risc/nowin");
        flat.config.risc.windowedCalls = false;
        canonical.push_back(flat);
    }

    PassVariant v;
    v.canonical.resize(canonical.size());
    for (std::size_t i = 0; i < canonical.size(); ++i)
        v.canonical[i] = i;
    permute(v.canonical, rng);
    for (const std::size_t c : v.canonical)
        v.jobs.push_back(canonical[c]);
    return v;
}

/** FNV digest of one job's simulated outcome and statistics. */
std::uint32_t
jobDigest(bool ok, std::uint64_t steps, std::uint32_t checksum,
          const TargetStats &stats, bool risc)
{
    std::uint32_t h = kFnvBasis;
    const auto fold64 = [&h](std::uint64_t v) {
        h = fnvFold(h, std::uint32_t(v));
        h = fnvFold(h, std::uint32_t(v >> 32));
    };
    fold64(ok);
    fold64(steps);
    fold64(checksum);
    fold64(stats.instructions());
    fold64(stats.cycles());
    fold64(stats.calls());
    fold64(stats.returns());
    const auto &mem = stats.memHierarchy();
    for (const auto *level : {&mem.l1i, &mem.l1d, &mem.l2}) {
        fold64(level->has_value());
        if (*level) {
            fold64((*level)->hits);
            fold64((*level)->misses);
            fold64((*level)->writebacks);
        }
    }
    if (risc) {
        const auto &run = risc1::target::riscStats(stats).run;
        fold64(run.windowOverflows);
        fold64(run.windowUnderflows);
        fold64(run.spillWords);
        fold64(run.fillWords);
    }
    return h;
}

/**
 * Per-variant job digests.  The first run of a variant records them;
 * every later run of it must reproduce them exactly.
 */
struct DigestBook
{
    std::vector<std::vector<std::uint32_t>> byVariant =
        std::vector<std::vector<std::uint32_t>>(kPassVariants);

    /** @return false when a rerun diverged from the recorded digest. */
    bool
    check(std::size_t variant, std::size_t canonical, std::uint32_t d,
          std::size_t jobs)
    {
        auto &book = byVariant[variant];
        if (book.empty())
            book.assign(jobs, 0);
        if (book[canonical] == 0) {
            book[canonical] = d | 1u;
            return true;
        }
        return book[canonical] == (d | 1u);
    }

    std::uint32_t
    digest() const
    {
        std::uint32_t h = kFnvBasis;
        for (const auto &book : byVariant)
            for (const std::uint32_t d : book)
                h = fnvFold(h, d);
        return h;
    }
};

/** One pass of one variant: how long it took and what it did. */
struct PassTime
{
    std::size_t variant = 0;
    double seconds = 0.0;
    std::uint64_t jobs = 0;
    std::uint64_t instructions = 0;
};

/** What one measured phase produced. */
struct Phase
{
    double seconds = 0.0;
    std::uint64_t jobs = 0;
    std::uint64_t failed = 0;
    std::uint64_t instructions = 0;
    std::vector<double> latencyMs;  ///< per job (a diagnostic only)
    std::vector<PassTime> passes;
    double busyMs = 0.0;      ///< summed worker busy time
    double capacityMs = 0.0;  ///< workers x pass wall time
    double queueWaitMs = 0.0; ///< summed job queue waits
};

/** Fold the slice @p from into @p into. */
void
absorb(Phase &into, const Phase &from)
{
    into.seconds += from.seconds;
    into.jobs += from.jobs;
    into.failed += from.failed;
    into.instructions += from.instructions;
    into.latencyMs.insert(into.latencyMs.end(), from.latencyMs.begin(),
                          from.latencyMs.end());
    into.passes.insert(into.passes.end(), from.passes.begin(),
                       from.passes.end());
    into.busyMs += from.busyMs;
    into.capacityMs += from.capacityMs;
    into.queueWaitMs += from.queueWaitMs;
}

/** The rates of one cycle through the variants, each pass at @p q. */
struct PassRates
{
    double opsPerS = 0.0;
    double minstrPerS = 0.0;
};

/**
 * Jobs and simulated instructions per second of one pass of every
 * variant, each taking its @p q quantile of pass time.  A variant's
 * jobs and instructions are the same on every pass (the digest book
 * checks it).
 */
PassRates
passRates(const std::vector<PassTime> &passes, double q)
{
    std::vector<std::vector<double>> seconds(kPassVariants);
    std::vector<const PassTime *> first(kPassVariants, nullptr);
    for (const PassTime &p : passes) {
        seconds[p.variant].push_back(p.seconds);
        if (!first[p.variant])
            first[p.variant] = &p;
    }
    double s = 0.0, jobs = 0.0, instructions = 0.0;
    for (std::size_t v = 0; v < kPassVariants; ++v) {
        if (!first[v])
            continue;
        s += percentile(seconds[v], q);
        jobs += double(first[v]->jobs);
        instructions += double(first[v]->instructions);
    }
    if (s <= 0.0)
        return {};
    return {jobs / s, instructions / s / 1e6};
}

/** Result of one job run through the calls runJob is built from. */
struct DecomposedJob
{
    bool ok = false;
    std::uint64_t steps = 0;
    std::uint32_t checksum = 0;
    std::shared_ptr<const TargetStats> stats;
    double wallMs = 0.0;
    double queueWaitMs = 0.0;
};

/**
 * sim::runJob decomposed into makeTarget, load or restore, run and
 * stats, one span each (no-ops with tracing off), so the traced run
 * sees every layer it hides.
 */
void
runJobDecomposed(const SimJob &job, std::size_t index, double waitMs,
             std::uint64_t parent, DecomposedJob &out)
{
    const auto start = Clock::now();
    Span span("sim.job", "sim", index, waitMs, parent);
    try {
        std::unique_ptr<risc1::target::Target> t;
        {
            Span s("target.makeTarget", "target", index);
            t = risc1::target::makeTarget(job.backend, job.config);
        }
        if (job.base) {
            Span s("target.restore", "target", index);
            t->restore(*job.base);
        } else {
            Span s("target.load", "asm", index);
            t->load(job.source);
        }
        risc1::RunOutcome run;
        {
            Span s("target.run", "dispatch", index);
            run = t->run(job.maxSteps, job.fast);
        }
        {
            Span s("target.stats", "target", index);
            out.stats = t->stats();
        }
        out.steps = run.steps;
        out.checksum = t->checksum();
        out.ok = run.halted &&
                 (!job.expected || *job.expected == out.checksum);
    } catch (const std::exception &) {
        out.ok = false;
    }
    out.wallMs = msSince(start);
    out.queueWaitMs = waitMs;
}

class Sweep
{
  public:
    explicit Sweep(const Options &opts) : opts_(opts) {}

    /**
     * One set-up: snapshots, pass variants, and one untimed warm-up
     * pass of each variant, which also records its digests.
     */
    double
    setup()
    {
        const auto t0 = Clock::now();
        programs_ = loadPrograms();
        Rng rng = seededRng(opts_.seed, 1);
        for (std::size_t i = 0; i < kPassVariants; ++i)
            variants_.push_back(makeVariant(programs_, rng));
        Phase warm;
        for (std::size_t i = 0; i < kPassVariants; ++i)
            runPass(warm);
        warmupFailed_ = warm.failed;
        return msSince(t0) / 1e3;
    }

    /**
     * Passes for @p seconds, through runBatchReport or, on
     * Path::Decomposed, through the calls runJob is built from.
     */
    Phase
    measure(double seconds, Path path)
    {
        Phase phase;
        const auto t0 = Clock::now();
        const auto end = t0 + std::chrono::duration<double>(seconds);
        while (Clock::now() < end) {
            if (path == Path::Decomposed)
                runPassDecomposed(phase);
            else
                runPass(phase);
        }
        phase.seconds = msSince(t0) / 1e3;
        return phase;
    }

    std::uint64_t warmupFailed() const { return warmupFailed_; }
    std::uint32_t digest() const { return book_.digest(); }
    std::size_t jobsPerPass() const { return variants_.front().jobs.size(); }

  private:
    void
    runPass(Phase &phase)
    {
        const std::size_t vi = next_++ % kPassVariants;
        const PassVariant &v = variants_[vi];
        risc1::sim::BatchOptions options;
        options.workers = kWorkers;
        const auto t0 = Clock::now();
        const risc1::sim::BatchReport report =
            risc1::sim::runBatchReport(v.jobs, options);
        const double seconds = msSince(t0) / 1e3;
        const std::uint64_t instructions = phase.instructions;
        for (std::size_t i = 0; i < report.results.size(); ++i) {
            const SimResult &r = report.results[i];
            const bool ok = r.status == JobStatus::Ok;
            const std::uint32_t d = jobDigest(ok, r.steps, r.checksum,
                                              *r.stats, r.backend == "risc");
            if (!ok || !book_.check(vi, v.canonical[i], d, v.jobs.size()))
                ++phase.failed;
            phase.instructions += r.stats->instructions();
            phase.latencyMs.push_back(r.metrics.wallMs);
            phase.queueWaitMs += r.metrics.queueWaitMs;
        }
        phase.jobs += report.results.size();
        phase.passes.push_back(PassTime{vi, seconds, report.results.size(),
                                        phase.instructions - instructions});
        for (const auto &w : report.metrics.perWorker)
            phase.busyMs += w.busyMs;
        phase.capacityMs += report.metrics.wallMs * report.metrics.workers;
    }

    /**
     * The decomposed pass mirrors runBatchReport: the calling thread is
     * worker 0 of kWorkers, and each pulls the next job in order.
     */
    void
    runPassDecomposed(Phase &phase)
    {
        const std::size_t vi = next_++ % kPassVariants;
        const PassVariant &v = variants_[vi];
        std::vector<DecomposedJob> out(v.jobs.size());
        const auto t0 = Clock::now();
        {
            Span pass("sim.pass", "sim", vi);
            const std::uint64_t parent = pass.id();
            std::atomic<std::size_t> next{0};
            const auto drain = [&] {
                for (std::size_t i; (i = next++) < v.jobs.size();)
                    runJobDecomposed(v.jobs[i], i, msSince(t0), parent, out[i]);
            };
            std::vector<std::thread> helpers;
            for (unsigned w = 1; w < kWorkers; ++w)
                helpers.emplace_back(drain);
            drain();
            for (auto &h : helpers)
                h.join();
        }
        const double wallMs = msSince(t0);
        const std::uint64_t instructions = phase.instructions;
        for (std::size_t i = 0; i < out.size(); ++i) {
            const DecomposedJob &r = out[i];
            bool ok = r.ok && r.stats;
            if (ok) {
                const std::uint32_t d =
                    jobDigest(ok, r.steps, r.checksum, *r.stats,
                              v.jobs[i].backend == "risc");
                ok = book_.check(vi, v.canonical[i], d, v.jobs.size());
                phase.instructions += r.stats->instructions();
            }
            if (!ok)
                ++phase.failed;
            phase.latencyMs.push_back(r.wallMs);
            phase.queueWaitMs += r.queueWaitMs;
            phase.busyMs += r.wallMs;
        }
        phase.jobs += out.size();
        phase.passes.push_back(PassTime{vi, wallMs / 1e3, out.size(),
                                        phase.instructions - instructions});
        phase.capacityMs += wallMs * kWorkers;
    }

    const Options &opts_;
    std::vector<Program> programs_;
    std::vector<PassVariant> variants_;
    DigestBook book_;
    std::size_t next_ = 0;
    std::uint64_t warmupFailed_ = 0;
};

} // namespace

Outcome
runSweep(const Options &opts)
{
    Outcome out;
    Sweep sweep(opts);
    out.setupS = sweep.setup();
    out.failed = sweep.warmupFailed();
    if (opts.setupOnly)
        return out;

    Phase phase, untraced, traced;
    if (!opts.trace) {
        phase = sweep.measure(opts.seconds, Path::Public);
    } else {
        tracedSlices(opts.seconds,
                     [&](double s, Path path) {
                         return sweep.measure(s, path);
                     },
                     phase, untraced, traced);
    }
    const PassRates fast = passRates(phase.passes, kFastDecile);
    endToEnd(fast.opsPerS, fast.minstrPerS, out.endToEnd);
    out.attempted = phase.jobs;
    out.failed += phase.failed;

    std::printf("sweep: %zu jobs/pass, %llu jobs in %zu passes, %.3f s, "
                "%llu failed, %llu simulated instructions; whole-run %.1f "
                "jobs/s; each variant's median pass %.1f jobs/s, fast "
                "decile %.1f jobs/s (reported); job wall time p50 %.4f ms "
                "p99 %.4f ms\n",
                sweep.jobsPerPass(), (unsigned long long)phase.jobs,
                phase.passes.size(), phase.seconds,
                (unsigned long long)out.failed,
                (unsigned long long)phase.instructions,
                double(phase.jobs) / phase.seconds,
                passRates(phase.passes, 0.5).opsPerS, fast.opsPerS,
                percentile(phase.latencyMs, 0.5),
                percentile(phase.latencyMs, 0.99));

    if (opts.trace) {
        out.layers.set("sim.busy_ratio", phase.busyMs / phase.capacityMs,
                       "ratio");
        out.layers.set("sim.queue_wait_ms",
                       phase.queueWaitMs / double(phase.jobs), "ms");
        out.attempted += untraced.jobs + traced.jobs;
        out.failed += untraced.failed + traced.failed;
        // Whole-slice rates: the slices hold only a few windows each.
        const double batchRate = double(phase.jobs) / phase.seconds;
        const double plainRate = double(untraced.jobs) / untraced.seconds;
        std::printf("sweep: runBatchReport %.1f jobs/s, the calls runJob "
                    "is built from %.1f jobs/s untraced (%+.1f %%)\n",
                    batchRate, plainRate,
                    (plainRate - batchRate) / batchRate * 100.0);
        finishTrace(opts, "ops_per_s", plainRate,
                    double(traced.jobs) / traced.seconds, true, out.layers);
    }
    std::printf("sweep: digest 0x%08x over every job's simulated "
                "statistics\n", sweep.digest());
    return out;
}

} // namespace perfbench
