/**
 * @file
 * Per-layer probes that need no workload state.  Each times one
 * layer's public calls from outside, on the paper workloads both ISAs
 * run: target construction, the assemblers (through Target::load), the
 * dispatch loops, register-window traps, the cache hierarchy, and
 * copy-on-write snapshots.  Simulated counts (traps, accesses, misses)
 * repeat exactly; host times are medians over a few repetitions.
 */
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "mem/config.hh"
#include "target/registry.hh"
#include "workloads.hh"
#include "workloads/workloads.hh"

namespace perfbench {

namespace {

using risc1::target::Target;
using risc1::target::TargetOptions;

constexpr int kReps = 3;
constexpr std::uint64_t kMaxSteps = 200'000'000;
const char *const kIsas[] = {"risc", "vax"};

/** Median host time of @p reps calls to @p f, in microseconds. */
template <typename F>
double
medianUs(int reps, F &&f)
{
    std::vector<double> us;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        f();
        us.push_back(msSince(t0) * 1e3);
    }
    return median(us);
}

/** A target of @p isa loaded with @p w (load untimed). */
std::unique_ptr<Target>
loaded(const char *isa, const risc1::Workload &w,
       const TargetOptions &options = {})
{
    auto t = risc1::target::makeTarget(isa, options);
    t->load(risc1::target::workloadSource(isa, w));
    return t;
}

/** Host time of one run to halt from a fresh load, median of kReps. */
double
coldRunUs(const char *isa, const risc1::Workload &w,
          const TargetOptions &options, std::uint64_t *instructions = nullptr)
{
    std::vector<double> us;
    for (int r = 0; r < kReps; ++r) {
        auto t = loaded(isa, w, options);
        const auto t0 = Clock::now();
        t->run(kMaxSteps, true);
        us.push_back(msSince(t0) * 1e3);
        if (instructions)
            *instructions = t->stats()->instructions();
    }
    return median(us);
}

void
constructionRow(Metrics &out)
{
    // makeTarget + destroy on kWorkers threads at once, as the engine's
    // workers do it.
    constexpr int kPerThread = 200;
    std::vector<double> perOpUs(kWorkers);
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < kWorkers; ++w)
        threads.emplace_back([w, &perOpUs] {
            const auto t0 = Clock::now();
            for (int i = 0; i < kPerThread; ++i)
                risc1::target::makeTarget(kIsas[i % 2]).reset();
            perOpUs[w] = msSince(t0) * 1e3 / kPerThread;
        });
    for (auto &t : threads)
        t.join();
    double sum = 0.0;
    for (const double v : perOpUs)
        sum += v;
    out.set("target.construct_us", sum / kWorkers, "us");
}

void
assemblerRows(Metrics &out)
{
    for (const char *isa : kIsas) {
        std::vector<double> us;
        for (const risc1::Workload &w : risc1::allWorkloads()) {
            const std::string &src = risc1::target::workloadSource(isa, w);
            for (int r = 0; r < kReps; ++r) {
                auto t = risc1::target::makeTarget(isa);
                const auto t0 = Clock::now();
                t->load(src);
                us.push_back(msSince(t0) * 1e3);
            }
        }
        out.set(risc1::cat("asm.load_us.", isa), median(us), "us");
    }
}

void
dispatchRows(Metrics &out)
{
    for (const char *isa : kIsas) {
        double fastUs = 0.0, stepUs = 0.0, firstUs = 0.0, rerunUs = 0.0;
        double instrs = 0.0;
        for (const risc1::Workload &w : risc1::allWorkloads()) {
            const auto snap = loaded(isa, w)->snapshot();
            auto t = risc1::target::makeTarget(isa);
            // First run after restore (cold decode cache), then a rerun
            // of the same snapshot on the now warm target.
            t->restore(*snap);
            auto t0 = Clock::now();
            t->run(kMaxSteps, true);
            firstUs += msSince(t0) * 1e3;
            instrs += double(t->stats()->instructions());
            t->restore(*snap);
            t0 = Clock::now();
            t->run(kMaxSteps, true);
            rerunUs += msSince(t0) * 1e3;

            fastUs += medianUs(kReps, [&] {
                t->restore(*snap);
                t->run(kMaxSteps, true);
            });
            stepUs += medianUs(kReps, [&] {
                t->restore(*snap);
                t->run(kMaxSteps, false);
            });
        }
        // The restore inside the fast/step medians is O(pages that
        // differ) and identical in both; it is a small share of a run.
        out.set(risc1::cat("dispatch.fast_ns_per_instr.", isa),
                fastUs * 1e3 / instrs, "ns");
        out.set(risc1::cat("dispatch.step_ns_per_instr.", isa),
                stepUs * 1e3 / instrs, "ns");
        out.set(risc1::cat("dispatch.first_run_ratio.", isa),
                firstUs / rerunUs, "ratio");
    }
}

void
windowRows(Metrics &out)
{
    TargetOptions two;
    two.risc.windows.numWindows = 2;
    double traps = 0.0, extraTraps = 0.0, extraUs = 0.0;
    for (const risc1::Workload &w : risc1::allWorkloads()) {
        auto t = loaded("risc", w, two);
        t->run(kMaxSteps, true);
        const auto &run = risc1::target::riscStats(*t->stats()).run;
        const double n = double(run.windowOverflows + run.windowUnderflows);
        traps += n;
        if (!w.callIntensive)
            continue;
        auto full = loaded("risc", w);
        full->run(kMaxSteps, true);
        const auto &base = risc1::target::riscStats(*full->stats()).run;
        extraTraps +=
            n - double(base.windowOverflows + base.windowUnderflows);
        extraUs += coldRunUs("risc", w, two) - coldRunUs("risc", w, {});
    }
    out.set("core.window_traps", traps, "count");
    out.set("core.spill_fill_ns", extraUs * 1e3 / extraTraps, "ns");
}

void
hierarchyRows(Metrics &out)
{
    TargetOptions cached;
    for (auto *caches : {&cached.risc.caches, &cached.vax.caches}) {
        caches->l1i = risc1::mem::parseLevelSpec("256,16,4", "l1i");
        caches->l1d = risc1::mem::parseLevelSpec("256,16,4", "l1d");
        caches->l2 = risc1::mem::parseLevelSpec("1024,32,12,wb", "l2");
    }
    double accesses[3] = {}, misses[3] = {};
    double extraUs = 0.0;
    for (const char *isa : kIsas) {
        for (const risc1::Workload &w : risc1::allWorkloads()) {
            auto t = loaded(isa, w, cached);
            t->run(kMaxSteps, true);
            const auto &mem = t->stats()->memHierarchy();
            int i = 0;
            for (const auto *level : {&mem.l1i, &mem.l1d, &mem.l2}) {
                if (*level) {
                    accesses[i] += double((*level)->accesses());
                    misses[i] += double((*level)->misses);
                }
                ++i;
            }
            extraUs += coldRunUs(isa, w, cached) - coldRunUs(isa, w, {});
        }
    }
    const double total = accesses[0] + accesses[1] + accesses[2];
    out.set("mem.lookup_ns", extraUs * 1e3 / total, "ns");
    out.set("mem.accesses", total, "count");
    out.set("mem.miss_ratio.l1i", misses[0] / accesses[0], "ratio");
    out.set("mem.miss_ratio.l1d", misses[1] / accesses[1], "ratio");
    out.set("mem.miss_ratio.l2", misses[2] / accesses[2], "ratio");
}

void
copyOnWriteRows(Metrics &out)
{
    std::vector<double> restoreUs, snapshotUs, forkUs;
    double pages = 0.0;
    unsigned jobs = 0;
    for (const char *isa : kIsas) {
        for (const risc1::Workload &w : risc1::allWorkloads()) {
            const auto fresh = loaded(isa, w)->snapshot();
            for (int r = 0; r < kReps; ++r) {
                auto t = risc1::target::makeTarget(isa);
                auto t0 = Clock::now();
                t->restore(*fresh);
                restoreUs.push_back(msSince(t0) * 1e3);
                t->run(kMaxSteps, true);
                // Pages this warm job had to copy before writing them.
                pages += double(t->memUsage().residentBytes) /
                         double(risc1::Memory::pageBytes);
                ++jobs;
                t0 = Clock::now();
                const auto snap = t->snapshot();
                snapshotUs.push_back(msSince(t0) * 1e3);
                t0 = Clock::now();
                const auto child = t->fork();
                forkUs.push_back(msSince(t0) * 1e3);
            }
        }
    }
    out.set("target.restore_us", median(restoreUs), "us");
    out.set("target.snapshot_us", median(snapshotUs), "us");
    out.set("target.fork_us", median(forkUs), "us");
    out.set("memory.pages_copied", pages / jobs, "count");
}

} // namespace

void
commonLayerMetrics(const Options &, Metrics &out)
{
    constructionRow(out);
    assemblerRows(out);
    dispatchRows(out);
    windowRows(out);
    hierarchyRows(out);
    copyOnWriteRows(out);
}

} // namespace perfbench
