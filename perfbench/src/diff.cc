/**
 * @file
 * The `diff` workload: the riscdiff path.  Each operation samples one
 * RL program, runs the oracle, lowers it to both ISAs and judges four
 * backend runs (lang::diffProgram), fanned out over a kWorkers
 * sim::Engine.  Every program is new, so host time goes to per-program
 * set-up (assembly, lowering, target construction) rather than to
 * simulation.
 */
#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "common/program.hh"
#include "lang/diff.hh"
#include "lang/gen.hh"
#include "lang/layout.hh"
#include "sim/engine.hh"
#include "target/registry.hh"
#include "trace.hh"
#include "vax/vassembler.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using risc1::lang::BackendRun;
using risc1::lang::CompiledProgram;
using risc1::lang::DiffLimits;
using risc1::lang::DiffOutcome;

/**
 * Seeds in the untimed warm-up block of each set-up: enough that the
 * block's mix of small and large programs, which the seed draws, moves
 * setup_s little.
 */
constexpr unsigned kWarmSeeds = 256;

/** First seed of the block stream @p stream draws for workload seed @p seed. */
std::uint64_t
blockStart(std::uint64_t seed, std::uint64_t stream)
{
    Rng rng = seededRng(seed, stream);
    return (rng() >> 20) + 1;
}

/** One seed's verdict, written by the engine task that judged it. */
struct SeedResult
{
    std::uint64_t seed = 0;
    bool skipped = false;
    bool agreed = false;
    std::uint32_t digest = 0;
    std::uint64_t steps = 0;
    double ms = 0.0;      ///< task start to verdict
    double waitMs = 0.0;  ///< engine enqueue to task start
    Clock::time_point done;
};

/** Seeds per rate window (about half a second on two workers). */
constexpr std::size_t kWindowSeeds = 250;

/** Address of the `gvars` block (mirrors lang/diff.cc). */
std::uint32_t
dataAddress(const std::string &name, const std::string &source)
{
    const risc1::Program assembled = name == "risc"
                                         ? risc1::assembleRisc(source)
                                         : risc1::assembleVax(source);
    const auto it = assembled.symbols.find(risc1::lang::kDataLabel);
    if (it == assembled.symbols.end())
        risc1::fatal("perfbench: no gvars symbol");
    return it->second;
}

/**
 * lang::runBackend decomposed into makeTarget, load, assemble (for the
 * data address), run and the observable reads, one span each (no-ops
 * with tracing off).
 */
BackendRun
runBackendDecomposed(const std::string &name,
                     const CompiledProgram &compiled, bool fast,
                     std::uint64_t maxSimSteps, std::uint64_t seed)
{
    Span span("lang.runBackend", "lang", seed);
    BackendRun run;
    run.config = risc1::cat(name, fast ? "/fast" : "/step");
    try {
        std::unique_ptr<risc1::target::Target> t;
        {
            Span s("target.makeTarget", "target", seed);
            t = risc1::target::makeTarget(name);
        }
        {
            Span s("target.load", "asm", seed);
            t->load(compiled.source);
        }
        std::uint32_t base = 0;
        {
            Span s("asm.assemble", "asm", seed);
            base = dataAddress(name, compiled.source);
        }
        risc1::RunOutcome outcome;
        {
            Span s("target.run", "dispatch", seed);
            outcome = t->run(maxSimSteps, fast);
        }
        run.steps = outcome.steps;
        if (!outcome.halted) {
            run.error = "did not halt";
            return run;
        }
        Span s("target.peek", "target", seed);
        const risc1::lang::DataLayout &layout = compiled.layout;
        run.obs.ret = t->checksum();
        for (std::uint32_t w = 0; w < layout.globalWords; ++w)
            run.obs.globals.push_back(t->peekWord(base + 4 * w));
        run.obs.outTotal = t->peekWord(base + 4 * layout.outCountWord);
        const std::uint64_t stored = std::min<std::uint64_t>(
            run.obs.outTotal, risc1::lang::kOutCap);
        for (std::uint64_t i = 0; i < stored; ++i)
            run.obs.out.push_back(t->peekWord(
                base + 4 * (layout.outBufWord + std::uint32_t(i))));
        run.ok = true;
    } catch (const risc1::FatalError &e) {
        run.error = e.what();
    }
    return run;
}

/** lang::diffProgram decomposed into the public calls it is built from. */
DiffOutcome
diffDecomposed(std::uint64_t seed, const risc1::lang::Program &program,
           const DiffLimits &limits)
{
    DiffOutcome outcome;
    {
        Span s("lang.interpret", "lang", seed);
        risc1::lang::InterpLimits il;
        il.maxSteps = limits.maxInterpSteps;
        outcome.reference = risc1::lang::interpret(program, il);
    }
    if (!outcome.reference.ok) {
        outcome.skipped = true;
        return outcome;
    }
    CompiledProgram risc, vax;
    try {
        {
            Span s("lang.compileRisc", "lang", seed);
            risc = risc1::lang::compileRisc(program);
        }
        Span s("lang.compileVax", "lang", seed);
        vax = risc1::lang::compileVax(program);
    } catch (const risc1::FatalError &) {
        return outcome;  // agreed stays false: a lowering failure
    }
    outcome.agreed = true;
    for (const auto &[name, compiled] :
         {std::pair<const char *, const CompiledProgram &>{"risc", risc},
          {"vax", vax}}) {
        for (const bool fast : {false, true}) {
            BackendRun run = runBackendDecomposed(
                name, compiled, fast, limits.maxSimSteps, seed);
            run.match = run.ok && risc1::lang::describeMismatch(
                                      outcome.reference.obs, run.obs)
                                      .empty();
            outcome.agreed = outcome.agreed && run.match;
            outcome.runs.push_back(std::move(run));
        }
    }
    return outcome;
}

void
judge(std::uint64_t seed, Path path, SeedResult &slot)
{
    const DiffLimits limits;
    DiffOutcome o;
    if (path == Path::Decomposed) {
        Span span("sim.task", "sim", seed, slot.waitMs);
        risc1::lang::Program program;
        {
            Span s("lang.generate", "lang", seed);
            program = risc1::lang::generateProgram(seed);
        }
        o = diffDecomposed(seed, program, limits);
    } else {
        o = risc1::lang::diffProgram(risc1::lang::generateProgram(seed),
                                     limits);
    }
    slot.seed = seed;
    slot.skipped = o.skipped;
    slot.agreed = o.agreed;
    if (!o.skipped)
        slot.digest = o.reference.obs.digest();
    for (const BackendRun &run : o.runs)
        slot.steps += run.steps;
}

struct Phase
{
    Clock::time_point start;
    double seconds = 0.0;
    std::deque<SeedResult> seeds;

    /**
     * Judged seeds per second in windows of kWindowSeeds consecutive
     * verdicts, in finishing order; the partial last window is dropped.
     */
    std::vector<double>
    windowRates() const
    {
        std::vector<const SeedResult *> byDone;
        for (const SeedResult &s : seeds)
            byDone.push_back(&s);
        std::sort(byDone.begin(), byDone.end(),
                  [](const SeedResult *a, const SeedResult *b) {
                      return a->done < b->done;
                  });
        std::vector<double> rates;
        Clock::time_point from = start;
        for (std::size_t i = 0; i + kWindowSeeds <= byDone.size();
             i += kWindowSeeds) {
            double judged = 0.0;
            for (std::size_t k = i; k < i + kWindowSeeds; ++k)
                judged += !byDone[k]->skipped;
            const Clock::time_point to = byDone[i + kWindowSeeds - 1]->done;
            rates.push_back(judged / (msBetween(from, to) / 1e3));
            from = to;
        }
        return rates;
    }

    std::uint64_t judged() const
    {
        std::uint64_t n = 0;
        for (const SeedResult &s : seeds)
            n += !s.skipped;
        return n;
    }
    std::uint64_t failed() const
    {
        std::uint64_t n = 0;
        for (const SeedResult &s : seeds)
            n += !s.skipped && !s.agreed;
        return n;
    }
};

/** Fold the slice @p from into @p into. */
void
absorb(Phase &into, Phase &&from)
{
    if (into.seeds.empty())
        into.start = from.start;
    into.seconds += from.seconds;
    for (SeedResult &s : from.seeds)
        into.seeds.push_back(s);
}

class Diff
{
  public:
    explicit Diff(const Options &opts)
        : opts_(opts), next_(blockStart(opts.seed, 2))
    {
    }

    /** One set-up: the engine plus one untimed warm-up block. */
    double
    setup()
    {
        const auto t0 = Clock::now();
        engine_ = std::make_unique<risc1::sim::Engine>(kWorkers,
                                                       2 * kWorkers);
        Phase warm;
        const std::uint64_t first = blockStart(opts_.seed, 3);
        for (std::uint64_t s = first; s < first + kWarmSeeds; ++s)
            submit(s, Path::Public, warm);
        engine_->drain();
        warmFailed_ = warm.failed();
        return msSince(t0) / 1e3;
    }

    /**
     * Seeds for @p seconds, through lang::diffProgram or, on
     * Path::Decomposed, through the calls it is built from.
     */
    Phase
    measure(double seconds, Path path)
    {
        Phase phase;
        const auto t0 = Clock::now();
        phase.start = t0;
        const auto end = t0 + std::chrono::duration<double>(seconds);
        while (Clock::now() < end)
            submit(next_++, path, phase);
        engine_->drain();
        phase.seconds = msSince(t0) / 1e3;
        return phase;
    }

    std::uint64_t warmFailed() const { return warmFailed_; }

  private:
    void
    submit(std::uint64_t seed, Path path, Phase &phase)
    {
        phase.seeds.emplace_back();
        SeedResult *slot = &phase.seeds.back();
        const auto enqueued = Clock::now();
        engine_->submit([slot, seed, enqueued, path] {
            const auto start = Clock::now();
            slot->waitMs = msBetween(enqueued, start);
            try {
                judge(seed, path, *slot);
            } catch (const std::exception &) {
                slot->agreed = false;  // counted as a failed seed
            }
            slot->done = Clock::now();
            slot->ms = msBetween(start, slot->done);
        });
    }

    const Options &opts_;
    std::unique_ptr<risc1::sim::Engine> engine_;
    std::uint64_t next_;
    std::uint64_t warmFailed_ = 0;
};

/** The seed block's oracle digest, folded the way riscdiff folds it. */
std::uint32_t
blockDigest(const Phase &p)
{
    std::uint32_t h = kFnvBasis;
    for (const SeedResult &s : p.seeds)
        h = s.skipped ? fnvFold(h, 0x51u) : fnvFold(h, s.digest);
    return h;
}

/** Mean of @p f over @p n calls, in microseconds. */
template <typename F>
double
meanUs(unsigned n, F &&f)
{
    const auto t0 = Clock::now();
    for (unsigned i = 0; i < n; ++i)
        f(i);
    return msSince(t0) * 1e3 / n;
}

} // namespace

void
langLayerMetrics(std::uint64_t seed, unsigned count, Metrics &out)
{
    const std::uint64_t first = blockStart(seed, 2);
    const DiffLimits limits;
    std::vector<risc1::lang::Program> programs(count);
    out.set("lang.gen_us", meanUs(count, [&](unsigned i) {
                programs[i] = risc1::lang::generateProgram(first + i);
            }), "us");

    std::vector<bool> judged(count);
    risc1::lang::InterpLimits il;
    il.maxSteps = limits.maxInterpSteps;
    out.set("lang.interp_us", meanUs(count, [&](unsigned i) {
                judged[i] = risc1::lang::interpret(programs[i], il).ok;
            }), "us");

    std::vector<CompiledProgram> risc(count), vax(count);
    out.set("lang.compile_us.risc", meanUs(count, [&](unsigned i) {
                risc[i] = risc1::lang::compileRisc(programs[i]);
            }), "us");
    out.set("lang.compile_us.vax", meanUs(count, [&](unsigned i) {
                vax[i] = risc1::lang::compileVax(programs[i]);
            }), "us");

    double kib = 0.0;
    for (unsigned i = 0; i < count; ++i)
        kib += double(risc[i].source.size()) / 1024.0;
    out.set("asm.us_per_kib.risc", meanUs(count, [&](unsigned i) {
                risc1::assembleRisc(risc[i].source);
            }) * count / kib, "us/KiB");
    kib = 0.0;
    for (unsigned i = 0; i < count; ++i)
        kib += double(vax[i].source.size()) / 1024.0;
    out.set("asm.us_per_kib.vax", meanUs(count, [&](unsigned i) {
                risc1::assembleVax(vax[i].source);
            }) * count / kib, "us/KiB");

    const struct
    {
        const char *metric;
        const char *isa;
        bool fast;
        std::vector<CompiledProgram> *compiled;
    } backends[] = {
        {"lang.backend_us.risc_step", "risc", false, &risc},
        {"lang.backend_us.risc_fast", "risc", true, &risc},
        {"lang.backend_us.vax_step", "vax", false, &vax},
        {"lang.backend_us.vax_fast", "vax", true, &vax},
    };
    for (const auto &b : backends)
        out.set(b.metric, meanUs(count, [&](unsigned i) {
                    risc1::lang::runBackend(b.isa, (*b.compiled)[i], b.fast,
                                            limits.maxSimSteps);
                }), "us");

    unsigned n = 0;
    for (const bool j : judged)
        n += j;
    out.set("lang.judged_ratio", double(n) / count, "ratio");
}

Outcome
runDiff(const Options &opts)
{
    Outcome out;
    Diff diff(opts);
    out.setupS = diff.setup();
    out.failed = diff.warmFailed();
    if (opts.setupOnly)
        return out;

    Phase phase, untraced, traced;
    if (!opts.trace) {
        phase = diff.measure(opts.seconds, Path::Public);
    } else {
        tracedSlices(opts.seconds,
                     [&](double s, Path path) {
                         return diff.measure(s, path);
                     },
                     phase, untraced, traced);
    }
    // Seeds differ, so the rate is the fast decile of windows; the
    // instruction rate is that rate times the mean instructions a
    // judged seed ran.
    const std::vector<double> rates = phase.windowRates();
    const double opsPerS = percentile(rates, 1.0 - kFastDecile);
    std::vector<double> steps, judgeMs;
    double totalSteps = 0.0;
    for (const SeedResult &r : phase.seeds) {
        steps.push_back(double(r.steps));
        totalSteps += double(r.steps);
        if (!r.skipped)
            judgeMs.push_back(r.ms);
    }
    const double perSeed =
        phase.judged() ? totalSteps / double(phase.judged()) : 0.0;
    endToEnd(opsPerS, opsPerS * perSeed / 1e6, out.endToEnd);
    out.attempted = phase.seeds.size();
    out.failed += phase.failed();
    std::printf("diff: simulated instructions per seed (4 runs): mean %.0f, "
                "p50 %.0f, p99 %.0f, max %.0f\n",
                steps.empty() ? 0.0
                              : std::accumulate(steps.begin(), steps.end(),
                                                0.0) / double(steps.size()),
                percentile(steps, 0.5), percentile(steps, 0.99),
                percentile(steps, 1.0));
    std::printf("diff: %zu seeds from %llu, %llu judged, %llu failed, "
                "%.3f s, whole-run %.1f judged/s; %zu windows of %zu "
                "seeds, median %.1f judged/s, fast decile %.1f judged/s "
                "(reported); seed judging time p50 %.4f ms p99 %.4f ms; "
                "digest 0x%08x\n",
                phase.seeds.size(),
                (unsigned long long)blockStart(opts.seed, 2),
                (unsigned long long)phase.judged(),
                (unsigned long long)out.failed, phase.seconds,
                double(phase.judged()) / phase.seconds, rates.size(),
                kWindowSeeds, percentile(rates, 0.5), opsPerS,
                percentile(judgeMs, 0.5), percentile(judgeMs, 0.99),
                blockDigest(phase));

    if (opts.trace) {
        double busy = 0.0, wait = 0.0;
        for (const SeedResult &s : phase.seeds) {
            busy += s.ms;
            wait += s.waitMs;
        }
        out.layers.set("sim.busy_ratio",
                       busy / (phase.seconds * 1e3 * kWorkers), "ratio");
        out.layers.set("sim.queue_wait_ms",
                       wait / double(phase.seeds.size()), "ms");
        out.attempted += untraced.seeds.size() + traced.seeds.size();
        out.failed += untraced.failed() + traced.failed();
        // Whole-slice rates: the slices hold few windows each.
        const double publicRate = double(phase.judged()) / phase.seconds;
        const double plainRate =
            double(untraced.judged()) / untraced.seconds;
        std::printf("diff: diffProgram %.1f judged/s, the calls it is "
                    "built from %.1f judged/s untraced (%+.1f %%)\n",
                    publicRate, plainRate,
                    (plainRate - publicRate) / publicRate * 100.0);
        finishTrace(opts, "ops_per_s", plainRate,
                    double(traced.judged()) / traced.seconds, true,
                    out.layers);
        langLayerMetrics(opts.seed, 48, out.layers);
        out.layers.set("lang.judged_ratio",
                       double(phase.judged()) / double(phase.seeds.size()),
                       "ratio");
    }
    return out;
}

} // namespace perfbench
