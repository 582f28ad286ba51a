/**
 * @file
 * The three workloads (sweep, diff, serve) and the per-layer probes.
 *
 * Each run*() sets up once (Outcome::setupS; with Options::setupOnly it
 * stops there), then measures for Options::seconds with tracing off.
 * With Options::trace it runs tracedSlices() instead, and fills
 * Outcome::layers with the workload's own per-layer metrics and its
 * tracing overhead.
 */
#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "common.hh"
#include "trace.hh"

namespace perfbench {

/**
 * A traced run alternates this many rounds of slices, so the tracing
 * overhead is not confounded with host drift between halves.
 */
inline constexpr int kTraceSlices = 4;

/**
 * The code path a slice runs: the workload's own public call, or the
 * calls it is built from, one span each (sweep and diff; serve has one
 * path).
 */
enum class Path
{
    Public,
    Decomposed,
};

/**
 * A traced run's timed phase: kTraceSlices rounds of three equal slices
 * of @p seconds, measured by @p measure(slice seconds, path) and folded
 * with the phase type's absorb().  @p phase gets the public path, which
 * gives the engine rows; @p untraced and @p traced get the decomposed
 * path with tracing off and on, so the overhead is the spans' alone.
 */
template <typename Phase, typename Measure>
void
tracedSlices(double seconds, Measure &&measure, Phase &phase,
             Phase &untraced, Phase &traced)
{
    const double slice = seconds / (3 * kTraceSlices);
    for (int k = 0; k < kTraceSlices; ++k) {
        absorb(phase, measure(slice, Path::Public));
        absorb(untraced, measure(slice, Path::Decomposed));
        setTracing(true);
        absorb(traced, measure(slice, Path::Decomposed));
        setTracing(false);
    }
}

Outcome runSweep(const Options &opts);
Outcome runDiff(const Options &opts);
Outcome runServe(const Options &opts);

/**
 * The lang.* metrics: the public calls lang::diffProgram is built
 * from, timed one by one on a @p count seed block drawn from @p seed.
 */
void langLayerMetrics(std::uint64_t seed, unsigned count, Metrics &out);

/**
 * The serve-side per-layer metrics (scheduler, spool, transport,
 * run-length and run-validity rows) from a short serve run, for the
 * traced runs of the workloads that do not serve.  Its requests count
 * in @p out's attempted and failed, and its sessions are checked like
 * serve's own.
 */
void serveLayerMetrics(const Options &opts, double seconds, Outcome &out);

/**
 * Every layer probe that needs no workload state: target
 * construction, assemblers, dispatch, register windows, cache
 * hierarchy, copy-on-write memory, spool codec, the request path
 * (Service::execute called directly), frames, JSON and the registry.
 */
void commonLayerMetrics(const Options &opts, Metrics &out);

/**
 * Write the traced phase's Chrome trace and per-layer table, and record
 * each layer's self time plus the tracing overhead: how much worse
 * end-to-end metric @p metric read with tracing on than off, in %.
 */
void finishTrace(const Options &opts, const char *metric, double untraced,
                 double traced, bool higherIsBetter, Metrics &out);

/**
 * The request-path probes: Service::execute called directly with the
 * serve workload's requests, frame encode/decode, JSON parsing of the
 * requests and replies, and the registry's histogram record.
 */
void requestPathLayerMetrics(const Options &opts, Metrics &out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
