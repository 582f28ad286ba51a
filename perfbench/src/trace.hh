/**
 * @file
 * In-memory spans for the traced run.
 *
 * The benchmark wraps each public library call it makes in a Span: a
 * name, the layer (module) the call belongs to, start and end, the
 * enclosing span, and the job, seed or request id it serves.  Spans
 * live in per-thread buffers while the run lasts and are written out
 * once at exit as a Chrome trace (Perfetto loads it) plus a per-layer
 * table of count, busy time, self time and wait.  With tracing off a
 * Span costs one relaxed load.
 */
#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>

#include "common.hh"

namespace perfbench {

/** Totals of one layer over every recorded span. */
struct LayerTotals
{
    std::uint64_t count = 0;
    double busyMs = 0.0;  ///< summed span durations
    double selfMs = 0.0;  ///< durations minus direct children
    double waitMs = 0.0;  ///< summed waits recorded on the spans
};

/** Turn span recording on or off (process-wide). */
void setTracing(bool on);

/** Whether spans are being recorded. */
bool tracing();

/** Drop every recorded span. */
void clearSpans();

/** Per-layer totals of the spans recorded so far. */
std::map<std::string, LayerTotals> layerTotals();

/** Write the recorded spans as Chrome trace-event JSON to @p path. */
void writeChromeTrace(const std::string &path);

/** Number of spans recorded so far. */
std::size_t spanCount();

/**
 * One span, recorded when it goes out of scope.  @p name and @p layer
 * must be string literals.  The parent is the innermost open span on
 * this thread unless @p parent names one (a task handed to a worker).
 */
class Span
{
  public:
    Span(const char *name, const char *layer, std::uint64_t owner = 0,
         double waitMs = 0.0, std::uint64_t parent = ~std::uint64_t(0));
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** This span's id (0 when tracing is off). */
    std::uint64_t id() const { return id_; }

  private:
    const char *name_;
    const char *layer_;
    std::uint64_t owner_;
    double waitMs_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t savedCurrent_ = 0;
    Clock::time_point start_;
};

/**
 * Record a finished span whose start and end were seen on different
 * threads (a request sent by one thread and answered on another).
 */
void recordSpan(const char *name, const char *layer, std::uint64_t owner,
                Clock::time_point start, Clock::time_point end,
                double waitMs);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
