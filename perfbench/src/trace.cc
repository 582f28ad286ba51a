#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"

namespace perfbench {

namespace {

struct SpanRecord
{
    const char *name;
    const char *layer;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t owner;
    Clock::time_point start;
    Clock::time_point end;
    double waitMs;
};

/** One thread's spans; owned by the registry so it outlives the thread. */
struct ThreadBuffer
{
    std::uint32_t tid = 0;
    std::vector<SpanRecord> spans;
};

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_nextId{1};
Clock::time_point g_origin = Clock::now();

std::mutex g_buffersMutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded

thread_local ThreadBuffer *t_buffer = nullptr;
thread_local std::uint64_t t_current = 0;

ThreadBuffer &
threadBuffer()
{
    if (!t_buffer) {
        std::lock_guard lock(g_buffersMutex);
        g_buffers.push_back(std::make_unique<ThreadBuffer>());
        t_buffer = g_buffers.back().get();
        t_buffer->tid = static_cast<std::uint32_t>(g_buffers.size());
        t_buffer->spans.reserve(1 << 14);
    }
    return *t_buffer;
}

/** Every span recorded so far, with its thread id. */
std::vector<std::pair<std::uint32_t, SpanRecord>>
allSpans()
{
    std::vector<std::pair<std::uint32_t, SpanRecord>> out;
    std::lock_guard lock(g_buffersMutex);
    for (const auto &buf : g_buffers)
        for (const SpanRecord &s : buf->spans)
            out.emplace_back(buf->tid, s);
    return out;
}

void
writeJsonString(std::ostream &os, const char *s)
{
    os << '"';
    for (; *s; ++s) {
        if (*s == '"' || *s == '\\')
            os << '\\';
        os << *s;
    }
    os << '"';
}

} // namespace

void
setTracing(bool on)
{
    if (on)
        g_origin = Clock::now();
    g_tracing.store(on, std::memory_order_relaxed);
}

bool
tracing()
{
    return g_tracing.load(std::memory_order_relaxed);
}

void
clearSpans()
{
    std::lock_guard lock(g_buffersMutex);
    for (auto &buf : g_buffers)
        buf->spans.clear();
}

std::size_t
spanCount()
{
    std::lock_guard lock(g_buffersMutex);
    std::size_t n = 0;
    for (const auto &buf : g_buffers)
        n += buf->spans.size();
    return n;
}

Span::Span(const char *name, const char *layer, std::uint64_t owner,
           double waitMs, std::uint64_t parent)
    : name_(name), layer_(layer), owner_(owner), waitMs_(waitMs)
{
    if (!tracing())
        return;
    id_ = g_nextId.fetch_add(1, std::memory_order_relaxed);
    parent_ = parent == ~std::uint64_t(0) ? t_current : parent;
    savedCurrent_ = t_current;
    t_current = id_;
    start_ = Clock::now();
}

Span::~Span()
{
    if (id_ == 0)
        return;
    const Clock::time_point end = Clock::now();
    t_current = savedCurrent_;
    threadBuffer().spans.push_back(SpanRecord{
        name_, layer_, id_, parent_, owner_, start_, end, waitMs_});
}

void
recordSpan(const char *name, const char *layer, std::uint64_t owner,
           Clock::time_point start, Clock::time_point end, double waitMs)
{
    if (!tracing())
        return;
    const std::uint64_t id = g_nextId.fetch_add(1, std::memory_order_relaxed);
    threadBuffer().spans.push_back(
        SpanRecord{name, layer, id, t_current, owner, start, end, waitMs});
}

std::map<std::string, LayerTotals>
layerTotals()
{
    using Interval = std::pair<Clock::time_point, Clock::time_point>;
    const auto spans = allSpans();
    std::unordered_map<std::uint64_t, std::vector<Interval>> children;
    for (const auto &[tid, s] : spans)
        if (s.parent != 0)
            children[s.parent].emplace_back(s.start, s.end);
    std::map<std::string, LayerTotals> totals;
    for (const auto &[tid, s] : spans) {
        // Self time: the span minus the part of it its children cover.
        // Children on other threads (a pass's jobs) may overlap, so
        // their union counts, clipped to the span.
        double coveredMs = 0.0;
        if (auto it = children.find(s.id); it != children.end()) {
            std::vector<Interval> &kids = it->second;
            std::sort(kids.begin(), kids.end());
            Clock::time_point reach = s.start;
            for (const auto &[from, to] : kids) {
                const auto lo = std::max(from, reach);
                const auto hi = std::min(to, s.end);
                if (hi > lo)
                    coveredMs += msBetween(lo, hi);
                reach = std::max(reach, hi);
            }
        }
        LayerTotals &t = totals[s.layer];
        const double dur = msBetween(s.start, s.end);
        ++t.count;
        t.busyMs += dur;
        t.selfMs += dur - coveredMs;
        t.waitMs += s.waitMs;
    }
    return totals;
}

void
writeChromeTrace(const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        risc1::fatal(risc1::cat("perfbench: cannot write ", path));
    os.setf(std::ios::fixed);
    os.precision(3);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const auto &[tid, s] : allSpans()) {
        const double ts =
            std::chrono::duration<double, std::micro>(s.start - g_origin)
                .count();
        const double dur =
            std::chrono::duration<double, std::micro>(s.end - s.start)
                .count();
        os << (first ? "\n" : ",\n") << "{\"ph\":\"X\",\"pid\":1,\"tid\":"
           << tid << ",\"ts\":" << ts << ",\"dur\":" << dur
           << ",\"name\":";
        writeJsonString(os, s.name);
        os << ",\"cat\":";
        writeJsonString(os, s.layer);
        os << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"owner\":" << s.owner << ",\"wait_ms\":" << s.waitMs
           << "}}";
        first = false;
    }
    os << "\n]}\n";
}

} // namespace perfbench
