/**
 * @file
 * The instruction tracer: a fixed-capacity ring buffer of per-step
 * events with pluggable sinks.
 *
 * A Trace is installed on any simulated machine through
 * `target::Target::setTrace()` (or the machines' own `setTrace()`).
 * While installed, the machine records one event per executed
 * instruction — plus window traps and interrupt acceptances on the
 * RISC side — into the ring and forwards it to every attached sink.
 * The last `capacity()` events are always retrievable with tail(),
 * which is what the engine's postmortem report renders after a fault
 * (see postmortem.hh).
 *
 * Cost model: tracing is always compiled in, but a machine with no
 * Trace installed pays one predictable pointer test per instruction
 * on either tier — perfbench's `dispatch.fast_ns_per_instr.*` rows
 * track its cost.  With a Trace installed both tiers record from
 * the same per-instruction routine through a cold helper, so a traced
 * fast-path run stays on the decode cache (see docs/OBSERVABILITY.md).
 *
 * Sinks are non-owning: the caller keeps the sink (and any stream it
 * writes to) alive for the lifetime of the Trace registration.
 */

#ifndef RISC1_OBS_TRACE_HH
#define RISC1_OBS_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace risc1::obs {

/** What a trace event describes. */
enum class EventKind : std::uint8_t
{
    Instruction, ///< one executed instruction (text = disassembly)
    Trap,        ///< window overflow/underflow trap (RISC)
    Interrupt,   ///< external interrupt accepted (RISC)
};

/** @return "instruction" / "trap" / "interrupt". */
std::string_view eventKindName(EventKind kind);

/** One recorded per-step event. */
struct TraceEvent
{
    EventKind kind = EventKind::Instruction;
    /** Instructions retired before this event was recorded. */
    std::uint64_t seq = 0;
    /** Machine cycle counter when the event was recorded. */
    std::uint64_t cycles = 0;
    /** Address of the instruction (or of the trapping instruction). */
    std::uint32_t pc = 0;
    /** Disassembly / mnemonic / trap description. */
    std::string text;

    bool operator==(const TraceEvent &) const = default;
};

/** Receives every event recorded while attached to a Trace. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    virtual void event(const TraceEvent &ev) = 0;

    /** Called when the owning Trace is asked to flush. */
    virtual void flush() {}
};

/**
 * Human-readable text sink, one line per event:
 *
 *     <seq>  <cycles>  <pc>  <text>
 *
 * Trap/interrupt lines carry their kind in brackets before the text.
 */
class TextSink final : public TraceSink
{
  public:
    explicit TextSink(std::ostream &os) : os_(os) {}

    void event(const TraceEvent &ev) override;
    void flush() override;

  private:
    std::ostream &os_;
};

/**
 * JSON-lines sink: one self-contained JSON object per event, e.g.
 *
 *     {"kind":"instruction","seq":12,"cycles":15,"pc":48,"text":"add r1, 1, r1"}
 *
 * The format is documented in docs/OBSERVABILITY.md.  Output depends
 * only on the event stream, so a traced reference run and a traced
 * fast-path run of the same program produce byte-identical files
 * (tests/test_obs.cc locks this down).
 */
class JsonlSink final : public TraceSink
{
  public:
    explicit JsonlSink(std::ostream &os) : os_(os) {}

    void event(const TraceEvent &ev) override;
    void flush() override;

  private:
    std::ostream &os_;
};

/**
 * The event recorder: a fixed-capacity ring buffer plus a fan-out list
 * of sinks.  Not thread-safe — one Trace belongs to one machine on one
 * thread (the batch engine builds one per traced job).
 */
class Trace
{
  public:
    /** @param capacity ring size in events; clamped to at least 1. */
    explicit Trace(std::size_t capacity = 64);

    /** Attach @p sink (non-owning; must outlive the registration). */
    void addSink(TraceSink &sink);

    /** Record one event: keep it in the ring, forward it to sinks. */
    void record(TraceEvent ev);

    /** Flush every attached sink. */
    void flush();

    /** Ring capacity in events. */
    std::size_t capacity() const { return capacity_; }

    /** Total events ever recorded (>= ring occupancy). */
    std::uint64_t recorded() const { return recorded_; }

    /**
     * The ring's current contents, oldest first: the last
     * min(recorded(), capacity()) events.
     */
    std::vector<TraceEvent> tail() const;

  private:
    std::size_t capacity_;
    std::vector<TraceEvent> ring_;
    std::size_t next_ = 0;       ///< ring slot the next event lands in
    std::uint64_t recorded_ = 0;
    std::vector<TraceSink *> sinks_;
};

} // namespace risc1::obs

#endif // RISC1_OBS_TRACE_HH
