/**
 * @file
 * The riscserved command service (docs/SERVER.md) — everything above
 * the framing layer and below the sockets.
 *
 * Service owns the session table, the shared sim::Engine worker pool,
 * and the TTL eviction sweeper, and exposes exactly one entry point:
 * execute(requestJson, reply).  It is deliberately transport-free —
 * server.hh feeds it decoded frame payloads, and the lifecycle tests
 * drive it directly with strings — so every protocol behavior is
 * testable without opening a socket.
 *
 * Scheduling model.  Immediate commands (create, step, peek, regs,
 * stats, snapshot, fork, evict, destroy, info, ping) run synchronously
 * on the calling thread, serialized per-session by the session mutex.
 * A `run` command is sliced into quota-bounded turns executed on the
 * engine pool, whose FIFO queue is the only run queue: each turn
 * executes at most `quota` instructions, and an unfinished run submits
 * its next turn to the queue tail — round-robin fairness across
 * however many sessions are runnable.  A session never has more than
 * one turn queued, so the engine queue is sized from maxSessions and
 * trySubmit() refuses only once the engine has stopped; admission is
 * bounded by maxPendingRuns instead.
 *
 * Every request receives exactly one reply, including at shutdown:
 * every run reply leaves through finishRun(), and stop() lets the
 * engine run each queued turn into a "server shutting down" error
 * before its threads are joined.
 */

#ifndef RISC1_SERVER_PROTOCOL_HH
#define RISC1_SERVER_PROTOCOL_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "obs/registry.hh"
#include "server/session.hh"
#include "sim/engine.hh"

namespace risc1 {
class JsonValue;
} // namespace risc1

namespace risc1::server {

/** Build identity reported by `info` and the event log. */
inline constexpr std::string_view kServerName = "riscserved";
inline constexpr std::string_view kServerVersion = "0.9.0";

/** Tunables for one Service instance (riscserved's flag surface). */
struct ServiceConfig
{
    /** Engine worker threads; 0 = one per hardware thread. */
    unsigned workers = 0;

    /** Max instructions one scheduling turn may execute. */
    std::uint64_t quota = 100'000;

    /**
     * Idle eviction threshold: sessions untouched for this many
     * milliseconds are spooled to disk.  Negative = never evict;
     * zero = evict on the next sweep after any command completes.
     */
    std::int64_t ttlMs = -1;

    /** Directory for eviction spool files. */
    std::string spoolDir = "spool";

    /** Session cap; also the engine queue's size, since each session
     *  has at most one run turn queued. */
    std::size_t maxSessions = 4096;

    /** Session memory when `create` omits "mem" (small by design so
     *  thousands of resident sessions fit in RAM; see docs/SERVER.md). */
    std::uint64_t defaultMemBytes = 256 * 1024;

    /** Concurrent pending `run` cap; 0 = bounded by maxSessions only
     *  (each session can have at most one run in flight). */
    std::size_t maxPendingRuns = 0;

    /** JSONL event-log path (docs/OBSERVABILITY.md); empty = no log. */
    std::string eventLogPath;

    /** Minimum level written to the event log: debug|info|warn. */
    std::string eventLogLevel = "info";

    /**
     * Commands slower than this (accept-to-reply, milliseconds) are
     * logged as `slow.command` warn events with the offending request
     * echoed.  0 = disabled.
     */
    double slowMs = 0.0;
};

/** Completion callback: receives the JSON response payload. */
using ReplyFn = std::function<void(std::string)>;

/** Build the canonical `{"ok":false,"error":...}` payload. */
std::string errorPayload(std::string_view message);

/** The transport-independent command processor (see file comment). */
class Service
{
  public:
    explicit Service(ServiceConfig config);
    ~Service();

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    /**
     * Execute one request (a JSON command object, docs/SERVER.md) and
     * deliver exactly one response payload through @p reply — on the
     * calling thread for immediate commands, from an engine worker for
     * `run`.  Never throws: every failure becomes an error payload.
     */
    void execute(const std::string &requestJson, ReplyFn reply);

    /**
     * Shut down: refuse new requests, let the engine run every queued
     * turn into a "server shutting down" reply and join its threads,
     * then join the sweeper.  Idempotent; called by the destructor.
     */
    void stop();

    /** Run one eviction sweep now (deterministic tests; no-op when
     *  ttlMs is negative). */
    void sweepNow();

    const ServiceConfig &config() const { return config_; }
    SessionManager &sessions() { return sessions_; }
    sim::Engine &engine() { return engine_; }

    /** The process-wide metrics table every layer reports through. */
    obs::Registry &registry() { return registry_; }

    /** The structured JSONL event log (no-op unless configured). */
    obs::EventLog &eventLog() { return eventLog_; }

    /** Milliseconds since this Service was constructed. */
    std::uint64_t uptimeMs() const;

  private:
    // Immediate command handlers; return the response payload.
    std::string cmdPing() const;
    std::string cmdInfo();
    std::string cmdTelemetry(const JsonValue &req);
    std::string cmdCreate(const JsonValue &req);
    std::string cmdDestroy(const JsonValue &req);
    std::string cmdStep(const JsonValue &req);
    std::string cmdPeek(const JsonValue &req);
    std::string cmdRegs(const JsonValue &req);
    std::string cmdStats(const JsonValue &req);
    std::string cmdSnapshot(const JsonValue &req);
    std::string cmdFork(const JsonValue &req);
    std::string cmdEvict(const JsonValue &req);
    std::string cmdDrop(const JsonValue &req);

    /** Accept a `run` (replies asynchronously once accepted). */
    void cmdRun(const JsonValue &req, ReplyFn &reply);

    /** Resolve the request's "session" or fail. */
    std::shared_ptr<Session> needSession(const JsonValue &req) const;

    /** One scheduling turn for @p session (runs on an engine worker). */
    void runTurn(const std::shared_ptr<Session> &session);

    /**
     * Send @p session's run reply — the only way one leaves.  Clears
     * runActive and frees the admission slot first, so the reply's
     * receiver may start another run at once.  The session mutex must
     * NOT be held.
     */
    void finishRun(Session &session, std::string payload);

    void sweepLoop();
    void sweepOnce();

    /** Per-command latency histogram handle ("cmd.<name>.ns"). */
    obs::Histogram &commandHistogram(std::string_view cmd);

    /**
     * Record one finished command: latency into its histogram, reply
     * size into server.bytesOut, errors into server.errors, and a
     * `slow.command` event when the --slow-ms threshold is crossed.
     */
    void finishCommand(std::string_view cmd,
                       std::chrono::steady_clock::time_point t0,
                       const std::string &request,
                       const std::string &payload);

    /** Sample queue depths, fleet memory etc. into gauges (the
     *  registry collect hook). */
    void collectGauges();

    const ServiceConfig config_;

    // Telemetry sinks are declared before sessions_ so the manager can
    // hold handles into them for its whole lifetime.
    obs::Registry registry_;
    obs::EventLog eventLog_;
    const std::chrono::steady_clock::time_point startTime_ =
        std::chrono::steady_clock::now();

    SessionManager sessions_;
    sim::Engine engine_;

    // Hot-path metric handles, resolved once at construction.
    obs::Counter *requests_ = nullptr;
    obs::Counter *errors_ = nullptr;
    obs::Counter *bytesIn_ = nullptr;
    obs::Counter *bytesOut_ = nullptr;
    obs::Counter *slowCommands_ = nullptr;
    obs::Counter *schedTurns_ = nullptr;
    obs::Histogram *schedQueueWaitNs_ = nullptr;
    obs::Histogram *schedTurnNs_ = nullptr;
    std::unordered_map<std::string, obs::Histogram *> cmdHistograms_;
    obs::Histogram *cmdOtherNs_ = nullptr;

    std::atomic<bool> stopping_{false};
    std::atomic<std::size_t> pendingRuns_{0};  ///< accepted, not replied

    std::mutex sweepMutex_;
    std::condition_variable sweepCv_;
    bool sweepStop_ = false;
    std::thread sweeper_;
};

} // namespace risc1::server

#endif // RISC1_SERVER_PROTOCOL_HH
