/**
 * @file
 * Resident machine sessions for riscserved (docs/SERVER.md).
 *
 * A Session is one live simulated machine owned by the daemon on a
 * client's behalf: the backend Target, the construction options needed
 * to rebuild it, per-session obs metrics, and the scheduling state for
 * an in-progress quota-sliced `run`.  Sessions follow a two-state
 * residency model:
 *
 *   Live     — `target` is constructed and holds the machine.
 *   Evicted  — the machine state lives in a spool file (binary
 *              snapshot, target/snapshot_io.hh) and `target` is null;
 *              the construction options stay in memory (they are a few
 *              hundred bytes) so the next command can transparently
 *              rebuild the Target and restore the snapshot.
 *
 * Locking: `mutex` serializes every access to the machine (the
 * per-session serialization the protocol guarantees); the
 * SessionManager's own lock only protects the id→session maps, so
 * operations on different sessions never contend.
 */

#ifndef RISC1_SERVER_SESSION_HH
#define RISC1_SERVER_SESSION_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hh"
#include "obs/registry.hh"
#include "target/target.hh"

namespace risc1::server {

/** Everything needed to (re)build a session's machine. */
struct SessionConfig
{
    std::string backend = "risc";       ///< canonical backend name
    target::TargetOptions options{};
    bool fast = true;                   ///< run through the fast path
};

/** Scheduling state of an in-progress `run` command. */
struct PendingRun
{
    std::uint64_t remaining = 0;  ///< steps still budgeted
    std::uint64_t executed = 0;   ///< steps retired by earlier turns
    /** Completion callback: receives the JSON response payload. */
    std::function<void(std::string)> reply;
    /** When the session (re)joined the ready queue, for the
     *  sched.queueWait.ns histogram. */
    std::chrono::steady_clock::time_point enqueuedAt{};
};

/** One resident (or spooled) machine session. */
struct Session
{
    Session(std::string sessionId, SessionConfig config)
        : id(std::move(sessionId)), cfg(std::move(config))
    {
    }

    const std::string id;
    const SessionConfig cfg;

    std::mutex mutex;  ///< serializes all machine access (see file doc)

    /** The live machine; null while evicted. */
    std::unique_ptr<target::Target> target;

    /** Spool file holding the evicted state; empty while live. */
    std::string spoolPath;

    /** True from `run` acceptance until its final turn replies. */
    bool runActive = false;
    PendingRun run;

    /** True once destroyed; late turns and sweeps must not touch it. */
    bool destroyed = false;

    obs::SessionMetrics metrics;

    /** Last command/turn completion (steady clock), for TTL eviction. */
    std::chrono::steady_clock::time_point lastActive{};
};

/** A snapshot stored server-side by the `snapshot` command. */
struct StoredSnapshot
{
    std::shared_ptr<const target::TargetSnapshot> snap;
    SessionConfig cfg;  ///< options a `fork` rebuilds the machine with
};

/** Aggregate counters for the `info` command. */
struct SessionCounts
{
    std::size_t sessions = 0;   ///< currently alive (live + evicted)
    std::size_t resident = 0;   ///< alive with a constructed Target
    std::size_t evicted = 0;    ///< alive but spooled to disk
    std::uint64_t created = 0;  ///< lifetime creations
    std::uint64_t destroyed = 0;
    std::uint64_t evictions = 0;  ///< lifetime spool writes
    std::uint64_t restores = 0;   ///< lifetime spool reads
    std::size_t snapshots = 0;    ///< stored named snapshots

    /**
     * Memory footprint across the resident sessions, from
     * Target::memUsage(): residentBytes sums each session's private
     * copy-on-write delta (what destroying it would free);
     * sharedBytes sums the pages sessions alias with snapshots and
     * forks.  A fleet of forks over one warmed snapshot shows a small
     * resident total however many sessions exist — the scaling
     * property riscload asserts.  decodeBytes sums what the
     * sessions' fast-path decode caches have allocated.
     */
    std::uint64_t residentBytes = 0;
    std::uint64_t sharedBytes = 0;
    std::uint64_t decodeBytes = 0;
};

/**
 * The id→session table plus the residency machinery.
 *
 * Thread-safe: the internal lock covers only the maps and counters.
 * Callers lock the individual session before using evict()/
 * ensureResident() or touching its machine.
 */
class SessionManager
{
  public:
    /**
     * @p registry / @p events are optional telemetry sinks (owned by
     * the Service, which outlives the manager): eviction and restore
     * timings land in `session.evict.ns` / `session.restore.ns`, and
     * session lifecycle transitions are logged as structured events.
     */
    SessionManager(std::string spoolDir, std::size_t maxSessions,
                   obs::Registry *registry = nullptr,
                   obs::EventLog *events = nullptr);

    /**
     * Allocate a session id and register a new session.
     * @throws FatalError when the session cap is reached.
     */
    std::shared_ptr<Session> create(SessionConfig cfg);

    /** Look up @p id; nullptr when unknown (or already destroyed). */
    std::shared_ptr<Session> find(const std::string &id) const;

    /**
     * Unregister @p session and delete its spool file if any.  The
     * caller must hold the session's mutex and have checked
     * !runActive.
     */
    void destroy(Session &session);

    /**
     * Spool @p session's machine to disk and release the Target.
     * Caller holds the session mutex.  No-op when already evicted.
     * @throws FatalError on serialization or I/O failure.
     */
    void evict(Session &session);

    /**
     * Rebuild @p session's Target from its spool file if it is
     * currently evicted.  Caller holds the session mutex.  @throws
     * FatalError when the spool file is missing or corrupt.
     */
    void ensureResident(Session &session);

    /** Store a named snapshot; @return its id ("k1", "k2", ...). */
    std::string storeSnapshot(StoredSnapshot snapshot);

    /** Look up a stored snapshot (by value — the entry may be dropped
     *  concurrently); std::nullopt when unknown. */
    std::optional<StoredSnapshot> findSnapshot(const std::string &id) const;

    /** Drop a stored snapshot. @return false when unknown. */
    bool dropSnapshot(const std::string &id);

    /** All live sessions (for the eviction sweep and shutdown). */
    std::vector<std::shared_ptr<Session>> all() const;

    SessionCounts counts() const;

    std::size_t maxSessions() const { return maxSessions_; }

  private:
    const std::string spoolDir_;
    const std::size_t maxSessions_;
    obs::EventLog *const events_;         ///< may be null (no sink)
    obs::Histogram *const evictNs_;       ///< null iff no registry
    obs::Histogram *const restoreNs_;     ///< null iff no registry

    mutable std::mutex mutex_;
    std::uint64_t nextSessionId_ = 1;
    std::uint64_t nextSnapshotId_ = 1;
    std::uint64_t created_ = 0;
    std::uint64_t destroyedCount_ = 0;
    mutable std::uint64_t evictions_ = 0;
    mutable std::uint64_t restores_ = 0;
    std::unordered_map<std::string, std::shared_ptr<Session>> sessions_;
    std::unordered_map<std::string, StoredSnapshot> snapshots_;
};

} // namespace risc1::server

#endif // RISC1_SERVER_SESSION_HH
