#include "server/protocol.hh"

#include <algorithm>
#include <chrono>

#include "common/json.hh"
#include "common/json_value.hh"
#include "common/logging.hh"
#include "mem/config.hh"
#include "memory/memory.hh"
#include "target/registry.hh"
#include "workloads/workloads.hh"

namespace risc1::server {

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point from)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - from)
        .count();
}

std::uint64_t
nsSince(Clock::time_point from)
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - from)
            .count());
}

/** Commands with pre-registered latency histograms; anything else
 *  (including unparsable requests) lands in "cmd.other.ns". */
constexpr const char *kCommands[] = {
    "ping", "info", "telemetry", "create", "destroy", "step", "run",
    "peek", "regs", "stats", "snapshot", "fork", "evict", "drop",
};

/** Longest request echo a slow.command event carries. */
constexpr std::size_t kSlowEchoBytes = 256;

/** Most words one `peek` may read (keeps responses frame-sized). */
constexpr std::uint64_t kMaxPeekWords = 1024;

/** Smallest and largest session memory `create` accepts. */
constexpr std::uint64_t kMinMemBytes = 64 * 1024;
constexpr std::uint64_t kMaxMemBytes = 16 * 1024 * 1024;

/** A `run`'s step budget: its default and its cap. */
constexpr std::uint64_t kDefaultRunSteps = 10'000'000;
constexpr std::uint64_t kMaxRunSteps = 1'000'000'000;

/** Most instructions one `step` may execute. */
constexpr std::uint64_t kMaxStepCount = 1'000'000;

constexpr const char *kShuttingDown = "server shutting down";

/** @throws FatalError if @p session was destroyed after lookup. */
void
requireAlive(const Session &session)
{
    if (session.destroyed)
        fatal(cat("unknown session '", session.id, "'"));
}

/** @throws FatalError unless @p session is alive and not mid-run. */
void
requireIdle(const Session &session)
{
    requireAlive(session);
    if (session.runActive)
        fatal(cat("session ", session.id,
                  ": run in progress (mutating commands must wait for "
                  "its reply)"));
}

void
touch(Session &session)
{
    ++session.metrics.commands;
    session.lastActive = Clock::now();
}

void
okHeader(const Session &session, JsonWriter &w)
{
    w.beginObject()
        .field("ok", true)
        .field("session", session.id)
        .field("backend", session.cfg.backend);
}

} // namespace

std::string
errorPayload(std::string_view message)
{
    JsonWriter w;
    w.beginObject().field("ok", false).field("error", message).endObject();
    return w.str();
}

Service::Service(ServiceConfig config)
    : config_(std::move(config)),
      sessions_(config_.spoolDir, config_.maxSessions, &registry_,
                &eventLog_),
      engine_(config_.workers, config_.maxSessions)
{
    if (!config_.eventLogPath.empty())
        eventLog_.open(config_.eventLogPath,
                       obs::parseEventLevel(config_.eventLogLevel));

    requests_ = &registry_.counter("server.requests");
    errors_ = &registry_.counter("server.errors");
    bytesIn_ = &registry_.counter("server.bytesIn");
    bytesOut_ = &registry_.counter("server.bytesOut");
    slowCommands_ = &registry_.counter("server.slowCommands");
    schedTurns_ = &registry_.counter("sched.turns");
    schedQueueWaitNs_ = &registry_.histogram("sched.queueWait.ns");
    schedTurnNs_ = &registry_.histogram("sched.turn.ns");
    for (const char *cmd : kCommands)
        cmdHistograms_.emplace(cmd,
                               &registry_.histogram(
                                   cat("cmd.", cmd, ".ns")));
    cmdOtherNs_ = &registry_.histogram("cmd.other.ns");
    registry_.onCollect([this] { collectGauges(); });

    if (eventLog_.enabled(obs::EventLevel::Info))
        eventLog_.emit(obs::EventLevel::Info, "server.start",
                       obs::EventFields{}
                           .field("version", kServerVersion)
                           .field("workers",
                                  std::uint64_t(engine_.workers()))
                           .field("quota", config_.quota));

    sweeper_ = std::thread(&Service::sweepLoop, this);
}

std::uint64_t
Service::uptimeMs() const
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - startTime_)
            .count());
}

obs::Histogram &
Service::commandHistogram(std::string_view cmd)
{
    // The table is immutable after construction, so no lock is needed.
    const auto it = cmdHistograms_.find(std::string(cmd));
    return it != cmdHistograms_.end() ? *it->second : *cmdOtherNs_;
}

void
Service::finishCommand(std::string_view cmd, Clock::time_point t0,
                       const std::string &request,
                       const std::string &payload)
{
    const std::uint64_t ns = nsSince(t0);
    commandHistogram(cmd).record(ns);
    bytesOut_->add(payload.size());
    // errorPayload() renders a fixed prefix; cheaper than re-parsing.
    static const std::string errPrefix =
        errorPayload("x").substr(0, 14);
    if (payload.compare(0, errPrefix.size(), errPrefix) == 0)
        errors_->add(1);
    const double ms = double(ns) / 1e6;
    if (config_.slowMs > 0.0 && ms >= config_.slowMs) {
        slowCommands_->add(1);
        if (eventLog_.enabled(obs::EventLevel::Warn)) {
            const std::string_view echo =
                std::string_view(request).substr(0, kSlowEchoBytes);
            eventLog_.emit(obs::EventLevel::Warn, "slow.command",
                           obs::EventFields{}
                               .field("cmd", cmd)
                               .field("ms", ms)
                               .field("thresholdMs", config_.slowMs)
                               .field("truncated",
                                      request.size() > echo.size())
                               .field("request", echo));
        }
    }
}

void
Service::collectGauges()
{
    const SessionCounts c = sessions_.counts();
    registry_.gauge("sessions.alive").set(double(c.sessions));
    registry_.gauge("sessions.resident").set(double(c.resident));
    registry_.gauge("sessions.evicted").set(double(c.evicted));
    registry_.gauge("sessions.snapshots").set(double(c.snapshots));
    registry_.gauge("fleet.residentBytes").set(double(c.residentBytes));
    registry_.gauge("fleet.sharedBytes").set(double(c.sharedBytes));
    registry_.gauge("fleet.decodeBytes").set(double(c.decodeBytes));

    // The engine queue is the run queue: its depth is the runs ready
    // for a turn, its active tasks the turns executing.
    const std::size_t depth = engine_.queueDepth();
    const std::size_t active = engine_.activeTasks();
    registry_.gauge("engine.queueDepth").set(double(depth));
    registry_.gauge("engine.activeTasks").set(double(active));
    registry_.gauge("engine.utilization")
        .set(engine_.workers() != 0
                 ? double(active) / double(engine_.workers())
                 : 0.0);
    registry_.gauge("engine.tasksExecuted")
        .set(double(engine_.tasksExecuted()));
    registry_.gauge("runs.ready").set(double(depth));
    registry_.gauge("runs.inFlight").set(double(active));
    registry_.gauge("runs.pending").set(double(pendingRuns_.load()));
}

Service::~Service()
{
    stop();
}

void
Service::execute(const std::string &requestJson, ReplyFn reply)
{
    const auto t0 = Clock::now();
    requests_->add(1);
    bytesIn_->add(requestJson.size());

    std::string cmd;
    std::string payload;
    try {
        if (stopping_.load(std::memory_order_acquire))
            fatal(kShuttingDown);
        const JsonValue req = parseJson(requestJson);
        if (!req.isObject())
            fatal(cat("request must be a JSON object, got ",
                      JsonValue::kindName(req.kind())));
        cmd = req.stringOr("cmd", "");
        if (cmd.empty())
            fatal("request missing 'cmd'");

        if (cmd == "run") {
            // A run replies asynchronously from its final engine turn;
            // wrap the reply so accept-to-final-reply latency lands in
            // cmd.run.ns — the same interval the client measures.
            ReplyFn wrapped = [this, t0, requestJson,
                               inner = std::move(reply)](
                                  std::string runPayload) {
                finishCommand("run", t0, requestJson, runPayload);
                inner(std::move(runPayload));
            };
            cmdRun(req, wrapped); // owns the (possibly deferred) reply
            return;
        }
        if (cmd == "ping")
            payload = cmdPing();
        else if (cmd == "info")
            payload = cmdInfo();
        else if (cmd == "telemetry")
            payload = cmdTelemetry(req);
        else if (cmd == "create")
            payload = cmdCreate(req);
        else if (cmd == "destroy")
            payload = cmdDestroy(req);
        else if (cmd == "step")
            payload = cmdStep(req);
        else if (cmd == "peek")
            payload = cmdPeek(req);
        else if (cmd == "regs")
            payload = cmdRegs(req);
        else if (cmd == "stats")
            payload = cmdStats(req);
        else if (cmd == "snapshot")
            payload = cmdSnapshot(req);
        else if (cmd == "fork")
            payload = cmdFork(req);
        else if (cmd == "evict")
            payload = cmdEvict(req);
        else if (cmd == "drop")
            payload = cmdDrop(req);
        else
            fatal(cat("unknown command '", cmd, "'"));
    } catch (const std::exception &e) {
        payload = errorPayload(e.what());
    }
    finishCommand(cmd, t0, requestJson, payload);
    reply(std::move(payload));
}

std::string
Service::cmdPing() const
{
    JsonWriter w;
    w.beginObject().field("ok", true).field("server", "riscserved")
        .endObject();
    return w.str();
}

std::string
Service::cmdInfo()
{
    const SessionCounts c = sessions_.counts();
    const std::size_t depth = engine_.queueDepth();
    JsonWriter w;
    w.beginObject()
        .field("ok", true)
        .field("server", kServerName)
        .field("protocolVersion", std::uint64_t(1))
        .field("uptimeMs", uptimeMs())
        .field("workers", std::uint64_t(engine_.workers()))
        .field("queueDepth", std::uint64_t(depth))
        .field("queueCapacity", std::uint64_t(engine_.capacity()))
        .field("quota", config_.quota)
        .field("ttlMs", std::int64_t(config_.ttlMs))
        .field("maxSessions", std::uint64_t(config_.maxSessions));
    w.key("sessions")
        .beginObject()
        .field("alive", std::uint64_t(c.sessions))
        .field("resident", std::uint64_t(c.resident))
        .field("evicted", std::uint64_t(c.evicted))
        .field("created", c.created)
        .field("destroyed", c.destroyed)
        .field("evictions", c.evictions)
        .field("restores", c.restores)
        .field("snapshots", std::uint64_t(c.snapshots))
        // Copy-on-write accounting summed over the resident sessions
        // (docs/MEMORY.md): residentBytes is the private page deltas,
        // sharedBytes the pages aliased with snapshots and forks,
        // decodeBytes the fast paths' decode caches.  riscload
        // asserts forked fleets keep residentBytes flat.
        .field("residentBytes", c.residentBytes)
        .field("sharedBytes", c.sharedBytes)
        .field("decodeBytes", c.decodeBytes)
        .endObject();
    w.key("runs")
        .beginObject()
        .field("pending", std::uint64_t(pendingRuns_.load()))
        .field("ready", std::uint64_t(depth))
        .field("inFlight", std::uint64_t(engine_.activeTasks()))
        .endObject();
    // Lifetime command totals (the registry's server.* counters) and
    // build identity, so one `info` answers "what is this daemon and
    // how much has it served".
    w.key("commands")
        .beginObject()
        .field("total", requests_->value())
        .field("errors", errors_->value())
        .field("bytesIn", bytesIn_->value())
        .field("bytesOut", bytesOut_->value())
        .endObject();
    w.key("build")
        .beginObject()
        .field("name", kServerName)
        .field("version", kServerVersion)
        .field("compiler", __VERSION__)
        .endObject();
    w.endObject();
    return w.str();
}

std::string
Service::cmdTelemetry(const JsonValue &req)
{
    const std::string format = req.stringOr("format", "json");
    if (format == "prometheus") {
        JsonWriter w;
        w.beginObject()
            .field("ok", true)
            .field("format", "prometheus")
            .field("exposition", registry_.prometheus())
            .endObject();
        return w.str();
    }
    if (format != "json")
        fatal(cat("telemetry: unknown format '", format,
                  "' (expected json or prometheus)"));
    JsonWriter w;
    w.beginObject().field("ok", true).field("uptimeMs", uptimeMs());
    w.key("telemetry");
    registry_.writeJson(w);
    w.endObject();
    return w.str();
}

std::string
Service::cmdCreate(const JsonValue &req)
{
    SessionConfig cfg;
    cfg.backend = std::string(
        target::canonicalBackend(req.stringOr("backend", "risc")));
    cfg.fast = req.boolOr("fast", true);

    const std::uint64_t mem = req.u64Or("mem", config_.defaultMemBytes);
    if (mem < kMinMemBytes || mem > kMaxMemBytes)
        fatal(cat("create: mem must be ", kMinMemBytes, "..", kMaxMemBytes,
                  " bytes, got ", mem));
    if (mem % Memory::pageBytes != 0)
        fatal(cat("create: mem must be a multiple of ", Memory::pageBytes,
                  " bytes, got ", mem));

    // Scale the fixed memory-map anchors with the session's memory the
    // same way the 16 MiB defaults sit in a 16 MiB machine: the
    // register-save area occupies the top 1/16th, the soft frame area
    // the 1/16th below it, and the baseline's stack grows down from
    // the save-area floor.
    auto &risc = cfg.options.risc;
    auto &vax = cfg.options.vax;
    risc.memorySize = static_cast<std::uint32_t>(mem);
    risc.saveAreaTop = static_cast<std::uint32_t>(mem - mem / 16);
    risc.softAreaTop = static_cast<std::uint32_t>(mem - mem / 8);
    vax.memorySize = static_cast<std::uint32_t>(mem);
    vax.stackTop = static_cast<std::uint32_t>(mem - mem / 16);

    if (const JsonValue *windows = req.find("windows"))
        risc.windows.numWindows = static_cast<unsigned>(windows->asU64());
    risc.windowedCalls = req.boolOr("windowed", true);

    const auto cacheLevel =
        [&req](const char *key) -> std::optional<mem::LevelConfig> {
        const JsonValue *spec = req.find(key);
        if (!spec)
            return std::nullopt;
        return mem::parseLevelSpec(spec->asString(),
                                   cat("create: '", key, "'"));
    };
    // Hierarchy levels apply to whichever backend the session runs
    // (same convention as job files, sim/jobfile.cc).
    if (const auto l1i = cacheLevel("l1i"))
        risc.caches.l1i = vax.caches.l1i = *l1i;
    if (const auto l1d = cacheLevel("l1d"))
        risc.caches.l1d = vax.caches.l1d = *l1d;
    if (const auto l2 = cacheLevel("l2"))
        risc.caches.l2 = vax.caches.l2 = *l2;

    const std::string workloadId = req.stringOr("workload", "");
    const std::string source = req.stringOr("source", "");
    if (workloadId.empty() == source.empty())
        fatal("create needs exactly one of 'workload' or 'source'");
    const std::string &text =
        workloadId.empty()
            ? source
            : target::workloadSource(cfg.backend,
                                     findWorkload(workloadId));

    // Build and load the machine before registering the session so a
    // failed create leaves no session behind.
    auto target = target::makeTarget(cfg.backend, cfg.options);
    target->load(text);

    const auto session = sessions_.create(std::move(cfg));
    std::uint64_t codeBytes = 0;
    {
        std::lock_guard lock(session->mutex);
        session->target = std::move(target);
        codeBytes = session->target->codeBytes();
        touch(*session);
    }
    JsonWriter w;
    okHeader(*session, w);
    w.field("memBytes", mem).field("codeBytes", codeBytes).endObject();
    return w.str();
}

std::string
Service::cmdDestroy(const JsonValue &req)
{
    const auto session = needSession(req);
    std::lock_guard lock(session->mutex);
    requireIdle(*session);
    sessions_.destroy(*session);
    JsonWriter w;
    w.beginObject().field("ok", true).field("session", session->id)
        .endObject();
    return w.str();
}

std::string
Service::cmdStep(const JsonValue &req)
{
    const auto session = needSession(req);
    const std::uint64_t count = req.u64Or("count", 1);
    if (count < 1 || count > kMaxStepCount)
        fatal(cat("step: count must be 1..", kMaxStepCount, ", got ",
                  count));

    std::lock_guard lock(session->mutex);
    requireIdle(*session);
    sessions_.ensureResident(*session);
    const auto t0 = Clock::now();
    const RunOutcome out = session->target->run(count, false);
    session->metrics.execMs += msSince(t0);
    session->metrics.steps += out.steps;
    touch(*session);

    JsonWriter w;
    okHeader(*session, w);
    w.field("steps", out.steps)
        .field("halted", out.halted)
        .field("pc", session->target->pc())
        .endObject();
    return w.str();
}

void
Service::cmdRun(const JsonValue &req, ReplyFn &reply)
{
    std::shared_ptr<Session> session;
    try {
        session = needSession(req);
        const std::uint64_t maxSteps =
            req.u64Or("maxSteps", kDefaultRunSteps);
        if (maxSteps < 1 || maxSteps > kMaxRunSteps)
            fatal(cat("run: maxSteps must be 1..", kMaxRunSteps, ", got ",
                      maxSteps));

        std::lock_guard lock(session->mutex);
        requireIdle(*session);
        std::size_t pending = pendingRuns_.load();
        do {
            if (config_.maxPendingRuns != 0 &&
                pending >= config_.maxPendingRuns)
                fatal(cat("server overloaded: ", pending,
                          " runs pending (limit ", config_.maxPendingRuns,
                          "); retry after a run completes"));
        } while (!pendingRuns_.compare_exchange_weak(pending, pending + 1));
        touch(*session);
        session->runActive = true;
        session->run.remaining = maxSteps;
        session->run.executed = 0;
        session->run.reply = std::move(reply);
        session->run.enqueuedAt = Clock::now();
        if (engine_.trySubmit([this, session] { runTurn(session); }))
            return;
    } catch (const std::exception &e) {
        reply(errorPayload(e.what()));
        return;
    }
    finishRun(*session, errorPayload(kShuttingDown));
}

std::string
Service::cmdPeek(const JsonValue &req)
{
    const auto session = needSession(req);
    const JsonValue *addrValue = req.find("addr");
    if (!addrValue)
        fatal("peek: request missing 'addr'");
    const std::uint64_t addr = addrValue->asU64();
    const std::uint64_t count = req.u64Or("count", 1);
    if (count < 1 || count > kMaxPeekWords)
        fatal(cat("peek: count must be 1..", kMaxPeekWords, ", got ",
                  count));
    if (addr > 0xffffffffu || addr + count * 4 - 1 > 0xffffffffu)
        fatal(cat("peek: address range out of 32-bit space"));

    std::lock_guard lock(session->mutex);
    requireAlive(*session);
    sessions_.ensureResident(*session);
    touch(*session);

    JsonWriter w;
    okHeader(*session, w);
    w.field("addr", addr).key("words").beginArray();
    for (std::uint64_t i = 0; i < count; ++i)
        w.value(session->target->peekWord(
            static_cast<std::uint32_t>(addr + i * 4)));
    w.endArray().endObject();
    return w.str();
}

std::string
Service::cmdRegs(const JsonValue &req)
{
    const auto session = needSession(req);
    std::lock_guard lock(session->mutex);
    requireAlive(*session);
    sessions_.ensureResident(*session);
    touch(*session);

    JsonWriter w;
    okHeader(*session, w);
    w.field("pc", session->target->pc())
        .field("halted", session->target->halted());
    w.key("regs").beginArray();
    const unsigned n = session->target->numRegs();
    for (unsigned r = 0; r < n; ++r)
        w.value(session->target->readReg(r));
    w.endArray().endObject();
    return w.str();
}

std::string
Service::cmdStats(const JsonValue &req)
{
    const auto session = needSession(req);
    std::lock_guard lock(session->mutex);
    requireAlive(*session);
    sessions_.ensureResident(*session);
    touch(*session);

    const auto stats = session->target->stats();
    JsonWriter w;
    okHeader(*session, w);
    w.field("halted", session->target->halted())
        .field("checksum", session->target->checksum());
    w.key("result").beginObject();
    stats->writeJson(w);
    w.endObject();
    // This session's own copy-on-write footprint: the pages only it
    // holds vs the pages it still shares with snapshots/forks, and
    // what its fast path's decode cache has allocated.
    const MemoryUsage usage = session->target->memUsage();
    w.key("memory")
        .beginObject()
        .field("residentBytes", usage.residentBytes)
        .field("sharedBytes", usage.sharedBytes)
        .field("decodeBytes", usage.decodeBytes)
        .endObject();
    w.key("metrics");
    session->metrics.writeJson(w);
    w.endObject();
    return w.str();
}

std::string
Service::cmdSnapshot(const JsonValue &req)
{
    const auto session = needSession(req);
    std::lock_guard lock(session->mutex);
    requireIdle(*session);
    sessions_.ensureResident(*session);
    touch(*session);
    const std::string id = sessions_.storeSnapshot(
        StoredSnapshot{session->target->snapshot(), session->cfg});
    JsonWriter w;
    okHeader(*session, w);
    w.field("snapshot", id).endObject();
    return w.str();
}

std::string
Service::cmdFork(const JsonValue &req)
{
    const std::string snapId = req.stringOr("snapshot", "");
    const std::string srcId = req.stringOr("session", "");
    if (snapId.empty() == srcId.empty())
        fatal("fork needs exactly one of 'session' or 'snapshot'");

    std::unique_ptr<target::Target> target;
    SessionConfig cfg;
    if (!snapId.empty()) {
        const auto stored = sessions_.findSnapshot(snapId);
        if (!stored)
            fatal(cat("unknown snapshot '", snapId, "'"));
        cfg = stored->cfg;
        // Restoring adopts the stored snapshot's page handles; every
        // session forked off one snapshot shares its pages until it
        // writes them (copy-on-write).
        target = target::makeTarget(cfg.backend, cfg.options);
        target->restore(*stored->snap);
    } else {
        const auto src = needSession(req);
        std::lock_guard lock(src->mutex);
        requireIdle(*src);
        sessions_.ensureResident(*src);
        touch(*src);
        // Clone the live machine directly — O(pages touched) handle
        // adoption, no content copied (Target::fork).
        target = src->target->fork();
        cfg = src->cfg;
    }

    const auto session = sessions_.create(std::move(cfg));
    {
        std::lock_guard lock(session->mutex);
        session->target = std::move(target);
        touch(*session);
    }
    JsonWriter w;
    okHeader(*session, w);
    w.endObject();
    return w.str();
}

std::string
Service::cmdEvict(const JsonValue &req)
{
    const auto session = needSession(req);
    std::lock_guard lock(session->mutex);
    requireIdle(*session);
    ++session->metrics.commands; // deliberately no lastActive touch
    sessions_.evict(*session);
    JsonWriter w;
    okHeader(*session, w);
    w.field("resident", false).endObject();
    return w.str();
}

std::string
Service::cmdDrop(const JsonValue &req)
{
    const std::string id = req.stringOr("snapshot", "");
    if (id.empty())
        fatal("drop: request missing 'snapshot'");
    if (!sessions_.dropSnapshot(id))
        fatal(cat("unknown snapshot '", id, "'"));
    JsonWriter w;
    w.beginObject().field("ok", true).field("snapshot", id).endObject();
    return w.str();
}

std::shared_ptr<Session>
Service::needSession(const JsonValue &req) const
{
    const std::string id = req.stringOr("session", "");
    if (id.empty())
        fatal("request missing 'session'");
    auto session = sessions_.find(id);
    if (!session)
        fatal(cat("unknown session '", id, "'"));
    return session;
}

void
Service::runTurn(const std::shared_ptr<Session> &session)
{
    std::string payload;
    {
        std::lock_guard lock(session->mutex);
        try {
            if (stopping_.load(std::memory_order_acquire))
                fatal(kShuttingDown);
            schedQueueWaitNs_->record(nsSince(session->run.enqueuedAt));
            sessions_.ensureResident(*session);
            const std::uint64_t quota =
                std::min(config_.quota, session->run.remaining);
            const auto t0 = Clock::now();
            const RunOutcome out =
                session->target->run(quota, session->cfg.fast);
            session->metrics.execMs += msSince(t0);
            schedTurnNs_->record(nsSince(t0));
            schedTurns_->add(1);
            ++session->metrics.turns;
            session->metrics.steps += out.steps;
            session->run.executed += out.steps;
            session->run.remaining -=
                std::min(out.steps, session->run.remaining);
            session->lastActive = Clock::now();
            if (!out.halted && session->run.remaining != 0) {
                // The next turn joins the queue tail, behind every other
                // runnable session's: round-robin.
                session->run.enqueuedAt = Clock::now();
                if (engine_.trySubmit([this, session] { runTurn(session); }))
                    return;
                fatal(kShuttingDown);
            }
            JsonWriter w;
            okHeader(*session, w);
            w.field("steps", session->run.executed)
                .field("halted", out.halted)
                .field("status", out.halted ? "halted" : "stepLimit")
                .field("pc", session->target->pc())
                .field("checksum", session->target->checksum())
                .endObject();
            payload = w.str();
        } catch (const std::exception &e) {
            payload = errorPayload(e.what());
        }
    }
    finishRun(*session, std::move(payload));
}

void
Service::finishRun(Session &session, std::string payload)
{
    ReplyFn reply;
    {
        std::lock_guard lock(session.mutex);
        reply = std::move(session.run.reply);
        session.runActive = false;
    }
    pendingRuns_.fetch_sub(1);
    reply(std::move(payload));
}

void
Service::stop()
{
    if (!stopping_.exchange(true) &&
        eventLog_.enabled(obs::EventLevel::Info))
        eventLog_.emit(obs::EventLevel::Info, "server.stop",
                       obs::EventFields{}
                           .field("uptimeMs", uptimeMs())
                           .field("requests", requests_->value())
                           .field("errors", errors_->value()));

    // Every queued turn still runs before the workers join; each one
    // sees stopping_ and replies "server shutting down".
    engine_.stop();

    {
        std::lock_guard lk(sweepMutex_);
        sweepStop_ = true;
    }
    sweepCv_.notify_all();
    if (sweeper_.joinable())
        sweeper_.join();
}

void
Service::sweepNow()
{
    if (config_.ttlMs < 0)
        return;
    sweepOnce();
}

void
Service::sweepLoop()
{
    using namespace std::chrono_literals;
    const auto interval = [this]() -> std::chrono::milliseconds {
        if (config_.ttlMs <= 0)
            return 25ms;
        return std::clamp(std::chrono::milliseconds(config_.ttlMs / 4),
                          std::chrono::milliseconds(25),
                          std::chrono::milliseconds(2000));
    }();

    std::unique_lock lk(sweepMutex_);
    while (!sweepStop_) {
        if (config_.ttlMs < 0) {
            sweepCv_.wait(lk, [this] { return sweepStop_; });
            break;
        }
        sweepCv_.wait_for(lk, interval, [this] { return sweepStop_; });
        if (sweepStop_)
            break;
        lk.unlock();
        sweepOnce();
        lk.lock();
    }
}

void
Service::sweepOnce()
{
    const auto ttl = std::chrono::milliseconds(config_.ttlMs);
    const auto now = Clock::now();
    for (const auto &session : sessions_.all()) {
        std::unique_lock lock(session->mutex, std::try_to_lock);
        if (!lock.owns_lock())
            continue; // busy right now; the next sweep catches it
        if (session->destroyed || session->runActive || !session->target)
            continue;
        if (now - session->lastActive < ttl)
            continue;
        try {
            sessions_.evict(*session);
        } catch (const std::exception &e) {
            warn(cat("eviction sweep: session ", session->id, ": ",
                     e.what()));
        }
    }
}

} // namespace risc1::server
