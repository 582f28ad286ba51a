/**
 * @file
 * The `serve` workload: the riscserved path, in-process.  A
 * server::Service with kWorkers engine workers sits behind a
 * server::SocketServer on a Unix socket; an open-loop generator sends
 * pipelined requests over kConnections connections at a fixed rate and
 * times each from its scheduled send time to its reply.
 *
 * Every session runs a paper workload whose `halt` jumps back to its
 * entry, so each `run` executes its whole budget.  The mix is run,
 * step, regs, peek and stats, plus two sequences: evict (the next
 * command restores the session from the spool) and snapshot -> fork ->
 * run the child -> destroy the child -> drop the snapshot.  A request
 * only ever goes to a session with nothing in flight.
 */
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "common/json_value.hh"
#include "common/logging.hh"
#include "obs/registry.hh"
#include "server/client.hh"
#include "server/frame.hh"
#include "server/protocol.hh"
#include "server/server.hh"
#include "target/registry.hh"
#include "target/snapshot_io.hh"
#include "trace.hh"
#include "workloads.hh"
#include "workloads/workloads.hh"

namespace perfbench {

namespace {

using risc1::JsonValue;
using risc1::server::Client;

constexpr unsigned kConnections = 2;
constexpr double kRatePerSecond = 1000.0;  ///< all connections together
constexpr unsigned kCopies = 12;           ///< sessions per program
constexpr std::uint64_t kRunSteps = 20'000;
constexpr std::uint64_t kStepCount = 200;
constexpr std::uint64_t kSessionMem = 256 * 1024;  ///< the daemon default
constexpr std::size_t kSequenceGap = 5;  ///< slots between sequence steps
/** Latency percentiles are medians over windows this long. */
constexpr auto kWindow = std::chrono::seconds(1);

enum class Kind : std::uint8_t
{
    Run,
    Step,
    Regs,
    Peek,
    Stats,
    Evict,
    Snapshot,
    Fork,
    RunChild,
    DestroyChild,
    Drop,
    None,
};

/** Span names, one per Kind (string literals, as Span requires). */
const char *const kSpanNames[] = {
    "server.run",   "server.step",     "server.regs",    "server.peek",
    "server.stats", "server.evict",    "server.snapshot", "server.fork",
    "server.run",   "server.destroy",  "server.drop",
};

/** One scheduled request on one connection. */
struct Op
{
    Kind kind = Kind::None;
    std::uint32_t session = 0;  ///< index into Conn::sessions
    std::int64_t dep = -1;      ///< op whose reply this one needs
};

/** One resident session the generator owns. */
struct SessionSlot
{
    std::string id;
    std::string isa;
    std::string source;
    bool busy = false;  ///< a request is in flight (guarded by Conn::mutex)
};

/** The paper workload with every `halt` replaced by a jump to `start`. */
std::string
loopingSource(const std::string &isa, const risc1::Workload &w)
{
    const std::string &src = risc1::target::workloadSource(isa, w);
    const std::string jump = isa == "risc" ? "bra start\n        nop"
                                           : "brw start";
    return std::regex_replace(src, std::regex("\\bhalt\\b"), jump);
}

/** The session options cmdCreate derives for @p mem bytes. */
risc1::target::TargetOptions
sessionOptions(std::uint64_t mem)
{
    risc1::target::TargetOptions o;
    o.risc.memorySize = mem;
    o.risc.saveAreaTop = static_cast<std::uint32_t>(mem - mem / 16);
    o.risc.softAreaTop = static_cast<std::uint32_t>(mem - mem / 8);
    o.vax.memorySize = mem;
    o.vax.stackTop = static_cast<std::uint32_t>(mem - mem / 16);
    return o;
}

std::string
jsonString(const std::string &s)
{
    return risc1::cat("\"", s, "\"");
}

std::string
createRequest(const std::string &isa, const std::string &source)
{
    std::string escaped;
    for (const char c : source) {
        if (c == '\n')
            escaped += "\\n";
        else if (c == '"' || c == '\\')
            escaped += risc1::cat("\\", c);
        else
            escaped += c;
    }
    return risc1::cat("{\"cmd\":\"create\",\"backend\":", jsonString(isa),
                      ",\"source\":\"", escaped, "\"}");
}

std::string
sessionRequest(const char *cmd, const std::string &id,
               const std::string &extra = "")
{
    return risc1::cat("{\"cmd\":\"", cmd, "\",\"session\":", jsonString(id),
                      extra, "}");
}

/**
 * Histogram @p name in `telemetry` reply @p after minus the same in
 * @p before, so percentiles cover only what was recorded between the
 * two scrapes.
 */
risc1::obs::HistogramSnapshot
histogramDelta(const JsonValue &after, const JsonValue &before,
               const char *name)
{
    risc1::obs::HistogramSnapshot snap;
    snap.buckets.assign(risc1::obs::Histogram::kBuckets, 0);
    const auto add = [&snap, name](const JsonValue &telemetry,
                                   std::int64_t sign) {
        const JsonValue *h = telemetry.find("telemetry");
        h = h ? h->find("histograms") : nullptr;
        h = h ? h->find(name) : nullptr;
        if (!h)
            return;  // nothing recorded yet
        for (const JsonValue &b : h->find("buckets")->items()) {
            const unsigned i =
                risc1::obs::Histogram::bucketIndex(b.u64Or("lo", 0));
            snap.buckets[i] += std::uint64_t(sign) * b.u64Or("count", 0);
        }
        snap.count += std::uint64_t(sign) * h->u64Or("count", 0);
        snap.sum += std::uint64_t(sign) * h->u64Or("sum", 0);
    };
    add(after, 1);
    add(before, -1);
    snap.min = ~std::uint64_t(0);
    for (unsigned i = 0; i < snap.buckets.size(); ++i) {
        if (snap.buckets[i] == 0)
            continue;
        snap.min = std::min(snap.min,
                            risc1::obs::Histogram::bucketLo(i));
        snap.max = risc1::obs::Histogram::bucketHi(i);
    }
    if (snap.count == 0)
        snap.min = 0;
    return snap;
}

/** What one timed phase observed. */
struct Phase
{
    double seconds = 0.0;
    std::uint64_t sent = 0;
    std::uint64_t replies = 0;  ///< ok replies
    std::uint64_t failed = 0;   ///< error or missing replies
    std::uint64_t simSteps = 0;
    std::vector<double> latencyMs;  ///< failures as +infinity
    /** The latencies again, in kWindow slices by due time. */
    std::vector<std::vector<double>> windows;
    std::vector<double> runMs;      ///< run (and child run) latencies
    std::vector<double> regsMs;
    std::vector<double> lateMs;     ///< send time minus due time
    std::vector<std::vector<double>> byKind =
        std::vector<std::vector<double>>(std::size(kSpanNames));
    std::uint64_t backlogMax = 0;
    /** The daemon's histograms, recorded during this phase only. */
    std::map<std::string, risc1::obs::HistogramSnapshot> histograms;
};

/** The daemon histograms the per-layer rows read. */
const char *const kHistograms[] = {"sched.queueWait.ns", "sched.turn.ns",
                                   "session.evict.ns", "session.restore.ns",
                                   "cmd.regs.ns"};

/** Fold the slice @p from into @p into. */
void
absorb(Phase &into, const Phase &from)
{
    const auto append = [](std::vector<double> &a,
                           const std::vector<double> &b) {
        a.insert(a.end(), b.begin(), b.end());
    };
    into.seconds += from.seconds;
    into.sent += from.sent;
    into.replies += from.replies;
    into.failed += from.failed;
    into.simSteps += from.simSteps;
    append(into.latencyMs, from.latencyMs);
    into.windows.insert(into.windows.end(), from.windows.begin(),
                        from.windows.end());
    append(into.runMs, from.runMs);
    append(into.regsMs, from.regsMs);
    append(into.lateMs, from.lateMs);
    for (std::size_t k = 0; k < into.byKind.size(); ++k)
        append(into.byKind[k], from.byKind[k]);
    into.backlogMax = std::max(into.backlogMax, from.backlogMax);
    for (const auto &[name, h] : from.histograms) {
        auto [it, fresh] = into.histograms.emplace(name, h);
        if (!fresh)
            it->second.merge(h);
    }
}

/** One connection's generator: a sender and a receiver thread. */
class Conn
{
  public:
    Conn(Client client, std::vector<SessionSlot> sessions)
        : client_(std::move(client)), sessions_(std::move(sessions))
    {
    }

    Client &client() { return client_; }
    std::vector<SessionSlot> &sessions() { return sessions_; }

    /** Draw this connection's schedule of @p n ops from @p rng. */
    void
    plan(std::size_t n, Rng &rng)
    {
        ops_.assign(n, Op{});
        std::vector<std::uint32_t> order(sessions_.size());
        for (std::uint32_t i = 0; i < order.size(); ++i)
            order[i] = i;
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng() % i]);
        std::size_t visit = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (ops_[i].kind != Kind::None)
                continue;  // a sequence step placed earlier
            const std::uint32_t s = order[visit++ % order.size()];
            const unsigned roll = unsigned(rng() % 100);
            Kind kind = roll < 62   ? Kind::Run
                        : roll < 70 ? Kind::Step
                        : roll < 81 ? Kind::Regs
                        : roll < 87 ? Kind::Peek
                        : roll < 96 ? Kind::Stats
                        : roll < 99 ? Kind::Evict
                                    : Kind::Snapshot;
            if (kind == Kind::Snapshot && !placeSequence(i))
                kind = Kind::Regs;
            ops_[i].kind = kind;
            ops_[i].session = s;
        }
    }

    /** Run the planned schedule, op i due at @p t0 + offset + i * gap. */
    void
    drive(Clock::time_point t0, std::chrono::nanoseconds offset,
          std::chrono::nanoseconds gap)
    {
        const std::size_t n = ops_.size();
        due_.assign(n, Clock::time_point{});
        sentAt_.assign(n, Clock::time_point{});
        doneAt_.assign(n, Clock::time_point{});
        replied_.assign(n, 0);
        ok_.assign(n, 0);
        steps_.assign(n, 0);
        ref_.assign(n, std::string());
        outstanding_ = 0;
        backlogMax_ = 0;
        skipped_ = 0;
        closed_ = false;
        for (std::size_t i = 0; i < n; ++i)
            due_[i] = t0 + offset + gap * std::int64_t(i);
        t0_ = t0;

        std::thread receiver([this] { receive(); });
        send();
        receiver.join();
    }

    /** Fold this connection's observations into @p phase. */
    void
    collect(Phase &phase, Clock::time_point &lastReply) const
    {
        for (std::size_t i = 0; i < ops_.size(); ++i) {
            ++phase.sent;
            const bool good = replied_[i] && ok_[i];
            const double ms =
                good ? msBetween(due_[i], doneAt_[i])
                     : std::numeric_limits<double>::infinity();
            phase.latencyMs.push_back(ms);
            const std::size_t w = std::size_t((due_[i] - t0_) / kWindow);
            if (phase.windows.size() <= w)
                phase.windows.resize(w + 1);
            phase.windows[w].push_back(ms);
            phase.byKind[unsigned(ops_[i].kind)].push_back(ms);
            phase.lateMs.push_back(msBetween(due_[i], sentAt_[i]));
            if (!good) {
                ++phase.failed;
                continue;
            }
            ++phase.replies;
            phase.simSteps += steps_[i];
            lastReply = std::max(lastReply, doneAt_[i]);
            if (ops_[i].kind == Kind::Run || ops_[i].kind == Kind::RunChild)
                phase.runMs.push_back(ms);
            else if (ops_[i].kind == Kind::Regs)
                phase.regsMs.push_back(ms);
        }
        phase.backlogMax = std::max(phase.backlogMax, backlogMax_);
    }

  private:
    /** Place fork, run-child, destroy and drop after a snapshot at @p i. */
    bool
    placeSequence(std::size_t i)
    {
        const Kind steps[] = {Kind::Fork, Kind::RunChild, Kind::DestroyChild,
                              Kind::Drop};
        for (std::size_t k = 1; k <= std::size(steps); ++k) {
            const std::size_t j = i + k * kSequenceGap;
            if (j >= ops_.size() || ops_[j].kind != Kind::None)
                return false;
        }
        // Fork needs the snapshot id, the child steps need the child id
        // (and each waits for the step before it), drop waits for fork.
        const std::int64_t deps[] = {std::int64_t(i),
                                     std::int64_t(i + kSequenceGap),
                                     std::int64_t(i + 2 * kSequenceGap),
                                     std::int64_t(i + kSequenceGap)};
        for (std::size_t k = 0; k < std::size(steps); ++k) {
            Op &op = ops_[i + (k + 1) * kSequenceGap];
            op.kind = steps[k];
            op.dep = deps[k];
        }
        return true;
    }

    /** The request text for op @p i; caller holds mutex_. */
    std::string
    request(std::size_t i) const
    {
        const Op &op = ops_[i];
        const std::string &id = sessions_[op.session].id;
        switch (op.kind) {
        case Kind::Run:
            return sessionRequest("run", id,
                                  risc1::cat(",\"maxSteps\":", kRunSteps));
        case Kind::Step:
            return sessionRequest("step", id,
                                  risc1::cat(",\"count\":", kStepCount));
        case Kind::Regs:
            return sessionRequest("regs", id);
        case Kind::Peek:
            return sessionRequest("peek", id, ",\"addr\":0,\"count\":16");
        case Kind::Stats:
            return sessionRequest("stats", id);
        case Kind::Evict:
            return sessionRequest("evict", id);
        case Kind::Snapshot:
            return sessionRequest("snapshot", id);
        case Kind::Fork:
            return risc1::cat("{\"cmd\":\"fork\",\"snapshot\":",
                              jsonString(ref_[std::size_t(op.dep)]), "}");
        case Kind::RunChild:
            return sessionRequest("run", ref_[std::size_t(op.dep)],
                                  risc1::cat(",\"maxSteps\":", kRunSteps));
        case Kind::DestroyChild:
            return sessionRequest(
                "destroy", ref_[std::size_t(ops_[std::size_t(op.dep)].dep)]);
        case Kind::Drop: {
            const std::size_t fork = std::size_t(op.dep);
            return risc1::cat(
                "{\"cmd\":\"drop\",\"snapshot\":",
                jsonString(ref_[std::size_t(ops_[fork].dep)]), "}");
        }
        case Kind::None:
            break;
        }
        return "{}";
    }

    /** Whether op @p i may be sent now; caller holds mutex_. */
    bool
    ready(std::size_t i) const
    {
        const Op &op = ops_[i];
        if (op.dep >= 0)
            return replied_[std::size_t(op.dep)] != 0;
        return !sessions_[op.session].busy;
    }

    /** Whether op @p i occupies its session while in flight. */
    static bool
    usesSession(const Op &op)
    {
        return op.dep < 0;
    }

    void
    send()
    {
        tightenTimerSlack();
        for (std::size_t i = 0; i < ops_.size(); ++i) {
            std::this_thread::sleep_until(due_[i]);
            std::vector<std::uint8_t> frame;
            {
                std::unique_lock lock(mutex_);
                cv_.wait(lock, [&] {
                    return closed_ || ready(i) || failedDep(i);
                });
                if (closed_ || failedDep(i)) {
                    // Its predecessor failed or the connection is gone:
                    // nothing to send, and the op counts as failed.
                    sentAt_[i] = Clock::now();
                    replied_[i] = 1;
                    ++skipped_;
                    continue;
                }
                if (usesSession(ops_[i]))
                    sessions_[ops_[i].session].busy = true;
                frame = risc1::server::encodeFrame(
                    risc1::server::FrameType::Request, std::uint32_t(i + 1),
                    request(i));
                ++outstanding_;
                backlogMax_ = std::max(backlogMax_, outstanding_);
                sentAt_[i] = Clock::now();
            }
            try {
                client_.sendBytes(frame.data(), frame.size());
            } catch (const std::exception &) {
                std::lock_guard lock(mutex_);
                closed_ = true;  // the daemon hung up; the rest fail
            }
        }
    }

    /** Whether op @p i depends on an op that failed; caller holds mutex_. */
    bool
    failedDep(std::size_t i) const
    {
        const std::int64_t d = ops_[i].dep;
        return d >= 0 && replied_[std::size_t(d)] && !ok_[std::size_t(d)];
    }

    void
    receive()
    {
        risc1::server::FrameReader reader;
        std::uint8_t buf[64 * 1024];
        std::size_t done = 0;
        const std::size_t n = ops_.size();
        const auto lastDue = n ? due_.back() : Clock::now();
        while (done < n) {
            // Give up on missing replies well after the last send.
            if (Clock::now() > lastDue + std::chrono::seconds(10))
                break;
            pollfd pfd{client_.fd(), POLLIN, 0};
            if (::poll(&pfd, 1, 200) <= 0)
                continue;
            const ssize_t got = ::recv(client_.fd(), buf, sizeof buf, 0);
            if (got <= 0)
                break;
            const auto now = Clock::now();
            reader.feed(buf, std::size_t(got));
            while (auto frame = reader.next()) {
                const std::size_t i = frame->id - 1;
                if (frame->id == 0 || i >= n)
                    continue;
                bool good = false;
                std::string ref;
                std::uint64_t steps = 0;
                try {
                    const JsonValue v = risc1::parseJson(frame->payload);
                    good = v.boolOr("ok", false);
                    steps = v.u64Or("steps", 0);
                    ref = ops_[i].kind == Kind::Snapshot
                              ? v.stringOr("snapshot", "")
                              : v.stringOr("session", "");
                } catch (const std::exception &) {
                    good = false;
                }
                std::lock_guard lock(mutex_);
                recordSpan(kSpanNames[unsigned(ops_[i].kind)], "server", i,
                           sentAt_[i], now, msBetween(due_[i], sentAt_[i]));
                doneAt_[i] = now;
                ok_[i] = good;
                steps_[i] = ops_[i].kind == Kind::Run ||
                                    ops_[i].kind == Kind::RunChild ||
                                    ops_[i].kind == Kind::Step
                                ? steps
                                : 0;
                ref_[i] = std::move(ref);
                replied_[i] = 1;
                if (usesSession(ops_[i]))
                    sessions_[ops_[i].session].busy = false;
                --outstanding_;
                ++done;
                cv_.notify_all();
            }
            std::lock_guard lock(mutex_);
            if (done + skipped_ >= n)
                break;
        }
        // Unblock a sender still waiting on a reply that never came.
        std::lock_guard lock(mutex_);
        closed_ = true;
        cv_.notify_all();
    }

    Client client_;
    std::vector<SessionSlot> sessions_;
    std::vector<Op> ops_;
    Clock::time_point t0_;
    std::vector<Clock::time_point> due_;
    std::vector<Clock::time_point> sentAt_;
    std::vector<Clock::time_point> doneAt_;  ///< zero until replied
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<std::uint8_t> replied_;  ///< guarded by mutex_
    std::vector<std::uint8_t> ok_;
    std::vector<std::uint64_t> steps_;
    std::vector<std::string> ref_;  ///< snapshot or session id replied
    std::uint64_t outstanding_ = 0;
    std::uint64_t backlogMax_ = 0;
    std::size_t skipped_ = 0;  ///< ops not sent: a predecessor failed
    bool closed_ = false;      ///< receiver gave up; send nothing more
};

/** The daemon, its transport and the generator's connections. */
class Serve
{
  public:
    Serve(const Options &opts, unsigned copies, int instance)
        : opts_(opts), copies_(copies),
          dir_(risc1::cat(opts.outDir, "/serve-", ::getpid(), "-", instance))
    {
    }

    ~Serve() { teardown(); }
    Serve(const Serve &) = delete;
    Serve &operator=(const Serve &) = delete;

    /** One set-up: daemon, sessions, one untimed warm-up run each. */
    double
    setup()
    {
        const auto t0 = Clock::now();
        std::filesystem::create_directories(dir_);
        risc1::server::ServiceConfig cfg;
        cfg.workers = kWorkers;
        cfg.ttlMs = -1;  // evictions come only from the mix
        cfg.spoolDir = dir_ + "/spool";
        cfg.defaultMemBytes = kSessionMem;
        service_ = std::make_unique<risc1::server::Service>(cfg);
        risc1::server::ServerConfig sc;
        sc.unixPath = dir_ + "/s.sock";
        server_ = std::make_unique<risc1::server::SocketServer>(*service_,
                                                                sc);
        server_->start();

        // Every (workload, ISA) program kCopies times, dealt to the
        // connections in a seeded order.
        std::vector<SessionSlot> all;
        for (const risc1::Workload &w : risc1::allWorkloads())
            for (const char *isa : {"risc", "vax"})
                for (unsigned c = 0; c < copies_; ++c)
                    all.push_back(SessionSlot{"", isa, loopingSource(isa, w)});
        Rng rng = seededRng(opts_.seed, 5);
        for (std::size_t i = all.size(); i > 1; --i)
            std::swap(all[i - 1], all[rng() % i]);
        for (unsigned c = 0; c < kConnections; ++c) {
            Client client = Client::connectUnix(sc.unixPath);
            std::vector<SessionSlot> mine;
            for (std::size_t i = c; i < all.size(); i += kConnections) {
                SessionSlot s = all[i];
                s.id = client.callOk(createRequest(s.isa, s.source))
                           .stringOr("session", "");
                client.callOk(sessionRequest(
                    "run", s.id, risc1::cat(",\"maxSteps\":", kRunSteps)));
                mine.push_back(std::move(s));
            }
            conns_.push_back(
                std::make_unique<Conn>(std::move(client), std::move(mine)));
        }
        return msSince(t0) / 1e3;
    }

    Phase
    measure(double seconds, std::uint64_t stream)
    {
        Phase phase;
        const JsonValue before = telemetry();
        const auto gap = std::chrono::nanoseconds(
            std::int64_t(1e9 * kConnections / kRatePerSecond));
        const std::size_t n =
            std::size_t(seconds * kRatePerSecond / kConnections);
        Rng rng = seededRng(opts_.seed, stream);
        for (auto &c : conns_)
            c->plan(n, rng);

        const auto t0 = Clock::now() + std::chrono::milliseconds(5);
        std::vector<std::thread> senders;
        for (unsigned c = 0; c < conns_.size(); ++c)
            senders.emplace_back([this, c, t0, gap] {
                conns_[c]->drive(t0, gap * c / kConnections, gap);
            });
        for (auto &d : senders)
            d.join();

        Clock::time_point last = t0;
        for (const auto &c : conns_)
            c->collect(phase, last);
        phase.seconds = msBetween(t0, last) / 1e3;
        const JsonValue after = telemetry();
        for (const char *name : kHistograms)
            phase.histograms[name] = histogramDelta(after, before, name);
        return phase;
    }

    /**
     * Each session's registers must equal a fresh local target of its
     * ISA run for the instruction count the session's stats report.
     * @return the sessions that disagree.
     */
    std::uint64_t
    checkSessions()
    {
        struct Check
        {
            const SessionSlot *slot;
            std::uint64_t instructions;
            JsonValue regs;
        };
        std::vector<Check> checks;
        Client &client = conns_.front()->client();
        for (auto &c : conns_) {
            for (const SessionSlot &s : c->sessions()) {
                const JsonValue stats =
                    client.callOk(sessionRequest("stats", s.id));
                const JsonValue *run = stats.find("result");
                run = run ? run->find("stats") : nullptr;
                checks.push_back(Check{
                    &s, run ? run->u64Or("instructions", 0) : 0,
                    client.callOk(sessionRequest("regs", s.id))});
            }
        }
        std::atomic<std::uint64_t> bad{0};
        std::atomic<std::size_t> next{0};
        const auto replay = [&] {
            for (std::size_t i; (i = next++) < checks.size();) {
                const Check &c = checks[i];
                bool same = false;
                try {
                    auto t = risc1::target::makeTarget(
                        c.slot->isa, sessionOptions(kSessionMem));
                    t->load(c.slot->source);
                    t->run(c.instructions, true);
                    const JsonValue *regs = c.regs.find("regs");
                    same = c.instructions != 0 && regs &&
                           c.regs.u64Or("pc", ~0ull) == t->pc() &&
                           regs->items().size() == t->numRegs();
                    for (unsigned r = 0; same && r < t->numRegs(); ++r)
                        same = regs->items()[r].asU64() == t->readReg(r);
                } catch (const std::exception &) {
                    same = false;
                }
                if (!same)
                    ++bad;
            }
        };
        std::thread helper(replay);
        replay();
        helper.join();
        return bad.load();
    }

    risc1::server::Service &service() { return *service_; }

  private:
    JsonValue
    telemetry()
    {
        return conns_.front()->client().callOk("{\"cmd\":\"telemetry\"}");
    }

    void
    teardown()
    {
        conns_.clear();
        if (server_)
            server_->stop();
        if (service_)
            service_->stop();
        server_.reset();
        service_.reset();
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    const Options &opts_;
    unsigned copies_;
    std::string dir_;
    std::unique_ptr<risc1::server::Service> service_;
    std::unique_ptr<risc1::server::SocketServer> server_;
    std::vector<std::unique_ptr<Conn>> conns_;
};

/**
 * Latency percentiles as medians over windows, so a burst of vCPU
 * stalls moves one window rather than the result.
 */
struct WindowedLatency
{
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    std::size_t windows = 0;
};

/** The phase's latency windows, the partial last one dropped. */
WindowedLatency
windowed(const Phase &p)
{
    std::vector<double> p50, p99;
    for (const std::vector<double> &w : p.windows) {
        if (w.size() * 2 <= kRatePerSecond * kWindow.count())
            continue;
        p50.push_back(percentile(w, 0.50));
        p99.push_back(percentile(w, 0.99));
    }
    return {median(p50), median(p99), p50.size()};
}

/**
 * The per-layer rows only a serve run can supply; @p engineRows adds
 * the engine's busy ratio and queue wait (serve's own traced run).
 */
void
serveRows(const Phase &p, bool engineRows, Metrics &m)
{
    const auto &wait = p.histograms.at("sched.queueWait.ns");
    const auto &turn = p.histograms.at("sched.turn.ns");
    const auto &evict = p.histograms.at("session.evict.ns");
    const auto &restore = p.histograms.at("session.restore.ns");
    const auto &regs = p.histograms.at("cmd.regs.ns");
    if (engineRows) {
        m.set("sim.busy_ratio",
              double(turn.sum) / 1e6 / (p.seconds * 1e3 * kWorkers),
              "ratio");
        m.set("sim.queue_wait_ms", wait.mean() / 1e6, "ms");
    }
    m.set("server.sched_wait_us.p50", wait.quantile(0.50) / 1e3, "us");
    m.set("server.sched_wait_us.p99", wait.quantile(0.99) / 1e3, "us");
    m.set("server.sched_turn_us.p50", turn.quantile(0.50) / 1e3, "us");
    m.set("server.evict_us", evict.mean() / 1e3, "us");
    m.set("server.restore_us", restore.mean() / 1e3, "us");
    m.set("server.run_ms.p50", percentile(p.runMs, 0.50), "ms");
    m.set("server.transport_us",
          percentile(p.regsMs, 0.50) * 1e3 - regs.quantile(0.50) / 1e3, "us");
    m.set("serve.send_late_ms.p99", percentile(p.lateMs, 0.99), "ms");
    m.set("serve.backlog_max", double(p.backlogMax), "count");
    m.set("serve.p999_ms", percentile(p.latencyMs, 0.999), "ms");
    m.set("serve.max_ms", percentile(p.latencyMs, 1.0), "ms");
}

void
printPhase(const char *what, const Phase &p, std::uint64_t sessions)
{
    std::printf("serve %s: whole-run p50 %.4f ms p99 %.4f ms; windowed "
                "p50 %.4f ms p99 %.4f ms over %zu windows\n",
                what, percentile(p.latencyMs, 0.5),
                percentile(p.latencyMs, 0.99), windowed(p).p50Ms,
                windowed(p).p99Ms, windowed(p).windows);
    std::printf("serve %s: %llu requests over %u connections to %llu "
                "sessions at %.0f/s, %llu ok, %llu failed, %.3f s; p99 over "
                "%zu samples, p99.9 %.3f ms, max %.3f ms; send lateness p50 "
                "%.4f ms p99 %.4f ms; backlog max %llu\n",
                what, (unsigned long long)p.sent, kConnections,
                (unsigned long long)sessions, kRatePerSecond,
                (unsigned long long)p.replies, (unsigned long long)p.failed,
                p.seconds, p.latencyMs.size(),
                percentile(p.latencyMs, 0.999),
                percentile(p.latencyMs, 1.0), percentile(p.lateMs, 0.5),
                percentile(p.lateMs, 0.99),
                (unsigned long long)p.backlogMax);
    for (std::size_t k = 0; k < p.byKind.size(); ++k)
        if (!p.byKind[k].empty())
            std::printf("  %-16s n=%-6zu p50 %.4f ms  p99 %.4f ms\n",
                        kSpanNames[k], p.byKind[k].size(),
                        percentile(p.byKind[k], 0.5),
                        percentile(p.byKind[k], 0.99));
}

/** Run Serve::checkSessions and print its verdict; @return all match. */
bool
checkSessions(Serve &serve, std::uint64_t sessions)
{
    const std::uint64_t bad = serve.checkSessions();
    std::printf("serve: %llu/%llu sessions match a local replay of their "
                "instruction count\n",
                (unsigned long long)(sessions - bad),
                (unsigned long long)sessions);
    return bad == 0;
}

} // namespace

Outcome
runServe(const Options &opts)
{
    Outcome out;
    Serve serve(opts, kCopies, 0);
    out.setupS = serve.setup();
    if (opts.setupOnly)
        return out;
    const std::uint64_t sessions =
        risc1::allWorkloads().size() * 2 * kCopies;

    Phase phase, untraced, traced;
    if (!opts.trace) {
        phase = serve.measure(opts.seconds, 6);
    } else {
        tracedSlices(opts.seconds,
                     [&, stream = std::uint64_t(10)](double s,
                                                     Path) mutable {
                         return serve.measure(s, stream++);
                     },
                     phase, untraced, traced);
    }
    printPhase("untraced", phase, sessions);
    // Rates over the whole phase, which the offered rate fixes.
    endToEnd(double(phase.replies) / phase.seconds,
             double(phase.simSteps) / phase.seconds / 1e6, out.endToEnd);
    const WindowedLatency w = windowed(phase);
    out.endToEnd.set("p50_ms", w.p50Ms, "ms");
    out.endToEnd.set("p99_ms", w.p99Ms, "ms");
    out.attempted = phase.sent;
    out.failed = phase.failed;
    out.record.set("connections", kConnections, "count");
    out.record.set("offered_rate_per_s", kRatePerSecond, "1/s");
    out.record.set("sessions", double(sessions), "count");
    out.record.set("serve.send_late_ms.p50", percentile(phase.lateMs, 0.5),
                   "ms");
    out.record.set("serve.send_late_ms.p99", percentile(phase.lateMs, 0.99),
                   "ms");
    out.record.set("serve.p999_ms", percentile(phase.latencyMs, 0.999), "ms");
    out.record.set("serve.max_ms", percentile(phase.latencyMs, 1.0), "ms");

    if (opts.trace) {
        serveRows(phase, true, out.layers);
        printPhase("traced", traced, sessions);
        out.attempted += untraced.sent + traced.sent;
        out.failed += untraced.failed + traced.failed;
        finishTrace(opts, "p50_ms", percentile(untraced.latencyMs, 0.5),
                    percentile(traced.latencyMs, 0.5), false, out.layers);
    }
    out.gatesOk = checkSessions(serve, sessions);
    return out;
}

void
serveLayerMetrics(const Options &opts, double seconds, Outcome &out)
{
    // A short run with fewer sessions: enough for the scheduler, spool
    // and transport rows, which only a serving daemon produces.
    constexpr unsigned kProbeCopies = 2;
    Serve serve(opts, kProbeCopies, 9);
    serve.setup();
    const Phase phase = serve.measure(seconds, 8);
    const std::uint64_t sessions =
        risc1::allWorkloads().size() * 2 * kProbeCopies;
    printPhase("probe", phase, sessions);
    serveRows(phase, false, out.layers);
    out.attempted += phase.sent;
    out.failed += phase.failed;
    out.gatesOk = checkSessions(serve, sessions) && out.gatesOk;
}

void
requestPathLayerMetrics(const Options &opts, Metrics &out)
{
    const std::string dir =
        risc1::cat(opts.outDir, "/serve-", ::getpid(), "-direct");
    std::filesystem::create_directories(dir);
    std::vector<std::string> recorded;  // requests and replies, for JSON
    std::map<std::string, std::vector<double>> us;
    {
        risc1::server::ServiceConfig cfg;
        cfg.workers = kWorkers;
        cfg.ttlMs = -1;
        cfg.spoolDir = dir + "/spool";
        cfg.defaultMemBytes = kSessionMem;
        risc1::server::Service service(cfg);
        const auto execute = [&](const char *cmd, const std::string &req) {
            std::string reply;
            const auto t0 = Clock::now();
            service.execute(req, [&reply](std::string r) {
                reply = std::move(r);
            });
            if (cmd)
                us[cmd].push_back(msSince(t0) * 1e3);
            const JsonValue v = risc1::parseJson(reply);
            if (!v.boolOr("ok", false))
                risc1::fatal(risc1::cat("perfbench: ", req, " -> ", reply));
            recorded.push_back(req);
            recorded.push_back(reply);
            return v;
        };

        std::vector<std::string> ids;
        for (const risc1::Workload &w : risc1::allWorkloads())
            for (const char *isa : {"risc", "vax"})
                ids.push_back(
                    execute("create",
                            createRequest(isa, loopingSource(isa, w)))
                        .stringOr("session", ""));
        for (int round = 0; round < 8; ++round) {
            for (const std::string &id : ids) {
                execute("step", sessionRequest("step", id,
                                               risc1::cat(",\"count\":",
                                                          kStepCount)));
                execute("regs", sessionRequest("regs", id));
                execute("peek", sessionRequest("peek", id,
                                               ",\"addr\":0,\"count\":16"));
                execute("stats", sessionRequest("stats", id));
                const std::string snap =
                    execute("snapshot", sessionRequest("snapshot", id))
                        .stringOr("snapshot", "");
                const std::string child =
                    execute("fork", risc1::cat("{\"cmd\":\"fork\","
                                               "\"snapshot\":",
                                               jsonString(snap), "}"))
                        .stringOr("session", "");
                execute("destroy", sessionRequest("destroy", child));
                execute(nullptr, risc1::cat("{\"cmd\":\"drop\","
                                            "\"snapshot\":",
                                            jsonString(snap), "}"));
                execute("evict", sessionRequest("evict", id));
                execute(nullptr, sessionRequest("regs", id));  // restores
            }
        }
        service.stop();
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    for (const char *cmd : {"create", "step", "regs", "peek", "stats",
                            "snapshot", "fork", "destroy", "evict"})
        out.set(risc1::cat("server.execute_us.", cmd), median(us[cmd]),
                "us");

    // Frames: encode each recorded payload and decode it again.
    constexpr int kFrameRounds = 20;
    std::size_t frames = 0;
    auto t0 = Clock::now();
    for (int r = 0; r < kFrameRounds; ++r) {
        risc1::server::FrameReader reader;
        for (const std::string &payload : recorded) {
            reader.feed(risc1::server::encodeFrame(
                risc1::server::FrameType::Request, 1, payload));
            if (!reader.next())
                risc1::fatal("perfbench: frame did not decode");
            ++frames;
        }
    }
    out.set("server.frame_ns", msSince(t0) * 1e6 / double(frames), "ns");

    // JSON: parse every recorded request and reply.
    double kib = 0.0;
    for (const std::string &text : recorded)
        kib += double(text.size()) / 1024.0;
    t0 = Clock::now();
    for (int r = 0; r < kFrameRounds; ++r)
        for (const std::string &text : recorded)
            risc1::parseJson(text);
    out.set("common.json_parse_us_per_kib",
            msSince(t0) * 1e3 / (kib * kFrameRounds), "us/KiB");

    // The registry's histogram record, as every command pays it.
    constexpr std::uint64_t kRecords = 1'000'000;
    risc1::obs::Histogram hist;
    Rng rng = seededRng(opts.seed, 10);
    std::vector<std::uint64_t> values(4096);
    for (std::uint64_t &v : values)
        v = rng() % 5'000'000;
    t0 = Clock::now();
    for (std::uint64_t i = 0; i < kRecords; ++i)
        hist.record(values[i % values.size()]);
    out.set("obs.record_ns", msSince(t0) * 1e6 / double(kRecords), "ns");
    if (hist.snapshot().count != kRecords)
        risc1::fatal("perfbench: histogram lost records");

    // Spool codec on session snapshots: each looping program run for a
    // run's budget in a session-sized machine.
    double writeUs = 0.0, readUs = 0.0, bytes = 0.0;
    for (const risc1::Workload &w : risc1::allWorkloads()) {
        for (const char *isa : {"risc", "vax"}) {
            auto t = risc1::target::makeTarget(isa,
                                               sessionOptions(kSessionMem));
            t->load(loopingSource(isa, w));
            t->run(kRunSteps, true);
            const auto snap = t->snapshot();
            for (int r = 0; r < 5; ++r) {
                auto a = Clock::now();
                const auto data = risc1::target::serializeSnapshot(*snap);
                writeUs += msSince(a) * 1e3;
                a = Clock::now();
                const auto back = risc1::target::deserializeSnapshot(data);
                readUs += msSince(a) * 1e3;
                bytes += double(data.size());
                if (!back)
                    risc1::fatal("perfbench: snapshot did not decode");
            }
        }
    }
    out.set("target.codec_us_per_kib.write", writeUs / (bytes / 1024.0),
            "us/KiB");
    out.set("target.codec_us_per_kib.read", readUs / (bytes / 1024.0),
            "us/KiB");
}

} // namespace perfbench
