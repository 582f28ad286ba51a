#include "server/session.hh"

#include <filesystem>

#include "common/logging.hh"
#include "target/registry.hh"
#include "target/snapshot_io.hh"

namespace risc1::server {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t
nsSince(Clock::time_point from)
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - from)
            .count());
}

} // namespace

SessionManager::SessionManager(std::string spoolDir,
                               std::size_t maxSessions,
                               obs::Registry *registry,
                               obs::EventLog *events)
    : spoolDir_(std::move(spoolDir)),
      maxSessions_(maxSessions),
      events_(events),
      evictNs_(registry ? &registry->histogram("session.evict.ns")
                        : nullptr),
      restoreNs_(registry ? &registry->histogram("session.restore.ns")
                          : nullptr)
{
}

std::shared_ptr<Session>
SessionManager::create(SessionConfig cfg)
{
    std::lock_guard lock(mutex_);
    if (sessions_.size() >= maxSessions_)
        fatal(cat("session limit reached (", maxSessions_,
                  "); destroy sessions or raise --max-sessions"));
    const std::string id = cat("s", nextSessionId_++);
    auto session = std::make_shared<Session>(id, std::move(cfg));
    session->lastActive = std::chrono::steady_clock::now();
    sessions_.emplace(id, session);
    ++created_;
    if (events_ && events_->enabled(obs::EventLevel::Info))
        events_->emit(obs::EventLevel::Info, "session.create",
                      obs::EventFields{}
                          .field("session", id)
                          .field("backend", session->cfg.backend));
    return session;
}

std::shared_ptr<Session>
SessionManager::find(const std::string &id) const
{
    std::lock_guard lock(mutex_);
    const auto it = sessions_.find(id);
    return it != sessions_.end() ? it->second : nullptr;
}

void
SessionManager::destroy(Session &session)
{
    session.destroyed = true;
    session.target.reset();
    if (!session.spoolPath.empty()) {
        std::error_code ec; // best-effort; a stale file is harmless
        std::filesystem::remove(session.spoolPath, ec);
        session.spoolPath.clear();
    }
    {
        std::lock_guard lock(mutex_);
        sessions_.erase(session.id);
        ++destroyedCount_;
    }
    if (events_ && events_->enabled(obs::EventLevel::Info))
        events_->emit(obs::EventLevel::Info, "session.destroy",
                      obs::EventFields{}.field("session", session.id));
}

void
SessionManager::evict(Session &session)
{
    if (!session.target)
        return;
    const auto t0 = Clock::now();
    std::filesystem::create_directories(spoolDir_);
    const std::string path =
        (std::filesystem::path(spoolDir_) / (session.id + ".snap"))
            .string();
    target::writeSnapshotFile(path, *session.target->snapshot());
    session.target.reset();
    session.spoolPath = path;
    ++session.metrics.evictions;
    const std::uint64_t ns = nsSince(t0);
    if (evictNs_)
        evictNs_->record(ns);
    if (events_ && events_->enabled(obs::EventLevel::Info))
        events_->emit(obs::EventLevel::Info, "session.evict",
                      obs::EventFields{}
                          .field("session", session.id)
                          .field("ns", ns));
    std::lock_guard lock(mutex_);
    ++evictions_;
}

void
SessionManager::ensureResident(Session &session)
{
    if (session.target)
        return;
    if (session.spoolPath.empty())
        panic(cat("session ", session.id,
                  " has neither a live target nor a spool file"));
    const auto t0 = Clock::now();
    const auto snap = target::readSnapshotFile(session.spoolPath);
    auto target =
        target::makeTarget(session.cfg.backend, session.cfg.options);
    target->restore(*snap);
    session.target = std::move(target);
    std::error_code ec;
    std::filesystem::remove(session.spoolPath, ec);
    session.spoolPath.clear();
    ++session.metrics.restores;
    const std::uint64_t ns = nsSince(t0);
    if (restoreNs_)
        restoreNs_->record(ns);
    if (events_ && events_->enabled(obs::EventLevel::Info))
        events_->emit(obs::EventLevel::Info, "session.restore",
                      obs::EventFields{}
                          .field("session", session.id)
                          .field("ns", ns));
    std::lock_guard lock(mutex_);
    ++restores_;
}

std::string
SessionManager::storeSnapshot(StoredSnapshot snapshot)
{
    std::lock_guard lock(mutex_);
    const std::string id = cat("k", nextSnapshotId_++);
    snapshots_.emplace(id, std::move(snapshot));
    return id;
}

std::optional<StoredSnapshot>
SessionManager::findSnapshot(const std::string &id) const
{
    std::lock_guard lock(mutex_);
    const auto it = snapshots_.find(id);
    if (it == snapshots_.end())
        return std::nullopt;
    return it->second;
}

bool
SessionManager::dropSnapshot(const std::string &id)
{
    std::lock_guard lock(mutex_);
    return snapshots_.erase(id) != 0;
}

std::vector<std::shared_ptr<Session>>
SessionManager::all() const
{
    std::lock_guard lock(mutex_);
    std::vector<std::shared_ptr<Session>> out;
    out.reserve(sessions_.size());
    for (const auto &[id, session] : sessions_)
        out.push_back(session);
    return out;
}

SessionCounts
SessionManager::counts() const
{
    // Copy the table under the map lock, then inspect sessions without
    // it so counts() never holds both locks at once.
    std::vector<std::shared_ptr<Session>> sessions = all();
    SessionCounts counts;
    counts.sessions = sessions.size();
    for (const auto &session : sessions) {
        std::lock_guard sessionLock(session->mutex);
        if (session->target) {
            ++counts.resident;
            const MemoryUsage usage = session->target->memUsage();
            counts.residentBytes += usage.residentBytes;
            counts.sharedBytes += usage.sharedBytes;
            counts.decodeBytes += usage.decodeBytes;
        } else {
            ++counts.evicted;
        }
    }
    std::lock_guard lock(mutex_);
    counts.created = created_;
    counts.destroyed = destroyedCount_;
    counts.evictions = evictions_;
    counts.restores = restores_;
    counts.snapshots = snapshots_.size();
    return counts;
}

} // namespace risc1::server
