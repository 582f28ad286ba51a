#include "sim/engine.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <exception>
#include <thread>

#include "common/logging.hh"
#include "obs/postmortem.hh"
#include "obs/trace.hh"
#include "target/registry.hh"

namespace risc1::sim {

std::string_view
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok:
        return "ok";
      case JobStatus::StepLimit:
        return "stepLimit";
      case JobStatus::Error:
        return "error";
      case JobStatus::Canceled:
        return "canceled";
    }
    return "unknown";
}

unsigned
resolveWorkers(const BatchOptions &options)
{
    if (options.workers != 0)
        return options.workers;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

Engine::Engine(unsigned workers, std::size_t maxQueue)
    : maxQueue_(maxQueue != 0 ? maxQueue : 1)
{
    unsigned n = workers;
    if (n == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        n = hw != 0 ? hw : 1;
    }
    workerCount_ = n;
    threads_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        threads_.emplace_back(&Engine::workerLoop, this);
}

Engine::~Engine()
{
    stop();
}

bool
Engine::trySubmit(Task task)
{
    {
        std::lock_guard lock(mutex_);
        if (stopping_ || tasks_.size() >= maxQueue_)
            return false;
        tasks_.push_back(std::move(task));
    }
    taskReady_.notify_one();
    return true;
}

void
Engine::submit(Task task)
{
    {
        std::unique_lock lock(mutex_);
        spaceFree_.wait(lock, [this] {
            return stopping_ || tasks_.size() < maxQueue_;
        });
        if (stopping_)
            fatal("Engine: submit after stop");
        tasks_.push_back(std::move(task));
    }
    taskReady_.notify_one();
}

std::size_t
Engine::queueDepth() const
{
    std::lock_guard lock(mutex_);
    return tasks_.size();
}

std::size_t
Engine::activeTasks() const
{
    std::lock_guard lock(mutex_);
    return active_;
}

std::uint64_t
Engine::tasksExecuted() const
{
    std::lock_guard lock(mutex_);
    return executed_;
}

void
Engine::drain()
{
    std::unique_lock lock(mutex_);
    idle_.wait(lock, [this] { return tasks_.empty() && active_ == 0; });
}

void
Engine::stop()
{
    // Claim the threads under the lock so concurrent stop() calls
    // cannot join the same thread twice.
    std::vector<std::thread> toJoin;
    {
        std::lock_guard lock(mutex_);
        stopping_ = true;
        toJoin.swap(threads_);
    }
    taskReady_.notify_all();
    spaceFree_.notify_all();
    for (auto &t : toJoin)
        t.join();
}

void
Engine::workerLoop()
{
    while (true) {
        Task task;
        {
            std::unique_lock lock(mutex_);
            taskReady_.wait(lock, [this] {
                return stopping_ || !tasks_.empty();
            });
            if (tasks_.empty())
                return; // stopping, queue drained
            task = std::move(tasks_.front());
            tasks_.pop_front();
            ++active_;
        }
        spaceFree_.notify_one();
        try {
            task();
        } catch (const std::exception &e) {
            // A task must capture its own failures (the server replies
            // with an error frame); anything reaching here is a bug,
            // but a resident daemon must not die for it.
            warn(cat("Engine: task threw: ", e.what()));
        }
        {
            std::lock_guard lock(mutex_);
            --active_;
            ++executed_;
            if (tasks_.empty() && active_ == 0)
                idle_.notify_all();
        }
    }
}

namespace {

/**
 * Reconstruct the instruction history leading up to a runtime fault.
 * The simulator is deterministic, so re-running the job with a tracer
 * installed reproduces the fault exactly; only already-failed jobs pay
 * the replay (and the slow path it forces).
 */
std::string
replayPostmortem(const SimJob &job, const std::string &backend)
{
    obs::Trace trace(job.postmortem);
    try {
        const auto tgt = target::makeTarget(backend, job.config);
        if (job.base)
            tgt->restore(*job.base);
        else
            tgt->load(job.source);
        tgt->setTrace(&trace);
        tgt->run(job.maxSteps, job.fast);
    } catch (const std::exception &) {
        // The fault we came here to document.
    }
    return obs::renderPostmortem(trace);
}

/** Copy the job's per-level cache counters into its metrics block so
 *  metrics consumers see cache pressure next to the wall-clock data. */
void
fillMemLevels(obs::JobMetrics &jm, const target::TargetStats &stats)
{
    const mem::HierarchyStats &h = stats.memHierarchy();
    const auto add = [&jm](const char *name,
                           const std::optional<mem::LevelStats> &s) {
        if (s)
            jm.memLevels.push_back(
                {name, s->accesses(), s->misses, s->penaltyCycles});
    };
    add("l1i", h.l1i);
    add("l1d", h.l1d);
    add("l2", h.l2);
}

/** Calling thread's CPU time in milliseconds (0 where unsupported). */
double
threadCpuMs()
{
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
        return double(ts.tv_sec) * 1e3 + double(ts.tv_nsec) / 1e6;
#endif
    return 0.0;
}

} // namespace

SimResult
runJob(const SimJob &job, std::size_t index)
{
    SimResult res;
    res.index = index;
    res.id = job.id;
    res.backend = job.backend;
    bool running = false;
    try {
        res.backend = target::canonicalBackend(job.backend);
        const auto tgt = target::makeTarget(res.backend, job.config);

        if (job.base) {
            // O(pages touched) under the copy-on-write page store:
            // every warm-started job aliases the snapshot's pages and
            // pays content copies only for pages it later writes.
            tgt->restore(*job.base);
        } else {
            tgt->load(job.source);
            res.codeBytes = tgt->codeBytes();
        }

        running = true;
        res.steps = tgt->run(job.maxSteps, job.fast).steps;
        running = false;
        res.checksum = tgt->checksum();
        res.stats = tgt->stats();
        res.mem = tgt->memStats();

        if (!tgt->halted()) {
            res.status = JobStatus::StepLimit;
            res.error = cat("program did not halt within ", job.maxSteps,
                            " steps");
        } else if (job.expected && res.checksum != *job.expected) {
            res.status = JobStatus::Error;
            res.error = cat("checksum ", res.checksum, " != expected ",
                            *job.expected);
        }
    } catch (const std::exception &e) {
        res.status = JobStatus::Error;
        res.error = e.what();
        // A fault mid-run (not an assembler/load error) has execution
        // history worth reporting: replay deterministically with a
        // tracer and keep the ring tail.
        if (running && job.postmortem > 0)
            res.postmortem = replayPostmortem(job, res.backend);
    }
    if (!res.stats)
        res.stats = target::emptyStats(res.backend);
    if (res.stats)
        fillMemLevels(res.metrics, *res.stats);
    return res;
}

BatchReport
runBatchReport(const std::vector<SimJob> &jobs, const BatchOptions &options)
{
    using clock = std::chrono::steady_clock;
    const auto msSince = [](clock::time_point from, clock::time_point to) {
        return std::chrono::duration<double, std::milli>(to - from).count();
    };

    BatchReport report;
    report.results.resize(jobs.size());
    report.metrics.workers = 1;
    if (jobs.empty())
        return report;

    // Every job is known up front, so a worker claims the next index
    // with one atomic increment; no lock is taken per job.
    std::atomic<std::size_t> next{0};

    const unsigned workers =
        std::min<std::size_t>(resolveWorkers(options), jobs.size());
    report.metrics.workers = workers;
    report.metrics.perWorker.resize(workers);

    std::mutex sampleMutex;
    auto &samples = report.metrics.queueDepth;
    samples.reserve(jobs.size());

    const auto batchStart = clock::now();
    auto drain = [&](unsigned lane) {
        auto &wm = report.metrics.perWorker[lane];
        for (std::size_t index = next++; index < jobs.size();
             index = next++) {
            const auto claimed = clock::now();
            // Jobs not yet claimed once this one is.
            const std::uint64_t depth = jobs.size() - 1 - index;
            {
                std::lock_guard lock(sampleMutex);
                samples.push_back({msSince(batchStart, claimed), depth});
            }

            const double cpu0 = threadCpuMs();
            auto &res = report.results[index];
            if (options.cancel &&
                options.cancel->load(std::memory_order_relaxed)) {
                // Drain without running: the batch was interrupted, so
                // every not-yet-started job reports Canceled while the
                // jobs already on workers finish normally.
                res.index = index;
                res.id = jobs[index].id;
                res.backend = jobs[index].backend;
                res.status = JobStatus::Canceled;
                res.error = "canceled before start (batch interrupted)";
                if (!res.stats)
                    res.stats = target::emptyStats(res.backend);
                continue;
            }
            res = runJob(jobs[index], index);
            const auto done = clock::now();

            auto &jm = res.metrics;
            jm.worker = lane;
            jm.queueWaitMs = msSince(batchStart, claimed);
            jm.startMs = jm.queueWaitMs;
            jm.wallMs = msSince(claimed, done);
            jm.cpuMs = std::max(0.0, threadCpuMs() - cpu0);
            if (jm.wallMs > 0.0)
                jm.stepsPerSec = double(res.steps) / (jm.wallMs / 1e3);

            wm.jobs += 1;
            wm.busyMs += jm.wallMs;
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned i = 1; i < workers; ++i)
        pool.emplace_back(drain, i);
    drain(0); // the calling thread is worker 0
    for (auto &t : pool)
        t.join();

    report.metrics.wallMs = msSince(batchStart, clock::now());
    for (auto &wm : report.metrics.perWorker)
        if (report.metrics.wallMs > 0.0)
            wm.utilization = wm.busyMs / report.metrics.wallMs;
    std::sort(samples.begin(), samples.end(),
              [](const obs::QueueSample &a, const obs::QueueSample &b) {
                  return a.tMs < b.tMs;
              });
    return report;
}

std::vector<SimResult>
runBatch(const std::vector<SimJob> &jobs, const BatchOptions &options)
{
    return runBatchReport(jobs, options).results;
}

} // namespace risc1::sim
