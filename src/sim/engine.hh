/**
 * @file
 * The thread-pooled batch-simulation engine.
 *
 * Threading model: a fixed-size worker pool claims job indices from
 * one atomic counter (no work stealing, no sharding, no lock per
 * job).  Every worker owns its Machine instances outright; the only
 * shared mutable state is the counter and the pre-sized result
 * vector, where worker i writes only results[job.index].  Results are therefore insertion-ordered and
 * byte-for-byte deterministic regardless of worker count or
 * interleaving — `runBatch(jobs, {1})` and `runBatch(jobs, {N})`
 * render to identical artifacts.
 */

#ifndef RISC1_SIM_ENGINE_HH
#define RISC1_SIM_ENGINE_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/job.hh"

namespace risc1::sim {

/** Batch execution parameters. */
struct BatchOptions
{
    /** Worker threads; 0 = hardware concurrency (at least 1). */
    unsigned workers = 0;

    /**
     * Cooperative cancellation (non-owning; nullptr = never cancel).
     * Once it reads true, queued jobs are drained without running —
     * each gets JobStatus::Canceled — while already-running jobs
     * finish normally, so the batch still returns one result per job
     * and the caller can render a complete artifact.  This is how
     * riscbatch turns SIGINT/SIGTERM into a graceful drain instead of
     * dying mid-write.
     */
    const std::atomic<bool> *cancel = nullptr;
};

/**
 * Run one job to completion in the calling thread.  Never throws: any
 * failure is captured in the returned result's status/error — and, for
 * a runtime fault, the job is deterministically replayed with a tracer
 * to fill in the result's postmortem (see SimJob::postmortem).
 */
SimResult runJob(const SimJob &job, std::size_t index);

/**
 * A resident worker pool for long-lived services: the thread pool
 * riscserved multiplexes its sessions onto (docs/SERVER.md).
 *
 * Where runBatch() is a run-to-completion primitive over a finite job
 * vector, Engine accepts arbitrary tasks forever and bounds its queue
 * so producers can apply backpressure instead of queueing without
 * limit: trySubmit() refuses (returns false) when the queue is at
 * capacity, and queueDepth() lets callers shed or defer load before
 * even trying.  Tasks run FIFO, which is what gives the server's
 * quota-sliced run turns their round-robin fairness — a requeued turn
 * goes to the tail, behind every other session's pending turn.
 */
class Engine
{
  public:
    using Task = std::function<void()>;

    /**
     * Start @p workers resident threads (0 = hardware concurrency)
     * over a queue of at most @p maxQueue pending tasks.
     */
    explicit Engine(unsigned workers = 0, std::size_t maxQueue = 1024);

    /** stop()s and joins. */
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Enqueue @p task unless the queue is full or the engine is
     * stopping.  @return false (without blocking) when refused — the
     * backpressure signal.
     */
    bool trySubmit(Task task);

    /**
     * Enqueue @p task, blocking while the queue is full.
     * @throws FatalError once the engine is stopping.
     */
    void submit(Task task);

    /** Tasks queued but not yet picked up by a worker. */
    std::size_t queueDepth() const;

    /** Tasks currently executing on workers. */
    std::size_t activeTasks() const;

    /** Lifetime count of tasks run to completion (telemetry). */
    std::uint64_t tasksExecuted() const;

    /** Queue capacity (the trySubmit refusal threshold). */
    std::size_t capacity() const { return maxQueue_; }

    /** Resident worker threads (as constructed; stable across stop). */
    unsigned workers() const { return workerCount_; }

    /** Block until the queue is empty and every worker is idle. */
    void drain();

    /**
     * Graceful shutdown: refuse new tasks, run everything already
     * queued to completion, then join the workers.  Idempotent.
     */
    void stop();

  private:
    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable taskReady_;  ///< queue non-empty or stopping
    std::condition_variable spaceFree_;  ///< queue below capacity
    std::condition_variable idle_;       ///< queue empty and no active task
    std::deque<Task> tasks_;
    std::size_t maxQueue_;
    std::size_t active_ = 0;
    std::uint64_t executed_ = 0;
    bool stopping_ = false;
    unsigned workerCount_ = 0;
    std::vector<std::thread> threads_;
};

/**
 * A batch's results plus the engine metrics observed while producing
 * them.  The results are deterministic (byte-identical at any worker
 * count); the metrics are wall-clock observations and are not — see
 * obs/metrics.hh for how artifacts keep the two apart.
 */
struct BatchReport
{
    std::vector<SimResult> results;
    obs::BatchMetrics metrics;
};

/**
 * Run @p jobs on a worker pool and return one result per job, in
 * submission order.  Per-job failures are captured in the results;
 * the batch itself always completes.
 */
std::vector<SimResult> runBatch(const std::vector<SimJob> &jobs,
                                const BatchOptions &options = {});

/**
 * runBatch plus engine metrics: per-job timing in each result's
 * `metrics` member, per-worker utilization and queue-depth samples in
 * the report's BatchMetrics.
 */
BatchReport runBatchReport(const std::vector<SimJob> &jobs,
                           const BatchOptions &options = {});

/** The worker count @p options resolves to on this host. */
unsigned resolveWorkers(const BatchOptions &options);

} // namespace risc1::sim

#endif // RISC1_SIM_ENGINE_HH
