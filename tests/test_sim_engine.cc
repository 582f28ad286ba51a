/** Tests for the parallel batch-simulation engine (src/sim/). */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "sim/artifact.hh"
#include "sim/engine.hh"
#include "sim/jobfile.hh"
#include "target/machine_target.hh"
#include "vax/vassembler.hh"
#include "workloads/workloads.hh"

namespace risc1 {
namespace {

using sim::JobStatus;
using sim::SimJob;

std::string
statsJson(const RunStats &stats)
{
    JsonWriter w;
    stats.writeJson(w);
    return w.str();
}

/** The RISC counters of a result, checked. */
const RunStats &
riscRun(const sim::SimResult &result)
{
    return target::riscStats(*result.stats).run;
}

/** A mixed job set exercising both backends and several configs. */
std::vector<SimJob>
mixedJobs()
{
    std::vector<SimJob> jobs;
    for (const char *id : {"fib_rec", "sieve", "hanoi"}) {
        const Workload &w = findWorkload(id);

        SimJob plain;
        plain.id = std::string(id) + "/risc";
        plain.source = w.riscSource;
        plain.expected = w.expected;
        jobs.push_back(std::move(plain));

        SimJob gold;
        gold.id = std::string(id) + "/gold";
        gold.source = w.riscSource;
        gold.config.risc.windows = WindowConfig::gold();
        gold.expected = w.expected;
        jobs.push_back(std::move(gold));

        SimJob cached;
        cached.id = std::string(id) + "/icache";
        cached.source = w.riscSource;
        cached.config.risc.caches.l1i = mem::LevelConfig{256, 16, 4};
        cached.expected = w.expected;
        jobs.push_back(std::move(cached));

        SimJob vax;
        vax.id = std::string(id) + "/cisc";
        vax.backend = "vax";
        vax.source = w.vaxSource;
        vax.expected = w.expected;
        jobs.push_back(std::move(vax));
    }
    return jobs;
}

TEST(SimEngine, ResultsAreInsertionOrdered)
{
    const auto jobs = mixedJobs();
    const auto results = sim::runBatch(jobs, {4});
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].index, i);
        EXPECT_EQ(results[i].id, jobs[i].id);
        EXPECT_EQ(results[i].status, JobStatus::Ok) << results[i].error;
    }
}

TEST(SimEngine, DeterministicAcrossWorkerCounts)
{
    // The engine's core contract (and the reason the ported benches
    // can trust it): worker count must not leak into the results.
    const auto jobs = mixedJobs();
    const auto one = sim::runBatch(jobs, {1});
    const auto four = sim::runBatch(jobs, {4});
    const auto seven = sim::runBatch(jobs, {7});
    EXPECT_EQ(sim::resultSetToJson("t", one),
              sim::resultSetToJson("t", four));
    EXPECT_EQ(sim::resultSetToJson("t", one),
              sim::resultSetToJson("t", seven));
}

TEST(SimEngine, MatchesDirectWorkloadRun)
{
    const Workload &w = findWorkload("fib_rec");
    const RiscRun direct = runRiscWorkload(w);

    SimJob job;
    job.id = "fib";
    job.source = w.riscSource;
    job.expected = w.expected;
    const auto results = sim::runBatch({job}, {2});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::Ok) << results[0].error;
    EXPECT_EQ(statsJson(riscRun(results[0])), statsJson(direct.stats));
    EXPECT_EQ(results[0].checksum, w.expected);
    EXPECT_EQ(results[0].codeBytes, direct.codeBytes);
}

TEST(SimEngine, PerJobFailuresDoNotPoisonTheBatch)
{
    std::vector<SimJob> jobs(3);

    jobs[0].id = "bad-assembly";
    jobs[0].source = "this is not assembly !!!";

    jobs[1].id = "runaway";
    jobs[1].source = R"(
start:  clr   r1
loop:   inc   r1
        bra   loop
        nop
        halt
)";
    jobs[1].maxSteps = 100;

    const Workload &w = findWorkload("sieve");
    jobs[2].id = "good";
    jobs[2].source = w.riscSource;
    jobs[2].expected = w.expected;

    const auto results = sim::runBatch(jobs, {3});
    ASSERT_EQ(results.size(), 3u);

    EXPECT_EQ(results[0].status, JobStatus::Error);
    EXPECT_FALSE(results[0].error.empty());
    // A failed job still carries its backend's (all-zero) stats so the
    // artifact schema never loses blocks.
    ASSERT_TRUE(results[0].stats);
    EXPECT_EQ(results[0].stats->instructions(), 0u);

    EXPECT_EQ(results[1].status, JobStatus::StepLimit);
    EXPECT_EQ(results[1].steps, 100u);
    EXPECT_GT(results[1].stats->instructions(), 0u);

    EXPECT_EQ(results[2].status, JobStatus::Ok) << results[2].error;
    EXPECT_EQ(results[2].checksum, w.expected);
}

TEST(SimEngine, ChecksumMismatchIsAnError)
{
    const Workload &w = findWorkload("sieve");
    SimJob job;
    job.id = "wrong-checksum";
    job.source = w.riscSource;
    job.expected = w.expected + 1;
    const auto results = sim::runBatch({job});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::Error);
    EXPECT_NE(results[0].error.find("checksum"), std::string::npos);
}

TEST(SimEngine, UnknownBackendNamesTheValidOptions)
{
    SimJob job;
    job.id = "bogus";
    job.backend = "mips";
    const auto results = sim::runBatch({job});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::Error);
    EXPECT_NE(results[0].error.find("mips"), std::string::npos);
    EXPECT_NE(results[0].error.find("risc"), std::string::npos);
    EXPECT_NE(results[0].error.find("vax"), std::string::npos);
}

TEST(SimEngine, SnapshotForkMatchesFreshRun)
{
    const Workload &w = findWorkload("fib_rec");

    SimJob fresh;
    fresh.id = "fresh";
    fresh.source = w.riscSource;
    fresh.expected = w.expected;

    Machine loaded;
    loaded.loadProgram(assembleRisc(w.riscSource));
    SimJob forked;
    forked.id = "forked";
    forked.base =
        std::make_shared<target::RiscTargetSnapshot>(loaded.snapshot());
    forked.expected = w.expected;

    // Fork the same prologue onto a cache-equipped sweep point too.
    SimJob forkedCached = forked;
    forkedCached.id = "forked-icache";
    forkedCached.config.risc.caches.l1i = mem::LevelConfig{512, 16, 4};

    const auto results =
        sim::runBatch({fresh, forked, forkedCached}, {2});
    for (const auto &r : results)
        ASSERT_EQ(r.status, JobStatus::Ok) << r.id << ": " << r.error;

    // Architectural results agree everywhere; the cached fork only
    // adds i-cache miss cycles.
    EXPECT_EQ(statsJson(riscRun(results[0])),
              statsJson(riscRun(results[1])));
    EXPECT_EQ(results[2].checksum, w.expected);
    EXPECT_EQ(riscRun(results[2]).instructions,
              riscRun(results[0]).instructions);
    ASSERT_TRUE(target::riscStats(*results[2].stats).caches.l1i);
    EXPECT_GT(
        target::riscStats(*results[2].stats).caches.l1i->accesses(),
        0u);
}

TEST(SimEngine, VaxSnapshotForkMatchesFreshRun)
{
    const Workload &w = findWorkload("fib_rec");

    SimJob fresh;
    fresh.id = "fresh";
    fresh.backend = "vax";
    fresh.source = w.vaxSource;
    fresh.expected = w.expected;

    VaxMachine loaded;
    loaded.loadProgram(assembleVax(w.vaxSource));
    SimJob forked;
    forked.id = "forked";
    forked.backend = "cisc"; // alias resolves to the same backend
    forked.base =
        std::make_shared<target::VaxTargetSnapshot>(loaded.snapshot());
    forked.expected = w.expected;

    const auto results = sim::runBatch({fresh, forked}, {2});
    for (const auto &r : results)
        ASSERT_EQ(r.status, JobStatus::Ok) << r.id << ": " << r.error;

    EXPECT_EQ(results[1].backend, "vax");
    EXPECT_EQ(target::vaxStats(*results[0].stats).vax,
              target::vaxStats(*results[1].stats).vax);
}

TEST(SimEngine, CrossBackendSnapshotIsRejected)
{
    Machine loaded;
    SimJob job;
    job.id = "vax-fork-of-risc-snapshot";
    job.backend = "vax";
    job.base =
        std::make_shared<target::RiscTargetSnapshot>(loaded.snapshot());
    const auto results = sim::runBatch({job});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::Error);
    EXPECT_NE(results[0].error.find("risc"), std::string::npos);
}

TEST(SimEngine, ArtifactRendersAllJobs)
{
    const auto jobs = mixedJobs();
    const auto results = sim::runBatch(jobs);
    const std::string json = sim::resultSetToJson("unit", results);
    EXPECT_NE(json.find("\"batch\": \"unit\""), std::string::npos);
    for (const auto &job : jobs)
        EXPECT_NE(json.find("\"" + job.id + "\""), std::string::npos);
    // Spot-check one structured field name from each stats block.
    EXPECT_NE(json.find("\"windowOverflows\""), std::string::npos);
    EXPECT_NE(json.find("\"memOperandReads\""), std::string::npos);
    // Baseline jobs are reported under the canonical backend name.
    EXPECT_NE(json.find("\"machine\": \"vax\""), std::string::npos);
    EXPECT_EQ(json.find("\"machine\": \"cisc\""), std::string::npos);
}

TEST(JobFile, ParsesSectionsKeysAndDefaults)
{
    const auto jobs = sim::parseJobText(R"(
# top comment
[job]
id       = a
workload = fib_rec
windows  = 6

[job]
workload = sieve     # id defaults to job1
machine  = cisc

[job]
id       = c
workload = hanoi
windowed = false
l1i      = 1024,16,4
maxsteps = 12345
expect   = 7
)");
    ASSERT_EQ(jobs.size(), 3u);

    EXPECT_EQ(jobs[0].id, "a");
    EXPECT_EQ(jobs[0].config.risc.windows.numWindows, 6u);
    EXPECT_EQ(jobs[0].expected, findWorkload("fib_rec").expected);

    EXPECT_EQ(jobs[1].id, "job1");
    EXPECT_EQ(jobs[1].backend, "vax"); // legacy "cisc" canonicalized
    EXPECT_EQ(jobs[1].expected, findWorkload("sieve").expected);

    EXPECT_EQ(jobs[2].id, "c");
    EXPECT_FALSE(jobs[2].config.risc.windowedCalls);
    ASSERT_TRUE(jobs[2].config.risc.caches.l1i.has_value());
    EXPECT_EQ(jobs[2].config.risc.caches.l1i->sizeBytes, 1024u);
    EXPECT_EQ(jobs[2].maxSteps, 12345u);
    EXPECT_EQ(jobs[2].expected, 7u);
}

TEST(JobFile, RejectsMalformedInput)
{
    EXPECT_THROW(sim::parseJobText(""), FatalError);
    EXPECT_THROW(sim::parseJobText("key = value\n"), FatalError);
    EXPECT_THROW(sim::parseJobText("[job]\nworkload = fib_rec\n"
                                   "file = x.s\n"),
                 FatalError);
    EXPECT_THROW(sim::parseJobText("[job]\nnope = 1\n"), FatalError);
    EXPECT_THROW(sim::parseJobText("[job]\nworkload = fib_rec\n"
                                   "windows = banana\n"),
                 FatalError);
    EXPECT_THROW(sim::parseJobText("[job]\nworkload = no_such\n"),
                 FatalError);
}

TEST(JobFile, ProgramResolutionErrorsNameTheOffendingKeyLine)
{
    // The [job] header sits on line 1; the bad keys sit further down.
    // The error must point at the key's own line, not the header's.
    const auto messageFor = [](const std::string &text) {
        try {
            sim::parseJobText(text);
        } catch (const FatalError &e) {
            return std::string(e.what());
        }
        ADD_FAILURE() << "expected FatalError for: " << text;
        return std::string();
    };

    const std::string badPath = messageFor("[job]\n"
                                           "id = a\n"
                                           "maxsteps = 10\n"
                                           "file = no/such/prog.s\n");
    EXPECT_NE(badPath.find("line 4"), std::string::npos) << badPath;
    EXPECT_NE(badPath.find("no/such/prog.s"), std::string::npos);

    const std::string badWorkload = messageFor("[job]\n"
                                               "\n"
                                               "workload = no_such\n");
    EXPECT_NE(badWorkload.find("line 3"), std::string::npos)
        << badWorkload;
    EXPECT_NE(badWorkload.find("no_such"), std::string::npos);
}

TEST(Engine, RunsSubmittedTasks)
{
    sim::Engine engine(2, 16);
    std::atomic<int> ran{0};
    for (int i = 0; i < 20; ++i)
        engine.submit([&] { ++ran; });
    engine.drain();
    EXPECT_EQ(ran.load(), 20);
    EXPECT_EQ(engine.queueDepth(), 0u);
    EXPECT_EQ(engine.workers(), 2u);
}

TEST(Engine, TrySubmitRefusesWhenFull)
{
    // One worker, capacity 2.  Block the worker on a latch, fill the
    // queue, and the next trySubmit must refuse without blocking — the
    // signal a producer sheds load on.
    sim::Engine engine(1, 2);
    std::mutex m;
    std::condition_variable cv;
    bool release = false;
    engine.submit([&] {
        std::unique_lock lock(m);
        cv.wait(lock, [&] { return release; });
    });
    // The worker may not have dequeued the blocker yet; wait until the
    // queue drains to it before filling the queue to capacity.
    while (engine.queueDepth() > 0)
        std::this_thread::yield();

    EXPECT_TRUE(engine.trySubmit([] {}));
    EXPECT_TRUE(engine.trySubmit([] {}));
    EXPECT_EQ(engine.queueDepth(), 2u);
    EXPECT_FALSE(engine.trySubmit([] {}))
        << "queue at capacity must refuse, not block";

    {
        std::lock_guard lock(m);
        release = true;
    }
    cv.notify_all();
    engine.drain();
    EXPECT_EQ(engine.queueDepth(), 0u);
    EXPECT_TRUE(engine.trySubmit([] {})) << "capacity freed after drain";
    engine.drain();
}

TEST(Engine, SubmitBlocksUntilSpaceFrees)
{
    sim::Engine engine(1, 1);
    std::mutex m;
    std::condition_variable cv;
    bool release = false;
    engine.submit([&] {
        std::unique_lock lock(m);
        cv.wait(lock, [&] { return release; });
    });
    while (engine.queueDepth() > 0)
        std::this_thread::yield();
    engine.submit([] {}); // fills the queue

    std::atomic<bool> secondQueued{false};
    std::thread producer([&] {
        engine.submit([] {}); // must block until the latch opens
        secondQueued = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(secondQueued.load());

    {
        std::lock_guard lock(m);
        release = true;
    }
    cv.notify_all();
    producer.join();
    EXPECT_TRUE(secondQueued.load());
    engine.drain();
}

TEST(Engine, StopRunsEverythingAlreadyQueued)
{
    std::atomic<int> ran{0};
    {
        sim::Engine engine(1, 64);
        for (int i = 0; i < 10; ++i)
            engine.submit([&] { ++ran; });
        engine.stop();
        EXPECT_EQ(ran.load(), 10)
            << "graceful stop must drain the queue, not drop it";
        EXPECT_FALSE(engine.trySubmit([&] { ++ran; }))
            << "stopped engine refuses new tasks";
        EXPECT_THROW(engine.submit([] {}), FatalError);
        engine.stop(); // idempotent
    }
    EXPECT_EQ(ran.load(), 10);
}

TEST(Engine, TaskExceptionsDoNotKillWorkers)
{
    sim::Engine engine(1, 16);
    std::atomic<int> ran{0};
    engine.submit([] { throw std::runtime_error("task failure"); });
    engine.submit([&] { ++ran; });
    engine.drain();
    EXPECT_EQ(ran.load(), 1)
        << "the worker must survive a throwing task";
}

TEST(SimEngine, CancelDrainsQueuedJobsGracefully)
{
    // With cancel pre-set, every job reports Canceled (none started)
    // and the batch still yields one result per job, in order — the
    // contract riscbatch's SIGINT/SIGTERM handler relies on.
    const auto jobs = mixedJobs();
    std::atomic<bool> cancel{true};
    sim::BatchOptions options;
    options.workers = 2;
    options.cancel = &cancel;
    const auto results = sim::runBatch(jobs, options);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].index, i);
        EXPECT_EQ(results[i].status, JobStatus::Canceled);
        ASSERT_TRUE(results[i].stats) << "schema keeps stats blocks";
    }
    const std::string json = sim::resultSetToJson("canceled", results);
    EXPECT_NE(json.find("\"canceled\""), std::string::npos);
}

TEST(JobFile, UnknownNamesReportTheValidOptions)
{
    // Unknown machine names and unknown keys both fail with one-line
    // messages that name the valid choices.
    try {
        sim::parseJobText("[job]\nworkload = fib_rec\n"
                          "machine = mips\n");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("mips"), std::string::npos) << msg;
        EXPECT_NE(msg.find("risc"), std::string::npos) << msg;
        EXPECT_NE(msg.find("vax/cisc"), std::string::npos) << msg;
    }
    try {
        sim::parseJobText("[job]\nworkloud = fib_rec\n");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("workloud"), std::string::npos) << msg;
        EXPECT_NE(msg.find("workload"), std::string::npos) << msg;
        EXPECT_NE(msg.find("maxsteps"), std::string::npos) << msg;
    }
    // The legacy flat-cache keys are gone: `l1i`/`l1d` configure the
    // same levels.
    for (const char *key : {"icache", "dcache"}) {
        try {
            sim::parseJobText(cat("[job]\nworkload = fib_rec\n", key,
                                  " = 256,16,4\n"));
            FAIL() << "expected FatalError for " << key;
        } catch (const FatalError &e) {
            EXPECT_EQ(std::string(e.what()),
                      cat("job file line 3: unknown key '", key,
                          "' (valid: machine, id, workload, file, "
                          "windows, windowed, l1i, l1d, l2, maxsteps, "
                          "fast, expect)"));
        }
    }
}

} // namespace
} // namespace risc1
