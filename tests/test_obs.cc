/**
 * Tests for the observability layer (src/obs/): the ring-buffer
 * tracer and its sinks, the JSONL step-vs-fast-path byte equality,
 * postmortem rendering after an induced fault, engine metrics, and
 * the Chrome trace-event timeline export.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "helpers.hh"
#include "obs/metrics.hh"
#include "obs/postmortem.hh"
#include "obs/timeline.hh"
#include "obs/trace.hh"
#include "sim/artifact.hh"
#include "sim/engine.hh"
#include "target/registry.hh"
#include "vax/vassembler.hh"
#include "vax/vmachine.hh"
#include "workloads/workloads.hh"

namespace risc1 {
namespace {

using obs::EventKind;
using obs::Trace;
using obs::TraceEvent;

TraceEvent
instEvent(std::uint64_t seq, std::uint32_t pc, std::string text)
{
    return {EventKind::Instruction, seq, seq, pc, std::move(text)};
}

/** A program whose third instruction faults (misaligned load). */
constexpr const char *kFaultingSource = R"(
start:  ldi   r2, 3
        ldi   r3, 7
        ldl   r4, (r2)
        halt
)";

// --- Trace ring --------------------------------------------------------

TEST(TraceRing, FillToExactCapacityKeepsEverything)
{
    Trace trace(4);
    for (std::uint64_t i = 0; i < 4; ++i)
        trace.record(instEvent(i, 0x1000 + 4 * i, cat("inst ", i)));

    EXPECT_EQ(trace.capacity(), 4u);
    EXPECT_EQ(trace.recorded(), 4u);
    const auto tail = trace.tail();
    ASSERT_EQ(tail.size(), 4u);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(tail[i], instEvent(i, 0x1000 + 4 * i, cat("inst ", i)));
}

TEST(TraceRing, WraparoundDropsOldestFirst)
{
    Trace trace(4);
    for (std::uint64_t i = 0; i < 7; ++i)
        trace.record(instEvent(i, 0x1000 + 4 * i, cat("inst ", i)));

    EXPECT_EQ(trace.recorded(), 7u);
    const auto tail = trace.tail();
    ASSERT_EQ(tail.size(), 4u);
    // Events 0..2 fell off; 3..6 remain, oldest first.
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(tail[i].seq, i + 3);
}

TEST(TraceRing, PartialFillReturnsInsertionOrder)
{
    Trace trace(8);
    trace.record(instEvent(0, 0x1000, "a"));
    trace.record(instEvent(1, 0x1004, "b"));
    const auto tail = trace.tail();
    ASSERT_EQ(tail.size(), 2u);
    EXPECT_EQ(tail[0].text, "a");
    EXPECT_EQ(tail[1].text, "b");
}

TEST(TraceRing, CapacityClampedToOne)
{
    Trace trace(0);
    EXPECT_EQ(trace.capacity(), 1u);
    trace.record(instEvent(0, 0, "x"));
    trace.record(instEvent(1, 4, "y"));
    const auto tail = trace.tail();
    ASSERT_EQ(tail.size(), 1u);
    EXPECT_EQ(tail[0].text, "y");
}

// --- Sinks -------------------------------------------------------------

TEST(TraceSinks, TextSinkMarksNonInstructionKinds)
{
    std::ostringstream os;
    obs::TextSink sink(os);
    Trace trace(2);
    trace.addSink(sink);
    trace.record(instEvent(1, 0x1000, "add r1, 1, r1"));
    trace.record({EventKind::Trap, 2, 3, 0x1004, "window overflow"});

    const std::string out = os.str();
    EXPECT_NE(out.find("add r1, 1, r1"), std::string::npos);
    EXPECT_NE(out.find("[trap] window overflow"), std::string::npos);
    EXPECT_NE(out.find("00001000"), std::string::npos);
}

TEST(TraceSinks, JsonlSinkWritesOneObjectPerLine)
{
    std::ostringstream os;
    obs::JsonlSink sink(os);
    Trace trace(2);
    trace.addSink(sink);
    trace.record(instEvent(0, 0x1000, "nop"));
    trace.record({EventKind::Interrupt, 1, 1, 0x1004, "vector 0x20"});

    std::istringstream lines(os.str());
    std::string line;
    std::vector<std::string> seen;
    while (std::getline(lines, line))
        seen.push_back(line);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0],
              "{\"kind\":\"instruction\",\"seq\":0,\"cycles\":0,"
              "\"pc\":4096,\"text\":\"nop\"}");
    EXPECT_NE(seen[1].find("\"kind\":\"interrupt\""), std::string::npos);
}

/** Trace one full run through a Target and return the JSONL text. */
std::string
jsonlOfRun(const std::string &backend, const std::string &source, bool fast,
           const target::TargetOptions &options = {})
{
    std::ostringstream os;
    obs::JsonlSink sink(os);
    Trace trace(8);
    trace.addSink(sink);

    const auto tgt = target::makeTarget(backend, options);
    tgt->load(source);
    tgt->setTrace(&trace);
    const RunOutcome out = tgt->run(10'000'000, fast);
    EXPECT_TRUE(out.halted);
    trace.flush();
    // Every executed instruction is recorded; window traps add extra
    // (non-instruction) events on top.
    EXPECT_GE(trace.recorded(), out.steps);
    return os.str();
}

// The fast tier records its trace from inside its own loop; every
// workload's event stream must match the step tier's byte for byte.
TEST(TraceSinks, JsonlIdenticalBetweenStepAndFastPathRisc)
{
    // Two windows too: nearly every call and return traps, so trap
    // events interleave with the instruction events around them.
    target::TargetOptions twoWindows;
    twoWindows.risc.windows.numWindows = 2;
    for (const target::TargetOptions &options : {target::TargetOptions{},
                                                 twoWindows}) {
        for (const Workload &w : allWorkloads()) {
            SCOPED_TRACE(cat(w.id, " with ",
                             options.risc.windows.numWindows, " windows"));
            const std::string ref =
                jsonlOfRun("risc", w.riscSource, false, options);
            const std::string fast =
                jsonlOfRun("risc", w.riscSource, true, options);
            EXPECT_FALSE(ref.empty());
            EXPECT_EQ(ref, fast);
        }
    }
    const std::string traps = jsonlOfRun(
        "risc", findWorkload("fib_rec").riscSource, true, twoWindows);
    EXPECT_NE(traps.find("window overflow"), std::string::npos);
    EXPECT_NE(traps.find("window underflow"), std::string::npos);
}

TEST(TraceSinks, JsonlIdenticalBetweenStepAndFastPathVax)
{
    for (const Workload &w : allWorkloads()) {
        SCOPED_TRACE(w.id);
        const std::string ref = jsonlOfRun("vax", w.vaxSource, false);
        const std::string fast = jsonlOfRun("vax", w.vaxSource, true);
        EXPECT_FALSE(ref.empty());
        EXPECT_EQ(ref, fast);
    }
}

// --- Machine events ----------------------------------------------------

TEST(TraceMachine, WindowTrapsAppearAsTrapEvents)
{
    const Workload &w = findWorkload("fib_rec");
    Machine m;  // default 8 windows; deep recursion overflows
    Trace trace(100'000);
    m.setTrace(&trace);
    test::loadAsm(m, w.riscSource);
    m.run();
    ASSERT_GT(m.stats().windowOverflows, 0u);

    bool sawOverflow = false, sawUnderflow = false;
    for (const auto &ev : trace.tail()) {
        if (ev.kind != EventKind::Trap)
            continue;
        if (ev.text.find("window overflow") != std::string::npos)
            sawOverflow = true;
        if (ev.text.find("window underflow") != std::string::npos)
            sawUnderflow = true;
    }
    EXPECT_TRUE(sawOverflow);
    EXPECT_TRUE(sawUnderflow);
}

// --- Postmortem --------------------------------------------------------

TEST(Postmortem, RenderedFromFaultingRun)
{
    Machine m;
    Trace trace(8);
    m.setTrace(&trace);
    test::loadAsm(m, kFaultingSource);
    EXPECT_THROW(m.run(), FatalError);

    const std::string report = obs::renderPostmortem(trace);
    EXPECT_NE(report.find("last"), std::string::npos);
    // The faulting load is the final traced instruction.
    EXPECT_NE(report.find("ldl"), std::string::npos);
}

TEST(Postmortem, EmptyTraceRendersEmpty)
{
    Trace trace(8);
    EXPECT_EQ(obs::renderPostmortem(trace), "");
}

TEST(Postmortem, EngineReplaysFaultedJob)
{
    sim::SimJob job;
    job.id = "faulty";
    job.source = kFaultingSource;

    const auto res = sim::runJob(job, 0);
    EXPECT_EQ(res.status, sim::JobStatus::Error);
    EXPECT_NE(res.error.find("misaligned"), std::string::npos);
    ASSERT_FALSE(res.postmortem.empty());
    EXPECT_NE(res.postmortem.find("ldl"), std::string::npos);
    // The instructions before the fault are part of the history
    // (`ldi rX, imm` disassembles as its canonical add-from-r0 form).
    EXPECT_NE(res.postmortem.find("add r2, r0, 3"), std::string::npos);
}

TEST(Postmortem, DisabledWhenRingDepthZero)
{
    sim::SimJob job;
    job.id = "faulty";
    job.source = kFaultingSource;
    job.postmortem = 0;

    const auto res = sim::runJob(job, 0);
    EXPECT_EQ(res.status, sim::JobStatus::Error);
    EXPECT_TRUE(res.postmortem.empty());
}

TEST(Postmortem, NotProducedForAssemblerErrors)
{
    sim::SimJob job;
    job.id = "bad-asm";
    job.source = "start: bogus r1\n";

    const auto res = sim::runJob(job, 0);
    EXPECT_EQ(res.status, sim::JobStatus::Error);
    EXPECT_TRUE(res.postmortem.empty());
}

// --- Engine metrics ----------------------------------------------------

std::vector<sim::SimJob>
smallBatch()
{
    std::vector<sim::SimJob> jobs;
    for (const char *id : {"fib_rec", "sieve", "hanoi"}) {
        const Workload &w = findWorkload(id);
        sim::SimJob job;
        job.id = id;
        job.source = w.riscSource;
        job.expected = w.expected;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

TEST(EngineMetrics, PerJobAndPerWorkerAccounting)
{
    const auto jobs = smallBatch();
    const auto report = sim::runBatchReport(jobs, {2});

    ASSERT_EQ(report.results.size(), jobs.size());
    EXPECT_EQ(report.metrics.workers, 2u);
    EXPECT_GT(report.metrics.wallMs, 0.0);
    ASSERT_EQ(report.metrics.perWorker.size(), 2u);

    std::uint64_t jobsSeen = 0;
    for (const auto &wm : report.metrics.perWorker) {
        jobsSeen += wm.jobs;
        EXPECT_GE(wm.utilization, 0.0);
        EXPECT_LE(wm.utilization, 1.0 + 1e-9);
    }
    EXPECT_EQ(jobsSeen, jobs.size());

    // One queue-depth sample per dequeue, sorted by time.
    ASSERT_EQ(report.metrics.queueDepth.size(), jobs.size());
    for (std::size_t i = 1; i < report.metrics.queueDepth.size(); ++i)
        EXPECT_GE(report.metrics.queueDepth[i].tMs,
                  report.metrics.queueDepth[i - 1].tMs);

    for (const auto &r : report.results) {
        EXPECT_EQ(r.status, sim::JobStatus::Ok) << r.id << ": " << r.error;
        EXPECT_LT(r.metrics.worker, 2u);
        EXPECT_GT(r.metrics.wallMs, 0.0);
        EXPECT_GT(r.metrics.stepsPerSec, 0.0);
        EXPECT_GE(r.metrics.queueWaitMs, 0.0);
    }
}

TEST(EngineMetrics, ResultsIdenticalToPlainRunBatch)
{
    const auto jobs = smallBatch();
    const auto report = sim::runBatchReport(jobs, {3});
    const auto plain = sim::runBatch(jobs, {1});
    // The deterministic artifact rendering (no metrics) must not see
    // any difference between the two entry points or worker counts.
    EXPECT_EQ(sim::resultSetToJson("b", report.results),
              sim::resultSetToJson("b", plain));
}

// --- Artifact gating ---------------------------------------------------

TEST(ArtifactMetrics, EmittedOnlyOnOptIn)
{
    const auto jobs = smallBatch();
    const auto report = sim::runBatchReport(jobs, {2});

    const std::string plain = sim::resultSetToJson("b", report.results);
    EXPECT_EQ(plain.find("\"metrics\""), std::string::npos);
    EXPECT_NE(plain.find("\"postmortem\""), std::string::npos);

    const sim::ArtifactOptions opts{&report.metrics};
    const std::string withMetrics =
        sim::resultSetToJson("b", report.results, opts);
    EXPECT_NE(withMetrics.find("\"metrics\""), std::string::npos);
    EXPECT_NE(withMetrics.find("\"perWorker\""), std::string::npos);
    EXPECT_NE(withMetrics.find("\"queueDepth\""), std::string::npos);
    EXPECT_NE(withMetrics.find("\"stepsPerSec\""), std::string::npos);
}

// --- Timeline export ---------------------------------------------------

TEST(Timeline, ChromeTraceStructure)
{
    std::vector<obs::TimelineSpan> spans;
    obs::TimelineSpan span;
    span.name = "job-a";
    span.lane = 1;
    span.startMs = 1.5;
    span.durMs = 2.25;
    span.args = {{"status", "ok"}, {"steps", "123"}};
    spans.push_back(span);

    const std::string doc =
        obs::chromeTraceJson("riscbatch", {"worker 0", "worker 1"}, spans);

    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(doc.find("\"process_name\""), std::string::npos);
    EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(doc.find("\"worker 1\""), std::string::npos);
    EXPECT_NE(doc.find("\"job-a\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
    // 1.5 ms -> 1500 us.
    EXPECT_NE(doc.find("1500"), std::string::npos);
    EXPECT_NE(doc.find("\"status\": \"ok\""), std::string::npos);
}

} // namespace
} // namespace risc1
