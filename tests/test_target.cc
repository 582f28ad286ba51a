/** Tests for the ISA-agnostic Target interface and its registry
 *  (src/target/) — the seam the batch engine and riscbench sit on. */

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "target/registry.hh"
#include "target/risc_target.hh"
#include "target/vax_target.hh"
#include "workloads/workloads.hh"

namespace risc1 {
namespace {

TEST(TargetRegistry, CanonicalNamesAndAliases)
{
    EXPECT_EQ(target::canonicalBackend("risc"), "risc");
    EXPECT_EQ(target::canonicalBackend("vax"), "vax");
    EXPECT_EQ(target::canonicalBackend("cisc"), "vax");

    const auto names = target::backendNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "risc");
    EXPECT_EQ(names[1], "vax");
}

TEST(TargetRegistry, UnknownBackendNamesTheValidOptions)
{
    try {
        target::canonicalBackend("pdp11");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("pdp11"), std::string::npos) << msg;
        EXPECT_NE(msg.find("risc"), std::string::npos) << msg;
        EXPECT_NE(msg.find("vax/cisc"), std::string::npos) << msg;
    }
    EXPECT_THROW(target::makeTarget("pdp11"), FatalError);
}

TEST(TargetRegistry, EmptyStatsKeepTheSchema)
{
    for (const auto name : target::backendNames()) {
        const auto stats = target::emptyStats(name);
        ASSERT_TRUE(stats) << name;
        EXPECT_EQ(stats->instructions(), 0u);
        EXPECT_EQ(stats->cycles(), 0u);
    }
    EXPECT_EQ(target::emptyStats("pdp11"), nullptr);
}

TEST(TargetRegistry, WorkloadSourcePicksThePerIsaProgram)
{
    const Workload &w = findWorkload("fib_rec");
    EXPECT_EQ(&target::workloadSource("risc", w), &w.riscSource);
    EXPECT_EQ(&target::workloadSource("vax", w), &w.vaxSource);
    EXPECT_EQ(&target::workloadSource("cisc", w), &w.vaxSource);
}

/** Every backend runs every workload to the expected checksum,
 *  through both the fast and the reference path, via the interface
 *  alone — the "adding a backend is one registry entry" contract. */
TEST(Target, AllBackendsRunAllWorkloads)
{
    for (const auto name : target::backendNames()) {
        for (const Workload &w : allWorkloads()) {
            SCOPED_TRACE(std::string(name) + "/" + w.id);
            const auto fast = target::makeTarget(name);
            fast->load(target::workloadSource(name, w));
            EXPECT_GT(fast->codeBytes(), 0u);
            const RunOutcome out = fast->run(50'000'000, true);
            EXPECT_TRUE(out.halted);
            EXPECT_TRUE(fast->halted());
            EXPECT_EQ(fast->checksum(), w.expected);

            const auto slow = target::makeTarget(name);
            slow->load(target::workloadSource(name, w));
            const RunOutcome ref = slow->run(50'000'000, false);
            EXPECT_EQ(ref.steps, out.steps);
            EXPECT_EQ(slow->checksum(), w.expected);
            EXPECT_EQ(slow->stats()->cycles(), fast->stats()->cycles());
            EXPECT_EQ(slow->stats()->instructions(),
                      fast->stats()->instructions());
        }
    }
}

/** load(source) is assemble-then-loadProgram: loading an image
 *  assembled once must run exactly like loading the source, on every
 *  backend, workload, and tier. */
TEST(Target, AssembledImageLoadMatchesSourceLoad)
{
    for (const auto name : target::backendNames()) {
        for (const Workload &w : allWorkloads()) {
            const std::string &source = target::workloadSource(name, w);
            const auto assembler = target::makeTarget(name);
            const Program image = assembler->assemble(source);
            for (const bool fast : {false, true}) {
                SCOPED_TRACE(std::string(name) + "/" + w.id +
                             (fast ? "/fast" : "/step"));
                const auto fromSource = target::makeTarget(name);
                fromSource->load(source);
                const auto fromImage = target::makeTarget(name);
                fromImage->loadProgram(image);
                EXPECT_EQ(fromImage->codeBytes(), fromSource->codeBytes());

                const RunOutcome want = fromSource->run(50'000'000, fast);
                const RunOutcome got = fromImage->run(50'000'000, fast);
                ASSERT_TRUE(got.halted);
                EXPECT_EQ(got.steps, want.steps);
                EXPECT_EQ(fromImage->checksum(), fromSource->checksum());
                EXPECT_EQ(fromImage->checksum(), w.expected);
                EXPECT_EQ(fromImage->stats()->cycles(),
                          fromSource->stats()->cycles());
                EXPECT_EQ(fromImage->stats()->instructions(),
                          fromSource->stats()->instructions());
            }
        }
    }
}

TEST(Target, StepAndStatsThroughTheInterface)
{
    const Workload &w = findWorkload("fib_rec");
    for (const auto name : target::backendNames()) {
        SCOPED_TRACE(name);
        const auto t = target::makeTarget(name);
        t->load(target::workloadSource(name, w));
        EXPECT_FALSE(t->halted());
        for (int i = 0; i < 100; ++i)
            t->step();
        const auto stats = t->stats();
        EXPECT_EQ(stats->instructions(), 100u);
        EXPECT_GT(stats->cycles(), 0u);
        EXPECT_GT(t->memStats().fetches, 0u);
    }
}

TEST(Target, SnapshotRoundTripThroughTheInterface)
{
    const Workload &w = findWorkload("sieve");
    for (const auto name : target::backendNames()) {
        SCOPED_TRACE(name);
        const auto a = target::makeTarget(name);
        a->load(target::workloadSource(name, w));
        for (int i = 0; i < 500; ++i)
            a->step();
        ASSERT_FALSE(a->halted());
        const auto snap = a->snapshot();
        EXPECT_EQ(snap->backend(), name);
        a->run(50'000'000, true);

        const auto b = target::makeTarget(name);
        b->restore(*snap);
        b->run(50'000'000, true);
        EXPECT_EQ(b->checksum(), a->checksum());
        EXPECT_EQ(b->stats()->cycles(), a->stats()->cycles());
    }
}

TEST(Target, CrossBackendRestoreIsFatal)
{
    const auto risc = target::makeTarget("risc");
    const auto vax = target::makeTarget("vax");
    EXPECT_THROW(vax->restore(*risc->snapshot()), FatalError);
    EXPECT_THROW(risc->restore(*vax->snapshot()), FatalError);
}

TEST(Target, StatsDowncastsAreChecked)
{
    const auto risc = target::makeTarget("risc");
    const auto vax = target::makeTarget("vax");
    EXPECT_NO_THROW(target::riscStats(*risc->stats()));
    EXPECT_NO_THROW(target::vaxStats(*vax->stats()));
    EXPECT_THROW(target::riscStats(*vax->stats()), FatalError);
    EXPECT_THROW(target::vaxStats(*risc->stats()), FatalError);
}

TEST(Target, WriteJsonEmitsTheBackendBlocks)
{
    const Workload &w = findWorkload("fib_rec");

    const auto risc = target::makeTarget("risc");
    risc->load(w.riscSource);
    risc->run(50'000'000, true);
    JsonWriter rw;
    rw.beginObject();
    risc->stats()->writeJson(rw);
    rw.endObject();
    const std::string riscJson = rw.str();
    EXPECT_NE(riscJson.find("\"stats\""), std::string::npos);
    EXPECT_NE(riscJson.find("\"mem\""), std::string::npos);
    EXPECT_NE(riscJson.find("\"levels\""), std::string::npos);

    const auto vax = target::makeTarget("vax");
    vax->load(w.vaxSource);
    vax->run(50'000'000, true);
    JsonWriter vw;
    vw.beginObject();
    vax->stats()->writeJson(vw);
    vw.endObject();
    const std::string vaxJson = vw.str();
    EXPECT_NE(vaxJson.find("\"stats\""), std::string::npos);
    EXPECT_NE(vaxJson.find("\"memOperandReads\""), std::string::npos);
    // The "mem" block has the same schema on every backend.
    EXPECT_NE(vaxJson.find("\"mem\""), std::string::npos);
    EXPECT_NE(vaxJson.find("\"levels\""), std::string::npos);
}

} // namespace
} // namespace risc1
