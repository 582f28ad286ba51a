/**
 * Binary snapshot codec (target/snapshot_io.hh): serialize/deserialize
 * round-trips must reproduce the machine state exactly — the codec
 * carries riscserved's eviction spool files, so a lossy field would
 * silently corrupt evicted sessions.  Corrupt and truncated inputs
 * must fail with FatalError, never crash.
 */

#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "mem/config.hh"
#include "target/machine_target.hh"
#include "target/registry.hh"
#include "target/snapshot_io.hh"
#include "workloads/workloads.hh"

using namespace risc1;
using namespace risc1::target;

namespace {

/** A target mid-run on @p backend, with a cache hierarchy attached. */
std::unique_ptr<Target>
makeBusyTarget(const std::string &backend, std::uint64_t steps)
{
    TargetOptions options;
    options.risc.caches.l1i =
        mem::parseLevelSpec("1024,16,8", "test l1i");
    options.risc.caches.l1d =
        mem::parseLevelSpec("1024,16,8,wb", "test l1d");
    options.vax.caches = options.risc.caches;
    auto target = makeTarget(backend, options);
    target->load(workloadSource(backend, findWorkload("fib_rec")));
    target->run(steps, /*fast=*/true);
    return target;
}

} // namespace

TEST(SnapshotIo, RoundTripsRiscExactly)
{
    const auto target = makeBusyTarget("risc", 5000);
    const auto snap = target->snapshot();
    const std::vector<std::uint8_t> bytes = serializeSnapshot(*snap);
    const auto decoded = deserializeSnapshot(bytes);

    const auto *orig = dynamic_cast<const RiscTargetSnapshot *>(snap.get());
    const auto *back =
        dynamic_cast<const RiscTargetSnapshot *>(decoded.get());
    ASSERT_NE(orig, nullptr);
    ASSERT_NE(back, nullptr);
    EXPECT_TRUE(orig->machineSnapshot() == back->machineSnapshot());
}

TEST(SnapshotIo, RoundTripsVaxExactly)
{
    const auto target = makeBusyTarget("vax", 5000);
    const auto snap = target->snapshot();
    const auto decoded = deserializeSnapshot(serializeSnapshot(*snap));

    const auto *orig = dynamic_cast<const VaxTargetSnapshot *>(snap.get());
    const auto *back =
        dynamic_cast<const VaxTargetSnapshot *>(decoded.get());
    ASSERT_NE(orig, nullptr);
    ASSERT_NE(back, nullptr);
    EXPECT_TRUE(orig->machineSnapshot() == back->machineSnapshot());
}

TEST(SnapshotIo, RestoredTargetContinuesIdentically)
{
    // Serialize mid-run, restore into a fresh target, and finish both:
    // the decoded machine must be indistinguishable from the original.
    for (const char *backend : {"risc", "vax"}) {
        auto a = makeBusyTarget(backend, 3000);
        const auto decoded =
            deserializeSnapshot(serializeSnapshot(*a->snapshot()));
        auto b = makeTarget(backend, TargetOptions{});
        b->restore(*decoded);

        a->run(1'000'000'000, true);
        b->run(1'000'000'000, true);
        EXPECT_TRUE(a->halted()) << backend;
        EXPECT_TRUE(b->halted()) << backend;
        EXPECT_EQ(a->checksum(), b->checksum()) << backend;
        EXPECT_EQ(a->pc(), b->pc()) << backend;
    }
}

TEST(SnapshotIo, FileRoundTrip)
{
    const auto target = makeBusyTarget("risc", 2000);
    const std::string path = "snapshot_io_test.snap";
    writeSnapshotFile(path, *target->snapshot());
    const auto decoded = readSnapshotFile(path);
    EXPECT_EQ(decoded->backend(), "risc");
    std::filesystem::remove(path);
}

TEST(SnapshotIo, RejectsBadMagicAndVersion)
{
    const auto target = makeBusyTarget("risc", 100);
    std::vector<std::uint8_t> bytes =
        serializeSnapshot(*target->snapshot());
    {
        auto bad = bytes;
        bad[0] ^= 0xff;
        EXPECT_THROW(deserializeSnapshot(bad), FatalError);
    }
    {
        auto bad = bytes;
        bad[4] = 0x7f; // version byte
        EXPECT_THROW(deserializeSnapshot(bad), FatalError);
    }
}

TEST(SnapshotIo, RejectsTruncation)
{
    const auto target = makeBusyTarget("vax", 100);
    const std::vector<std::uint8_t> bytes =
        serializeSnapshot(*target->snapshot());
    // Every proper prefix must fail cleanly (sampled for speed).
    for (std::size_t keep = 0; keep < bytes.size();
         keep += 1 + bytes.size() / 97) {
        const std::vector<std::uint8_t> cut(bytes.begin(),
                                            bytes.begin() + keep);
        EXPECT_THROW(deserializeSnapshot(cut), FatalError) << keep;
    }
    // Trailing garbage is equally invalid.
    auto extra = bytes;
    extra.push_back(0);
    EXPECT_THROW(deserializeSnapshot(extra), FatalError);
}

TEST(SnapshotIo, FuzzedCorruptionNeverCrashes)
{
    const auto target = makeBusyTarget("risc", 500);
    const std::vector<std::uint8_t> bytes =
        serializeSnapshot(*target->snapshot());
    Rng rng(0xdec0de);
    for (int iter = 0; iter < 300; ++iter) {
        auto bad = bytes;
        const std::size_t flips = 1 + rng.below(8);
        for (std::size_t f = 0; f < flips; ++f)
            bad[rng.below(bad.size())] ^=
                std::uint8_t(1 + rng.below(255));
        try {
            const auto decoded = deserializeSnapshot(bad);
            // Surviving a decode is fine (the flip may hit a payload
            // byte); restoring may still legitimately reject it.
            auto fresh = makeTarget(decoded->backend(), TargetOptions{});
            fresh->restore(*decoded);
        } catch (const FatalError &) {
            // expected for structural corruption
        }
    }
}

TEST(SnapshotIo, MissingFileFails)
{
    EXPECT_THROW(readSnapshotFile("no/such/file.snap"), FatalError);
}
