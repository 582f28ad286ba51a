/**
 * Binary snapshot codec (target/snapshot_io.hh): serialize/deserialize
 * round-trips must reproduce the machine state exactly — the codec
 * carries riscserved's eviction spool files, so a lossy field would
 * silently corrupt evicted sessions.  The wire bytes are pinned by a
 * digest, every decoder rejection by its text, and corrupt and
 * truncated inputs must fail with FatalError, never crash.  A failed
 * spool write must leave the earlier file whole.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>

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

/** L1I 1024,16,8 and a write-back L1D 1024,16,8 on both backends. */
TargetOptions
splitL1()
{
    TargetOptions options;
    options.risc.caches.l1i =
        mem::parseLevelSpec("1024,16,8", "test l1i");
    options.risc.caches.l1d =
        mem::parseLevelSpec("1024,16,8,wb", "test l1d");
    options.vax.caches = options.risc.caches;
    return options;
}

/** A target mid-run on @p backend, with a cache hierarchy attached. */
std::unique_ptr<Target>
makeBusyTarget(const std::string &backend, std::uint64_t steps)
{
    auto target = makeTarget(backend, splitL1());
    target->load(workloadSource(backend, findWorkload("fib_rec")));
    target->run(steps, /*fast=*/true);
    return target;
}

/** A RISC target recording its call trace, mid-run on fib_rec. */
std::unique_ptr<RiscTarget>
makeCallTracingTarget(std::uint64_t steps)
{
    auto target = std::make_unique<RiscTarget>(TargetOptions{});
    target->machine().setRecordCallTrace(true);
    target->load(workloadSource("risc", findWorkload("fib_rec")));
    target->run(steps, /*fast=*/true);
    return target;
}

const MachineSnapshot &
riscState(const TargetSnapshot &snap)
{
    return dynamic_cast<const RiscTargetSnapshot &>(snap).machineSnapshot();
}

/** FNV-1a 32-bit over @p bytes, continuing from @p h. */
std::uint32_t
fnv1a(std::uint32_t h, const std::vector<std::uint8_t> &bytes)
{
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x01000193u;
    }
    return h;
}

constexpr std::uint32_t kFnvBasis = 0x811c9dc5u;

/** The what() of decoding @p bytes, or "" when it decodes. */
std::string
decodeError(const std::vector<std::uint8_t> &bytes)
{
    try {
        deserializeSnapshot(bytes);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

void
patchU32(std::vector<std::uint8_t> &bytes, std::size_t at, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        bytes.at(at + i) = std::uint8_t(v >> (8 * i));
}

// Byte offsets in a RISC snapshot of the full 138-register file: a
// 14-byte header (magic, version, "risc"), the four window-geometry
// words, the u64 memory size, then the windowed-calls bool.
constexpr std::size_t kVersionAt = 4;
constexpr std::size_t kBackendAt = 10;
constexpr std::size_t kWindowedCallsAt = 38;
constexpr std::size_t kPhysRegsCountAt = 39;
// After the registers, the scalar state, RunStats (1232 bytes) and
// MemoryStats (40 bytes): the call-trace count, then its events.
constexpr std::size_t kCallTraceAt = 1926;

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
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    const auto decoded = readSnapshotFile(path);
    EXPECT_EQ(decoded->backend(), "risc");
    std::filesystem::remove(path);
}

TEST(SnapshotIo, FailedWriteKeepsEarlierFile)
{
    // A spool write that fails part-way must leave the earlier file
    // decodable and no temporary behind.  A child process caps its
    // own file size below the new snapshot's, so the write runs short.
    const std::string path = "snapshot_io_fail.snap";
    const auto earlier = makeBusyTarget("risc", 100)->snapshot();
    writeSnapshotFile(path, *earlier);
    const auto later = makeBusyTarget("risc", 5000)->snapshot();
    const std::size_t laterSize = serializeSnapshot(*later).size();
    const std::size_t earlierSize = std::filesystem::file_size(path);

    for (const rlim_t limit : {rlim_t(100), rlim_t(earlierSize / 2)}) {
        ASSERT_LT(limit, laterSize);
        const pid_t child = fork();
        ASSERT_GE(child, 0) << std::strerror(errno);
        if (child == 0) {
            std::signal(SIGXFSZ, SIG_IGN);
            rlimit rl{};
            getrlimit(RLIMIT_FSIZE, &rl);
            rl.rlim_cur = limit;
            if (setrlimit(RLIMIT_FSIZE, &rl) != 0)
                _exit(3);
            try {
                writeSnapshotFile(path, *later);
            } catch (const FatalError &e) {
                _exit(std::string(e.what()) ==
                              "short write to snapshot file: " + path +
                                  ".tmp: " + std::strerror(EFBIG)
                          ? 0
                          : 2);
            }
            _exit(1);
        }
        int status = 0;
        ASSERT_EQ(waitpid(child, &status, 0), child);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0) << "limit " << limit;
        EXPECT_FALSE(std::filesystem::exists(path + ".tmp")) << limit;
        EXPECT_EQ(std::filesystem::file_size(path), earlierSize) << limit;
        EXPECT_TRUE(riscState(*readSnapshotFile(path)) ==
                    riscState(*earlier))
            << limit;
    }
    std::filesystem::remove(path);

    // Renaming onto a directory fails after the temporary is written
    // and synced: it too must be removed.
    const std::string dir = "snapshot_io_fail.dir";
    std::filesystem::create_directory(dir);
    try {
        writeSnapshotFile(dir, *earlier);
        ADD_FAILURE() << "rename over a directory succeeded";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "cannot rename snapshot file over " + dir + ": " + dir +
                      ".tmp: " + std::strerror(EISDIR));
    }
    EXPECT_FALSE(std::filesystem::exists(dir + ".tmp"));
    EXPECT_TRUE(std::filesystem::is_directory(dir));
    std::filesystem::remove(dir);
}

TEST(SnapshotIo, RestoreRejectsCacheVectorsNotOnePerLine)
{
    // A spool image whose L1D (1024,16: 64 lines) holds 1-entry tag,
    // valid and dirty vectors decodes, but restoring it must fail
    // rather than leave the hit path indexing past the vectors.
    MachineSnapshot state =
        riscState(*makeBusyTarget("risc", 500)->snapshot());
    ASSERT_TRUE(state.caches.l1d.has_value());
    state.caches.l1d->tags.resize(1);
    state.caches.l1d->valid.resize(1);
    state.caches.l1d->dirty.resize(1);
    const auto decoded = deserializeSnapshot(
        serializeSnapshot(RiscTargetSnapshot(std::move(state))));

    auto fresh = makeTarget("risc", splitL1());
    try {
        fresh->restore(*decoded);
        ADD_FAILURE() << "restore accepted 1-entry L1D vectors";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "cache restore: l1d snapshot has 1 tags, 1 valid and 1 "
                  "dirty entries for 64 lines");
    }
}

TEST(SnapshotIo, WireFormatIsPinned)
{
    // Every workload on both backends, bare and under a three-level
    // hierarchy, at four points of one fast-tier run.  The digest was
    // read from the codec's earlier put/get pairs, so every spool file
    // they wrote still loads.  A change to any field's width, order or
    // presence moves it, and must move kVersion with it.
    TargetOptions cached = splitL1();
    cached.risc.caches.l2 = mem::parseLevelSpec("8192,32,20,wb", "test l2");
    cached.vax.caches = cached.risc.caches;

    std::uint32_t digest = kFnvBasis;
    std::size_t snapshots = 0;
    std::size_t bytes = 0;
    for (const TargetOptions &options : {TargetOptions{}, cached})
        for (const Workload &w : allWorkloads())
            for (const char *backend : {"risc", "vax"}) {
                auto target = makeTarget(backend, options);
                target->load(workloadSource(backend, w));
                std::uint64_t done = 0;
                for (const std::uint64_t at :
                     {0ull, 137ull, 5000ull, 1'000'000'000ull}) {
                    target->run(at - done, /*fast=*/true);
                    done = at;
                    const auto image = serializeSnapshot(*target->snapshot());
                    digest = fnv1a(digest, image);
                    ++snapshots;
                    bytes += image.size();
                }
                EXPECT_TRUE(target->halted()) << w.id << " " << backend;
            }
    EXPECT_EQ(snapshots, 176u);
    EXPECT_EQ(bytes, 1'316'568u);
    EXPECT_EQ(digest, 0x056e3b20u);

    // The fold above records no call trace; pin one that does.
    const auto traced =
        serializeSnapshot(*makeCallTracingTarget(5000)->snapshot());
    EXPECT_EQ(traced.size(), 11'253u);
    EXPECT_EQ(fnv1a(kFnvBasis, traced), 0xb33a4a26u);
}

TEST(SnapshotIo, RejectionTextsArePinned)
{
    // Each row patches a serialized snapshot at a known offset and
    // expects the decoder's exact text.  The snapshot (fib_rec after
    // 100 steps, under makeBusyTarget's L1I + L1D) holds two full
    // pages, at 0x1000 and 0xeff000, and no call trace.
    const auto snap = makeBusyTarget("risc", 100)->snapshot();
    const std::vector<std::uint8_t> bytes = serializeSnapshot(*snap);
    const MachineSnapshot &state = riscState(*snap);
    ASSERT_EQ(state.physRegs.size(), 138u);
    ASSERT_TRUE(state.callTrace.empty());
    ASSERT_EQ(state.pages.size(), 2u);
    const std::size_t pagesAt = kCallTraceAt + 4;
    const std::size_t firstPageLengthAt = pagesAt + 4 + 4;
    std::size_t hierarchyAt = pagesAt + 4;
    for (const auto &entry : state.pages.entries)
        hierarchyAt += 8 + entry.length;
    // L1I present flag, then its size, line and penalty words.
    const std::size_t l1iPolicyAt = hierarchyAt + 1 + 12;

    // The call-event row needs a snapshot that recorded calls.
    const auto tracedSnap = makeCallTracingTarget(100)->snapshot();
    const std::vector<std::uint8_t> traced = serializeSnapshot(*tracedSnap);
    ASSERT_FALSE(riscState(*tracedSnap).callTrace.empty());

    using Patch = std::function<void(std::vector<std::uint8_t> &)>;
    struct Row
    {
        const char *name;
        const std::vector<std::uint8_t> &base;
        Patch patch;
        std::string what;
    };
    const Row rows[] = {
        {"bad magic", bytes, [](auto &b) { b[0] ^= 0xff; },
         "snapshot decode: bad magic"},
        {"unsupported version", bytes, [](auto &b) { b[kVersionAt] = 0x7f; },
         "snapshot decode: unsupported version 127"},
        {"unknown backend", bytes, [](auto &b) { b[kBackendAt + 3] = 'k'; },
         "snapshot decode: unknown backend 'risk'"},
        {"truncation", bytes, [](auto &b) { b.resize(kPhysRegsCountAt + 2); },
         "snapshot decode: truncated at byte 41"},
        {"length past the input", bytes,
         [](auto &b) { patchU32(b, kPhysRegsCountAt, 0xffffffffu); },
         "snapshot decode: length 4294967295 exceeds remaining input at "
         "byte 43"},
        {"bad bool", bytes, [](auto &b) { b[kWindowedCallsAt] = 2; },
         "snapshot decode: bad bool 2 at byte 38"},
        {"bad write policy", bytes, [&](auto &b) { b.at(l1iPolicyAt) = 2; },
         "snapshot decode: bad write policy 2"},
        {"bad call event", traced,
         [](auto &b) { b.at(kCallTraceAt + 4) = 2; },
         "snapshot decode: bad call event 2"},
        {"page length 0", bytes,
         [&](auto &b) { patchU32(b, firstPageLengthAt, 0); },
         "snapshot decode: bad page length 0 at 0x1000"},
        {"page length 4097", bytes,
         [&](auto &b) { patchU32(b, firstPageLengthAt, 4097); },
         "snapshot decode: bad page length 4097 at 0x1000"},
        {"trailing bytes", bytes, [](auto &b) { b.push_back(0); },
         "snapshot decode: 1 trailing bytes"},
    };
    ASSERT_EQ(decodeError(bytes), "");
    ASSERT_EQ(decodeError(traced), "");
    for (const Row &row : rows) {
        auto bad = row.base;
        row.patch(bad);
        EXPECT_EQ(decodeError(bad), row.what) << row.name;
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
