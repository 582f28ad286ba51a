/** Tests for the cache-level model and its machine integration. */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "helpers.hh"
#include "mem/level.hh"
#include "workloads/workloads.hh"

namespace risc1 {
namespace {

TEST(Cache, ColdMissThenHit)
{
    mem::Level cache(mem::LevelConfig{64, 16, 4});
    EXPECT_FALSE(cache.access(0x1000).hit);
    EXPECT_TRUE(cache.access(0x1000).hit);
    EXPECT_TRUE(cache.access(0x100c).hit); // same 16-byte line
    EXPECT_FALSE(cache.access(0x1010).hit); // next line
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().penaltyCycles, 8u); // 2 misses x 4
}

TEST(Cache, DirectMappedConflicts)
{
    // 64B / 16B lines = 4 lines; addresses 64 apart collide.
    mem::Level cache(mem::LevelConfig{64, 16, 4});
    EXPECT_FALSE(cache.access(0x0).hit);
    EXPECT_FALSE(cache.access(0x40).hit);  // evicts line 0
    EXPECT_FALSE(cache.access(0x0).hit);   // miss again
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(Cache, LoopFitsEntirely)
{
    mem::Level cache(mem::LevelConfig{256, 16, 4});
    // A 16-word (64-byte) loop touched 100 times.
    for (int iter = 0; iter < 100; ++iter)
        for (std::uint32_t pc = 0x1000; pc < 0x1040; pc += 4)
            cache.access(pc);
    // Only the first pass misses (4 lines).
    EXPECT_EQ(cache.stats().misses, 4u);
    EXPECT_GT(cache.stats().hitRate(), 0.99);
}

TEST(Cache, BadGeometryRejected)
{
    EXPECT_THROW(mem::Level(mem::LevelConfig{100, 16, 4}), FatalError);
    EXPECT_THROW(mem::Level(mem::LevelConfig{64, 3, 4}), FatalError);
    EXPECT_THROW(mem::Level(mem::LevelConfig{8, 16, 4}), FatalError);
}

TEST(Cache, ResetInvalidates)
{
    mem::Level cache;
    cache.access(0x1000);
    cache.reset();
    EXPECT_FALSE(cache.access(0x1000).hit);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, WriteThroughNeverWritesBack)
{
    mem::Level cache(mem::LevelConfig{64, 16, 4});
    cache.access(0x0, true);
    cache.access(0x40, true);  // evicts line 0 — clean under WT
    EXPECT_EQ(cache.stats().writebacks, 0u);
    EXPECT_EQ(cache.stats().penaltyCycles, 8u);
}

TEST(Cache, WriteBackChargesDirtyEviction)
{
    mem::Level cache(
        mem::LevelConfig{64, 16, 4, mem::WritePolicy::WriteBack});
    cache.access(0x0, true);              // miss, line dirtied
    const auto evict = cache.access(0x40, false); // evicts dirty line
    EXPECT_FALSE(evict.hit);
    EXPECT_EQ(evict.cycles, 8u); // fill + victim writeback
    EXPECT_EQ(cache.stats().writebacks, 1u);
    // A read-allocated line evicts for free.
    cache.access(0x80, false); // evicts the clean 0x40 line
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

/**
 * An independent direct-mapped model of mem::Level that computes
 * index and tag with % and / instead of masks and shifts.
 */
class DivisionModel
{
  public:
    explicit DivisionModel(const mem::LevelConfig &config)
        : config_(config), numLines_(config.sizeBytes / config.lineBytes),
          tags_(numLines_), valid_(numLines_), dirty_(numLines_)
    {}

    mem::Level::Access
    access(std::uint32_t addr, bool isWrite)
    {
        const std::uint32_t line = addr / config_.lineBytes;
        const std::uint32_t index = line % numLines_;
        const std::uint32_t tag = line / numLines_;
        const bool writeBack =
            config_.policy == mem::WritePolicy::WriteBack;
        if (valid_[index] && tags_[index] == tag) {
            ++stats_.hits;
            if (isWrite && writeBack)
                dirty_[index] = true;
            return {true, 0};
        }
        ++stats_.misses;
        unsigned cycles = config_.missPenaltyCycles;
        if (valid_[index] && dirty_[index]) {
            ++stats_.writebacks;
            cycles += config_.missPenaltyCycles;
        }
        valid_[index] = true;
        tags_[index] = tag;
        dirty_[index] = isWrite && writeBack;
        stats_.penaltyCycles += cycles;
        return {false, cycles};
    }

    const mem::LevelStats &stats() const { return stats_; }

  private:
    mem::LevelConfig config_;
    std::uint32_t numLines_;
    std::vector<std::uint32_t> tags_;
    std::vector<bool> valid_;
    std::vector<bool> dirty_;
    mem::LevelStats stats_;
};

TEST(Cache, IndexAndTagMatchDivisionModel)
{
    // Every level geometry sweep and riscbench run: the L1I sizes of
    // fig_icache_sweep, the split L1D and the write-back L2 of
    // fig_mem_hierarchy.
    std::vector<mem::LevelConfig> geometries;
    for (std::uint32_t size = 64; size <= 8192; size *= 2)
        geometries.push_back({size, 16, 4});
    geometries.push_back({256, 16, 4});
    geometries.push_back({1024, 32, 12, mem::WritePolicy::WriteBack});

    for (const mem::LevelConfig &config : geometries) {
        SCOPED_TRACE(cat(config.sizeBytes, "B/", config.lineBytes, "B ",
                         mem::writePolicyName(config.policy)));
        mem::Level level(config);
        DivisionModel model(config);
        Rng rng(config.sizeBytes * 31 + config.lineBytes);
        // Half the stream walks sequentially (hits within a line), a
        // quarter revisits a few working sets about twice the level's
        // size (conflicts and dirty evictions), and a quarter goes
        // anywhere in the 32-bit space.  Two sets sit at or above 2^31.
        const std::uint32_t bases[4] = {
            0x80000000u, 0xfffff000u,
            static_cast<std::uint32_t>(rng.next()), 0x1000u};
        std::uint32_t addr = 0;
        for (int i = 0; i < 20000; ++i) {
            if (rng.chance(1, 2))
                addr += 4;
            else if (rng.chance(1, 2))
                addr = bases[rng.below(4)] +
                       static_cast<std::uint32_t>(
                           rng.below(2 * config.sizeBytes));
            else
                addr = static_cast<std::uint32_t>(rng.next());
            const bool isWrite = rng.chance(1, 3);
            const mem::Level::Access got = level.access(addr, isWrite);
            const mem::Level::Access want = model.access(addr, isWrite);
            ASSERT_EQ(got.hit, want.hit) << "access " << i;
            ASSERT_EQ(got.cycles, want.cycles) << "access " << i;
        }
        EXPECT_EQ(level.stats(), model.stats());
        EXPECT_GT(level.stats().hits, 0u);
        EXPECT_GT(level.stats().misses, 0u);
        if (config.policy == mem::WritePolicy::WriteBack) {
            EXPECT_GT(level.stats().writebacks, 0u);
        }
    }
}

/** A machine's L1 statistics (zeroes when that level is not fitted). */
mem::LevelStats
l1iStats(const Machine &m)
{
    return m.memHierarchyStats().l1i.value_or(mem::LevelStats{});
}

mem::LevelStats
l1dStats(const Machine &m)
{
    return m.memHierarchyStats().l1d.value_or(mem::LevelStats{});
}

TEST(MachineIcache, DisabledByDefault)
{
    Machine m;
    test::loadAsm(m, "start: ldi r1, 5\n halt\n");
    m.run();
    EXPECT_EQ(l1iStats(m).accesses(), 0u);
}

TEST(MachineIcache, LoopsHitAfterWarmup)
{
    MachineConfig cfg;
    cfg.caches.l1i = mem::LevelConfig{1024, 16, 4};
    Machine m(cfg);
    test::loadAsm(m, R"(
start:  clr   r1
        ldi   r2, 500
loop:   add   r1, r1, r2
        dec   r2
        cmp   r2, 0
        bne   loop
        nop
        halt
)");
    m.run();
    EXPECT_GT(l1iStats(m).hitRate(), 0.99);
    EXPECT_EQ(l1iStats(m).accesses(), m.stats().instructions);
}

TEST(MachineIcache, MissPenaltyChargedToCycles)
{
    const std::string src = "start: clr r1\n ldi r2, 100\n"
                            "loop: inc r1\n cmp r1, r2\n bne loop\n"
                            " nop\n halt\n";
    Machine plain;
    test::loadAsm(plain, src);
    plain.run();

    MachineConfig cfg;
    cfg.caches.l1i = mem::LevelConfig{64, 16, 10};
    Machine cached(cfg);
    test::loadAsm(cached, src);
    cached.run();

    EXPECT_EQ(plain.reg(1), cached.reg(1));
    EXPECT_EQ(plain.stats().instructions, cached.stats().instructions);
    EXPECT_EQ(cached.stats().cycles,
              plain.stats().cycles +
                  l1iStats(cached).misses * 10);
}

TEST(MachineIcache, ResultsUnchangedAcrossCacheSizes)
{
    for (const std::uint32_t size : {64u, 256u, 4096u}) {
        MachineConfig cfg;
        cfg.caches.l1i = mem::LevelConfig{size, 16, 6};
        const RiscRun run =
            runRiscWorkload(findWorkload("sieve"), cfg);
        EXPECT_EQ(run.checksum, findWorkload("sieve").expected)
            << size;
    }
}

TEST(MachineIcache, LargeCacheBeatsTinyCache)
{
    // (Direct-mapped caches are not strictly monotone in size, so
    // compare only the extremes, where the gap is unambiguous.)
    auto missesWith = [](std::uint32_t size) {
        MachineConfig cfg;
        cfg.caches.l1i = mem::LevelConfig{size, 16, 6};
        Machine m(cfg);
        test::loadAsm(m, findWorkload("fib_rec").riscSource);
        m.run();
        return l1iStats(m).misses;
    };
    EXPECT_LT(missesWith(4096), missesWith(64));
}

TEST(MachineDcache, ExactPenaltyContract)
{
    const std::string src = R"(
start:  ldi   r2, 0x4000
        ldi   r3, 32
loop:   ldl   r4, (r2)
        stl   r4, 0x210(r2)
        add   r2, r2, 4
        dec   r3
        cmp   r3, 0
        bne   loop
        nop
        halt
)";
    Machine plain;
    test::loadAsm(plain, src);
    plain.run();

    MachineConfig cfg;
    cfg.caches.l1d = mem::LevelConfig{128, 16, 7};
    Machine cached(cfg);
    test::loadAsm(cached, src);
    cached.run();

    EXPECT_EQ(l1dStats(cached).accesses(), 64u); // 32 ld + 32 st
    EXPECT_EQ(cached.stats().cycles,
              plain.stats().cycles + l1dStats(cached).misses * 7);
    // Sequential word streams in 16-byte lines: 1 miss per 4 words
    // per stream.
    EXPECT_EQ(l1dStats(cached).misses, 16u);
}

TEST(MachineDcache, SpillTrafficBypassesDcache)
{
    MachineConfig cfg;
    cfg.windows.numWindows = 2;     // recursion spills constantly
    cfg.caches.l1d = mem::LevelConfig{256, 16, 7};
    Machine m(cfg);
    test::loadAsm(m, R"(
start:  ldi   r10, 12
        call  sum
        nop
        mov   r1, r10
        halt
sum:    cmp   r26, 0
        bne   rec
        nop
        clr   r26
        ret
        nop
rec:    sub   r10, r26, 1
        call  sum
        nop
        add   r26, r26, r10
        ret
        nop
)");
    m.run();
    EXPECT_GT(m.stats().spillWords, 0u);
    // No program loads/stores: the dcache saw no traffic.
    EXPECT_EQ(l1dStats(m).accesses(), 0u);
    EXPECT_EQ(m.reg(1), 78u);
}

} // namespace
} // namespace risc1
