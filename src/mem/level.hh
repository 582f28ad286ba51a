/**
 * @file
 * One level of the memory hierarchy: a direct-mapped, tag-only cache
 * timing model (docs/MEMORY.md).  The RISC I paper's fetch-bandwidth
 * discussion points straight at on-chip caching; RISC II-era work
 * added exactly this.  A Level is pure timing state — it never holds
 * data, only tags, valid bits, and (for write-back) dirty bits.
 */

#ifndef RISC1_MEM_LEVEL_HH
#define RISC1_MEM_LEVEL_HH

#include <cstdint>
#include <string_view>
#include <vector>

namespace risc1 {

class JsonWriter;

namespace mem {

/** What a store does to a line (docs/MEMORY.md). */
enum class WritePolicy : std::uint8_t
{
    /**
     * Stores update the next level immediately; lines never become
     * dirty and eviction is free.  The write traffic is assumed to be
     * absorbed by a write buffer, so hits and misses cost the same as
     * reads.
     */
    WriteThrough,

    /**
     * Stores dirty the line; evicting a dirty line counts a writeback
     * and charges the level's miss penalty again for the victim.
     */
    WriteBack,
};

/** Name of @p policy as spelled in specs and JSON ("wt" / "wb"). */
const char *writePolicyName(WritePolicy policy);

/** Geometry, timing, and write policy of one level. */
struct LevelConfig
{
    std::uint32_t sizeBytes = 1024;
    std::uint32_t lineBytes = 16;
    unsigned missPenaltyCycles = 4;
    WritePolicy policy = WritePolicy::WriteThrough;

    bool operator==(const LevelConfig &) const = default;
};

/** Hit/miss/writeback statistics for one level. */
struct LevelStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
    /** Cycles this level charged (miss penalties + writebacks). */
    std::uint64_t penaltyCycles = 0;

    std::uint64_t accesses() const { return hits + misses; }

    double
    hitRate() const
    {
        return accesses() ? static_cast<double>(hits) /
                                static_cast<double>(accesses())
                          : 0.0;
    }

    void reset() { *this = LevelStats{}; }

    bool operator==(const LevelStats &) const = default;

    /** Serialize to @p w as a JSON object (see docs/MEMORY.md). */
    void writeJson(JsonWriter &w) const;
};

/**
 * Full level state captured by Level::snapshot(): one tag, valid byte
 * and dirty byte (each 0 or 1) per line, as the Level keeps them.
 */
struct LevelSnapshot
{
    LevelConfig config;
    std::vector<std::uint32_t> tags;
    std::vector<std::uint8_t> valid;
    std::vector<std::uint8_t> dirty;
    LevelStats stats;

    bool operator==(const LevelSnapshot &) const = default;
};

/** Direct-mapped cache level with tag-only state (a timing model). */
class Level
{
  public:
    explicit Level(const LevelConfig &config = LevelConfig{});

    const LevelConfig &config() const { return config_; }
    const LevelStats &stats() const { return stats_; }

    /** Outcome of one access: hit/miss plus the cycles it charged. */
    struct Access
    {
        bool hit = false;
        /** Penalty cycles charged (0 on hit for a clean level). */
        unsigned cycles = 0;
    };

    /**
     * Access @p addr (misses allocate; write misses write-allocate).
     * Charged cycles are also accumulated into stats().penaltyCycles.
     */
    Access
    access(std::uint32_t addr, bool isWrite = false)
    {
        if (hit(addr, isWrite))
            return Access{true, 0};
        return Access{false, miss(addr, isWrite)};
    }

    /**
     * The hit path of access(), inline: when @p addr's line is
     * resident, count the hit (a write-back store also dirties the
     * line) and return true; otherwise change nothing.  The
     * power-of-two geometry makes the index a mask and the tag a
     * shift of the line address.
     */
    bool
    hit(std::uint32_t addr, bool isWrite)
    {
        const std::uint32_t lineAddr = addr >> lineShift_;
        const std::uint32_t index = lineAddr & (numLines_ - 1);
        if (!valid_[index] || tags_[index] != lineAddr >> indexBits_)
            return false;
        ++stats_.hits;
        if (isWrite && config_.policy == WritePolicy::WriteBack)
            dirty_[index] = 1;
        return true;
    }

    /**
     * The miss path of access(), out of line: allocate @p addr's line,
     * writing back a dirty victim.  @return the cycles charged.
     */
    unsigned miss(std::uint32_t addr, bool isWrite);

    /** Invalidate all lines and reset statistics. */
    void reset();

    /** Capture tags, valid/dirty bits, and statistics. */
    LevelSnapshot snapshot() const;

    /**
     * Restore a snapshot; @throws FatalError naming @p name (the
     * level's place in the hierarchy, e.g. "l1d") when the snapshot's
     * geometry does not match this level's configuration or its
     * tag/valid/dirty vectors do not hold one entry per line.
     */
    void restore(const LevelSnapshot &snap, std::string_view name);

    /** True when @p config matches this level's geometry and timing. */
    bool compatible(const LevelConfig &config) const;

  private:
    LevelConfig config_;
    unsigned numLines_;
    unsigned lineShift_;   ///< log2(lineBytes)
    unsigned indexBits_;   ///< log2(numLines_)
    std::vector<std::uint32_t> tags_;
    /** Bytes, not vector<bool>: a byte test keeps the hit path small
     *  enough to inline. */
    std::vector<std::uint8_t> valid_;
    std::vector<std::uint8_t> dirty_;
    LevelStats stats_;
};

} // namespace mem
} // namespace risc1

#endif // RISC1_MEM_LEVEL_HH
