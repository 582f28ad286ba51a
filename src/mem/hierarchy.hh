/**
 * @file
 * A composable memory hierarchy shared by every backend: split L1
 * (instruction/data) over an optional unified L2, each level an
 * independently configured mem::Level.  The Machine charges the
 * cycles returned by fetch()/load()/store() on top of its own timing
 * model; a hierarchy with no levels configured charges nothing.
 *
 * Snapshot semantics mirror the fork primitive (docs/MEMORY.md):
 * caches are timing state, not architectural state, so restore() is
 * per-level warm-or-cold — a level whose geometry matches the
 * snapshot resumes warm, any other level restarts cold.
 */

#ifndef RISC1_MEM_HIERARCHY_HH
#define RISC1_MEM_HIERARCHY_HH

#include <cstdint>
#include <optional>

#include "mem/level.hh"

namespace risc1 {

class JsonWriter;

namespace mem {

/** Which levels exist and how each is configured. */
struct HierarchyConfig
{
    /** Split L1 instruction cache (fetch path). */
    std::optional<LevelConfig> l1i;
    /** Split L1 data cache (load/store path). */
    std::optional<LevelConfig> l1d;
    /** Unified L2 behind both L1s (fills and write-backs). */
    std::optional<LevelConfig> l2;

    bool any() const { return l1i || l1d || l2; }

    bool operator==(const HierarchyConfig &) const = default;
};

/** Per-level statistics; absent levels stay disengaged. */
struct HierarchyStats
{
    std::optional<LevelStats> l1i;
    std::optional<LevelStats> l1d;
    std::optional<LevelStats> l2;

    /** Total cycles charged across all configured levels. */
    std::uint64_t penaltyCycles() const;

    bool operator==(const HierarchyStats &) const = default;

    /**
     * Serialize to @p w as the artifact "mem" object: a "levels"
     * array with one entry per configured level (docs/MEMORY.md).
     * Both backends emit exactly this schema.
     */
    void writeJson(JsonWriter &w) const;
};

/** Full hierarchy state captured by Hierarchy::snapshot(). */
struct HierarchySnapshot
{
    std::optional<LevelSnapshot> l1i;
    std::optional<LevelSnapshot> l1d;
    std::optional<LevelSnapshot> l2;

    bool operator==(const HierarchySnapshot &) const = default;
};

/** The hierarchy itself: optional L1I/L1D over an optional L2. */
class Hierarchy
{
  public:
    explicit Hierarchy(const HierarchyConfig &config = HierarchyConfig{});

    const HierarchyConfig &config() const { return config_; }

    /**
     * Instruction fetch at @p addr; @return penalty cycles charged.
     * An L1I miss (or absent L1I) falls through to the L2.  An L1 hit
     * is served inline.
     */
    unsigned
    fetch(std::uint32_t addr)
    {
        return l1i_ && l1i_->hit(addr, false) ? 0 : below(l1i_, addr, false);
    }

    /** Data access at @p addr; @return penalty cycles charged. */
    unsigned
    data(std::uint32_t addr, bool isWrite)
    {
        return l1d_ && l1d_->hit(addr, isWrite) ? 0
                                                : below(l1d_, addr, isWrite);
    }

    HierarchyStats stats() const;

    /** Invalidate every level and reset statistics. */
    void reset();

    /** Capture all configured levels. */
    HierarchySnapshot snapshot() const;

    /**
     * Per-level warm-or-cold restore: a level resumes warm from the
     * snapshot when its geometry matches, otherwise restarts cold.
     * @throws FatalError naming the level when a matching level's
     * snapshot does not hold one tag, valid and dirty entry per line.
     */
    void restore(const HierarchySnapshot &snap);

  private:
    /** After @p l1 missed or is absent: fill it, then access the L2. */
    unsigned below(std::optional<Level> &l1, std::uint32_t addr,
                   bool isWrite);

    HierarchyConfig config_;
    std::optional<Level> l1i_;
    std::optional<Level> l1d_;
    std::optional<Level> l2_;
};

} // namespace mem
} // namespace risc1

#endif // RISC1_MEM_HIERARCHY_HH
