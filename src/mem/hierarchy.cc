#include "mem/hierarchy.hh"

#include "common/json.hh"

namespace risc1 {
namespace mem {

namespace {

/** Apply the warm-or-cold rule to one level slot. */
void
restoreLevel(std::string_view name, std::optional<Level> &level,
             const std::optional<LevelSnapshot> &snap)
{
    if (!level)
        return;
    if (snap && level->compatible(snap->config))
        level->restore(*snap, name);
    else
        level->reset();
}

void
writeLevelEntry(JsonWriter &w, const char *name,
                const std::optional<LevelStats> &stats)
{
    if (!stats)
        return;
    w.beginObject().key("level").value(name);
    w.key("hits").value(stats->hits);
    w.key("misses").value(stats->misses);
    w.key("writebacks").value(stats->writebacks);
    w.key("penaltyCycles").value(stats->penaltyCycles);
    w.endObject();
}

} // namespace

std::uint64_t
HierarchyStats::penaltyCycles() const
{
    std::uint64_t total = 0;
    if (l1i)
        total += l1i->penaltyCycles;
    if (l1d)
        total += l1d->penaltyCycles;
    if (l2)
        total += l2->penaltyCycles;
    return total;
}

void
HierarchyStats::writeJson(JsonWriter &w) const
{
    w.beginObject().key("levels").beginArray();
    writeLevelEntry(w, "l1i", l1i);
    writeLevelEntry(w, "l1d", l1d);
    writeLevelEntry(w, "l2", l2);
    w.endArray().endObject();
}

Hierarchy::Hierarchy(const HierarchyConfig &config)
    : config_(config)
{
    if (config_.l1i)
        l1i_.emplace(*config_.l1i);
    if (config_.l1d)
        l1d_.emplace(*config_.l1d);
    if (config_.l2)
        l2_.emplace(*config_.l2);
}

unsigned
Hierarchy::below(std::optional<Level> &l1, std::uint32_t addr, bool isWrite)
{
    unsigned cycles = l1 ? l1->miss(addr, isWrite) : 0;
    if (l2_)
        cycles += l2_->access(addr, isWrite).cycles;
    return cycles;
}

HierarchyStats
Hierarchy::stats() const
{
    HierarchyStats s;
    if (l1i_)
        s.l1i = l1i_->stats();
    if (l1d_)
        s.l1d = l1d_->stats();
    if (l2_)
        s.l2 = l2_->stats();
    return s;
}

void
Hierarchy::reset()
{
    if (l1i_)
        l1i_->reset();
    if (l1d_)
        l1d_->reset();
    if (l2_)
        l2_->reset();
}

HierarchySnapshot
Hierarchy::snapshot() const
{
    HierarchySnapshot s;
    if (l1i_)
        s.l1i = l1i_->snapshot();
    if (l1d_)
        s.l1d = l1d_->snapshot();
    if (l2_)
        s.l2 = l2_->snapshot();
    return s;
}

void
Hierarchy::restore(const HierarchySnapshot &snap)
{
    restoreLevel("l1i", l1i_, snap.l1i);
    restoreLevel("l1d", l1d_, snap.l1d);
    restoreLevel("l2", l2_, snap.l2);
}

} // namespace mem
} // namespace risc1
