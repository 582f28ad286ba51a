#include "mem/level.hh"

#include "common/json.hh"
#include "common/logging.hh"

namespace risc1 {
namespace mem {

namespace {

bool
isPowerOfTwo(std::uint32_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

unsigned
log2u(std::uint32_t v)
{
    unsigned n = 0;
    while (v > 1) {
        v >>= 1;
        ++n;
    }
    return n;
}

} // namespace

const char *
writePolicyName(WritePolicy policy)
{
    return policy == WritePolicy::WriteBack ? "wb" : "wt";
}

Level::Level(const LevelConfig &config)
    : config_(config)
{
    // Power-of-two geometry is what lets access() index with a mask
    // and tag with a shift instead of dividing.
    if (!isPowerOfTwo(config_.sizeBytes) ||
        !isPowerOfTwo(config_.lineBytes) ||
        config_.lineBytes < 4 || config_.sizeBytes < config_.lineBytes)
        fatal("cache size and line size must be powers of two with "
              "size >= line >= 4");
    numLines_ = config_.sizeBytes / config_.lineBytes;
    lineShift_ = log2u(config_.lineBytes);
    indexBits_ = log2u(numLines_);
    tags_.assign(numLines_, 0);
    valid_.assign(numLines_, 0);
    dirty_.assign(numLines_, 0);
}

unsigned
Level::miss(std::uint32_t addr, bool isWrite)
{
    const std::uint32_t lineAddr = addr >> lineShift_;
    const std::uint32_t index = lineAddr & (numLines_ - 1);
    ++stats_.misses;
    unsigned cycles = config_.missPenaltyCycles;
    if (valid_[index] && dirty_[index]) {
        // Evicting a modified line: the victim must be written out
        // before the fill, costing another memory round trip.
        ++stats_.writebacks;
        cycles += config_.missPenaltyCycles;
    }
    valid_[index] = 1;
    tags_[index] = lineAddr >> indexBits_;
    dirty_[index] = isWrite && config_.policy == WritePolicy::WriteBack;
    stats_.penaltyCycles += cycles;
    return cycles;
}

void
Level::reset()
{
    valid_.assign(numLines_, 0);
    dirty_.assign(numLines_, 0);
    stats_.reset();
}

bool
Level::compatible(const LevelConfig &config) const
{
    return config == config_;
}

LevelSnapshot
Level::snapshot() const
{
    return LevelSnapshot{config_, tags_, valid_, dirty_, stats_};
}

void
Level::restore(const LevelSnapshot &snap, std::string_view name)
{
    if (!compatible(snap.config))
        fatal(cat("cache restore: ", name,
                  " snapshot geometry does not match"));
    // The hit path indexes these by line without a bounds check, so a
    // snapshot decoded from a corrupt spool file must hold exactly one
    // entry per line in each.
    if (snap.tags.size() != numLines_ || snap.valid.size() != numLines_ ||
        snap.dirty.size() != numLines_)
        fatal(cat("cache restore: ", name, " snapshot has ",
                  snap.tags.size(), " tags, ", snap.valid.size(),
                  " valid and ", snap.dirty.size(), " dirty entries for ",
                  numLines_, " lines"));
    tags_ = snap.tags;
    valid_ = snap.valid;
    dirty_ = snap.dirty;
    stats_ = snap.stats;
}

void
LevelStats::writeJson(JsonWriter &w) const
{
    w.beginObject()
        .field("hits", hits)
        .field("misses", misses)
        .field("writebacks", writebacks)
        .field("penaltyCycles", penaltyCycles)
        .endObject();
}

} // namespace mem
} // namespace risc1
