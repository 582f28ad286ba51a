#include "target/snapshot_io.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>

#include "common/logging.hh"
#include "target/machine_target.hh"

namespace risc1::target {

namespace {

// Format header: "R1SN" + a version that moves whenever any serialized
// struct gains, loses, or reorders a field.
constexpr std::uint32_t kMagic = 0x4e533152; // "R1SN" little-endian
constexpr std::uint16_t kVersion = 1;

/** Append-only little-endian encoder. */
class Enc
{
  public:
    std::vector<std::uint8_t> out;

    void
    u8(std::uint8_t v)
    {
        out.push_back(v);
    }

    void
    u16(std::uint16_t v)
    {
        u8(std::uint8_t(v));
        u8(std::uint8_t(v >> 8));
    }

    void
    u32(std::uint32_t v)
    {
        u16(std::uint16_t(v));
        u16(std::uint16_t(v >> 16));
    }

    void
    u64(std::uint64_t v)
    {
        u32(std::uint32_t(v));
        u32(std::uint32_t(v >> 32));
    }

    void
    i64(std::int64_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }

    void
    boolean(bool v)
    {
        u8(v ? 1 : 0);
    }

    void
    str(std::string_view s)
    {
        u32(std::uint32_t(s.size()));
        out.insert(out.end(), s.begin(), s.end());
    }

    void
    bytes(const std::vector<std::uint8_t> &v)
    {
        u32(std::uint32_t(v.size()));
        out.insert(out.end(), v.begin(), v.end());
    }
};

/** Bounds-checked little-endian decoder over untrusted input. */
class Dec
{
  public:
    Dec(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    std::uint8_t
    u8()
    {
        need(1);
        return data_[pos_++];
    }

    std::uint16_t
    u16()
    {
        const std::uint16_t lo = u8();
        return std::uint16_t(lo | (std::uint16_t(u8()) << 8));
    }

    std::uint32_t
    u32()
    {
        const std::uint32_t lo = u16();
        return lo | (std::uint32_t(u16()) << 16);
    }

    std::uint64_t
    u64()
    {
        const std::uint64_t lo = u32();
        return lo | (std::uint64_t(u32()) << 32);
    }

    std::int64_t
    i64()
    {
        return static_cast<std::int64_t>(u64());
    }

    bool
    boolean()
    {
        const std::uint8_t v = u8();
        if (v > 1)
            fatal(cat("snapshot decode: bad bool ", unsigned(v),
                      " at byte ", pos_ - 1));
        return v != 0;
    }

    /** A length prefix that must fit in the remaining input. */
    std::size_t
    length(std::size_t elemBytes)
    {
        const std::uint32_t n = u32();
        if (elemBytes != 0 && n > (size_ - pos_) / elemBytes)
            fatal(cat("snapshot decode: length ", n,
                      " exceeds remaining input at byte ", pos_));
        return n;
    }

    std::string
    str()
    {
        const std::size_t n = length(1);
        need(n);
        std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    std::vector<std::uint8_t>
    bytes()
    {
        const std::size_t n = length(1);
        need(n);
        std::vector<std::uint8_t> v(data_ + pos_, data_ + pos_ + n);
        pos_ += n;
        return v;
    }

    void
    finish() const
    {
        if (pos_ != size_)
            fatal(cat("snapshot decode: ", size_ - pos_,
                      " trailing bytes"));
    }

  private:
    void
    need(std::size_t n)
    {
        if (size_ - pos_ < n)
            fatal(cat("snapshot decode: truncated at byte ", pos_));
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

// -- Shared sub-structs ------------------------------------------------

void
putMemStats(Enc &e, const MemoryStats &s)
{
    e.u64(s.reads);
    e.u64(s.writes);
    e.u64(s.fetches);
    e.u64(s.bytesRead);
    e.u64(s.bytesWritten);
}

MemoryStats
getMemStats(Dec &d)
{
    MemoryStats s;
    s.reads = d.u64();
    s.writes = d.u64();
    s.fetches = d.u64();
    s.bytesRead = d.u64();
    s.bytesWritten = d.u64();
    return s;
}

void
putPages(Enc &e, const MemoryImage &image)
{
    // Serialized straight from the shared page handles — capturing a
    // snapshot and writing it to the spool never materializes a
    // private copy of the content.  Byte format is unchanged from the
    // deep-copy era: count, then per page base + length-prefixed
    // bytes (a trailing partial page writes only its valid prefix).
    e.u32(std::uint32_t(image.entries.size()));
    for (const auto &entry : image.entries) {
        e.u32(entry.base);
        e.u32(entry.length);
        e.out.insert(e.out.end(), entry.page->bytes.data(),
                     entry.page->bytes.data() + entry.length);
    }
}

MemoryImage
getPages(Dec &d)
{
    // Each page contributes at least base (4) + length (4) bytes.
    const std::size_t n = d.length(8);
    MemoryImage image;
    image.entries.resize(n);
    for (auto &entry : image.entries) {
        entry.base = d.u32();
        const std::vector<std::uint8_t> content = d.bytes();
        if (content.empty() || content.size() > Page::size)
            fatal(cat("snapshot decode: bad page length ",
                      content.size(), " at 0x", std::hex, entry.base));
        entry.length = std::uint32_t(content.size());
        auto page = std::make_shared<Page>();
        std::copy(content.begin(), content.end(), page->bytes.begin());
        entry.page = std::move(page);
    }
    return image;
}

void
putLevel(Enc &e, const std::optional<mem::LevelSnapshot> &level)
{
    e.boolean(level.has_value());
    if (!level)
        return;
    e.u32(level->config.sizeBytes);
    e.u32(level->config.lineBytes);
    e.u32(level->config.missPenaltyCycles);
    e.u8(static_cast<std::uint8_t>(level->config.policy));
    e.u32(std::uint32_t(level->tags.size()));
    for (const std::uint32_t tag : level->tags)
        e.u32(tag);
    e.u32(std::uint32_t(level->valid.size()));
    for (const bool b : level->valid)
        e.boolean(b);
    e.u32(std::uint32_t(level->dirty.size()));
    for (const bool b : level->dirty)
        e.boolean(b);
    e.u64(level->stats.hits);
    e.u64(level->stats.misses);
    e.u64(level->stats.writebacks);
    e.u64(level->stats.penaltyCycles);
}

std::optional<mem::LevelSnapshot>
getLevel(Dec &d)
{
    if (!d.boolean())
        return std::nullopt;
    mem::LevelSnapshot level;
    level.config.sizeBytes = d.u32();
    level.config.lineBytes = d.u32();
    level.config.missPenaltyCycles = d.u32();
    const std::uint8_t policy = d.u8();
    if (policy > static_cast<std::uint8_t>(mem::WritePolicy::WriteBack))
        fatal(cat("snapshot decode: bad write policy ", unsigned(policy)));
    level.config.policy = static_cast<mem::WritePolicy>(policy);
    level.tags.resize(d.length(4));
    for (auto &tag : level.tags)
        tag = d.u32();
    level.valid.resize(d.length(1));
    for (std::size_t i = 0; i < level.valid.size(); ++i)
        level.valid[i] = d.boolean();
    level.dirty.resize(d.length(1));
    for (std::size_t i = 0; i < level.dirty.size(); ++i)
        level.dirty[i] = d.boolean();
    level.stats.hits = d.u64();
    level.stats.misses = d.u64();
    level.stats.writebacks = d.u64();
    level.stats.penaltyCycles = d.u64();
    return level;
}

void
putHierarchy(Enc &e, const mem::HierarchySnapshot &h)
{
    putLevel(e, h.l1i);
    putLevel(e, h.l1d);
    putLevel(e, h.l2);
}

mem::HierarchySnapshot
getHierarchy(Dec &d)
{
    mem::HierarchySnapshot h;
    h.l1i = getLevel(d);
    h.l1d = getLevel(d);
    h.l2 = getLevel(d);
    return h;
}

// -- RISC I backend ----------------------------------------------------

void
putRunStats(Enc &e, const RunStats &s)
{
    e.u64(s.cycles);
    e.u64(s.instructions);
    for (const std::uint64_t v : s.perOpcode)
        e.u64(v);
    for (const std::uint64_t v : s.perClass)
        e.u64(v);
    e.u64(s.takenTransfers);
    e.u64(s.untakenJumps);
    e.u64(s.delaySlotsExecuted);
    e.u64(s.delaySlotNops);
    e.u64(s.calls);
    e.u64(s.returns);
    e.u64(s.windowOverflows);
    e.u64(s.windowUnderflows);
    e.i64(s.callDepth);
    e.i64(s.maxCallDepth);
    e.u64(s.loadCount);
    e.u64(s.storeCount);
    e.u64(s.spillWords);
    e.u64(s.fillWords);
    e.u64(s.softSaveWords);
    e.u64(s.softRestoreWords);
    e.u64(s.regOperandReads);
    e.u64(s.regOperandWrites);
}

RunStats
getRunStats(Dec &d)
{
    RunStats s;
    s.cycles = d.u64();
    s.instructions = d.u64();
    for (auto &v : s.perOpcode)
        v = d.u64();
    for (auto &v : s.perClass)
        v = d.u64();
    s.takenTransfers = d.u64();
    s.untakenJumps = d.u64();
    s.delaySlotsExecuted = d.u64();
    s.delaySlotNops = d.u64();
    s.calls = d.u64();
    s.returns = d.u64();
    s.windowOverflows = d.u64();
    s.windowUnderflows = d.u64();
    s.callDepth = d.i64();
    s.maxCallDepth = d.i64();
    s.loadCount = d.u64();
    s.storeCount = d.u64();
    s.spillWords = d.u64();
    s.fillWords = d.u64();
    s.softSaveWords = d.u64();
    s.softRestoreWords = d.u64();
    s.regOperandReads = d.u64();
    s.regOperandWrites = d.u64();
    return s;
}

void
putRisc(Enc &e, const MachineSnapshot &s)
{
    e.u32(s.windows.numGlobals);
    e.u32(s.windows.numLocals);
    e.u32(s.windows.overlap);
    e.u32(s.windows.numWindows);
    e.u64(s.memorySize);
    e.boolean(s.windowedCalls);

    e.u32(std::uint32_t(s.physRegs.size()));
    for (const std::uint32_t r : s.physRegs)
        e.u32(r);
    e.u32(s.cwp);
    e.boolean(s.psw.cc.n);
    e.boolean(s.psw.cc.z);
    e.boolean(s.psw.cc.v);
    e.boolean(s.psw.cc.c);
    e.boolean(s.psw.intEnable);
    e.u8(s.psw.cwp);
    e.u8(s.psw.swp);
    e.u32(s.pc);
    e.u32(s.npc);
    e.u32(s.lastPc);
    e.boolean(s.halted);
    e.boolean(s.inDelaySlot);
    e.boolean(s.hasNpcOverride);
    e.u32(s.npcOverride);
    e.u32(s.resident);
    e.u32(s.saved);
    e.u32(s.spillSp);
    e.u32(s.softSp);
    e.boolean(s.interruptPending);
    e.u32(s.interruptVector);
    e.u64(s.interruptsTaken);

    putRunStats(e, s.stats);
    putMemStats(e, s.memStats);
    e.u32(std::uint32_t(s.callTrace.size()));
    for (const CallEvent ev : s.callTrace)
        e.u8(static_cast<std::uint8_t>(ev));

    putPages(e, s.pages);
    putHierarchy(e, s.caches);
}

MachineSnapshot
getRisc(Dec &d)
{
    MachineSnapshot s;
    s.windows.numGlobals = d.u32();
    s.windows.numLocals = d.u32();
    s.windows.overlap = d.u32();
    s.windows.numWindows = d.u32();
    s.memorySize = d.u64();
    s.windowedCalls = d.boolean();

    s.physRegs.resize(d.length(4));
    for (auto &r : s.physRegs)
        r = d.u32();
    s.cwp = d.u32();
    s.psw.cc.n = d.boolean();
    s.psw.cc.z = d.boolean();
    s.psw.cc.v = d.boolean();
    s.psw.cc.c = d.boolean();
    s.psw.intEnable = d.boolean();
    s.psw.cwp = d.u8();
    s.psw.swp = d.u8();
    s.pc = d.u32();
    s.npc = d.u32();
    s.lastPc = d.u32();
    s.halted = d.boolean();
    s.inDelaySlot = d.boolean();
    s.hasNpcOverride = d.boolean();
    s.npcOverride = d.u32();
    s.resident = d.u32();
    s.saved = d.u32();
    s.spillSp = d.u32();
    s.softSp = d.u32();
    s.interruptPending = d.boolean();
    s.interruptVector = d.u32();
    s.interruptsTaken = d.u64();

    s.stats = getRunStats(d);
    s.memStats = getMemStats(d);
    s.callTrace.resize(d.length(1));
    for (auto &ev : s.callTrace) {
        const std::uint8_t raw = d.u8();
        if (raw > static_cast<std::uint8_t>(CallEvent::Return))
            fatal(cat("snapshot decode: bad call event ", unsigned(raw)));
        ev = static_cast<CallEvent>(raw);
    }

    s.pages = getPages(d);
    s.caches = getHierarchy(d);
    return s;
}

// -- VAX backend -------------------------------------------------------

void
putVaxStats(Enc &e, const VaxStats &s)
{
    e.u64(s.cycles);
    e.u64(s.instructions);
    for (const std::uint64_t v : s.perClass)
        e.u64(v);
    e.u64(s.branchesTaken);
    e.u64(s.branchesUntaken);
    e.u64(s.calls);
    e.u64(s.returns);
    e.i64(s.callDepth);
    e.i64(s.maxCallDepth);
    e.u64(s.memOperandReads);
    e.u64(s.memOperandWrites);
    e.u64(s.regOperandReads);
    e.u64(s.regOperandWrites);
    e.u64(s.instrBytes);
}

VaxStats
getVaxStats(Dec &d)
{
    VaxStats s;
    s.cycles = d.u64();
    s.instructions = d.u64();
    for (auto &v : s.perClass)
        v = d.u64();
    s.branchesTaken = d.u64();
    s.branchesUntaken = d.u64();
    s.calls = d.u64();
    s.returns = d.u64();
    s.callDepth = d.i64();
    s.maxCallDepth = d.i64();
    s.memOperandReads = d.u64();
    s.memOperandWrites = d.u64();
    s.regOperandReads = d.u64();
    s.regOperandWrites = d.u64();
    s.instrBytes = d.u64();
    return s;
}

void
putVax(Enc &e, const VaxSnapshot &s)
{
    e.u64(s.memorySize);
    for (const std::uint32_t r : s.regs)
        e.u32(r);
    e.boolean(s.cc.n);
    e.boolean(s.cc.z);
    e.boolean(s.cc.v);
    e.boolean(s.cc.c);
    e.boolean(s.halted);
    putVaxStats(e, s.stats);
    putMemStats(e, s.memStats);
    putPages(e, s.pages);
    putHierarchy(e, s.caches);
}

VaxSnapshot
getVax(Dec &d)
{
    VaxSnapshot s;
    s.memorySize = d.u64();
    for (auto &r : s.regs)
        r = d.u32();
    s.cc.n = d.boolean();
    s.cc.z = d.boolean();
    s.cc.v = d.boolean();
    s.cc.c = d.boolean();
    s.halted = d.boolean();
    s.stats = getVaxStats(d);
    s.memStats = getMemStats(d);
    s.pages = getPages(d);
    s.caches = getHierarchy(d);
    return s;
}

} // namespace

std::vector<std::uint8_t>
serializeSnapshot(const TargetSnapshot &snap)
{
    Enc e;
    e.u32(kMagic);
    e.u16(kVersion);
    e.str(snap.backend());
    if (const auto *risc = dynamic_cast<const RiscTargetSnapshot *>(&snap))
        putRisc(e, risc->machineSnapshot());
    else if (const auto *vax = dynamic_cast<const VaxTargetSnapshot *>(&snap))
        putVax(e, vax->machineSnapshot());
    else
        fatal(cat("serializeSnapshot: unsupported backend '",
                  snap.backend(), "'"));
    return std::move(e.out);
}

std::shared_ptr<const TargetSnapshot>
deserializeSnapshot(const std::uint8_t *data, std::size_t size)
{
    Dec d(data, size);
    if (d.u32() != kMagic)
        fatal("snapshot decode: bad magic");
    const std::uint16_t version = d.u16();
    if (version != kVersion)
        fatal(cat("snapshot decode: unsupported version ", version));
    const std::string backend = d.str();
    std::shared_ptr<const TargetSnapshot> snap;
    if (backend == "risc")
        snap = std::make_shared<RiscTargetSnapshot>(getRisc(d));
    else if (backend == "vax")
        snap = std::make_shared<VaxTargetSnapshot>(getVax(d));
    else
        fatal(cat("snapshot decode: unknown backend '", backend, "'"));
    d.finish();
    return snap;
}

std::shared_ptr<const TargetSnapshot>
deserializeSnapshot(const std::vector<std::uint8_t> &bytes)
{
    return deserializeSnapshot(bytes.data(), bytes.size());
}

void
writeSnapshotFile(const std::string &path, const TargetSnapshot &snap)
{
    const std::vector<std::uint8_t> bytes = serializeSnapshot(snap);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal(cat("cannot open snapshot file for writing: ", path));
    out.write(reinterpret_cast<const char *>(bytes.data()),
              std::streamsize(bytes.size()));
    if (!out)
        fatal(cat("short write to snapshot file: ", path));
}

std::shared_ptr<const TargetSnapshot>
readSnapshotFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal(cat("cannot open snapshot file: ", path));
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return deserializeSnapshot(bytes);
}

} // namespace risc1::target
