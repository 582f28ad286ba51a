#include "target/snapshot_io.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>

#include "common/logging.hh"
#include "target/machine_target.hh"

namespace risc1::target {

namespace {

// Format header: "R1SN" + a version that moves whenever any serialized
// struct gains, loses, or reorders a field.
constexpr std::uint32_t kMagic = 0x4e533152; // "R1SN" little-endian
constexpr std::uint16_t kVersion = 1;

/**
 * The format is one io*(ar, s) walk per serialized struct: this
 * append-only encoder runs it over a const struct, Reader over a fresh
 * one.  Each primitive names its wire width, little-endian throughout.
 */
class Writer
{
  public:
    std::vector<std::uint8_t> out;

    template <class T> void u8(const T &v) { append<1>(v); }
    template <class T> void u16(const T &v) { append<2>(v); }
    template <class T> void u32(const T &v) { append<4>(v); }
    template <class T> void u64(const T &v) { append<8>(v); }
    void boolean(bool v) { out.push_back(v ? 1 : 0); }

    template <class E>
    void
    enumU8(E v, E /*max*/, const char * /*what*/)
    {
        out.push_back(static_cast<std::uint8_t>(v));
    }

    /** A u32 count, then each element. */
    template <class T, class F>
    void
    list(const std::vector<T> &v, std::size_t /*minBytes*/, F &&each)
    {
        u32(std::uint32_t(v.size()));
        for (const T &x : v)
            each(x);
    }

    /** A presence bool, then the value if present. */
    template <class T, class F>
    void
    optional(const std::optional<T> &v, F &&each)
    {
        boolean(v.has_value());
        if (v)
            each(*v);
    }

    /** base, then the length-prefixed valid bytes, straight from the
     *  shared page handle: writing a snapshot never copies a page. */
    void
    page(const MemoryImage::Entry &entry)
    {
        u32(entry.base);
        u32(entry.length);
        out.insert(out.end(), entry.page->bytes.data(),
                   entry.page->bytes.data() + entry.length);
    }

    void
    str(std::string_view s)
    {
        u32(std::uint32_t(s.size()));
        out.insert(out.end(), s.begin(), s.end());
    }

  private:
    template <unsigned N, class T>
    void
    append(const T &v)
    {
        static_assert(sizeof(T) == N, "field width is not its wire width");
        for (unsigned i = 0; i < N; ++i)
            out.push_back(std::uint8_t(std::uint64_t(v) >> (8 * i)));
    }
};

/**
 * Bounds-checked little-endian decoder over untrusted input: every
 * structural problem is a FatalError naming it, never undefined
 * behaviour, and no length can ask for more than the input holds.
 */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    template <class T> void u8(T &v) { read<1>(v); }
    template <class T> void u16(T &v) { read<2>(v); }
    template <class T> void u32(T &v) { read<4>(v); }
    template <class T> void u64(T &v) { read<8>(v); }

    /** A bool byte, which must be 0 or 1 (into a bool or a 0/1 byte). */
    template <class T>
    void
    boolean(T &v)
    {
        const std::uint64_t raw = take(1);
        if (raw > 1)
            fatal(cat("snapshot decode: bad bool ", unsigned(raw),
                      " at byte ", pos_ - 1));
        v = static_cast<T>(raw);
    }

    /** An enum byte, which must not exceed @p max. */
    template <class E>
    void
    enumU8(E &v, E max, const char *what)
    {
        const std::uint64_t raw = take(1);
        if (raw > static_cast<std::uint64_t>(max))
            fatal(cat("snapshot decode: bad ", what, " ", unsigned(raw)));
        v = static_cast<E>(raw);
    }

    /** A count, each element taking at least @p minBytes on the wire. */
    template <class T, class F>
    void
    list(std::vector<T> &v, std::size_t minBytes, F &&each)
    {
        v.resize(length(minBytes));
        for (T &x : v)
            each(x);
    }

    template <class T, class F>
    void
    optional(std::optional<T> &v, F &&each)
    {
        bool present = false;
        boolean(present);
        if (present)
            each(v.emplace());
    }

    /** A page entry, its bytes read straight into a new Page. */
    void
    page(MemoryImage::Entry &entry)
    {
        u32(entry.base);
        const std::size_t n = length(1);
        if (n == 0 || n > Page::size)
            fatal(cat("snapshot decode: bad page length ", n, " at 0x",
                      std::hex, entry.base));
        auto page = std::make_shared<Page>();
        std::memcpy(page->bytes.data(), data_ + pos_, n);
        pos_ += n;
        entry = {entry.base, std::uint32_t(n), std::move(page)};
    }

    std::string
    str()
    {
        const std::size_t n = length(1);
        std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    void
    finish() const
    {
        if (pos_ != size_)
            fatal(cat("snapshot decode: ", size_ - pos_,
                      " trailing bytes"));
    }

  private:
    /** A u32 length prefix that must fit in the remaining input. */
    std::size_t
    length(std::size_t minBytes)
    {
        std::uint32_t n = 0;
        u32(n);
        if (n > (size_ - pos_) / minBytes)
            fatal(cat("snapshot decode: length ", n,
                      " exceeds remaining input at byte ", pos_));
        return n;
    }

    template <unsigned N, class T>
    void
    read(T &v)
    {
        static_assert(sizeof(T) == N, "field width is not its wire width");
        v = static_cast<T>(take(N));
    }

    std::uint64_t
    take(unsigned bytes)
    {
        if (size_ - pos_ < bytes) // names the first missing byte
            fatal(cat("snapshot decode: truncated at byte ", size_));
        std::uint64_t v = 0;
        for (unsigned i = 0; i < bytes; ++i)
            v |= std::uint64_t(data_[pos_++]) << (8 * i);
        return v;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

// -- Shared sub-structs ------------------------------------------------

template <class Ar, class S>
void
ioMemStats(Ar &ar, S &s)
{
    ar.u64(s.reads);
    ar.u64(s.writes);
    ar.u64(s.fetches);
    ar.u64(s.bytesRead);
    ar.u64(s.bytesWritten);
}

template <class Ar, class S>
void
ioPages(Ar &ar, S &image)
{
    ar.list(image.entries, 8 /* base + length */,
            [&](auto &entry) { ar.page(entry); });
}

template <class Ar, class S>
void
ioCondCodes(Ar &ar, S &cc)
{
    ar.boolean(cc.n);
    ar.boolean(cc.z);
    ar.boolean(cc.v);
    ar.boolean(cc.c);
}

template <class Ar, class S>
void
ioLevel(Ar &ar, S &level)
{
    ar.u32(level.config.sizeBytes);
    ar.u32(level.config.lineBytes);
    ar.u32(level.config.missPenaltyCycles);
    ar.enumU8(level.config.policy, mem::WritePolicy::WriteBack,
              "write policy");
    ar.list(level.tags, 4, [&](auto &tag) { ar.u32(tag); });
    ar.list(level.valid, 1, [&](auto &bit) { ar.boolean(bit); });
    ar.list(level.dirty, 1, [&](auto &bit) { ar.boolean(bit); });
    ar.u64(level.stats.hits);
    ar.u64(level.stats.misses);
    ar.u64(level.stats.writebacks);
    ar.u64(level.stats.penaltyCycles);
}

template <class Ar, class S>
void
ioHierarchy(Ar &ar, S &h)
{
    const auto level = [&](auto &l) { ioLevel(ar, l); };
    ar.optional(h.l1i, level);
    ar.optional(h.l1d, level);
    ar.optional(h.l2, level);
}

// -- RISC I backend ----------------------------------------------------

template <class Ar, class S>
void
ioRunStats(Ar &ar, S &s)
{
    ar.u64(s.cycles);
    ar.u64(s.instructions);
    for (auto &v : s.perOpcode)
        ar.u64(v);
    for (auto &v : s.perClass)
        ar.u64(v);
    ar.u64(s.takenTransfers);
    ar.u64(s.untakenJumps);
    ar.u64(s.delaySlotsExecuted);
    ar.u64(s.delaySlotNops);
    ar.u64(s.calls);
    ar.u64(s.returns);
    ar.u64(s.windowOverflows);
    ar.u64(s.windowUnderflows);
    ar.u64(s.callDepth);    // two's complement
    ar.u64(s.maxCallDepth);
    ar.u64(s.loadCount);
    ar.u64(s.storeCount);
    ar.u64(s.spillWords);
    ar.u64(s.fillWords);
    ar.u64(s.softSaveWords);
    ar.u64(s.softRestoreWords);
    ar.u64(s.regOperandReads);
    ar.u64(s.regOperandWrites);
}

template <class Ar, class S>
void
ioRisc(Ar &ar, S &s)
{
    ar.u32(s.windows.numGlobals);
    ar.u32(s.windows.numLocals);
    ar.u32(s.windows.overlap);
    ar.u32(s.windows.numWindows);
    ar.u64(s.memorySize);
    ar.boolean(s.windowedCalls);

    ar.list(s.physRegs, 4, [&](auto &r) { ar.u32(r); });
    ar.u32(s.cwp);
    ioCondCodes(ar, s.psw.cc);
    ar.boolean(s.psw.intEnable);
    ar.u8(s.psw.cwp);
    ar.u8(s.psw.swp);
    ar.u32(s.pc);
    ar.u32(s.npc);
    ar.u32(s.lastPc);
    ar.boolean(s.halted);
    ar.boolean(s.inDelaySlot);
    ar.boolean(s.hasNpcOverride);
    ar.u32(s.npcOverride);
    ar.u32(s.resident);
    ar.u32(s.saved);
    ar.u32(s.spillSp);
    ar.u32(s.softSp);
    ar.boolean(s.interruptPending);
    ar.u32(s.interruptVector);
    ar.u64(s.interruptsTaken);

    ioRunStats(ar, s.stats);
    ioMemStats(ar, s.memStats);
    ar.list(s.callTrace, 1, [&](auto &ev) {
        ar.enumU8(ev, CallEvent::Return, "call event");
    });

    ioPages(ar, s.pages);
    ioHierarchy(ar, s.caches);
}

// -- VAX backend -------------------------------------------------------

template <class Ar, class S>
void
ioVaxStats(Ar &ar, S &s)
{
    ar.u64(s.cycles);
    ar.u64(s.instructions);
    for (auto &v : s.perClass)
        ar.u64(v);
    ar.u64(s.branchesTaken);
    ar.u64(s.branchesUntaken);
    ar.u64(s.calls);
    ar.u64(s.returns);
    ar.u64(s.callDepth);    // two's complement
    ar.u64(s.maxCallDepth);
    ar.u64(s.memOperandReads);
    ar.u64(s.memOperandWrites);
    ar.u64(s.regOperandReads);
    ar.u64(s.regOperandWrites);
    ar.u64(s.instrBytes);
}

template <class Ar, class S>
void
ioVax(Ar &ar, S &s)
{
    ar.u64(s.memorySize);
    for (auto &r : s.regs)
        ar.u32(r);
    ioCondCodes(ar, s.cc);
    ar.boolean(s.halted);
    ioVaxStats(ar, s.stats);
    ioMemStats(ar, s.memStats);
    ioPages(ar, s.pages);
    ioHierarchy(ar, s.caches);
}

} // namespace

std::vector<std::uint8_t>
serializeSnapshot(const TargetSnapshot &snap)
{
    Writer w;
    w.u32(kMagic);
    w.u16(kVersion);
    w.str(snap.backend());
    if (const auto *risc = dynamic_cast<const RiscTargetSnapshot *>(&snap))
        ioRisc(w, risc->machineSnapshot());
    else if (const auto *vax = dynamic_cast<const VaxTargetSnapshot *>(&snap))
        ioVax(w, vax->machineSnapshot());
    else
        fatal(cat("serializeSnapshot: unsupported backend '",
                  snap.backend(), "'"));
    return std::move(w.out);
}

std::shared_ptr<const TargetSnapshot>
deserializeSnapshot(const std::uint8_t *data, std::size_t size)
{
    Reader r(data, size);
    std::uint32_t magic = 0;
    r.u32(magic);
    if (magic != kMagic)
        fatal("snapshot decode: bad magic");
    std::uint16_t version = 0;
    r.u16(version);
    if (version != kVersion)
        fatal(cat("snapshot decode: unsupported version ", version));
    const std::string backend = r.str();
    std::shared_ptr<const TargetSnapshot> snap;
    if (backend == "risc") {
        MachineSnapshot s;
        ioRisc(r, s);
        snap = std::make_shared<RiscTargetSnapshot>(std::move(s));
    } else if (backend == "vax") {
        VaxSnapshot s;
        ioVax(r, s);
        snap = std::make_shared<VaxTargetSnapshot>(std::move(s));
    } else {
        fatal(cat("snapshot decode: unknown backend '", backend, "'"));
    }
    r.finish();
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
    // Write <path>.tmp, make it durable, then rename it over @p path:
    // a failure at any step leaves the earlier file whole, and a
    // reader never sees a partial one.
    const std::vector<std::uint8_t> bytes = serializeSnapshot(snap);
    const std::string tmp = path + ".tmp";
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    const auto fail = [&](std::string_view what) {
        const int err = errno;
        if (fd >= 0)
            ::close(fd);
        ::unlink(tmp.c_str());
        fatal(cat(what, tmp, ": ", std::strerror(err)));
    };
    if (fd < 0)
        fail("cannot open snapshot file for writing: ");
    for (std::size_t done = 0; done < bytes.size();) {
        const ::ssize_t n =
            ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            fail("short write to snapshot file: ");
        done += std::size_t(n);
    }
    if (::fsync(fd) != 0)
        fail("cannot fsync snapshot file: ");
    const int closed = ::close(fd);
    fd = -1;
    if (closed != 0)
        fail("cannot close snapshot file: ");
    if (::rename(tmp.c_str(), path.c_str()) != 0)
        fail(cat("cannot rename snapshot file over ", path, ": "));
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
