/**
 * @file
 * Byte-addressable little-endian main memory shared by both simulated
 * machines.  Contents live in refcounted immutable pages with
 * copy-on-write on first mutation, so snapshots and forks share pages
 * with the live machine in O(pages touched) instead of deep-copying
 * (docs/MEMORY.md).  Counts every access by kind so the benches can
 * report the data-traffic numbers the paper's evaluation rests on.
 */

#ifndef RISC1_MEMORY_MEMORY_HH
#define RISC1_MEMORY_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace risc1 {

/** Access statistics kept by Memory. */
struct MemoryStats
{
    std::uint64_t reads = 0;        ///< data reads (any width)
    std::uint64_t writes = 0;       ///< data writes (any width)
    std::uint64_t fetches = 0;      ///< instruction fetches
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;

    bool operator==(const MemoryStats &) const = default;

    void
    reset()
    {
        *this = MemoryStats{};
    }

    /** Serialize to @p w as a JSON object (see docs/SIM.md). */
    void writeJson(class JsonWriter &w) const;
};

/**
 * One fixed-size block of memory content.  Pages are shared between
 * live machines, snapshots, and forks through shared_ptr<const Page>
 * handles; content behind a shared handle is never mutated.  A Memory
 * mutates a page in place only while it is the page's sole owner
 * (tracked per slot), and copies it first otherwise — classic
 * copy-on-write.
 */
struct Page
{
    /** Page size in bytes (also the snapshot dirty-page granularity). */
    static constexpr std::uint32_t size = 4096;

    std::array<std::uint8_t, size> bytes;

    /**
     * The process-wide all-zero page.  Every untouched slot of every
     * Memory aliases this single page, so a freshly constructed 16 MiB
     * memory allocates no content at all.  The handle has no control
     * block (use_count() is 0): copies of it are plain pointer copies,
     * so callers must compare against it before trusting use_count().
     */
    static const std::shared_ptr<const Page> &zero();
};

/** Shared immutable page handle (see Page). */
using PageRef = std::shared_ptr<const Page>;

/**
 * A value-semantics view of a memory's dirty contents: one entry per
 * page written since construction (or the last clear()/restore), in
 * ascending address order, each holding a shared handle to immutable
 * page content.  Capturing an image is O(dirty pages) handle copies —
 * no bytes move; the live memory copy-on-writes the next time it
 * mutates a captured page.  Memory starts zeroed, so an image is a
 * complete content snapshot: adopting it into a memory of the same
 * size reproduces the full state.
 *
 * Equality is *content* equality (pointer-equal pages short-circuit
 * to true), so images captured from two independently-run machines
 * compare the way the lockstep suites expect.
 */
struct MemoryImage
{
    struct Entry
    {
        std::uint32_t base = 0;   ///< page-aligned start address
        /** Valid bytes; < Page::size only for a trailing partial page. */
        std::uint32_t length = 0;
        PageRef page;             ///< shared immutable content

        bool operator==(const Entry &other) const;
    };

    std::vector<Entry> entries;   ///< ascending base order

    /** Number of captured pages. */
    std::size_t size() const { return entries.size(); }
    bool empty() const { return entries.empty(); }

    bool operator==(const MemoryImage &) const = default;
};

/**
 * Owned/shared page accounting for one Memory (Memory::usage()).
 * Zero (never-touched) pages cost nothing and count in neither
 * bucket.
 */
struct MemoryUsage
{
    /** Bytes in non-zero pages only this memory references — the
     *  copy-on-write delta it would free if destroyed. */
    std::uint64_t residentBytes = 0;
    /** Bytes in non-zero pages aliased by snapshots, images, or
     *  forks of this memory. */
    std::uint64_t sharedBytes = 0;
};

/**
 * Paged little-endian memory.
 *
 * Word (32-bit) accesses must be 4-aligned and halfword accesses
 * 2-aligned; misalignment raises FatalError (the simulated machines
 * surface this as an alignment trap).  Because pageBytes is a
 * multiple of 4, an aligned access never crosses a page boundary;
 * only load() spans pages.
 */
class Memory
{
  public:
    /** Dirty-tracking granularity (bytes). */
    static constexpr std::uint32_t pageBytes = Page::size;

    /** Write-generation tracking granularity (bytes). */
    static constexpr std::uint32_t genLineBytes = 64;

    /** Generation lines per page. */
    static constexpr std::uint32_t linesPerPage = pageBytes / genLineBytes;

    /** Create a memory of @p size bytes (default 16 MiB). */
    explicit Memory(std::size_t size = 16u << 20);

    std::size_t size() const { return size_; }

    // -- Data accesses (counted in reads/writes) -----------------------
    std::uint32_t readWord(std::uint32_t addr);
    std::uint16_t readHalf(std::uint32_t addr);
    std::uint8_t readByte(std::uint32_t addr);
    void writeWord(std::uint32_t addr, std::uint32_t value);
    void writeHalf(std::uint32_t addr, std::uint16_t value);
    void writeByte(std::uint32_t addr, std::uint8_t value);

    // -- Instruction fetch (counted separately) ------------------------
    std::uint32_t fetchWord(std::uint32_t addr);
    /** Variable-length fetch for the CISC machine (1 byte). */
    std::uint8_t fetchByte(std::uint32_t addr);
    /**
     * Account one instruction fetch without touching memory.  The
     * predecoded fast path uses this when it serves an instruction from
     * its decode cache, so MemoryStats stay bit-identical to the
     * fetch-every-step reference interpreter.
     */
    void countFetch() { ++stats_.fetches; }

    // -- Uncounted debug/loader access ---------------------------------
    std::uint32_t peekWord(std::uint32_t addr) const;
    std::uint8_t peekByte(std::uint32_t addr) const;
    void pokeWord(std::uint32_t addr, std::uint32_t value);
    void pokeByte(std::uint32_t addr, std::uint8_t value);
    /** Copy a block of bytes into memory (loader). */
    void load(std::uint32_t addr, const std::uint8_t *bytes,
              std::size_t count);

    const MemoryStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }
    /** Overwrite the counters (machine snapshot restore). */
    void setStats(const MemoryStats &stats) { stats_ = stats; }

    /** Zero all contents, statistics, and dirty-page marks. */
    void clear();

    // -- Snapshot support ----------------------------------------------
    /**
     * Every page written since construction (or the last clear() /
     * restoreContents()), in ascending address order, as shared page
     * handles — O(dirty pages), no content copied.  Capturing marks
     * the returned pages shared, so the next write to one of them
     * copies it first (the image stays frozen).
     */
    MemoryImage dirtyPages() const;

    /**
     * Adopt @p image as the new contents and dirty set: pages in the
     * image are aliased (not copied), pages absent from it revert to
     * the zero page, and statistics reset.  O(pages that differ)
     * content work; a page whose content is unchanged — same handle,
     * or equal bytes — keeps its write generations, so decode caches
     * built against it stay warm across a snapshot-restore fork.
     */
    void restoreContents(const MemoryImage &image);

    /** Owned vs shared accounting over the non-zero pages. */
    MemoryUsage usage() const;

    // -- Write generations (predecode-cache invalidation) --------------
    /**
     * Monotonic per-line write counter: bumped every time any byte of
     * the genLineBytes-sized line changes (data writes, pokes, loader
     * blocks, clear(), snapshot restore).  A consumer that caches
     * derived state — the Machine's predecoded-instruction cache —
     * records the generation it was built against and revalidates when
     * it moves.  Lines are much smaller than pages so that data stores
     * merely near code (workloads commonly place both on one page)
     * do not disturb the cached code lines.
     *
     * A line's generation is the sum of a per-page base — bumped in
     * O(1) when a whole page's content moves (clear, restore) — and a
     * lazily allocated per-line block for ordinary writes.  A fork
     * that only adopts pages therefore allocates no generation
     * storage at all, which is what keeps the 10k-way fan-out
     * footprint at handles + tables (bench/fig_fork_fanout.cc).
     */
    std::uint64_t
    lineGen(std::size_t lineIndex) const
    {
        const std::size_t p = lineIndex / linesPerPage;
        const auto &block = lineGens_[p];
        return pageGenBase_[p] +
               (block ? (*block)[lineIndex % linesPerPage] : 0);
    }

    /** Number of pageBytes-sized pages. */
    std::size_t numPages() const { return pages_.size(); }

  private:
    using LineGens = std::array<std::uint64_t, linesPerPage>;

    void check(std::uint32_t addr, unsigned bytes) const;

    /** Read-only byte pointer; aligned accesses stay on one page. */
    const std::uint8_t *
    ro(std::uint32_t addr) const
    {
        return pages_[addr / pageBytes]->bytes.data() + addr % pageBytes;
    }

    /**
     * Writable byte pointer: copy-on-writes the page unless this
     * memory is its sole owner.  Owned pages were created mutable
     * (make_shared<Page>) and have exactly one reference, so shedding
     * const is defined behavior.
     */
    std::uint8_t *
    rw(std::uint32_t addr)
    {
        const std::size_t p = addr / pageBytes;
        if (!owned_[p])
            materialize(p);
        return const_cast<std::uint8_t *>(pages_[p]->bytes.data()) +
               addr % pageBytes;
    }

    void materialize(std::size_t p);

    /** Move the write generations of the lines [addr, addr+bytes) span. */
    void
    bumpLines(std::uint32_t addr, std::size_t bytes)
    {
        for (std::size_t l = addr / genLineBytes;
             l <= (addr + bytes - 1) / genLineBytes; ++l)
            ++gens(l / linesPerPage)[l % linesPerPage];
    }

    /** Bump every line generation of page @p p (whole-page content
     *  change) — O(1) via the per-page base, no block allocation. */
    void bumpPage(std::size_t p) { ++pageGenBase_[p]; }

    LineGens &
    gens(std::size_t p)
    {
        if (!lineGens_[p])
            lineGens_[p] = std::make_unique<LineGens>();
        return *lineGens_[p];
    }

    std::size_t size_;
    std::vector<PageRef> pages_;  ///< one handle per page; zero singleton if untouched
    /**
     * 1 = this memory holds the slot's only reference and may mutate
     * the page in place; cleared whenever the handle is shared out
     * (dirtyPages capture, restore adoption).  A cached answer to
     * "use_count() == 1" so the hot write path stays branch + index.
     * Mutable because capturing an image from a const memory shares
     * its pages.
     */
    mutable std::vector<std::uint8_t> owned_;
    std::vector<std::uint64_t> pageGenBase_; ///< whole-page bumps, see lineGen()
    std::vector<std::unique_ptr<LineGens>> lineGens_; ///< lazy, see lineGen()
    MemoryStats stats_;
};

} // namespace risc1

#endif // RISC1_MEMORY_MEMORY_HH
