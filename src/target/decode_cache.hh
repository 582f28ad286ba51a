/**
 * @file
 * The generation-validated decode cache shared by every backend's
 * predecoded fast path.
 *
 * Both simulated machines memoize decode work per code address — the
 * RISC I machine one block (a straight-line run through a delay slot)
 * per address a run starts at, the CISC baseline one variable-length
 * instruction record per address an instruction starts at.  What they
 * share is the storage and the invalidation scheme.
 *
 * Storage: every memory page (Memory::pageBytes) that code runs from
 * gets one 32-bit index per slot address — per word on RISC I, per
 * byte on the VAX — allocated zeroed on the page's first lookup.  An
 * index names a record in one per-machine pool, or is 0 for none.
 * Records are appended only where code was decoded, so a code page
 * costs its index (4 KiB on RISC I, 16 KiB on the VAX) plus one record
 * per decoded start, not one value-initialised record per address.  A
 * record whose address decodes again is rewritten in place, so
 * self-modifying code does not grow the pool.  The page directory
 * itself is one pointer per page.
 *
 * Invalidation: Memory keeps a monotonic write generation per
 * Memory::genLineBytes-sized line, bumped by every content change
 * (data writes, pokes, loader blocks, clear(), snapshot restore), and
 * each record stamps the generations of the first and last line its
 * code spans.  A record whose line generations still match is served
 * without touching memory; a record whose generations moved must
 * re-read its bytes and — only if they really changed — re-decode.
 *
 * There is no explicit flush anywhere: correctness is carried entirely
 * by the generation check, so new machine APIs that mutate memory
 * cannot forget to invalidate.
 */

#ifndef RISC1_TARGET_DECODE_CACHE_HH
#define RISC1_TARGET_DECODE_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "memory/memory.hh"

namespace risc1::target {

/**
 * A per-address decode cache: a per-page index into a record pool.
 *
 * @tparam Payload   backend decode record stored in each pool entry
 * @tparam SlotShift log2 of the address granularity: 2 for one index
 *                   per 32-bit word (RISC I), 0 for one per byte
 *                   (variable-length CISC encodings)
 */
template <typename Payload, unsigned SlotShift>
class DecodeCache
{
  public:
    /** Never matches a real write generation, so a record that was
     *  never stamped always misses. */
    static constexpr std::uint64_t staleGen = ~0ull;

    /** One pool entry: the payload and the generations it was
     *  validated against. */
    struct Record : Payload
    {
        /** Write generation of the code's first line when the record
         *  was last validated. */
        std::uint64_t gen = staleGen;
        /** Same for the last line the code spans (equal to @ref gen
         *  when the span stays within one line). */
        std::uint64_t lastGen = staleGen;
    };

    /** Size the page directory to @p mem (cheap when unchanged). */
    void
    sync(const Memory &mem)
    {
        if (pages_.size() != mem.numPages())
            pages_.resize(mem.numPages());
    }

    /**
     * A fast-path loop's handle on the index: index() looks an address
     * up, reaching into the page directory only when the loop moves to
     * another page (a page's index array never moves once allocated).
     */
    class Cursor
    {
      public:
        explicit Cursor(DecodeCache &cache) : cache_(cache) {}

        /** The index of @p addr's record (0 = none); its page's index
         *  is allocated, zeroed, on first use. */
        std::uint32_t &
        index(std::uint32_t addr)
        {
            const std::uint32_t base = addr & ~(Memory::pageBytes - 1);
            if (base != base_) {
                base_ = base;
                page_ = cache_.page(addr);
            }
            return page_[(addr & (Memory::pageBytes - 1)) >> SlotShift];
        }

      private:
        DecodeCache &cache_;
        std::uint32_t base_ = 1;  ///< never page-aligned: no page yet
        std::uint32_t *page_ = nullptr;
    };

    /** The record index @p idx (non-zero) names.  A reference stays
     *  valid until the next add(). */
    Record &record(std::uint32_t idx) { return pool_[idx - 1]; }

    /** Append a fresh record and point @p idx at it. */
    Record &
    add(std::uint32_t &idx)
    {
        pool_.emplace_back();
        idx = static_cast<std::uint32_t>(pool_.size());
        return pool_.back();
    }

    /** Bytes allocated: the directory, the page indexes and the pool. */
    std::uint64_t
    bytes() const
    {
        return pages_.capacity() * sizeof(pages_[0]) +
               indexPages_ * slotsPerPage * sizeof(std::uint32_t) +
               pool_.capacity() * sizeof(Record);
    }

    /** Is @p r still valid for the @p span bytes at @p addr?  One
     *  generation read when the span stays within one line. */
    static bool
    valid(const Record &r, const Memory &mem, std::uint32_t addr,
          std::uint32_t span)
    {
        const std::uint32_t first = addr / Memory::genLineBytes;
        const std::uint32_t last = (addr + span - 1) / Memory::genLineBytes;
        return r.gen == mem.lineGen(first) &&
               (last == first || r.lastGen == mem.lineGen(last));
    }

    /** Stamp @p r with the current generations of its span's lines. */
    static void
    revalidate(Record &r, const Memory &mem, std::uint32_t addr,
               std::uint32_t span)
    {
        r.gen = mem.lineGen(addr / Memory::genLineBytes);
        r.lastGen =
            mem.lineGen((addr + span - 1) / Memory::genLineBytes);
    }

  private:
    static constexpr std::uint32_t slotsPerPage =
        Memory::pageBytes >> SlotShift;

    /** @p addr's page's record indexes, allocated on first use. */
    std::uint32_t *
    page(std::uint32_t addr)
    {
        auto &page = pages_[addr / Memory::pageBytes];
        if (!page) {
            page = std::make_unique<std::uint32_t[]>(slotsPerPage);
            ++indexPages_;
        }
        return page.get();
    }

    std::vector<std::unique_ptr<std::uint32_t[]>> pages_;
    std::uint64_t indexPages_ = 0;
    std::vector<Record> pool_;
};

} // namespace risc1::target

#endif // RISC1_TARGET_DECODE_CACHE_HH
