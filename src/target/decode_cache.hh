/**
 * @file
 * The generation-validated decode cache shared by every backend's
 * predecoded fast path.
 *
 * Both simulated machines memoize per-address decode work — the RISC I
 * machine one DecodedInst per word-aligned address, the CISC baseline
 * one variable-length instruction record per byte address.  What they
 * share is the invalidation scheme: Memory keeps a monotonic write
 * generation per Memory::genLineBytes-sized line, bumped by every
 * content change (data writes, pokes, loader blocks, clear(), snapshot
 * restore), and each cache slot records the generations of the lines
 * its instruction spans.  A slot whose line generations still match is
 * served without touching memory; a slot whose generations moved must
 * re-fetch its bytes and — only if they really changed — re-decode.
 *
 * There is no explicit flush anywhere: correctness is carried entirely
 * by the generation check, so new machine APIs that mutate memory
 * cannot forget to invalidate.
 *
 * The cache is organized as one lazily allocated slot array per memory
 * page (Memory::pageBytes), so the resident cost is proportional to
 * the pages code actually executes from, not to the memory size; the
 * page directory itself is one pointer per page.
 */

#ifndef RISC1_TARGET_DECODE_CACHE_HH
#define RISC1_TARGET_DECODE_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "memory/memory.hh"

namespace risc1::target {

/**
 * A per-address decode cache.
 *
 * @tparam Payload   backend decode record stored in each slot
 * @tparam SlotShift log2 of the address granularity: 2 for one slot
 *                   per 32-bit word (RISC I), 0 for one slot per byte
 *                   (variable-length CISC encodings)
 */
template <typename Payload, unsigned SlotShift>
class DecodeCache
{
  public:
    /** Never matches a real write generation, so default-constructed
     *  slots always miss. */
    static constexpr std::uint64_t staleGen = ~0ull;

    struct Slot
    {
        Payload payload{};
        /** Write generation of the instruction's first line when the
         *  slot was last validated. */
        std::uint64_t gen = staleGen;
        /** Same for the last line the instruction spans (equal to
         *  @ref gen when the span stays within one line). */
        std::uint64_t lastGen = staleGen;

        /** True until the slot is first filled. */
        bool empty() const { return gen == staleGen; }
    };

    /** Size the page directory to @p mem (cheap when unchanged). */
    void
    sync(const Memory &mem)
    {
        if (pages_.size() != mem.numPages())
            pages_.resize(mem.numPages());
    }

    /** The slot for @p addr; its page is allocated on first use. */
    Slot &
    slot(std::uint32_t addr)
    {
        auto &page = pages_[addr / Memory::pageBytes];
        if (!page)
            page = std::make_unique<Slot[]>(Memory::pageBytes >> SlotShift);
        return page[(addr & (Memory::pageBytes - 1)) >> SlotShift];
    }

    /** Is @p s still valid for the @p span bytes at @p addr? */
    static bool
    valid(const Slot &s, const Memory &mem, std::uint32_t addr,
          std::uint32_t span)
    {
        return s.gen == mem.lineGen(addr / Memory::genLineBytes) &&
               s.lastGen ==
                   mem.lineGen((addr + span - 1) / Memory::genLineBytes);
    }

    /** Stamp @p s with the current generations of its span's lines. */
    static void
    revalidate(Slot &s, const Memory &mem, std::uint32_t addr,
               std::uint32_t span)
    {
        s.gen = mem.lineGen(addr / Memory::genLineBytes);
        s.lastGen =
            mem.lineGen((addr + span - 1) / Memory::genLineBytes);
    }

  private:
    std::vector<std::unique_ptr<Slot[]>> pages_;
};

} // namespace risc1::target

#endif // RISC1_TARGET_DECODE_CACHE_HH
