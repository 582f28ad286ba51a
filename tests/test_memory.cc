/** Unit tests for the memory subsystem. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "memory/memory.hh"

namespace risc1 {
namespace {

TEST(Memory, LittleEndianWords)
{
    Memory mem(4096);
    mem.writeWord(0, 0xdeadbeef);
    EXPECT_EQ(mem.readByte(0), 0xef);
    EXPECT_EQ(mem.readByte(1), 0xbe);
    EXPECT_EQ(mem.readByte(2), 0xad);
    EXPECT_EQ(mem.readByte(3), 0xde);
    EXPECT_EQ(mem.readWord(0), 0xdeadbeefu);
}

TEST(Memory, HalfwordAccess)
{
    Memory mem(4096);
    mem.writeHalf(10, 0xabcd);
    EXPECT_EQ(mem.readHalf(10), 0xabcd);
    EXPECT_EQ(mem.readByte(10), 0xcd);
    EXPECT_EQ(mem.readByte(11), 0xab);
}

TEST(Memory, MisalignedWordRejected)
{
    Memory mem(4096);
    EXPECT_THROW(mem.readWord(2), FatalError);
    EXPECT_THROW(mem.writeWord(1, 0), FatalError);
    EXPECT_THROW(mem.readHalf(3), FatalError);
    EXPECT_THROW(mem.fetchWord(6), FatalError);
}

TEST(Memory, OutOfRangeRejected)
{
    Memory mem(4096);
    EXPECT_THROW(mem.readWord(4096), FatalError);
    EXPECT_THROW(mem.readByte(4096), FatalError);
    EXPECT_THROW(mem.writeWord(4094 + 4, 0), FatalError);
    EXPECT_NO_THROW(mem.readWord(4092));
}

/** The FatalError text an access raises ("" when it raises none). */
template <typename Access>
std::string
faultText(Access &&access)
{
    try {
        access();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(Memory, FaultTextIsPinned)
{
    // These strings reach riscdiff reports, postmortems and riscserved
    // replies.  Alignment is checked before range.
    Memory mem(4096);
    EXPECT_EQ(faultText([&] { mem.readWord(2); }),
              "misaligned 4-byte access at address 0x2");
    EXPECT_EQ(faultText([&] { mem.readWord(4096); }),
              "out-of-range 4-byte access at address 0x1000 "
              "(memory size 0x1000)");
    EXPECT_EQ(faultText([&] { mem.readWord(4097); }),
              "misaligned 4-byte access at address 0x1001");
    EXPECT_EQ(faultText([&] { mem.writeHalf(4095, 0); }),
              "misaligned 2-byte access at address 0xfff");
}

TEST(Memory, StatsCountAccesses)
{
    Memory mem(4096);
    mem.writeWord(0, 1);
    mem.writeByte(8, 2);
    (void)mem.readWord(0);
    (void)mem.readHalf(0);
    (void)mem.fetchWord(4);
    EXPECT_EQ(mem.stats().writes, 2u);
    EXPECT_EQ(mem.stats().reads, 2u);
    EXPECT_EQ(mem.stats().fetches, 1u);
    EXPECT_EQ(mem.stats().bytesWritten, 5u);
    EXPECT_EQ(mem.stats().bytesRead, 6u);
}

TEST(Memory, PeekPokeUncounted)
{
    Memory mem(4096);
    mem.pokeWord(16, 0x12345678);
    EXPECT_EQ(mem.peekWord(16), 0x12345678u);
    EXPECT_EQ(mem.peekByte(16), 0x78);
    EXPECT_EQ(mem.stats().reads, 0u);
    EXPECT_EQ(mem.stats().writes, 0u);
}

TEST(Memory, LoaderCopiesBlock)
{
    Memory mem(4096);
    const std::uint8_t blob[] = {1, 2, 3, 4, 5};
    mem.load(100, blob, sizeof(blob));
    for (unsigned i = 0; i < 5; ++i)
        EXPECT_EQ(mem.peekByte(100 + i), blob[i]);
    EXPECT_THROW(mem.load(4094, blob, sizeof(blob)), FatalError);
}

TEST(Memory, ClearZeroesEverything)
{
    Memory mem(4096);
    mem.writeWord(0, 99);
    mem.clear();
    EXPECT_EQ(mem.peekWord(0), 0u);
    EXPECT_EQ(mem.stats().writes, 0u);
}

TEST(Memory, BadSizesRejected)
{
    EXPECT_THROW(Memory(0), FatalError);
    EXPECT_THROW(Memory(1023), FatalError);
}

// -- Copy-on-write page store (docs/MEMORY.md) -------------------------

TEST(MemoryCow, UntouchedMemoryHoldsNoPages)
{
    Memory mem(1u << 20);
    EXPECT_TRUE(mem.dirtyPages().empty());
    const MemoryUsage usage = mem.usage();
    EXPECT_EQ(usage.residentBytes, 0u);
    EXPECT_EQ(usage.sharedBytes, 0u);
}

TEST(MemoryCow, CapturedImageIsFrozen)
{
    Memory mem(16384);
    mem.pokeWord(100, 0x11111111);
    const MemoryImage image = mem.dirtyPages();
    ASSERT_EQ(image.size(), 1u);
    // Writing after the capture copy-on-writes the page; the image
    // keeps observing the old content.
    mem.pokeWord(100, 0x22222222);
    EXPECT_EQ(mem.peekWord(100), 0x22222222u);
    EXPECT_EQ(image.entries[0].page->bytes[100], 0x11);
}

TEST(MemoryCow, UsageSplitsOwnedAndShared)
{
    Memory mem(16384);
    mem.pokeWord(0, 1);
    EXPECT_EQ(mem.usage().residentBytes, Memory::pageBytes);
    EXPECT_EQ(mem.usage().sharedBytes, 0u);
    {
        const MemoryImage image = mem.dirtyPages();
        EXPECT_EQ(mem.usage().residentBytes, 0u);
        EXPECT_EQ(mem.usage().sharedBytes, Memory::pageBytes);
    }
    // The image died: the next write may reclaim sole ownership
    // without copying, and the page counts as resident again.
    mem.pokeWord(4, 2);
    EXPECT_EQ(mem.usage().residentBytes, Memory::pageBytes);
    EXPECT_EQ(mem.usage().sharedBytes, 0u);
}

TEST(MemoryCow, RestoreAdoptsSharedHandles)
{
    Memory a(16384);
    a.pokeWord(8, 0xdeadbeef);
    a.pokeWord(8192, 0x42);
    const MemoryImage image = a.dirtyPages();

    Memory b(16384);
    b.pokeWord(12288, 7); // will be dropped: not in the image
    b.restoreContents(image);
    EXPECT_EQ(b.peekWord(8), 0xdeadbeefu);
    EXPECT_EQ(b.peekWord(8192), 0x42u);
    EXPECT_EQ(b.peekWord(12288), 0u);
    // b aliases the image's pages rather than holding copies.
    EXPECT_EQ(b.usage().sharedBytes, 2 * Memory::pageBytes);
    EXPECT_EQ(b.usage().residentBytes, 0u);
    // And its dirty set is exactly the image.
    EXPECT_EQ(b.dirtyPages(), image);
}

TEST(MemoryCow, RestoreWithIdenticalContentKeepsGenerations)
{
    Memory mem(16384);
    mem.pokeWord(64, 0xabcdef01);
    const MemoryImage image = mem.dirtyPages();
    const std::uint64_t gen = mem.lineGen(64 / Memory::genLineBytes);
    // Same handles: nothing to do, generations must not move (a warm
    // decode cache stays valid across the warm-start restore).
    mem.restoreContents(image);
    EXPECT_EQ(mem.lineGen(64 / Memory::genLineBytes), gen);
    // Equal content behind a different Page object: still no bump.
    Memory copy(16384);
    copy.pokeWord(64, 0xabcdef01);
    mem.restoreContents(copy.dirtyPages());
    EXPECT_EQ(mem.lineGen(64 / Memory::genLineBytes), gen);
    // Different content must bump so caches revalidate.
    Memory other(16384);
    other.pokeWord(64, 0x12121212);
    mem.restoreContents(other.dirtyPages());
    EXPECT_GT(mem.lineGen(64 / Memory::genLineBytes), gen);
    EXPECT_EQ(mem.peekWord(64), 0x12121212u);
}

TEST(MemoryCow, RestoreRevertsAbsentPagesToZero)
{
    Memory mem(16384);
    mem.pokeWord(0, 1);
    const MemoryImage image = mem.dirtyPages();
    mem.pokeWord(8192, 2);
    const std::uint64_t gen = mem.lineGen(8192 / Memory::genLineBytes);
    mem.restoreContents(image);
    EXPECT_EQ(mem.peekWord(8192), 0u);
    EXPECT_GT(mem.lineGen(8192 / Memory::genLineBytes), gen);
    EXPECT_EQ(mem.dirtyPages().size(), 1u);
}

TEST(MemoryCow, ImageEqualityIsContentEquality)
{
    Memory a(16384);
    Memory b(16384);
    a.pokeWord(40, 1234);
    b.pokeWord(40, 1234);
    // Distinct Page objects, identical bytes: equal.
    EXPECT_EQ(a.dirtyPages(), b.dirtyPages());
    b.pokeWord(44, 5678);
    EXPECT_FALSE(a.dirtyPages() == b.dirtyPages());
}

TEST(MemoryCow, LoaderSpansPageBoundaries)
{
    Memory mem(16384);
    std::vector<std::uint8_t> blob(6000);
    for (std::size_t i = 0; i < blob.size(); ++i)
        blob[i] = static_cast<std::uint8_t>(i * 7 + 1);
    mem.load(4000, blob.data(), blob.size());
    for (std::size_t i = 0; i < blob.size(); i += 97)
        EXPECT_EQ(mem.peekByte(4000 + std::uint32_t(i)), blob[i]);
    EXPECT_EQ(mem.dirtyPages().size(), 3u);
}

TEST(MemoryCow, ZeroPageIsProcessWideSingleton)
{
    // Two untouched memories cost nothing and share the zero page.
    Memory a(1u << 20);
    Memory b(1u << 20);
    EXPECT_EQ(a.usage().residentBytes + b.usage().residentBytes, 0u);
    EXPECT_EQ(Page::zero().get(), Page::zero().get());

    // The handle has no reference count: building and destroying
    // memories copies and drops it without touching a shared counter.
    const long before = Page::zero().use_count();
    EXPECT_EQ(before, 0);
    {
        std::vector<Memory> fleet;
        for (int i = 0; i < 4; ++i)
            fleet.emplace_back(16u << 20);
        EXPECT_EQ(Page::zero().use_count(), before);
    }
    EXPECT_EQ(Page::zero().use_count(), before);

    // The first write still makes a private page, and leaves the
    // zero page all-zero.
    Memory fresh(16u << 20);
    fresh.writeWord(0x1000, 0xdeadbeef);
    EXPECT_EQ(fresh.usage().residentBytes, Page::size);
    EXPECT_EQ(fresh.peekWord(0x1000), 0xdeadbeefu);
    const Page &zero = *Page::zero();
    EXPECT_TRUE(std::all_of(zero.bytes.begin(), zero.bytes.end(),
                            [](std::uint8_t b) { return b == 0; }));
}

} // namespace
} // namespace risc1
