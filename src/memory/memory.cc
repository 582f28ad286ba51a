#include "memory/memory.hh"

#include <algorithm>
#include <cstring>

#include "common/json.hh"
#include "common/logging.hh"

namespace risc1 {

void
MemoryStats::writeJson(JsonWriter &w) const
{
    w.beginObject()
        .field("reads", reads)
        .field("writes", writes)
        .field("fetches", fetches)
        .field("bytesRead", bytesRead)
        .field("bytesWritten", bytesWritten)
        .endObject();
}

const std::shared_ptr<const Page> &
Page::zero()
{
    // An aliasing handle with no control block: copying or dropping
    // it touches no reference count, so building or destroying a
    // memory does no atomic work on a line every thread shares.
    static const Page page{};
    static const PageRef handle(PageRef(), &page);
    return handle;
}

bool
MemoryImage::Entry::operator==(const Entry &other) const
{
    if (base != other.base || length != other.length)
        return false;
    if (page == other.page)
        return true;
    if (!page || !other.page)
        return false;
    // Content equality: images from two independently-run machines
    // hold distinct Page objects with (hopefully) identical bytes.
    // Bytes past `length` are zero in any well-formed page, so
    // comparing the valid prefix suffices.
    return std::memcmp(page->bytes.data(), other.page->bytes.data(),
                       length) == 0;
}

Memory::Memory(std::size_t size)
    : size_(size),
      pages_((size + pageBytes - 1) / pageBytes, Page::zero()),
      owned_((size + pageBytes - 1) / pageBytes, 0),
      pageGenBase_((size + pageBytes - 1) / pageBytes, 0),
      lineGens_((size + pageBytes - 1) / pageBytes)
{
    if (size == 0 || size % 4 != 0)
        fatal(cat("memory size must be a positive multiple of 4, got ",
                  size));
}

void
Memory::fault(std::uint32_t addr, unsigned bytes) const
{
    if (addr % bytes != 0)
        fatal(cat("misaligned ", bytes, "-byte access at address 0x",
                  std::hex, addr));
    fatal(cat("out-of-range ", std::dec, bytes,
              "-byte access at address 0x", std::hex, addr,
              " (memory size 0x", size_, ")"));
}

void
Memory::materialize(std::size_t p)
{
    // If the last outside reference died since the page was shared
    // out, this memory is the sole owner again and can mutate in
    // place.  No race: a count of 1 means nobody else holds a handle
    // to copy from.
    if (pages_[p].use_count() == 1 && pages_[p] != Page::zero()) {
        owned_[p] = 1;
        return;
    }
    pages_[p] = std::make_shared<Page>(*pages_[p]); // copy-on-write
    owned_[p] = 1;
}

Memory::LineGens &
Memory::newGens(std::size_t p)
{
    lineGens_[p] = std::make_unique<LineGens>();
    return *lineGens_[p];
}

void
Memory::load(std::uint32_t addr, const std::uint8_t *bytes,
             std::size_t count)
{
    if (static_cast<std::size_t>(addr) + count > size_)
        fatal(cat("loader: block of ", count, " bytes at 0x", std::hex,
                  addr, " exceeds memory"));
    if (count == 0)
        return;
    bumpLines(addr, count);
    // The only access allowed to span pages: copy page-sized chunks.
    while (count > 0) {
        const std::size_t chunk =
            std::min<std::size_t>(count, pageBytes - addr % pageBytes);
        std::memcpy(rw(addr), bytes, chunk);
        addr += static_cast<std::uint32_t>(chunk);
        bytes += chunk;
        count -= chunk;
    }
}

void
Memory::clear()
{
    const PageRef &z = Page::zero();
    for (std::size_t p = 0; p < pages_.size(); ++p) {
        if (pages_[p] == z)
            continue;
        pages_[p] = z;
        owned_[p] = 0;
        // The page held (possibly) non-zero content, so every line it
        // covers may have changed.  Untouched pages were zero before
        // and after, so their generations — and any decode built over
        // them — stay valid.
        bumpPage(p);
    }
    stats_.reset();
}

MemoryImage
Memory::dirtyPages() const
{
    MemoryImage image;
    const PageRef &z = Page::zero();
    for (std::size_t p = 0; p < pages_.size(); ++p) {
        if (pages_[p] == z)
            continue;
        MemoryImage::Entry entry;
        entry.base = static_cast<std::uint32_t>(p * pageBytes);
        entry.length = static_cast<std::uint32_t>(
            std::min<std::size_t>(pageBytes, size_ - entry.base));
        entry.page = pages_[p];
        image.entries.push_back(std::move(entry));
        // The page is now aliased by the image: the next write to it
        // must copy first so the image stays frozen.
        owned_[p] = 0;
    }
    return image;
}

void
Memory::restoreContents(const MemoryImage &image)
{
    // Index incoming entries by page slot (last entry wins, matching
    // the old replay semantics).
    std::vector<const MemoryImage::Entry *> incoming(pages_.size(),
                                                     nullptr);
    for (const auto &entry : image.entries) {
        if (!entry.page || entry.base % pageBytes != 0 ||
            entry.length == 0 || entry.length > pageBytes ||
            static_cast<std::size_t>(entry.base) + entry.length > size_)
            fatal(cat("memory restore: bad page at 0x", std::hex,
                      entry.base));
        incoming[entry.base / pageBytes] = &entry;
    }
    const PageRef &z = Page::zero();
    for (std::size_t p = 0; p < pages_.size(); ++p) {
        const MemoryImage::Entry *e = incoming[p];
        if (e == nullptr) {
            // Not in the image: revert to zero.  Only a previously
            // dirty page actually changes content here.
            if (pages_[p] != z) {
                pages_[p] = z;
                owned_[p] = 0;
                bumpPage(p);
            }
            continue;
        }
        if (pages_[p] == e->page)
            continue; // already aliasing this exact page
        const bool identical =
            std::memcmp(pages_[p]->bytes.data(), e->page->bytes.data(),
                        pageBytes) == 0;
        // Adopt the shared handle either way (dedupes an equal copy
        // back onto the image's page); bump generations only when the
        // bytes really moved, so decode caches stay warm across a
        // same-content restore.
        pages_[p] = e->page;
        owned_[p] = 0;
        if (!identical)
            bumpPage(p);
    }
    stats_.reset();
}

MemoryUsage
Memory::usage() const
{
    MemoryUsage u;
    const PageRef &z = Page::zero();
    for (std::size_t p = 0; p < pages_.size(); ++p) {
        if (pages_[p] == z)
            continue;
        const std::uint64_t bytes =
            std::min<std::size_t>(pageBytes, size_ - p * pageBytes);
        if (pages_[p].use_count() == 1)
            u.residentBytes += bytes;
        else
            u.sharedBytes += bytes;
    }
    return u;
}

} // namespace risc1
