#include "sim/memory.h"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/bits.h"
#include "common/logging.h"

namespace uexc::sim {

namespace {

std::size_t
validSize(std::size_t size)
{
    if (size == 0 || size % 4 != 0)
        UEXC_FATAL("physical memory size %zu is not a positive word "
                   "multiple", size);
    return size;
}

} // namespace

PhysMemory::PhysMemory(std::size_t size)
    : size_(validSize(size)),
      pageVersions_((size + PageBytes - 1) / PageBytes, 0),
      zeroVersions_(pageVersions_.size(), 0)
{
    // last, so nothing after it can throw and leak the mapping
    void *arena = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (arena == MAP_FAILED)
        UEXC_FATAL("cannot map %zu bytes of physical memory: %s", size,
                   std::strerror(errno));
    data_ = static_cast<Byte *>(arena);
}

PhysMemory::~PhysMemory()
{
    munmap(data_, size_);
}

void
PhysMemory::check(Addr paddr, unsigned access_size) const
{
    if (paddr + access_size > size_ || paddr + access_size < paddr)
        UEXC_PANIC("physical access at 0x%08x size %u out of range "
                   "(memory is %zu bytes)", paddr, access_size,
                   size_);
    if (!isAligned(paddr, access_size))
        UEXC_PANIC("unaligned physical access at 0x%08x size %u "
                   "(CPU must raise AdEL/AdES before memory access)",
                   paddr, access_size);
}

Word
PhysMemory::readWord(Addr paddr) const
{
    check(paddr, 4);
    Word value;
    std::memcpy(&value, &data_[paddr], 4);
    return value;
}

Half
PhysMemory::readHalf(Addr paddr) const
{
    check(paddr, 2);
    Half value;
    std::memcpy(&value, &data_[paddr], 2);
    return value;
}

Byte
PhysMemory::readByte(Addr paddr) const
{
    check(paddr, 1);
    return data_[paddr];
}

void
PhysMemory::writeWord(Addr paddr, Word value)
{
    check(paddr, 4);
    std::memcpy(&data_[paddr], &value, 4);
    bumpVersion(paddr);
}

void
PhysMemory::writeHalf(Addr paddr, Half value)
{
    check(paddr, 2);
    std::memcpy(&data_[paddr], &value, 2);
    bumpVersion(paddr);
}

void
PhysMemory::writeByte(Addr paddr, Byte value)
{
    check(paddr, 1);
    data_[paddr] = value;
    bumpVersion(paddr);
}

void
PhysMemory::writeBlock(Addr paddr, const void *src, std::size_t bytes)
{
    if (paddr + bytes > size_)
        UEXC_PANIC("block write at 0x%08x size %zu out of range",
                   paddr, bytes);
    std::memcpy(&data_[paddr], src, bytes);
    touchPages(paddr, bytes);
}

void
PhysMemory::readBlock(Addr paddr, void *dst, std::size_t bytes) const
{
    if (paddr + bytes > size_)
        UEXC_PANIC("block read at 0x%08x size %zu out of range",
                   paddr, bytes);
    std::memcpy(dst, &data_[paddr], bytes);
}

bool
PhysMemory::blockIsZero(Addr paddr, std::size_t bytes) const
{
    if (paddr + bytes > size_)
        UEXC_PANIC("zero scan at 0x%08x size %zu out of range",
                   paddr, bytes);
    // in-place memcmp against a zeroed page, one page at a time, and
    // only for pages not known zero: the snapshot writer scans all of
    // physical memory with this, so its cost follows the pages
    // written since they were last cleared, not the memory size
    static const std::vector<Byte> zeros(PageBytes, 0);
    std::size_t at = paddr, end = std::size_t(paddr) + bytes;
    while (at < end) {
        std::size_t chunk = std::min(end, (at | (PageBytes - 1)) + 1) - at;
        if (!pageKnownZero(Addr(at)) &&
            std::memcmp(&data_[at], zeros.data(), chunk) != 0)
            return false;
        at += chunk;
    }
    return true;
}

void
PhysMemory::clearRange(Addr paddr, std::size_t bytes)
{
    if (paddr + bytes > size_)
        UEXC_PANIC("clear at 0x%08x size %zu out of range", paddr, bytes);
    std::size_t at = paddr, end = std::size_t(paddr) + bytes;
    while (at < end) {
        std::size_t page_end =
            std::min(size_, (at | (PageBytes - 1)) + 1);
        std::size_t chunk = std::min(end, page_end) - at;
        std::size_t p = at >> PageShift;
        bool whole = chunk == page_end - (p << PageShift);
        if (!(whole && pageKnownZero(Addr(at))))
            std::memset(&data_[at], 0, chunk);
        // the bump still invalidates predecoded copies of the page
        bumpVersion(Addr(at));
        if (whole)
            zeroVersions_[p] = pageVersions_[p];
        at += chunk;
    }
}

} // namespace uexc::sim
