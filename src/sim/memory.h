/**
 * @file
 * Physical memory of the simulated machine: a flat byte arena with
 * word/half/byte accessors. All addresses here are *physical*; the CPU
 * performs virtual-to-physical translation (segment decoding and TLB
 * lookup) before touching this object.
 */

#ifndef UEXC_SIM_MEMORY_H
#define UEXC_SIM_MEMORY_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace uexc::sim {

/**
 * Flat physical memory. Accesses must be in range and naturally
 * aligned; violations are uexc bugs (the CPU checks alignment and
 * raises guest exceptions before calling in here).
 *
 * The bytes live in an anonymous private mapping of the memory's
 * size, so the host kernel supplies zero pages as the guest first
 * touches them: building a machine costs what it writes, not its
 * memory size, and the resident set follows the pages used. The
 * mapping is owned, so a memory cannot be copied.
 *
 * Concurrency: the memory is only ever written by one thread at a
 * time — barrier-round workers read a frozen image and buffer their
 * stores (sim/storebuf.h) — so the accessors use plain loads and
 * stores.
 */
class PhysMemory
{
  public:
    /** Page granularity of write versioning (matches the VM page). */
    static constexpr unsigned PageShift = 12;
    static constexpr std::size_t PageBytes = std::size_t(1) << PageShift;

    /**
     * Map @p size bytes of zeroed memory. A size that is zero or not
     * a word multiple is fatal, and is rejected before anything is
     * mapped.
     */
    explicit PhysMemory(std::size_t size);
    ~PhysMemory();

    PhysMemory(const PhysMemory &) = delete;
    PhysMemory &operator=(const PhysMemory &) = delete;

    std::size_t size() const { return size_; }

    Word readWord(Addr paddr) const;
    Half readHalf(Addr paddr) const;
    Byte readByte(Addr paddr) const;

    void writeWord(Addr paddr, Word value);
    void writeHalf(Addr paddr, Half value);
    void writeByte(Addr paddr, Byte value);

    /** Bulk copy into memory (for program loading). */
    void writeBlock(Addr paddr, const void *src, std::size_t bytes);
    /** Bulk copy out of memory. */
    void readBlock(Addr paddr, void *dst, std::size_t bytes) const;

    /**
     * Zero a range. Every page it touches gets a version bump; a page
     * it covers whole becomes known zero, and a page that was already
     * known zero is not rewritten.
     */
    void clearRange(Addr paddr, std::size_t bytes);

    /** True iff every byte in the range is zero (snapshot elision).
     *  Known-zero pages are skipped without reading them. */
    bool blockIsZero(Addr paddr, std::size_t bytes) const;

    /**
     * True iff the page containing @p paddr is zero without looking
     * at its bytes: no store has reached it since construction or
     * since a clearRange covering the whole page. False says nothing
     * (a page written back to zero is found only by a scan). Rests on
     * the page's 32-bit write version not wrapping between the clear
     * and the check, the same assumption the predecode cache makes.
     */
    bool pageKnownZero(Addr paddr) const
    {
        std::size_t p = paddr >> PageShift;
        return zeroVersions_[p] == pageVersions_[p];
    }

    /**
     * Write version of the page containing @p paddr: bumped by every
     * store into the page, whichever side (guest store, host kernel
     * service, debug write) performed it. The CPU's predecoded-
     * instruction cache snapshots this at decode time and revalidates
     * on every fetch, which is what makes self-modifying code safe
     * under the fast interpreter. Not architectural state.
     */
    std::uint32_t pageVersion(Addr paddr) const
    {
        return pageVersions_[paddr >> PageShift];
    }

    /** Stable pointer to a page's version word (hot-path polling). */
    const std::uint32_t *pageVersionPtr(Addr paddr) const
    {
        return &pageVersions_[paddr >> PageShift];
    }

  private:
    void check(Addr paddr, unsigned access_size) const;

    void bumpVersion(Addr paddr) { ++pageVersions_[paddr >> PageShift]; }

    void touchPages(Addr paddr, std::size_t bytes)
    {
        if (bytes == 0)
            return;
        for (Addr p = paddr >> PageShift;
             p <= (paddr + bytes - 1) >> PageShift; p++) {
            bumpVersion(Addr(p) << PageShift);
        }
    }

    std::size_t size_;
    std::vector<std::uint32_t> pageVersions_;
    /** Per page: the write version at which it was last known zero. */
    std::vector<std::uint32_t> zeroVersions_;
    Byte *data_ = nullptr;
};

} // namespace uexc::sim

#endif // UEXC_SIM_MEMORY_H
