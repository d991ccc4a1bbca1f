/**
 * @file
 * A conservative, non-moving, generational mark-sweep collector in
 * the style of the Xerox/Boehm-Weiser collector the paper measures
 * (section 4.1, Table 4).
 *
 * The heap lives in the simulated address space and is accessed
 * through a rt::UserEnv, so every heap word read or written costs
 * simulated cycles and every protection fault runs the full simulated
 * delivery path of whichever mechanism is configured.
 *
 * Old-to-young pointer tracking — the generational write barrier — is
 * pluggable with the two strategies the paper compares:
 *
 *  - BarrierKind::PageProtection
 *      Pages holding old-generation blocks are write-protected after
 *      each collection. A store into one faults; the handler records
 *      the page as dirty. Under UltrixSignal delivery the handler
 *      must also mprotect() the page writable (a second kernel
 *      crossing); under FastSoftware delivery the kernel's eager
 *      amplification already re-enabled access before the upcall
 *      (section 3.2.3), so the handler only records; under
 *      FastHardwareVector delivery no kernel runs and the handler
 *      re-enables access itself with a user-level TLB write.
 *
 *  - BarrierKind::SoftwareCheck
 *      Every pointer store through the mutator API pays an inline
 *      check (Hosking & Moss's 5 instructions) and maintains an exact
 *      remembered set. No protection faults occur.
 *
 * Blocks are 4 KB and promotion is block-granular: a block with any
 * survivor becomes old wholesale, which is what makes page-level
 * protection line up with generation boundaries (as in the Xerox
 * collector's block structure). Blocks are laid out in address
 * order from the heap base, so an address's block is one index.
 * Objects, roots and the placement and scan loops are the GcHeap
 * (heap.h) that the incremental collector shares.
 */

#ifndef UEXC_APPS_GC_GC_H
#define UEXC_APPS_GC_GC_H

#include <memory>
#include <unordered_set>
#include <vector>

#include "apps/gc/heap.h"

namespace uexc::apps {

/** Write-barrier strategy. */
enum class BarrierKind
{
    PageProtection,
    SoftwareCheck,
};

/** Collector statistics. */
struct GcStats
{
    std::uint64_t allocations = 0;
    std::uint64_t allocatedBytes = 0;
    std::uint64_t collections = 0;
    std::uint64_t fullCollections = 0;
    std::uint64_t objectsMarked = 0;
    std::uint64_t objectsSwept = 0;
    std::uint64_t blocksPromoted = 0;
    std::uint64_t barrierFaults = 0;     ///< protection-fault barrier hits
    std::uint64_t barrierChecks = 0;     ///< software-check barrier hits
    std::uint64_t rememberedObjects = 0;
    std::uint64_t pagesReprotected = 0;
};

/**
 * The collector. See file comment.
 */
class Collector
{
  public:
    struct Config
    {
        Addr heapBase = 0x10000000;
        /** Maximum heap size (block-aligned). */
        Word heapBytes = 8 * 1024 * 1024;
        BarrierKind barrier = BarrierKind::PageProtection;
        /** Young-generation allocation budget between collections. */
        Word youngBudgetBytes = 256 * 1024;
        /** Number of root slots. */
        unsigned numRoots = 64;
    };

    Collector(rt::UserEnv &env, const Config &config);

    // -- mutator interface ---------------------------------------------

    /**
     * Allocate an object of @p payload_words words; returns the
     * payload address (header is one word before). Triggers a young
     * collection when the allocation budget is exhausted. Returns
     * objects zeroed.
     */
    Addr alloc(unsigned payload_words);

    /**
     * Allocate directly into the old generation (for long-lived
     * structures like the array test's 1 MB array). May span blocks.
     */
    Addr allocOld(unsigned payload_words);

    /** Pointer store through the write barrier. */
    void writeWord(Addr payload, unsigned index, Word value);
    /** Heap read (costed through the simulated memory system). */
    Word readWord(Addr payload, unsigned index)
    {
        return env_.load(payload + 4 * index);
    }

    /** Root slots: the mutator's named references into the heap. */
    void setRoot(unsigned slot, Addr payload) { heap_.setRoot(slot, payload); }
    Addr root(unsigned slot) const { return heap_.root(slot); }

    // -- collection -----------------------------------------------------------

    /** Force a young-generation collection. */
    void collect();
    /** Force a full (young + old) collection. */
    void fullCollect();

    const GcStats &stats() const { return stats_; }
    /** Live young+old object count (for tests). */
    std::size_t liveObjects() const { return heap_.objects.size(); }
    /** Whether @p payload is a live object payload address. */
    bool isObject(Addr payload) const
    {
        return heap_.objects.count(payload) != 0;
    }
    bool isOld(Addr payload) const;

  private:
    static constexpr Word kBlockBytes = os::kPageBytes;

    struct Block
    {
        Addr base = 0;
        bool old = false;
        bool onFreeList = false;
        Word bumpOffset = 0;
        std::vector<Addr> objects;  ///< payload addresses
    };

    Block &newBlock(bool old_gen);
    /** The block holding @p addr, which must lie below heapBump_. */
    Block &blockOf(Addr addr) const
    {
        return *blocks_[(addr - config_.heapBase) / kBlockBytes];
    }
    void onFault(rt::Fault &fault);
    void collectImpl(bool full);
    /** Push each unmarked object that a word of [lo, hi) points to
     *  (young objects only, unless @p full). */
    void scanRange(Addr lo, Addr hi, bool full);
    void reprotectOldBlocks();

    rt::UserEnv &env_;
    Config config_;
    GcStats stats_;
    GcHeap heap_;

    Addr heapBump_;                       ///< next fresh block address
    /** blocks_[i] starts at heapBase + i * kBlockBytes */
    std::vector<std::unique_ptr<Block>> blocks_;
    std::vector<Block *> freeBlocks_;
    Block *allocBlock_ = nullptr;         ///< current young alloc block
    Word youngAllocated_ = 0;

    // barrier state
    std::unordered_set<Addr> dirtyPages_;
    std::unordered_set<Addr> remembered_;  ///< software-check barrier
    std::vector<Addr> markStack_;
    unsigned youngCollectsSinceFull_ = 0;
};

} // namespace uexc::apps

#endif // UEXC_APPS_GC_GC_H
