/**
 * @file
 * Incremental marking on top of the generational collector — the
 * "incremental collection support" the paper enables in the Xerox
 * collector (section 4.1).
 *
 * The incremental collector bounds each collection pause: marking
 * proceeds in slices of a configurable number of object visits,
 * interleaved with the mutator. Consistency between the marker and a
 * running mutator uses the same page-protection machinery as the
 * generational barrier: when an incremental mark phase begins, the
 * *already-scanned* portion of the heap is write-protected; a mutator
 * store into a scanned object faults, and the handler grays the
 * object again (a retrace set), exactly the virtual-memory-based
 * incremental scheme of Appel, Ellis & Li that the paper's
 * bibliography anchors this use case to.
 *
 * Like the underlying collector, all heap traffic flows through the
 * simulated machine, so the *pause times* and the *barrier overhead*
 * reported by the stats are simulated-cycle quantities that respond
 * to the configured exception-delivery mechanism.
 */

#ifndef UEXC_APPS_GC_INCREMENTAL_H
#define UEXC_APPS_GC_INCREMENTAL_H

#include <deque>
#include <unordered_set>

#include "apps/gc/heap.h"

namespace uexc::apps {

/** Statistics of the incremental collector. */
struct IncStats
{
    std::uint64_t cycles = 0;           ///< collection slices run
    std::uint64_t slices = 0;
    std::uint64_t objectsMarked = 0;
    std::uint64_t objectsSwept = 0;
    std::uint64_t retraceFaults = 0;    ///< mutator dirtied scanned data
    std::uint64_t retracedObjects = 0;
    Cycles maxPauseCycles = 0;          ///< longest single slice
    Cycles totalPauseCycles = 0;
};

/**
 * A simple non-generational, incremental mark-sweep collector over
 * the simulated heap. (The generational collector in gc.h answers
 * Table 4; this class isolates the paper's *incremental* use of
 * protection faults so pause behaviour can be measured on its own.)
 */
class IncrementalCollector
{
  public:
    struct Config
    {
        Addr heapBase = 0x18000000;
        Word heapBytes = 4 * 1024 * 1024;
        /** Object visits per marking slice (the pause bound). */
        unsigned sliceBudget = 64;
        unsigned numRoots = 16;
    };

    IncrementalCollector(rt::UserEnv &env, const Config &config);

    /** Allocate @p payload_words; runs at most one marking slice. */
    Addr alloc(unsigned payload_words);

    /** Mutator store through the incremental barrier. */
    void writeWord(Addr payload, unsigned index, Word value)
    {
        env_.store(payload + 4 * index, value);
    }
    Word readWord(Addr payload, unsigned index)
    {
        return env_.load(payload + 4 * index);
    }

    void setRoot(unsigned slot, Addr payload);
    Addr root(unsigned slot) const { return heap_.root(slot); }

    /** Whether a collection cycle is in progress. */
    bool collecting() const { return phase_ != Phase::Idle; }
    /** Force-start a collection cycle (marks roots gray). */
    void startCycle();
    /** Run one bounded marking/sweep slice. */
    void step();
    /** Run slices until the cycle completes. */
    void finishCycle();

    bool isObject(Addr payload) const
    {
        return heap_.objects.count(payload) != 0;
    }
    std::size_t liveObjects() const { return heap_.objects.size(); }
    const IncStats &stats() const { return stats_; }

  private:
    enum class Phase { Idle, Marking, Sweeping };

    Addr pageOf(Addr addr) const;
    void protectScannedPage(Addr page);
    void unprotectAll();
    void onFault(rt::Fault &fault);
    void scan(Addr payload, HeapObject &obj);

    rt::UserEnv &env_;
    Config config_;
    IncStats stats_;
    GcHeap heap_;

    Addr bump_;
    Addr mapped_;
    Word allocatedSinceCycle_ = 0;

    Phase phase_ = Phase::Idle;
    std::deque<Addr> gray_;
    std::vector<Addr> sweepList_;
    std::size_t sweepCursor_ = 0;
    /** pages fully scanned and therefore write-protected */
    std::unordered_set<Addr> protectedPages_;
};

} // namespace uexc::apps

#endif // UEXC_APPS_GC_INCREMENTAL_H
