/**
 * @file
 * The heap both collectors share: the table of live objects keyed by
 * payload address, the mutator's root slots, and the cycle charges
 * for collector bookkeeping.
 *
 * Objects live in the simulated address space: a one-word header
 * holding the payload size in words, then the payload. Every header
 * store, zero-fill store and scanned word goes through the
 * rt::UserEnv accessors, so it costs simulated cycles and takes
 * whatever protection faults the collector has armed. What a
 * collector adds on top (blocks and generations in gc.h, mark phases
 * and the retrace barrier in incremental.h) stays with it.
 */

#ifndef UEXC_APPS_GC_HEAP_H
#define UEXC_APPS_GC_HEAP_H

#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "core/env.h"

namespace uexc::apps {

/** A live object's collector metadata. */
struct HeapObject
{
    unsigned words = 0;
    bool marked = false;
    /** Incremental collector: contents traced this cycle. */
    bool scanned = false;
};

/** The heap both collectors share. See file comment. */
class GcHeap
{
  public:
    /** Host-side cycle charges for collector bookkeeping that has no
     *  per-word heap traffic of its own (the traffic is charged by
     *  the UserEnv accessors). Rough R3000 instruction estimates. */
    static constexpr Cycles kAllocCycles = 12;    // size, bump, header
    static constexpr Cycles kMarkVisitCycles = 8; // pop, header test, set
    static constexpr Cycles kSweepCycles = 4;     // per object at sweep
    static constexpr Cycles kRootScanCycles = 3;  // per root slot

    GcHeap(rt::UserEnv &env, unsigned num_roots)
        : env_(env), roots_(num_roots, 0)
    {
    }

    /**
     * Place an object of @p words payload words at @p header: store
     * the header, zero the payload (recycled memory holds old bits),
     * record the object and charge the allocation. Returns the
     * payload address.
     */
    Addr place(Addr header, unsigned words, bool marked)
    {
        Addr payload = header + 4;
        env_.store(header, words);
        for (unsigned i = 0; i < words; i++)
            env_.store(payload + 4 * i, 0);
        objects[payload] = HeapObject{words, marked, marked};
        env_.cpu().charge(kAllocCycles);
        return payload;
    }

    /** Load each word of [@p lo, @p hi) and call @p visit(word, object)
     *  for each word that is a live object's payload address. */
    template <typename Visit>
    void scan(Addr lo, Addr hi, Visit visit)
    {
        for (Addr addr = lo; addr < hi; addr += 4) {
            Word w = env_.load(addr);
            auto it = objects.find(w);
            if (it != objects.end())
                visit(w, it->second);
        }
    }

    /** The live object at @p payload, or null. */
    HeapObject *find(Addr payload)
    {
        auto it = objects.find(payload);
        return it == objects.end() ? nullptr : &it->second;
    }

    void setRoot(unsigned slot, Addr payload)
    {
        roots_[check(slot)] = payload;
    }
    Addr root(unsigned slot) const { return roots_[check(slot)]; }
    const std::vector<Addr> &roots() const { return roots_; }

    /** Live objects by payload address. */
    std::unordered_map<Addr, HeapObject> objects;

  private:
    unsigned check(unsigned slot) const
    {
        if (slot >= roots_.size())
            UEXC_FATAL("gc: root slot %u out of range", slot);
        return slot;
    }

    rt::UserEnv &env_;
    std::vector<Addr> roots_;
};

} // namespace uexc::apps

#endif // UEXC_APPS_GC_HEAP_H
