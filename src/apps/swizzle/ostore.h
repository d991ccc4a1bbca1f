/**
 * @file
 * A persistent object store with pointer swizzling (section 4.2.2).
 *
 * Objects live on a simulated disk keyed by object identifier (OID);
 * resident copies live in the simulated address space, accessed
 * through a rt::UserEnv. Pointers on disk are OIDs; in memory they
 * are either real virtual addresses (swizzled) or tagged OIDs
 * (unswizzled). The tag is a byte offset of 2: a tagged value is not
 * word-aligned, so dereferencing one raises the unaligned-access
 * exception the paper's lazy scheme rides on.
 *
 * Three configurations reproduce the paper's comparisons:
 *
 *  - SwizzleMode::LazyExceptions
 *      Pointers are swizzled on first use. Dereferencing an
 *      unswizzled pointer faults (AdEL); the handler loads the target
 *      if needed, repairs the register and the containing cell, and
 *      resumes. Subsequent uses are free. (Figure 3's "exceptions"
 *      curve, and the lazy side of Figure 4.)
 *
 *  - SwizzleMode::LazyChecks
 *      Every dereference pays an inline residency check (the
 *      compiler-inserted test of White & DeWitt); first use also pays
 *      the swizzle. (Figure 3's "software checks" curve.)
 *
 *  - SwizzleMode::Eager
 *      When an object is loaded, all pointers in it are immediately
 *      swizzled to virtual addresses; non-resident targets get
 *      reserved, access-protected address space (Wilson & Kakkad
 *      style), and the first touch of one faults the object in.
 *      (The eager side of Figure 4.)
 */

#ifndef UEXC_APPS_SWIZZLE_OSTORE_H
#define UEXC_APPS_SWIZZLE_OSTORE_H

#include <map>
#include <unordered_map>
#include <vector>

#include "core/env.h"

namespace uexc::apps {

/** Object identifier on the simulated disk. */
using Oid = std::uint32_t;

/** Null target for pointer fields; loads as a literal 0 pointer. */
constexpr Oid kNullOid = 0xffffffffu;

/** Swizzling strategy. */
enum class SwizzleMode
{
    LazyExceptions,
    LazyChecks,
    Eager,
};

/** One field of a persistent object. */
struct PField
{
    bool isPointer = false;
    Word value = 0;   ///< raw datum, or target Oid when isPointer
};

/** Store statistics. */
struct StoreStats
{
    std::uint64_t objectsLoaded = 0;
    std::uint64_t diskReads = 0;
    std::uint64_t pointersSwizzled = 0;
    std::uint64_t swizzleFaults = 0;      ///< unaligned-pointer faults
    std::uint64_t residencyFaults = 0;    ///< eager-mode page faults
    std::uint64_t residencyChecks = 0;    ///< software checks executed
};

/**
 * The store. See file comment.
 */
class ObjectStore
{
  public:
    struct Config
    {
        SwizzleMode mode = SwizzleMode::LazyExceptions;
        /** Cycles per inline residency check (Figure 3's c). */
        Cycles checkCycles = 3;
        /** Cycles to swizzle one pointer (Figure 4's s). */
        Cycles swizzleCycles = 20;
        /** Base of the in-memory object heap. */
        Addr heapBase = 0x20000000;
    };

    ObjectStore(rt::UserEnv &env, const Config &config);

    // -- populating the disk (host-side setup, uncosted) ----------------

    /** Create a persistent object with the given fields. */
    Oid createObject(const std::vector<PField> &fields);

    // -- the application interface -----------------------------------------

    /** Make the root object resident; returns its memory address. */
    Addr pin(Oid root);

    /** Read a data field of a resident object. */
    Word readData(Addr obj, unsigned field);

    /**
     * Dereference a pointer field: returns the target object's
     * memory address, swizzling/loading per the configured mode.
     */
    Addr deref(Addr obj, unsigned field);

    const StoreStats &stats() const { return stats_; }
    SwizzleMode mode() const { return config_.mode; }
    /** Whether an OID currently has a resident, loaded copy. */
    bool isResident(Oid oid) const;

  private:
    static constexpr Word kTag = 2;   ///< unswizzled-pointer byte tag

    struct DiskObject
    {
        std::vector<PField> fields;
    };

    struct MemObject
    {
        Oid oid = 0;
        Addr addr = 0;
        bool loaded = false;   ///< contents present (vs reserved only)
        unsigned words = 0;
    };

    Word tagged(Oid oid) const { return (oid << 2) | kTag; }
    bool isTagged(Word w) const { return (w & 3) == kTag; }
    Oid oidOf(Word w) const { return w >> 2; }

    /** Address for an OID, reserving (eager) or loading as asked. */
    Addr ensureAddress(Oid oid);
    void loadObject(Oid oid);
    void swizzleCell(Addr cell, Word tagged_value);
    void onFault(rt::Fault &fault);
    MemObject *byAddress(Addr addr);

    rt::UserEnv &env_;
    Config config_;
    StoreStats stats_;

    std::vector<DiskObject> disk_;
    std::unordered_map<Oid, MemObject> resident_;
    std::map<Addr, Oid> byAddr_;     ///< object base -> oid (ordered)
    Addr heapBump_;
    /** Cell being dereferenced (for fault-time pointer repair). */
    Addr lastDerefCell_ = 0;
};

} // namespace uexc::apps

#endif // UEXC_APPS_SWIZZLE_OSTORE_H
