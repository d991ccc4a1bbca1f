/**
 * @file
 * Swizzling workloads: synthetic persistent-object graphs and the
 * traversals used to measure the Figure 3 / Figure 4 tradeoffs
 * end-to-end (not just analytically).
 */

#ifndef UEXC_APPS_SWIZZLE_SWIZZLER_H
#define UEXC_APPS_SWIZZLE_SWIZZLER_H

#include "apps/swizzle/ostore.h"

namespace uexc::apps {

/** Parameters of a traversal experiment. */
struct TraversalParams
{
    unsigned numObjects = 400;
    /** Pointer fields per object (Figure 4 assumes ~50 per page). */
    unsigned pointersPerObject = 10;
    /** Fraction of each object's pointers actually dereferenced
     *  (Figure 4's x axis: pointers used per object). */
    double useFraction = 0.5;
    /** Dereferences per used pointer (Figure 3's u). */
    unsigned usesPerPointer = 3;
    unsigned rngSeed = 99;
    ObjectStore::Config store;
};

/** Result of one traversal. */
struct TraversalResult
{
    Cycles cycles = 0;
    double millis = 0;         ///< at the machine clock
    std::uint64_t derefs = 0;
    StoreStats store;
};

/**
 * Build a random object graph on disk and traverse it breadth-first
 * from the root, dereferencing a configurable fraction of each
 * object's pointers a configurable number of times.
 */
TraversalResult runTraversal(rt::UserEnv &env, SwizzleMode mode,
                             const TraversalParams &params);

} // namespace uexc::apps

#endif // UEXC_APPS_SWIZZLE_SWIZZLER_H
