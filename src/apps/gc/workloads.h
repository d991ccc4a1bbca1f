/**
 * @file
 * The two synthetic applications of Table 4 (section 4.1):
 *
 *  - "Lisp Operations": repeatedly builds large cons-cell structures
 *    (trees and lists) without explicit deallocation, while an
 *    accumulating long-lived structure receives pointers to fresh
 *    cells — the old-to-young stores that exercise the generational
 *    write barrier. The paper's run performs ~80 collections and
 *    generates over 2000 protection faults.
 *
 *  - "Array Test": a large (1 MB) old-generation array whose elements
 *    are randomly replaced with freshly allocated cells; relative to
 *    total running time this creates many more old-to-young stores
 *    than the Lisp workload (and so benefits more from cheap
 *    exceptions).
 *
 * Workload sizes are scaled down from the paper's absolute seconds
 * (the success criterion is the relative improvement, Table 4's
 * rightmost column); the fault and collection counts are kept in the
 * paper's regime.
 */

#ifndef UEXC_APPS_GC_WORKLOADS_H
#define UEXC_APPS_GC_WORKLOADS_H

#include "apps/gc/gc.h"

namespace uexc::apps {

/** Result of one workload run. */
struct GcRunResult
{
    Cycles cycles = 0;        ///< total simulated CPU cycles
    double cpuSeconds = 0;    ///< at the machine's clock
    GcStats gc;
    std::uint64_t faultsDelivered = 0;
};

/** Tuning knobs (defaults reproduce the paper's regime, scaled). */
struct GcWorkloadParams
{
    unsigned lispIterations = 1200;  ///< tree build/drop rounds
    unsigned lispTreeDepth = 10;     ///< 2^d - 1 cons cells per tree
    unsigned lispMutationsPerRound = 2;  ///< old-cell stores per round
    unsigned arrayWords = 256 * 1024;   ///< 1 MB array
    unsigned arrayReplacements = 340000;
    /** Young-generation budget; 0 keeps the collector default. */
    Word youngBudgetBytes = 128 * 1024;
    /** Array-test young budget; 0 falls back to youngBudgetBytes. */
    Word arrayYoungBudgetBytes = 600 * 1024;
    unsigned rngSeed = 12345;
};

/** Run the Lisp-operations workload on an installed environment. */
GcRunResult runLispOps(rt::UserEnv &env, BarrierKind barrier,
                       const GcWorkloadParams &params = {});

/** Run the array-replacement workload. */
GcRunResult runArrayTest(rt::UserEnv &env, BarrierKind barrier,
                         const GcWorkloadParams &params = {});

/**
 * Build the Lisp workload's binary tree of @p depth levels of 2-word
 * cons cells (car = left, cdr = right, 0 below the last level) and
 * return its root, which is left in root slot 0. A collection at any
 * allocation during construction keeps every finished subtree: each
 * pending left subtree holds root slot 3 + its depth until its parent
 * cell links it, so @p depth must stay below the collector's root
 * count minus 3.
 */
Addr buildTree(Collector &gc, unsigned depth);

} // namespace uexc::apps

#endif // UEXC_APPS_GC_WORKLOADS_H
