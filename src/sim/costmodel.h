/**
 * @file
 * The cycle cost model of the simulated machine.
 *
 * The interpreter is functional (no pipeline); time is charged per
 * dynamic instruction from this table, plus cache miss penalties when
 * the cache model is enabled, plus TLB-refill time (which is itself
 * guest code and therefore costed the same way).
 *
 * Defaults approximate a 25 MHz MIPS R3000 DECstation 5000/200: single
 * issue, one cycle per instruction, memory operations effectively one
 * cycle on a cache hit, multi-cycle multiply/divide, and miss
 * penalties in line with the 5000/200 memory system.
 */

#ifndef UEXC_SIM_COSTMODEL_H
#define UEXC_SIM_COSTMODEL_H

#include "common/types.h"

namespace uexc::sim {

/** Per-operation cycle costs. See file comment. The per-instruction
 *  costs are fixed; the miss penalties and the clock can be set. */
struct CostModel
{
    /** Base cost of every instruction. */
    static constexpr Cycles baseCost = 1;
    /** Additional cost of a load beyond baseCost (cache hit). */
    static constexpr Cycles loadExtra = 0;
    /** Additional cost of a store beyond baseCost (cache hit). */
    static constexpr Cycles storeExtra = 0;
    /** Additional cost of a taken branch/jump (refill bubble). */
    static constexpr Cycles takenBranchExtra = 0;
    /** Total cost of integer multiply. */
    static constexpr Cycles multCost = 12;
    /** Total cost of integer divide. */
    static constexpr Cycles divCost = 35;
    /**
     * Write-through cost: the R3000 DECstations used write-through
     * caches with a write buffer; a sustained store stream stalls.
     * Charged on every store after the first of a consecutive run.
     */
    static constexpr Cycles writeBufferStall = 2;

    /** Instruction cache miss penalty (cache model enabled only). */
    Cycles icacheMissPenalty = 14;
    /** Data cache miss penalty (cache model enabled only). */
    Cycles dcacheMissPenalty = 14;

    /** Machine clock in MHz, for converting cycles to microseconds. */
    double clockMhz = 25.0;

    /** Convert a cycle count to microseconds at this clock. */
    double toMicros(Cycles cycles) const
    {
        return static_cast<double>(cycles) / clockMhz;
    }
};

} // namespace uexc::sim

#endif // UEXC_SIM_COSTMODEL_H
