/**
 * @file
 * Worst-case handler-latency analysis over the CFG.
 *
 * Computes a static upper bound on the cycles a handler region can
 * spend before returning, from the same declarative per-operation
 * cost table the interpreter charges from (sim/isa.h CostClass) — the
 * bound and the simulation cannot disagree about what an instruction
 * costs.
 *
 * The bound is a longest path over the DAG of basic blocks, with
 * natural loops folded in via bounded-loop inference: a loop whose
 * back edge is `bne reg, zero, head` (or `bgtz reg, head`), whose
 * body decrements reg by a constant exactly once, and whose entry
 * value of reg is a VSA-resolved positive constant, executes a known
 * number of iterations. Any other cycle makes the region unbounded.
 *
 * Worst-case assumptions per instruction: every control transfer is
 * taken, every store pays the write-buffer stall, and (when the cache
 * model is enabled) every fetch and memory access misses.
 *
 * StraightLineCoster is the exact companion: for straight-line code
 * with a known incoming store-run length and the cache model off, the
 * sequential cost it computes equals the cycles the interpreter
 * charges, which is what the golden Table-3 cross-check asserts.
 */

#ifndef UEXC_ANALYSIS_WCET_H
#define UEXC_ANALYSIS_WCET_H

#include <vector>

#include "analysis/vsa.h"

namespace uexc::analysis {

struct WcetConfig
{
    sim::CostModel cost;
    /** Charge worst-case cache-miss penalties on every access. */
    bool cachesEnabled = false;
};

/** One natural loop found in the region. */
struct LoopBound
{
    Addr head = 0;     ///< loop-head block address
    Addr backEdge = 0; ///< address of the branch closing the loop
    bool bounded = false;
    std::uint32_t iterations = 0; ///< body executions when bounded
};

struct WcetResult
{
    /** Every cycle in the CFG has an inferred iteration bound. */
    bool bounded = false;
    /** Worst-case cycles entry-to-exit (valid when bounded). */
    Cycles worstCycles = 0;
    /** Worst-case retired instructions (valid when bounded). */
    InstCount worstInsts = 0;
    std::vector<LoopBound> loops;
};

/** Bound the worst-case latency of @p vsa's region. */
WcetResult computeWcet(const Vsa &vsa, const WcetConfig &config);

/**
 * Exact sequential cycle cost of straight-line code, mirroring the
 * interpreter's charge sites for the cache-hit / cache-off path:
 * baseCost + execute extra (mult/div) + memory extra + the
 * write-buffer stall on the second-and-later store of a run. Branch
 * charges are excluded (a straight-line phase retires its branches
 * untaken, and taken-branch extras belong to the target phase).
 */
class StraightLineCoster
{
  public:
    explicit StraightLineCoster(const sim::CostModel &cost)
        : cost_(cost)
    {
    }

    /** Cost of retiring @p inst; updates the store-run length. */
    Cycles step(const sim::DecodedInst &inst)
    {
        Cycles c = cost_.baseCost +
                   sim::opExecuteExtraCycles(inst.op, cost_) +
                   sim::opMemoryExtraCycles(inst.op, cost_);
        if (inst.isStore()) {
            consecutiveStores_++;
            if (consecutiveStores_ >= 2)
                c += cost_.writeBufferStall;
        } else {
            consecutiveStores_ = 0;
        }
        return c;
    }

    unsigned consecutiveStores() const { return consecutiveStores_; }
    void reset() { consecutiveStores_ = 0; }

  private:
    sim::CostModel cost_;
    unsigned consecutiveStores_ = 0;
};

} // namespace uexc::analysis

#endif // UEXC_ANALYSIS_WCET_H
