/**
 * @file
 * Control-flow graph construction over assembled guest code.
 *
 * The builder works on a sim::Program region: it decodes every word
 * through the sim predecoder, traces reachable instructions from a
 * set of entry points, and partitions them into basic blocks with
 * delay-slot-aware successor edges. MIPS specifics handled here:
 *
 *  - a branch/jump and its delay slot always travel together: the
 *    block ends after the delay slot, and successor edges leave from
 *    the pair, not from the branch word;
 *  - jr/xret/rfe are region exits (no static successors) unless the
 *    caller passes a jr's resolved targets, which become leaders and
 *    successors of the jump's block; break is a terminator (it
 *    raises); syscall falls through (execution resumes after the
 *    kernel returns);
 *  - jal/jalr are calls: the static callee (when resolvable and
 *    inside the region) and the return continuation are both
 *    successors, which gives the reachability and dataflow passes a
 *    conservative summary-free view of calls;
 *  - declared data ranges (e.g. an embedded jump table) are excluded
 *    from tracing, and any word in them that looks like an in-region
 *    code address is mined as an additional entry point — this is how
 *    the kernel's sys_table targets become reachable.
 */

#ifndef UEXC_ANALYSIS_CFG_H
#define UEXC_ANALYSIS_CFG_H

#include <map>
#include <vector>

#include "common/types.h"
#include "sim/assembler.h"
#include "sim/isa.h"

namespace uexc::analysis {

/** A half-open address interval [begin, end). */
struct AddrRange
{
    Addr begin = 0;
    Addr end = 0;

    bool contains(Addr a) const { return a >= begin && a < end; }
};

/** The slice of a program handed to Cfg::build. */
struct CodeRegion
{
    Addr begin = 0;                  ///< first address, inclusive
    Addr end = 0;                    ///< last address, exclusive
    std::vector<Addr> entries;       ///< trace roots (vectors, handlers)
    std::vector<AddrRange> dataRanges; ///< data embedded in the text
};

/** One basic block: a maximal single-entry straight-line run. */
struct BasicBlock
{
    Addr begin = 0;              ///< first instruction
    Addr end = 0;                ///< one past the last instruction
    std::vector<unsigned> succs; ///< successor block indices
    /**
     * Control flow leaves the block's last instruction sequentially
     * but the next address is not executable code (region end, or a
     * declared data range): the code can run off its end.
     */
    bool fallsOff = false;

    unsigned numInsts() const { return (end - begin) / 4; }
};

/** Known targets of computed jumps, keyed by the jr address. */
using JumpTargets = std::map<Addr, std::vector<Addr>>;

/** The control-flow graph of one code region. See file comment. */
class Cfg
{
  public:
    /** Build the CFG of @p region over @p prog's words, with an edge
     *  from each jr in @p jumps to each of its targets. */
    static Cfg build(const sim::Program &prog, const CodeRegion &region,
                     const JumpTargets &jumps = {});

    const std::vector<BasicBlock> &blocks() const { return blocks_; }
    const CodeRegion &region() const { return region_; }
    Addr begin() const { return region_.begin; }
    Addr end() const { return region_.end; }

    /** Whether @p a holds an instruction reachable from the entries. */
    bool reached(Addr a) const;

    /** Whether @p a is inside one of the declared data ranges. */
    bool isData(Addr a) const;

    /** Whether the reachable instruction at @p a sits in a delay slot. */
    bool isDelaySlot(Addr a) const;

    /** The decoded instruction at @p a (any in-region address). */
    const sim::DecodedInst &inst(Addr a) const;

    /** Raw word at @p a. */
    Word word(Addr a) const { return inst(a).raw; }

    /** Index of the block containing @p a, or -1. */
    int blockIndexAt(Addr a) const;

    /**
     * Addresses of the instruction(s) that execute immediately after
     * the one at @p a: the sequential successor for straight-line
     * code, or — when @p a is a delay slot — the first instruction of
     * each successor block of the branch owning it. This is the
     * relation the load-delay hazard check walks.
     */
    std::vector<Addr> nextExecuted(Addr a) const;

    /** Entry points mined from jump-table words in the data ranges. */
    const std::vector<Addr> &minedEntries() const { return mined_; }

  private:
    bool inRegion(Addr a) const
    {
        return a >= region_.begin && a < region_.end;
    }
    unsigned indexOf(Addr a) const { return (a - region_.begin) / 4; }

    CodeRegion region_;
    std::vector<sim::DecodedInst> insts_; ///< one per region word
    std::vector<bool> reached_;
    std::vector<bool> delaySlot_;
    std::vector<BasicBlock> blocks_;
    std::vector<int> blockIndex_;  ///< per region word, -1 if none
    std::vector<Addr> mined_;
    /** Successor addresses per block, build()-local; empty after. */
    std::vector<std::vector<Addr>> pendingSuccs_;
};

} // namespace uexc::analysis

#endif // UEXC_ANALYSIS_CFG_H
