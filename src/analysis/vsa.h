/**
 * @file
 * Value-set analysis (VSA) over assembled guest code.
 *
 * A whole-program abstract interpreter on the delay-slot-aware CFG
 * (analysis/cfg.h): every general-purpose register is tracked as a
 * strided-interval value set {base + k*stride | 0 <= k < count}, the
 * classic abstraction for address arithmetic (Balakrishnan & Reps).
 * Constants, lui/ori address materialization, constant shifts and
 * adds, and word loads from declared data ranges (jump tables) stay
 * precise; everything else widens to Top.
 *
 * Two clients sit on top:
 *
 *  - the shared-page conflict analyzer (analysis/conflict.h) reads
 *    effective-address sets of every reachable memory instruction to
 *    form per-hart may-read/may-write/may-fetch page sets;
 *  - the WCET analyzer (analysis/wcet.h) and the CFG itself benefit
 *    from computed-jump resolution: a `jr` whose target set is bounded
 *    (a constant, or a mined jump table) gets CFG edges to its
 *    targets, so the jump's register facts flow into them and the
 *    indirect-jump reachability gap closes.
 *
 * Per-hart analysis can model `mfc0 rt, PrId` as the concrete hart id
 * (VsaOptions::modelPrId), which is what lets the multihart kernel's
 * PrId-indexed save slots resolve to per-hart constant addresses.
 */

#ifndef UEXC_ANALYSIS_VSA_H
#define UEXC_ANALYSIS_VSA_H

#include <array>
#include <map>
#include <vector>

#include "analysis/cfg.h"

namespace uexc::analysis {

/**
 * A strided-interval value set: {base + k*stride | 0 <= k < count},
 * with Bottom (no value yet) and Top (any value) bounds. Sets never
 * wrap past 2^32: constructors widen to Top instead, so last() is
 * always representable.
 */
struct ValueSet
{
    enum class Kind : std::uint8_t
    {
        Bottom,
        Strided,
        Top,
    };

    Kind kind = Kind::Bottom;
    Word base = 0;
    Word stride = 0;
    std::uint32_t count = 1;

    /** Sets wider than this widen to Top at construction. */
    static constexpr std::uint32_t kMaxCount = 4096;

    static ValueSet bottom() { return {}; }
    static ValueSet top()
    {
        ValueSet v;
        v.kind = Kind::Top;
        return v;
    }
    static ValueSet constant(Word value)
    {
        ValueSet v;
        v.kind = Kind::Strided;
        v.base = value;
        return v;
    }
    /** {base + k*stride}; Top if it wraps 2^32 or exceeds kMaxCount. */
    static ValueSet strided(Word base, Word stride, std::uint32_t count);

    bool isBottom() const { return kind == Kind::Bottom; }
    bool isTop() const { return kind == Kind::Top; }
    bool isConst() const { return kind == Kind::Strided && count == 1; }
    Word constValue() const { return base; }
    /** Largest element (Strided only). */
    Word last() const { return base + stride * (count - 1); }

    bool operator==(const ValueSet &o) const
    {
        if (kind != o.kind)
            return false;
        if (kind != Kind::Strided)
            return true;
        return base == o.base && stride == o.stride && count == o.count;
    }
    bool operator!=(const ValueSet &o) const { return !(*this == o); }
};

/** Least upper bound of two value sets (Top on blowup). */
ValueSet join(const ValueSet &a, const ValueSet &b);

/** a + k (mod 2^32 on the base; Top if the set would wrap). */
ValueSet addConst(const ValueSet &a, Word k);

/** Abstract register file: one value set per GPR ($zero pinned to 0). */
using RegState = std::array<ValueSet, sim::NumRegs>;

struct VsaOptions
{
    /** Model `mfc0 rt, PrId` as the constant prIdValue (per-hart
     *  analysis: pass hartId << 24). Otherwise PrId reads are Top. */
    bool modelPrId = false;
    Word prIdValue = 0;
};

/**
 * The analysis result: a fixpoint over the region's CFG, rebuilt
 * until no computed jump resolves to a target it lacks an edge to.
 */
class Vsa
{
  public:
    /** Run the analysis over @p region of @p prog. */
    static Vsa run(const sim::Program &prog, const CodeRegion &region,
                   const VsaOptions &opts = {});

    /** The final CFG (with edges to resolved jr targets). */
    const Cfg &cfg() const { return cfg_; }

    /** Abstract register file on entry to block @p block. */
    const RegState &blockInState(unsigned block) const
    {
        return inStates_[block];
    }

    /** Abstract value of @p reg just before the instruction at @p a
     *  executes (Top for unreachable addresses). */
    ValueSet regIn(Addr a, unsigned reg) const;

    /** May-set of effective addresses of the memory instruction at
     *  @p a (Top if the base register is unknown). */
    ValueSet effectiveAddress(Addr a) const;

    /** Apply the abstract transfer of one instruction to @p state. */
    void step(Addr pc, const sim::DecodedInst &inst,
              RegState &state) const;

    /** Resolved targets of bounded computed jumps, keyed by the jr
     *  address: the jump's successors in cfg(). Jumps never bounded
     *  (Top) are absent. */
    const JumpTargets &resolvedJumps() const { return resolvedJumps_; }

  private:
    Vsa() = default;

    void fixpoint();
    ValueSet mineWordLoad(const ValueSet &addrs) const;

    Cfg cfg_;
    VsaOptions opts_;
    std::vector<RegState> inStates_; ///< one per CFG block
    JumpTargets resolvedJumps_;
};

} // namespace uexc::analysis

#endif // UEXC_ANALYSIS_VSA_H
