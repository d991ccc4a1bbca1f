#include "sim/hart.h"

#include "sim/snapshot.h"

namespace uexc::sim {

namespace {

/** Geometry of each of the I and D caches. */
constexpr std::size_t kCacheBytes = 64 * 1024;
constexpr std::size_t kCacheLineBytes = 16;

} // namespace

Hart::Hart(unsigned id, const CpuConfig &config)
    : id_(id)
{
    regs_.fill(0);
    if (config.cachesEnabled) {
        icache_ = std::make_unique<Cache>(kCacheBytes, kCacheLineBytes);
        dcache_ = std::make_unique<Cache>(kCacheBytes, kCacheLineBytes);
    }
    // PrId carries the hart number in [31:24] so guest code can index
    // per-hart structures without any memory-based coordination. Hart
    // 0 keeps the historical value 0x220 exactly.
    cp0_.setPrId(0x00000220u | (Word(id) << 24));
}

void
Hart::clearStats()
{
    stats_ = CpuStats();
    tlb_.clearStats();
    if (icache_)
        icache_->clearStats();
    if (dcache_)
        dcache_->clearStats();
}

void
Hart::flushMicroTlb()
{
    dtlb_.fill(MicroTlbEntry{});
    fetchKey_ = kInvalidKey;
    fetchPage_ = nullptr;
    tlbGenSeen_ = tlb_.generation();
}

void
Hart::flushHostCaches()
{
    decodedPages_.clear();
    flushMicroTlb();
}

void
Hart::snapshotSave(SnapshotWriter &w) const
{
    w.u32(id_);

    for (Word r : regs_)
        w.u32(r);
    w.u32(pc_);
    w.u32(npc_);
    w.u32(hi_);
    w.u32(lo_);
    // The only inter-instruction latches: whether the next instruction
    // sits in a delay slot, and the store-run length the cost model
    // tracks. The other latches (excRaised_, stagedNpc_, redirect_)
    // are written and consumed within one step and are dead at the
    // instruction boundaries where snapshots are taken.
    w.boolean(prevWasControl_);
    w.u32(consecutiveStores_);
    w.boolean(halted_);

    w.u32(std::uint32_t(breakpoints_.size()));
    for (Addr a : breakpoints_)
        w.u32(a);

    w.u64(stats_.instructions);
    w.u64(stats_.cycles);
    w.u64(stats_.loads);
    w.u64(stats_.stores);
    w.u64(stats_.branches);
    w.u64(stats_.exceptionsTaken);
    w.u64(stats_.tlbRefillFaults);
    w.u64(stats_.userVectoredExceptions);
    for (std::uint64_t c : stats_.perExcCode)
        w.u64(c);

    for (unsigned r = 0; r < 32; r++)
        w.u32(cp0_.rawReg(r));
    for (unsigned r = 0; r < NumUxRegs; r++)
        w.u32(cp0_.uxReg(static_cast<UxReg>(r)));
    w.u32(cp0_.randomState());

    for (unsigned i = 0; i < Tlb::NumEntries; i++) {
        w.u32(tlb_.entry(i).hi);
        w.u32(tlb_.entry(i).lo);
    }
    w.u64(tlb_.stats().lookups);
    w.u64(tlb_.stats().misses);

    w.boolean(icache_ != nullptr);
    if (icache_)
        icache_->snapshotSave(w);
    w.boolean(dcache_ != nullptr);
    if (dcache_)
        dcache_->snapshotSave(w);
}

void
Hart::snapshotLoad(SnapshotReader &r)
{
    std::uint32_t id = r.u32();
    if (id != id_)
        r.fail("hart id mismatch: image hart " + std::to_string(id) +
               ", machine hart " + std::to_string(id_));

    for (Word &reg : regs_)
        reg = r.u32();
    regs_[0] = 0;
    pc_ = r.u32();
    npc_ = r.u32();
    hi_ = r.u32();
    lo_ = r.u32();
    prevWasControl_ = r.boolean();
    consecutiveStores_ = r.u32();
    halted_ = r.boolean();
    excRaised_ = false;
    stagedNpc_ = 0;
    redirect_ = false;

    breakpoints_.clear();
    std::uint32_t nbps = r.u32();
    for (std::uint32_t i = 0; i < nbps; i++)
        addBreakpoint(r.u32());

    stats_.instructions = r.u64();
    stats_.cycles = r.u64();
    stats_.loads = r.u64();
    stats_.stores = r.u64();
    stats_.branches = r.u64();
    stats_.exceptionsTaken = r.u64();
    stats_.tlbRefillFaults = r.u64();
    stats_.userVectoredExceptions = r.u64();
    for (std::uint64_t &c : stats_.perExcCode)
        c = r.u64();

    for (unsigned reg = 0; reg < 32; reg++)
        cp0_.setRawReg(reg, r.u32());
    for (unsigned reg = 0; reg < NumUxRegs; reg++)
        cp0_.setUxReg(static_cast<UxReg>(reg), r.u32());
    std::uint32_t random = r.u32();
    if (random > 63)
        r.fail("CP0 Random counter " + std::to_string(random) +
               " out of range");
    cp0_.setRandomState(random);

    // setEntry bumps Tlb::generation, so every micro-TLB filled under
    // the pre-restore contents self-invalidates.
    TlbStats tlb_stats;
    for (unsigned i = 0; i < Tlb::NumEntries; i++) {
        Word hi = r.u32();
        Word lo = r.u32();
        tlb_.setEntry(i, hi, lo);
    }
    tlb_stats.lookups = r.u64();
    tlb_stats.misses = r.u64();
    tlb_.restoreStats(tlb_stats);

    bool has_icache = r.boolean();
    if (has_icache != (icache_ != nullptr))
        r.fail("icache presence mismatch");
    if (icache_)
        icache_->snapshotLoad(r);
    bool has_dcache = r.boolean();
    if (has_dcache != (dcache_ != nullptr))
        r.fail("dcache presence mismatch");
    if (dcache_)
        dcache_->snapshotLoad(r);

    // Derived host state is rebuilt lazily from the restored memory,
    // TLB, and page versions.
    flushHostCaches();
}

void
Hart::saveRound(RoundContext &ctx) const
{
    ctx.regs = regs_;
    ctx.pc = pc_;
    ctx.npc = npc_;
    ctx.hi = hi_;
    ctx.lo = lo_;
    ctx.prevWasControl = prevWasControl_;
    ctx.consecutiveStores = consecutiveStores_;
    ctx.halted = halted_;
    ctx.stats = stats_;
    ctx.cp0 = cp0_;
    ctx.tlb = tlb_;
    if (icache_)
        ctx.icache = *icache_;
    else
        ctx.icache.reset();
    if (dcache_)
        ctx.dcache = *dcache_;
    else
        ctx.dcache.reset();
}

void
Hart::restoreRound(const RoundContext &ctx)
{
    regs_ = ctx.regs;
    pc_ = ctx.pc;
    npc_ = ctx.npc;
    hi_ = ctx.hi;
    lo_ = ctx.lo;
    prevWasControl_ = ctx.prevWasControl;
    consecutiveStores_ = ctx.consecutiveStores;
    halted_ = ctx.halted;
    // As with snapshotLoad: the intra-instruction latches are dead at
    // the quantum boundaries where rounds begin and end.
    excRaised_ = false;
    stagedNpc_ = 0;
    redirect_ = false;
    stats_ = ctx.stats;
    cp0_ = ctx.cp0;
    tlb_ = ctx.tlb;
    if (ctx.icache)
        *icache_ = *ctx.icache;
    if (ctx.dcache)
        *dcache_ = *ctx.dcache;
    // The copied-back Tlb carries the generation it had at save time,
    // which may equal a generation the aborted round also saw —
    // flushing resets tlbGenSeen_ alongside, so nothing stale can
    // revalidate.
    flushHostCaches();
}

} // namespace uexc::sim
