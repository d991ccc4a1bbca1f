/**
 * @file
 * The simulated CPU: a functional, cycle-costed interpreter for the
 * MIPS-I-like ISA with the R3000 trap architecture.
 *
 * Faithfully modeled:
 *  - precise exceptions with the R3000 status-word KU/IE stack,
 *    Cause/EPC/BadVAddr/Context updates, branch-delay (BD) attribution
 *    and branch re-execution semantics;
 *  - a software-managed 64-entry tagged TLB with separate refill
 *    (0x80000000) and general (0x80000080) vectors;
 *  - branch delay slots, including exceptions raised *in* delay slots;
 *  - kuseg/kseg0/kseg1 segmentation with user-mode access checks.
 *
 * Extensions (sections 2.1-2.2 of Thekkath & Levy '94), enabled by
 * configuration flags so every benchmark can compare with/without:
 *  - direct user-mode exception vectoring through the user exception
 *    register file (COP3), with recursive-exception demotion to the
 *    kernel via the Status.UX bit;
 *  - the TLBMP instruction for user-level TLB protection modification
 *    gated on the per-entry U bit.
 *
 * The Cpu is the machine's shared *execute engine*: all per-context
 * state (registers, CP0/COP3, TLB, caches, the fast-interpreter
 * caches) lives in a Hart (sim/hart.h), and the engine operates on
 * whichever hart is currently bound. Machine::run interleaves harts
 * by rebinding between quanta; every accessor below reads or writes
 * the bound hart, so single-hart code is unchanged.
 */

#ifndef UEXC_SIM_CPU_H
#define UEXC_SIM_CPU_H

#include <functional>

#include "common/types.h"
#include "sim/hart.h"
#include "sim/memory.h"

namespace uexc::sim {

class StoreBuffer;

/** Memory access intent, for translation. */
enum class AccessType { Fetch, Load, Store };

/** Result of a virtual-to-physical translation attempt. */
struct TranslateResult
{
    bool ok = false;
    Addr paddr = 0;
    bool cacheable = true;
    /** When !ok: the exception to raise. */
    ExcCode exc = ExcCode::TlbL;
    /** When !ok: whether this is a TLB *miss* (refill vector). */
    bool refill = false;
};

/** Why run() returned. */
enum class StopReason
{
    Halted,      ///< guest executed hcall 0 or host called requestHalt
    Breakpoint,  ///< pc reached an address registered as a breakpoint
    InstLimit,   ///< the instruction budget was exhausted
};

/** Result of a run() call. */
struct RunResult
{
    StopReason reason = StopReason::InstLimit;
    InstCount instsExecuted = 0;
};

class Cpu;

/**
 * Per-instruction observation hook, used by the phase profiler that
 * regenerates Table 3. Only consulted when installed.
 */
class InstObserver
{
  public:
    virtual ~InstObserver() = default;
    /** Called after each retired instruction. */
    virtual void onInst(Addr pc, const DecodedInst &inst,
                        Cycles cost) = 0;
    /** Called when an exception is taken. */
    virtual void onException(ExcCode code, Addr epc, Addr vector) = 0;
};

/** Host service callback for the HCALL extension. */
using HcallHandler = std::function<void(Cpu &, Word service)>;

/**
 * The CPU. See file comment.
 */
class Cpu
{
  public:
    /** Exception vector addresses (R3000). */
    static constexpr Addr RefillVector = 0x80000000u;
    static constexpr Addr GeneralVector = 0x80000080u;
    /** Segment bases. */
    static constexpr Addr Kseg0Base = 0x80000000u;
    static constexpr Addr Kseg1Base = 0xa0000000u;
    static constexpr Addr Kseg2Base = 0xc0000000u;

    Cpu(PhysMemory &mem, const CpuConfig &config);

    // -- hart binding -------------------------------------------------------

    /**
     * Bind the engine to @p hart. All subsequent execution and state
     * access goes through it. Binding carries no simulated cost and
     * invalidates nothing: each hart's host-side caches are its own.
     */
    void bindHart(Hart &hart) { h_ = &hart; }
    Hart &hart() { return *h_; }
    const Hart &hart() const { return *h_; }
    unsigned hartId() const { return h_->id(); }

    // -- architectural state (of the bound hart) ----------------------------

    Word reg(unsigned r) const { return h_->reg(r); }
    void setReg(unsigned r, Word v) { h_->setReg(r, v); }

    /** Multiply/divide result registers (for state comparison). */
    Word hi() const { return h_->hi(); }
    Word lo() const { return h_->lo(); }

    Addr pc() const { return h_->pc(); }
    /** The next-PC latch (delay-slot sequencing state). */
    Addr npc() const { return h_->npc(); }
    /** Set the PC (clears any in-flight delay slot). */
    void setPc(Addr pc) { h_->setPc(pc); }

    Cp0 &cp0() { return h_->cp0(); }
    const Cp0 &cp0() const { return h_->cp0(); }
    Tlb &tlb() { return h_->tlb(); }
    const Tlb &tlb() const { return h_->tlb(); }
    PhysMemory &mem() { return mem_; }

    const CpuConfig &config() const { return config_; }

    // -- execution ---------------------------------------------------------

    /**
     * Run until halt, breakpoint, or @p max_insts instructions. The
     * same loop serves both interpreters; see cpu.cc.
     */
    RunResult run(InstCount max_insts);

    /** Stop the next run(). */
    void requestHalt() { h_->requestHalt(); }
    bool halted() const { return h_->halted(); }
    /** Allow execution again after a halt. */
    void clearHalt() { h_->clearHalt(); }

    /** Stop run() when the PC reaches @p addr (before executing it). */
    void addBreakpoint(Addr addr) { h_->addBreakpoint(addr); }
    void removeBreakpoint(Addr addr) { h_->removeBreakpoint(addr); }
    void clearBreakpoints() { h_->clearBreakpoints(); }

    // -- host integration ----------------------------------------------------

    void setHcallHandler(HcallHandler handler)
    {
        hcallHandler_ = std::move(handler);
    }
    const HcallHandler &hcallHandler() const { return hcallHandler_; }

    /** Account extra simulated cycles (host-side kernel services). */
    void charge(Cycles cycles) { h_->stats_.cycles += cycles; }

    /** Observer for profiling; may be null. */
    void setObserver(InstObserver *obs) { observer_ = obs; }
    InstObserver *observer() const { return observer_; }

    /**
     * Attach (or detach, with null) a store buffer: all guest data
     * accesses and fetches then go through it, stores land in the
     * buffer instead of memory, and the touched-page sets are
     * recorded. Only the Machine's barrier scheduler uses this,
     * around one speculative quantum; the buffer must be committed
     * or discarded (with Hart::restoreRound) before serial execution
     * resumes.
     */
    void setStoreBuffer(StoreBuffer *sb) { sb_ = sb; }
    StoreBuffer *storeBuffer() const { return sb_; }

    // -- services for the OS / VM facade ------------------------------------

    /**
     * Translate @p vaddr for @p type in the *current* processor mode.
     * Performs a real TLB lookup (updates TLB stats) but raises no
     * exception; the caller decides.
     */
    TranslateResult translate(Addr vaddr, AccessType type);

    /** translate() without perturbing statistics. */
    TranslateResult translateQuiet(Addr vaddr, AccessType type) const;

    /**
     * Enter an exception exactly as the hardware would for a fault at
     * @p fault_pc (not in a delay slot) touching @p bad_vaddr. Used by
     * the VM facade to inject faults on behalf of host-side
     * application code. Returns the vector address now in the PC.
     */
    Addr injectException(ExcCode code, Addr fault_pc, Addr bad_vaddr,
                         bool refill);

    /** Model a data-cache access (for host-side app memory traffic). */
    Cycles chargeDataAccess(Addr paddr, bool cacheable);

    /**
     * Drop every host-side interpreter cache (predecoded pages and
     * micro-TLBs) of the bound hart. Never required for correctness —
     * the page-version and TLB-generation checks already invalidate
     * stale entries on the next fetch — but kernel services that
     * rewrite guest code or page tables wholesale (program load,
     * context switch) call it to make the shootdown protocol explicit
     * and to release the decoded pages of the outgoing image. A no-op
     * on the reference interpreter.
     */
    void flushHostCaches() { h_->flushHostCaches(); }

    // -- statistics (of the bound hart) -------------------------------------

    const CpuStats &stats() const { return h_->stats(); }
    void clearStats() { h_->clearStats(); }
    Cycles cycles() const { return h_->cycles(); }
    InstCount instret() const { return h_->instret(); }

    Cache *icache() { return h_->icache(); }
    Cache *dcache() { return h_->dcache(); }

  private:
    // execution helpers
    /** Execute one instruction (or take one exception). */
    void step();
    bool executeInline(const DecodedInst &inst, Addr pc, Addr &staged);
    void execute(const DecodedInst &inst);
    bool retire(const DecodedInst &inst, Addr pc, Cycles cycles_before);
    bool memAddress(const DecodedInst &inst, unsigned size,
                    AccessType type, Addr &paddr_out);
    // fast-interpreter helpers
    Word translationKey(Addr vaddr) const;
    TranslateResult walk(Addr vaddr, AccessType type, bool quiet) const;
    bool microDtlbLookup(Addr vaddr, AccessType type,
                         TranslateResult &out);
    void microDtlbFill(Addr vaddr, AccessType type,
                       const TranslateResult &tr);
    const DecodedInst *refillFetchFast(const TranslateResult &tr);
    const DecodedInst &fetchSlot(Hart::DecodedPage &page,
                                 std::uint32_t version, Addr pc);
    // guest data access, routed through the store buffer when attached
    Word loadWord(Addr paddr);
    Half loadHalf(Addr paddr);
    Byte loadByte(Addr paddr);
    void storeWord(Addr paddr, Word value);
    void storeHalf(Addr paddr, Half value);
    void storeByte(Addr paddr, Byte value);
    void noteFetchPage(Addr paddr);
    void runBlock(InstCount limit);
    void takeException(ExcCode code, Addr bad_vaddr, bool has_bad_vaddr,
                       bool refill);
    bool tryUserVector(ExcCode code, Addr epc, Addr bad_vaddr,
                       bool branch_delay);

    PhysMemory &mem_;
    CpuConfig config_;
    HcallHandler hcallHandler_;
    InstObserver *observer_ = nullptr;
    /** Speculative-round store buffer; null outside parallel rounds. */
    StoreBuffer *sb_ = nullptr;

    /**
     * The bound execution context. Set by Machine before any
     * execution; never null once the machine is constructed.
     */
    Hart *h_ = nullptr;
};

} // namespace uexc::sim

#endif // UEXC_SIM_CPU_H
