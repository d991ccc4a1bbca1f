/**
 * @file
 * Hart: one hardware execution context of the simulated machine.
 *
 * The paper's hardware model (the Tera MTA) is a multithreaded
 * machine: the user-exception register file, the in-user-exception
 * bit, and the pinned frame page are all *per-thread* state, and the
 * scalability argument for user-level vectoring rests on exception
 * delivery touching no shared kernel structures. To express that, the
 * per-context state that used to live inside Cpu — the GPR file,
 * HI/LO, the PC latches, CP0 (including the COP3 user exception
 * register file), the TLB, the I/D caches, and the host-side
 * fast-interpreter caches (predecoded pages and micro-TLBs) — lives
 * here, and Cpu is the shared execute engine that binds to one Hart
 * at a time. A Machine hosts N Harts over one shared PhysMemory and
 * interleaves them deterministically (see Machine::run).
 *
 * Everything in a Hart travels with it across bind/unbind: binding a
 * different hart to the engine never invalidates another hart's
 * caches or statistics.
 */

#ifndef UEXC_SIM_HART_H
#define UEXC_SIM_HART_H

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "sim/cache.h"
#include "sim/costmodel.h"
#include "sim/cp0.h"
#include "sim/isa.h"
#include "sim/memory.h"
#include "sim/tlb.h"

namespace uexc::sim {

class FaultInjector;
class SnapshotReader;
class SnapshotWriter;

/** Machine configuration. */
struct CpuConfig
{
    CostModel cost;
    /**
     * Host-side fast interpreter: predecoded per-physical-page
     * instruction arrays plus micro i/d translation caches, so
     * straight-line code skips the full TLB probe and decode on every
     * instruction. Guest-visible behaviour — architectural state,
     * cycle and cost accounting, cache/TLB statistics, observer
     * callbacks — is bit-identical to the reference interpreter (the
     * differential suite in tests/test_differential.cc enforces
     * this); only host wall-clock speed changes. The caches
     * invalidate on stores to a decoded page (PhysMemory page
     * versions) and on any TLB mutation (Tlb::generation), and are
     * keyed by ASID and processor mode so context switches and
     * Status/EntryHi writes cannot alias.
     */
    bool fastInterpreter = false;
    /** COP3 user-mode exception vectoring implemented in hardware. */
    bool userVectorHw = false;
    /**
     * Vector-table variant of user vectoring (paper section 2.2's
     * alternative): the exception target register holds the base of
     * a process-local, pinned table of handler addresses indexed by
     * ExcCode; the hardware loads table[code] while vectoring. A
     * translation miss on the table entry demotes the exception to
     * the kernel (the table page must be pinned, like the frame
     * page). Requires userVectorHw.
     */
    bool userVectorTable = false;
    /** TLBMP executes in hardware (else it raises RI for emulation). */
    bool tlbmpHw = false;
    /** Model I/D cache miss cycles (64 KB direct-mapped caches with
     *  16-byte lines, as on the DECstation 5000/200). */
    bool cachesEnabled = false;
    /**
     * Optional deterministic fault injector (not owned; must outlive
     * the machine). Cpu::run fires its events between run units and
     * changes nothing else, so a null or drained injector is
     * bit-identical to running without one.
     */
    FaultInjector *faultInjector = nullptr;
};

/** Aggregate execution statistics (per hart). */
struct CpuStats
{
    InstCount instructions = 0;
    Cycles cycles = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t exceptionsTaken = 0;
    std::uint64_t tlbRefillFaults = 0;
    std::uint64_t userVectoredExceptions = 0;
    std::array<std::uint64_t, NumExcCodes> perExcCode{};
};

/**
 * One execution context. See file comment. The Cpu engine has friend
 * access to the raw state; host code inspects and seeds a hart
 * through the accessors below (the same surface Cpu re-exports for
 * its bound hart).
 */
class Hart
{
  public:
    Hart(unsigned id, const CpuConfig &config);

    /** Hart number; also exposed to the guest via CP0 PrId [31:24]. */
    unsigned id() const { return id_; }

    // -- architectural state ------------------------------------------

    Word reg(unsigned r) const { return regs_[r]; }
    void setReg(unsigned r, Word v) { if (r != 0) regs_[r] = v; }

    Word hi() const { return hi_; }
    Word lo() const { return lo_; }

    Addr pc() const { return pc_; }
    Addr npc() const { return npc_; }
    /** Set the PC (clears any in-flight delay slot). */
    void setPc(Addr pc)
    {
        pc_ = pc;
        npc_ = pc + 4;
        prevWasControl_ = false;
    }

    /**
     * Whether the next instruction to execute sits in a branch delay
     * slot (the previous instruction was a taken-or-not control
     * transfer). The fault injector must not raise a spurious
     * exception here: restarting a delay-slot instruction needs the
     * branch re-executed, so EPC would have to back up.
     */
    bool inDelaySlot() const { return prevWasControl_; }

    Cp0 &cp0() { return cp0_; }
    const Cp0 &cp0() const { return cp0_; }
    Tlb &tlb() { return tlb_; }
    const Tlb &tlb() const { return tlb_; }

    // -- run control ---------------------------------------------------

    void requestHalt() { halted_ = true; }
    bool halted() const { return halted_; }
    void clearHalt() { halted_ = false; }

    void addBreakpoint(Addr addr)
    {
        auto it = std::lower_bound(breakpoints_.begin(),
                                   breakpoints_.end(), addr);
        if (it == breakpoints_.end() || *it != addr)
            breakpoints_.insert(it, addr);
    }
    void removeBreakpoint(Addr addr)
    {
        auto it = std::lower_bound(breakpoints_.begin(),
                                   breakpoints_.end(), addr);
        if (it != breakpoints_.end() && *it == addr)
            breakpoints_.erase(it);
    }
    void clearBreakpoints() { breakpoints_.clear(); }
    bool hasBreakpoints() const { return !breakpoints_.empty(); }
    bool isBreakpoint(Addr pc) const
    {
        return std::binary_search(breakpoints_.begin(),
                                  breakpoints_.end(), pc);
    }
    /** Whether a breakpoint lies in the 4 KB page based at @p vbase. */
    bool breakpointInPage(Addr vbase) const
    {
        auto it = std::lower_bound(breakpoints_.begin(),
                                   breakpoints_.end(), vbase);
        return it != breakpoints_.end() &&
               *it - vbase < PhysMemory::PageBytes;
    }

    // -- statistics -----------------------------------------------------

    const CpuStats &stats() const { return stats_; }
    void clearStats();
    Cycles cycles() const { return stats_.cycles; }
    InstCount instret() const { return stats_.instructions; }

    Cache *icache() { return icache_.get(); }
    Cache *dcache() { return dcache_.get(); }

    // -- host-side caches ----------------------------------------------

    /** Drop the micro-TLBs and the one-entry fetch cache. */
    void flushMicroTlb();
    /** Drop every host-side interpreter cache for this hart. */
    void flushHostCaches();
    /**
     * Instructions the fast interpreter has decoded into its
     * predecoded pages since construction. Host work, not machine
     * state: never serialized, never cleared, and not rolled back
     * with a round.
     */
    std::uint64_t fastDecodes() const { return fastDecodes_; }

    // -- snapshot -------------------------------------------------------

    /**
     * Serialize the complete architectural context (GPRs, HI/LO, PC
     * latches, CP0 + COP3 user-exception file, TLB, I/D cache tag
     * stores, breakpoints, statistics). Host-side interpreter caches
     * are deliberately not serialized — they are derived state, and
     * snapshotLoad ends with flushHostCaches() so a restored hart
     * redecodes and re-translates from the restored memory/TLB.
     * Only meaningful between Machine::run calls (at an instruction
     * boundary, where the intra-instruction latches are dead).
     */
    void snapshotSave(SnapshotWriter &w) const;
    void snapshotLoad(SnapshotReader &r);

    // -- parallel-round rollback ---------------------------------------

    /**
     * In-host copy of the full architectural context, cheap enough to
     * take per hart per parallel round. The barrier scheduler saves
     * one before speculatively running a round against store buffers;
     * on a conflict it restores every hart and re-runs the round
     * serially. Unlike the snapshot image this is host-side and
     * value-typed — no serialization, no format versioning.
     * Breakpoints are not included: the scheduler never runs a round
     * while any hart has one, so they cannot change mid-round.
     */
    struct RoundContext
    {
        std::array<Word, NumRegs> regs;
        Addr pc;
        Addr npc;
        Word hi;
        Word lo;
        bool prevWasControl;
        unsigned consecutiveStores;
        bool halted;
        CpuStats stats;
        Cp0 cp0;
        Tlb tlb;
        std::optional<Cache> icache;
        std::optional<Cache> dcache;
    };

    void saveRound(RoundContext &ctx) const;
    /** Restore a saveRound() copy and drop the host-side caches. */
    void restoreRound(const RoundContext &ctx);

  private:
    friend class Cpu;

    /**
     * One physical page of predecoded instructions, decoded a slot at
     * a time. A slot is valid while its @c slotVersions entry equals
     * the PhysMemory page version the fetch cache was filled at
     * (@c fetchVersion_), and is decoded on its first fetch otherwise.
     * Any store into the page (guest or host side) advances the page
     * version first, so the next refill records the new version and
     * every slot fetched after it is decoded again from the new bytes,
     * which is what keeps self-modifying code correct. A fresh page
     * starts its slots one version behind; like PhysMemory's known-
     * zero pages, this rests on the 32-bit version not wrapping.
     */
    struct DecodedPage
    {
        static constexpr unsigned NumInsts = PhysMemory::PageBytes / 4;
        std::array<std::uint32_t, NumInsts> slotVersions{};
        std::array<DecodedInst, NumInsts> insts;
    };

    /**
     * Micro-TLB entry: one cached successful translation. The key
     * packs (virtual page | ASID << 1 | user-mode bit), so ASID and
     * processor-mode changes miss instead of aliasing; TLB content
     * changes are caught by comparing Tlb::generation before lookup.
     * Bits [11:7] of a real key are always zero (ASID is 6 bits),
     * so kInvalidKey can never match.
     */
    static constexpr Word kInvalidKey = 0x80u;
    static constexpr unsigned kMicroTlbSize = 16;  // direct-mapped

    struct MicroTlbEntry
    {
        Word key = kInvalidKey;
        Addr pbase = 0;
        bool mapped = false;     ///< reference path would probe the TLB
        bool cacheable = true;
        bool writable = false;   ///< filled from a store (or dirty page)
    };

    unsigned id_;
    Cp0 cp0_;
    Tlb tlb_;
    std::unique_ptr<Cache> icache_;
    std::unique_ptr<Cache> dcache_;

    std::array<Word, NumRegs> regs_{};
    Addr pc_ = 0;
    Addr npc_ = 4;
    Word hi_ = 0;
    Word lo_ = 0;

    /** Previous retired instruction was a branch/jump. */
    bool prevWasControl_ = false;
    /** Set by execute() when the instruction raised an exception. */
    bool excRaised_ = false;
    /** Next-NPC staged by the current instruction. */
    Addr stagedNpc_ = 0;
    /** xret (or an hcall) moved the PC directly, bypassing npc. */
    bool redirect_ = false;
    unsigned consecutiveStores_ = 0;

    bool halted_ = false;
    /** The stop-PC set, sorted and unique (the snapshot order). */
    std::vector<Addr> breakpoints_;

    CpuStats stats_;

    // -- fast-interpreter caches (host-side only, never architectural) --

    /** Predecoded pages, keyed by physical page number. */
    std::unordered_map<Word, std::unique_ptr<DecodedPage>> decodedPages_;
    /** One-entry fetch cache: the page the PC is streaming through. */
    Word fetchKey_ = kInvalidKey;
    DecodedPage *fetchPage_ = nullptr;
    Addr fetchPaBase_ = 0;
    Addr fetchVbase_ = 0;
    const std::uint32_t *fetchMemVer_ = nullptr;
    std::uint32_t fetchVersion_ = 0;
    bool fetchMapped_ = false;
    bool fetchCacheable_ = true;
    /** Micro-dTLB for load/store translation. */
    std::array<MicroTlbEntry, kMicroTlbSize> dtlb_;
    /** Tlb::generation the caches were filled under. */
    std::uint64_t tlbGenSeen_ = 0;
    std::uint64_t fastDecodes_ = 0;
};

} // namespace uexc::sim

#endif // UEXC_SIM_HART_H
