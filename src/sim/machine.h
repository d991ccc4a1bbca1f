/**
 * @file
 * Machine composition: physical memory plus one shared execute engine
 * over N harts, with program-loading and symbol lookup conveniences.
 * Everything above the sim layer (the simulated OS, the runtime, the
 * applications) talks to a Machine.
 *
 * Scheduling determinism contract: Machine::run interleaves harts
 * with a cooperative round-robin quantum scheduler. Hart 0 always
 * runs first; each runnable hart executes up to `quantum`
 * instructions (exceptions and stalls included in its own cycle
 * accounting) before the next hart is bound; halted harts are
 * skipped. The schedule depends only on (program, config, quantum) —
 * no clocks — so every multi-hart run is bit-reproducible. The
 * Barrier scheduler preserves this contract on real host threads
 * (speculative rounds that commit or roll back to the serial
 * schedule, see SchedulerMode), so cross-hart visibility happens only
 * at quantum and round boundaries.
 */

#ifndef UEXC_SIM_MACHINE_H
#define UEXC_SIM_MACHINE_H

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "sim/assembler.h"
#include "sim/cpu.h"
#include "sim/memory.h"
#include "sim/snapshot.h"

namespace uexc::sim {

/**
 * How Machine::run drives multiple harts.
 *
 *  - Serial: the reference scheduler — one host thread, round-robin
 *    quanta, the exact contract in the file comment above.
 *  - Barrier: each hart's quantum runs on its own host thread against
 *    a frozen memory image with a per-hart store buffer; all harts
 *    rendezvous at a barrier, the round is checked for cross-hart
 *    page conflicts, and committed in serial round order — or rolled
 *    back and re-run serially. Observable behaviour (state, cycles,
 *    instret, delivery stats, checkpoint images) is bit-identical to
 *    Serial; tests/test_parallel.cc enforces this.
 *  - Auto: resolve from the UEXC_PARALLEL environment variable
 *    ("0"/"serial" → Serial, "1"/"barrier" → Barrier, unset →
 *    Serial; any other value is fatal), so CI can force either
 *    scheduler into existing binaries without rebuilds.
 *
 * The mode is host policy, not machine state: it is deliberately
 * excluded from the checkpoint config echo, so serial and barrier
 * machines produce byte-identical images and can restore each
 * other's.
 */
enum class SchedulerMode { Auto, Serial, Barrier };

/** Barrier-scheduler outcome counters (host-side measurement). */
struct BarrierSchedStats
{
    std::uint64_t parallelRounds = 0;   ///< speculative rounds started
    std::uint64_t committedRounds = 0;  ///< ...that committed
    std::uint64_t abortedRounds = 0;    ///< ...rolled back to serial
    std::uint64_t serialQuanta = 0;     ///< quanta run on the caller
};

/** Machine-wide configuration. */
struct MachineConfig
{
    /** Physical memory size in bytes. */
    std::size_t memBytes = 32 * 1024 * 1024;
    CpuConfig cpu;
    /** Number of hardware execution contexts sharing the memory. */
    unsigned harts = 1;
    /**
     * Round-robin scheduling quantum in instructions. Only consulted
     * when harts > 1: a single hart always runs to its caller-given
     * budget in one quantum, preserving bit-identical behaviour with
     * the pre-multihart machine.
     */
    InstCount quantum = 10000;
    /** Scheduler driving the harts; see SchedulerMode. */
    SchedulerMode scheduler = SchedulerMode::Auto;
};

/**
 * Observed page-touch sets of speculative barrier rounds, recorded
 * when a log is attached via Machine::setPageTouchLog. One Round per
 * speculative round (committed or aborted), one HartTouches per live
 * hart in serial rotation order, holding copies of that hart's
 * StoreBuffer page sets at the rendezvous. The static shared-page
 * analyzer's soundness oracle compares these against its may-sets.
 */
struct PageTouchLog
{
    struct HartTouches
    {
        unsigned hart = 0;
        std::unordered_set<Addr> readPages;
        std::unordered_set<Addr> writePages;
        std::unordered_set<Addr> fetchPages;
        /** The hart aborted its own quantum (SMC or hcall). */
        bool selfAborted = false;
    };
    struct Round
    {
        std::vector<HartTouches> harts;
        bool aborted = false;
    };
    std::vector<Round> rounds;
};

/** Result of a Machine::run call. */
struct MachineRunResult
{
    StopReason reason = StopReason::InstLimit;
    /** Total instructions executed across all harts this call. */
    InstCount instsExecuted = 0;
    /** The hart the stop condition occurred on. */
    unsigned hart = 0;
};

/**
 * A complete simulated machine.
 */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config = MachineConfig());
    ~Machine();

    /**
     * The execute engine, bound to the current hart. Single-hart
     * machines can treat this exactly like the old one-Cpu machine.
     */
    Cpu &cpu() { return *cpu_; }
    const Cpu &cpu() const { return *cpu_; }
    PhysMemory &mem() { return *mem_; }
    const MachineConfig &config() const { return config_; }

    // -- harts --------------------------------------------------------------

    unsigned numHarts() const { return unsigned(harts_.size()); }
    Hart &hart(unsigned i) { return *harts_[i]; }
    const Hart &hart(unsigned i) const { return *harts_[i]; }

    /** The resolved scheduler mode (never Auto). */
    SchedulerMode schedulerMode() const { return scheduler_; }
    const BarrierSchedStats &barrierStats() const
    {
        return barrierStats_;
    }

    /** Attach (or detach with nullptr) a recorder for the page sets
     *  of every speculative barrier round. Not snapshotted; host-side
     *  instrumentation only. */
    void setPageTouchLog(PageTouchLog *log) { pageTouchLog_ = log; }

    /** The hart the engine is currently bound to. */
    unsigned currentHart() const { return currentHart_; }
    /** Bind the engine to hart @p i (host-side context switch). */
    void setCurrentHart(unsigned i);

    /**
     * Invalidate the translation for (@p vaddr, @p asid) in every
     * hart's TLB — the software analogue of a TLB shootdown, used by
     * kernel unmap/protect paths so no hart retains a stale mapping.
     * On a single-hart machine this is exactly the old single-TLB
     * invalidate.
     */
    void invalidateTlbs(Addr vaddr, unsigned asid);

    /**
     * Run the machine for up to @p max_insts total instructions,
     * round-robin over runnable harts (see file comment). Returns
     * when a hart halts with all others halted (Halted), a hart hits
     * a breakpoint (Breakpoint, with that hart id), or the budget is
     * exhausted (InstLimit). A breakpoint leaves the schedule
     * position intact: the next run() resumes with the same hart so
     * the quantum accounting stays deterministic.
     */
    MachineRunResult run(InstCount max_insts);

    /**
     * Load a finalized program image. The program's origin may be a
     * kseg0/kseg1 virtual address (translated to physical directly)
     * or a physical address below the memory size.
     *
     * The program's symbols are merged into the machine symbol table.
     */
    void load(const Program &program);

    /** Look up a loaded symbol; fatal if absent. */
    Addr symbol(const std::string &name) const;
    bool hasSymbol(const std::string &name) const;

    /** Convert a kseg0/kseg1 virtual address to physical. */
    static Addr unmappedToPhys(Addr vaddr);

    /**
     * Direct (host) read/write of memory by kseg0/kseg1/physical
     * address, bypassing translation and cost modeling. For loaders
     * and test assertions only. Writes bump the PhysMemory page
     * version, so any hart's predecoded copy of the page is
     * invalidated before its next fetch.
     */
    Word debugReadWord(Addr addr) const;
    void debugWriteWord(Addr addr, Word value);

    // -- checkpoint/restore -------------------------------------------------

    using SnapshotSaveFn = std::function<void(SnapshotWriter &)>;
    using SnapshotLoadFn = std::function<void(SnapshotReader &)>;

    /**
     * Register an extra snapshot section. The os/apps layers use this
     * so a Machine checkpoint carries *their* host-side bookkeeping
     * (kernel allocation cursors, delivery state, injector queues,
     * DSM directories) alongside the architectural state. Sections
     * are saved in registration order; restore is strict — a
     * registered tag missing from the image, or an image section with
     * no registered consumer, raises SnapshotError. The callables
     * must stay valid for the machine's lifetime (in practice the
     * kernel/env/cluster own the machine's users and outlive every
     * checkpoint/restore call).
     */
    void registerSnapshotSection(Word tag, SnapshotSaveFn save,
                                 SnapshotLoadFn load);

    /**
     * Serialize the complete machine — every hart's architectural
     * context, physical memory (zero pages elided), the scheduler
     * position, and every registered section — into a validated,
     * CRC-protected image. Only meaningful between run() calls.
     */
    std::vector<Byte> checkpoint() const;

    /**
     * Restore a checkpoint() image into this machine. The machine
     * must be structurally identical to the one that produced the
     * image (same MachineConfig, same registered sections) — restore
     * targets a freshly constructed twin, it does not morph arbitrary
     * machines. Throws SnapshotError on any validation failure;
     * forward execution after a successful restore is bit-identical
     * to the checkpointed machine (host interpreter caches are
     * flushed and rebuilt lazily).
     */
    void restore(const std::vector<Byte> &image);

  private:
    struct SnapshotHook
    {
        Word tag;
        SnapshotSaveFn save;
        SnapshotLoadFn load;
    };
    struct ParallelPool;

    MachineRunResult runSerialImpl(InstCount max_insts);
    MachineRunResult runBarrier(InstCount max_insts);
    void ensurePool();

    MachineConfig config_;
    std::unique_ptr<PhysMemory> mem_;
    std::vector<std::unique_ptr<Hart>> harts_;
    std::unique_ptr<Cpu> cpu_;
    unsigned currentHart_ = 0;
    std::map<std::string, Addr> symbols_;
    std::vector<SnapshotHook> snapshotHooks_;

    // -- parallel scheduling (host-side only, never snapshotted) ------

    SchedulerMode scheduler_ = SchedulerMode::Serial;
    std::unique_ptr<ParallelPool> pool_;
    /** Serial quanta left before the next speculative round (abort
     *  backoff); doubled per consecutive abort, capped at 64. */
    unsigned serialStreak_ = 0;
    unsigned abortStreakLen_ = 0;
    BarrierSchedStats barrierStats_;
    PageTouchLog *pageTouchLog_ = nullptr;
};

} // namespace uexc::sim

#endif // UEXC_SIM_MACHINE_H
