/**
 * @file
 * Seeded, deterministic fault injection.
 *
 * A FaultInjector holds a list of FaultEvents, each bound to a hart
 * and an instruction count. Cpu::run fires the due events between
 * run units, and clips each unit to end where the next event is due;
 * a firing event perturbs architectural or memory state in place:
 *
 *  - MemBitFlip: flip one bit of a physical-memory word,
 *  - TlbCorrupt: clear the valid bit of a TLB entry *in place* (the
 *    kernel's pmap consistency check then sees a TLB/PTE disagreement
 *    and diagnoses a bad trap -> GuestError),
 *  - TlbSpuriousMiss: evict a TLB entry entirely (park it on an
 *    impossible VPN, the same idiom Tlb::invalidate uses) so the next
 *    access takes a genuine, recoverable refill,
 *  - SpuriousException: raise a synchronous TLB-refill exception that
 *    the guest did not cause; the k0/k1-only refill handler repairs
 *    it transparently,
 *  - HandlerRunaway: overwrite the entry of the user-level exception
 *    stub with a branch-to-self, forcing the delivery watchdog to
 *    demote the process to kernel-mediated delivery.
 *
 * Determinism: events fire at fixed (hart, instret) points, whichever
 * interpreter runs the hart, and all randomness comes from the caller
 * (common/rng.h). A machine whose injector has no pending events for
 * a hart behaves bit-identically (state, cycles, stats) to one with
 * no injector at all.
 */

#ifndef UEXC_SIM_FAULTINJECT_H
#define UEXC_SIM_FAULTINJECT_H

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"

namespace uexc::sim {

class Cpu;
class SnapshotReader;
class SnapshotWriter;

/** The kinds of state perturbation the injector can apply. */
enum class FaultKind {
    MemBitFlip,        ///< flip one bit of a physical word
    TlbCorrupt,        ///< clear V of a TLB entry in place
    TlbSpuriousMiss,   ///< evict a TLB entry (recoverable refill)
    SpuriousException, ///< raise an uncaused refill exception
    HandlerRunaway,    ///< turn the user stub into an infinite loop
};

const char *faultKindName(FaultKind kind);

/** One scheduled injection. */
struct FaultEvent {
    FaultKind kind = FaultKind::MemBitFlip;
    unsigned hart = 0;     ///< hart whose instruction stream triggers it
    InstCount atInst = 0;  ///< fire once hart's instret() reaches this
    Addr addr = 0;         ///< MemBitFlip/HandlerRunaway: physical
                           ///< address; SpuriousException: bad vaddr
    unsigned bit = 0;      ///< MemBitFlip: bit index (mod 32)
    unsigned tlbIndex = 0; ///< Tlb*: entry index (mod NumEntries)
};

/** A delivered injection, for diagnosis. */
struct FiredEvent {
    FaultEvent event;
    InstCount firedAt = 0; ///< instret() at delivery
    Addr pc = 0;           ///< guest PC at delivery
};

class FaultInjector
{
  public:
    /** Schedule an injection. */
    void addEvent(const FaultEvent &event);

    /** nextDue() of a hart with no pending events. */
    static constexpr InstCount kNever = ~InstCount(0);

    /**
     * The smallest instret at which a pending event for @p hart is
     * due, or kNever. A value at or below the hart's instret names a
     * deferred event, which is retried before every instruction.
     */
    InstCount nextDue(unsigned hart) const;

    /**
     * Fire every due event for the bound hart of @p cpu. Called by
     * Cpu::run before each run unit. SpuriousException events defer
     * (stay pending) until the hart is in user mode, at a kuseg PC,
     * and not in a branch delay slot; the deferral is itself
     * deterministic.
     */
    void maybeFire(Cpu &cpu);

    /** Events delivered so far, in delivery order. */
    const std::vector<FiredEvent> &fired() const { return fired_; }

    /** Events still waiting (including deferred ones). */
    std::size_t pendingCount() const { return pending_.size(); }

    /** Drop all pending and fired events. */
    void clear();

    /**
     * Declare [begin, end) a no-injection PC window: a
     * SpuriousException whose hart is executing inside it defers
     * (deterministically) until the PC leaves. The runtime registers
     * the fast stub's register-restore window — after the stub loads
     * its resume target into k0, a spurious refill would let the
     * k0/k1-only refill handler clobber that target, turning a
     * transparent repair into a wild jump (the PR 4 "K0
     * resume-window" hazard). Masking the window makes the injected
     * fault land one instruction later, where it is recoverable.
     * Windows are part of the rig's construction, not of its mutable
     * state, so snapshots do not carry them.
     */
    void maskPcWindow(Addr begin, Addr end);
    const std::vector<std::pair<Addr, Addr>> &maskedPcWindows() const
    {
        return maskedWindows_;
    }

    /**
     * Serialize/restore the mutable stream state (pending and fired
     * events). A campaign rig registers these with
     * Machine::registerSnapshotSection so mid-campaign checkpoints
     * resume with exactly the not-yet-fired events outstanding.
     */
    void snapshotSave(SnapshotWriter &w) const;
    void snapshotLoad(SnapshotReader &r);

  private:
    bool fire(Cpu &cpu, const FaultEvent &event);
    bool pcMasked(Addr pc) const;

    std::vector<FaultEvent> pending_;
    std::vector<FiredEvent> fired_;
    std::vector<std::pair<Addr, Addr>> maskedWindows_;
};

} // namespace uexc::sim

#endif // UEXC_SIM_FAULTINJECT_H
