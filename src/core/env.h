/**
 * @file
 * UserEnv: the host-facing facade of the exception runtime, and the
 * primary public API of this library.
 *
 * A UserEnv stands for a user program whose *logic* runs host-side
 * (the garbage collector, the persistent store, ...) but whose every
 * memory access goes through the simulated MMU and whose every
 * exception runs the *real* guest dispatch path: hardware vectoring,
 * the kernel fast path or the stock Ultrix signal machinery, the
 * user-level stub, and the resume sequence — all as executed machine
 * code with cycle accounting. Host handler logic is reached through
 * the hcall upcall bridge from within the user-level stub, exactly
 * where a C handler would run.
 *
 * Three delivery modes reproduce the paper's comparisons:
 *  - UltrixSignal:       stock Unix signals (Table 1/2 baseline)
 *  - FastSoftware:       the paper's software scheme (section 3)
 *  - FastHardwareVector: the paper's architectural proposal
 *                        (section 2, Tera-style direct vectoring)
 */

#ifndef UEXC_CORE_ENV_H
#define UEXC_CORE_ENV_H

#include <array>
#include <functional>

#include "core/stubs.h"
#include "os/kernel.h"

namespace uexc::rt {

/** Exception delivery mechanism under test. */
enum class DeliveryMode
{
    UltrixSignal,
    FastSoftware,
    FastHardwareVector,
};

class UserEnv;

/**
 * A delivered fault, as seen by a host-side handler. Register and
 * resume-PC accesses are routed to wherever the active delivery
 * mechanism put the interrupted context (sigcontext on the user
 * stack, the exception frame page, or the user exception registers).
 */
class Fault
{
  public:
    sim::ExcCode code() const { return code_; }
    /** PC of the faulting instruction (branch PC if in delay slot). */
    Addr pc() const { return pc_; }
    Addr badVaddr() const { return badVaddr_; }
    bool branchDelay() const { return branchDelay_; }

    /** Interrupted context's register file. */
    Word reg(unsigned r) const;
    void setReg(unsigned r, Word value);

    /** Resume somewhere other than the faulting instruction. */
    void resumeAt(Addr pc);

  private:
    friend class UserEnv;
    Fault(UserEnv &env, sim::ExcCode code, Addr pc, Addr bad_vaddr,
          bool bd)
        : env_(env), code_(code), pc_(pc), badVaddr_(bad_vaddr),
          branchDelay_(bd) {}

    UserEnv &env_;
    sim::ExcCode code_;
    Addr pc_;
    Addr badVaddr_;
    bool branchDelay_;
};

/** Host-side fault handler. */
using FaultHandler = std::function<void(Fault &)>;

/** Per-environment statistics. */
struct EnvStats
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t faultsDelivered = 0;
    std::uint64_t guestSyscalls = 0;
    std::uint64_t inHandlerServiceCalls = 0;
    /** Times this env was demoted to kernel-mediated delivery. */
    std::uint64_t deliveryDemoted = 0;
    /** Save-page canary mismatches detected (each one demotes). */
    std::uint64_t savePageCorruptions = 0;
};

/**
 * The facade. See file comment.
 */
class UserEnv
{
  public:
    /**
     * @param kernel   a booted kernel
     * @param mode     delivery mechanism
     * @param policy   user-stub save policy (fast modes)
     * @param hart     the hart this environment lives on. On a
     *                 multi-hart machine each hart can host its own
     *                 UserEnv over the shared kernel: every host-
     *                 driven operation binds the hart first, the
     *                 COP3 frame/handler state installs into that
     *                 hart's CP0, and upcalls route per hart.
     */
    UserEnv(os::Kernel &kernel, DeliveryMode mode,
            SavePolicy policy = SavePolicy::UltrixEquivalent,
            unsigned hart = 0);

    /**
     * Build and load the shim, enable the mechanism, park in user
     * mode. Must be called once before any other operation. At most
     * one UserEnv may be installed per *hart* (the upcall bridge and
     * the parked CPU context are per-hart); on a single-hart machine
     * that is the classic one-environment-per-machine rule.
     */
    void install(Word exc_mask);

    DeliveryMode mode() const { return mode_; }

    /**
     * The mechanism future faults will actually use: the configured
     * mode until the watchdog or the save-page canary demotes this
     * environment, kernel-mediated (UltrixSignal) afterwards.
     */
    DeliveryMode deliveryMode() const
    {
        return demoted_ ? DeliveryMode::UltrixSignal : mode_;
    }

    /** Whether this env was demoted to kernel-mediated delivery. */
    bool demoted() const { return demoted_; }

    os::Process &process() { return *proc_; }
    os::Kernel &kernel() { return kernel_; }
    sim::Cpu &cpu() const { return kernel_.machine().cpu(); }

    /** The hart this environment lives on. */
    unsigned hartId() const { return hart_; }

    /**
     * Bind the machine's execute engine to this env's hart and
     * reactivate its process (curproc / ASID / PTEBase). A no-op
     * when the hart is already bound with this process current, so
     * single-hart machines are untouched; on shared machines every
     * public operation calls it first.
     */
    void bind();

    // -- application memory ------------------------------------------------

    /** Map fresh zeroed pages (uncosted setup, like program load). */
    void allocate(Addr va, Word len,
                  Word prot = os::kProtRead | os::kProtWrite);

    /**
     * Word load/store at a user virtual address, through the MMU.
     * Faults take the full simulated delivery path.
     */
    Word load(Addr va);
    void store(Addr va, Word value);

    // -- protection control ---------------------------------------------------
    //
    // Outside a handler these execute the real guest syscall
    // (mprotect / uexc_protect / subpage_protect) and cost what the
    // syscall costs. Inside a handler they invoke the kernel service
    // directly plus a configurable syscall-overhead charge (see
    // setSyscallOverhead), because the simulated CPU is mid-dispatch.

    void protect(Addr va, Word len, Word prot);
    void subpageProtect(Addr va, Word len, Word prot);
    void setEagerAmplify(bool enable);

    /**
     * User-level TLB protection modification (section 3.2.3): execute
     * a TLBMP instruction against @p va. With TLBMP hardware and the
     * U bit granted (uexc-protected pages), this costs a couple of
     * cycles; without hardware, it traps RI and the kernel emulates.
     * @p writable / @p valid become the entry's D / V bits.
     */
    void userTlbModify(Addr va, bool writable, bool valid);

    /** Charge applied to in-handler service calls (default 250
     *  cycles, the measured null-syscall cost; see bench_table2). */
    void setSyscallOverhead(Cycles cycles) { syscallOverhead_ = cycles; }

    /**
     * Watchdog budget: the maximum guest instructions one delivery
     * (or guest syscall) may run. A fast-mode delivery that exhausts
     * it — a runaway user handler — is demoted to kernel-mediated
     * delivery and retried once; a second exhaustion is a GuestError.
     * Debug builds re-run the static worst-case-latency analysis on
     * the shim against the new budget and panic if a handler's bound
     * cannot fit it (the dynamic watchdog would then always fire).
     */
    void setHandlerBudget(InstCount budget);

    /** User-va entry of the fast-mode exception stub (0 in Ultrix
     *  mode); exposed so fault-injection campaigns can target it. */
    Addr stubAddr() const { return stub_; }

    /**
     * The fast stub's register-restore window [restore, end): from
     * the `lw k0, Epc(frame)` to the `jr k0` delay slot retiring, k0
     * holds the resume target and a spurious refill would clobber it
     * (the PR 4 K0 resume-window hazard). install() registers this
     * window with the machine's fault injector as a no-injection
     * window; exposed so tests can verify deferral around it.
     */
    Addr stubRestoreAddr() const { return stubRestore_; }
    Addr stubEndAddr() const { return stubEnd_; }

    // -- handlers -----------------------------------------------------------------

    /** Install the default handler for every delivered fault. */
    void setHandler(FaultHandler handler) { handler_ = std::move(handler); }

    /**
     * Install a handler for one exception type. The kernel's frame
     * page keeps a separate frame per ExcCode (paper section 3.2),
     * so typed dispatch needs no decoding in the common handler.
     * Falls back to the default handler for types without one.
     */
    void setHandler(sim::ExcCode code, FaultHandler handler);

    // -- measurement -----------------------------------------------------------------

    /** Total simulated cycles so far (whole machine). */
    Cycles cycles() const { return cpu().cycles(); }
    const EnvStats &stats() const { return stats_; }

    /** Execute a raw guest syscall (v0=num, a0-a2 args); returns v0. */
    Word guestSyscall(Word num, Word a0 = 0, Word a1 = 0, Word a2 = 0);

    /**
     * Assemble the user-side shim program (parking loop, fault sites,
     * stubs, trampoline) without needing a machine. This is what
     * install() loads — exposed so the static analyzer (uexc-lint)
     * and tests can inspect the exact code that would run.
     */
    static sim::Program buildShimProgram(SavePolicy policy,
                                         bool user_vector_hw);

    /**
     * The shim as a GuestImage: the assembled program with the
     * user-program lint configuration attached and the parking loop
     * as entry. install() loads this; uexc-lint's shim target
     * consumes the same image.
     */
    static os::GuestImage buildShimImage(SavePolicy policy,
                                         bool user_vector_hw);

    /**
     * Serialize/restore this environment's host-side delivery state
     * (demotion flag, watchdog budget, statistics). install()
     * registers these with the machine as the per-hart "UEN"+hart
     * snapshot section. Checkpoints are only meaningful between
     * operations — snapshotSave refuses to run mid-handler.
     */
    void snapshotSave(sim::SnapshotWriter &w) const;
    void snapshotLoad(sim::SnapshotReader &r);

  private:
    friend class Fault;

    void buildShim();
    /** Analyzer config for the installed shim: the user-program spec
     *  with handler WCET bounds gated on handlerBudget_. */
    analysis::LintConfig shimLintConfig() const;
    void onUpcall();
    void runGuest(Addr entry, Addr stop, InstCount limit);
    bool hostRefill(Addr va, sim::AccessType type);
    Word contextReg(unsigned r) const;
    void setContextReg(unsigned r, Word value);
    Addr frameKva() const;
    Addr sigctxKva() const;
    void demote();
    Addr canaryPhys() const;
    void writeCanary();
    bool checkCanary();

    os::Kernel &kernel_;
    DeliveryMode mode_;
    SavePolicy policy_;
    unsigned hart_ = 0;
    os::Process *proc_ = nullptr;
    bool installed_ = false;
    bool inHandler_ = false;
    bool demoted_ = false;
    InstCount handlerBudget_ = 1'000'000;
    FaultHandler handler_;
    std::array<FaultHandler, sim::NumExcCodes> typedHandlers_{};
    Cycles syscallOverhead_ = 250;
    EnvStats stats_;

    // shim addresses
    Addr shimIdle_ = 0;
    Addr faultLw_ = 0, faultLwDone_ = 0;
    Addr faultSw_ = 0, faultSwDone_ = 0;
    Addr doSyscall_ = 0, doSyscallRet_ = 0;
    Addr tlbmpSite_ = 0, tlbmpDone_ = 0;
    Addr stub_ = 0;
    Addr stubRestore_ = 0;
    Addr stubEnd_ = 0;
    Addr trampoline_ = 0;
    Addr unixHandler_ = 0;

    // live upcall context (valid while inHandler_)
    sim::ExcCode curCode_ = sim::ExcCode::Int;
    Addr curFrameU_ = 0;   // fast software: frame user va
    Addr curSigctxU_ = 0;  // ultrix: sigcontext user va
    /** Mechanism the *current* delivery used: a mid-handler demotion
     *  (canary corruption) must not reroute reg/resume accesses of
     *  the fault already in flight. */
    DeliveryMode curDelivery_ = DeliveryMode::UltrixSignal;
};

} // namespace uexc::rt

#endif // UEXC_CORE_ENV_H
