/**
 * @file
 * The host side of the simulated operating system.
 *
 * The guest image (kernelimage.cc) contains every dispatch path as
 * real machine code; this class provides what a kernel's C layer
 * provides — process and address-space management, the VM syscalls,
 * and the few complex services the guest code reaches through the
 * HCALL bridge (complex syscalls, subpage instruction emulation,
 * TLBMP software emulation). Each bridged service charges simulated
 * cycles for the work the guest code does not itself execute; the
 * charge constants are documented where they are defined.
 */

#ifndef UEXC_OS_KERNEL_H
#define UEXC_OS_KERNEL_H

#include <memory>
#include <unordered_map>
#include <vector>

#include <array>
#include <optional>

#include "os/addrspace.h"
#include "os/guestimage.h"
#include "os/kernelimage.h"
#include "os/layout.h"
#include "os/vfs.h"
#include "sim/machine.h"

namespace uexc::os {

class Kernel;

/** Process lifecycle for fork/wait. */
enum class ProcState : Byte
{
    Running,  ///< schedulable (or blocked in wait)
    Zombie,   ///< exited, exit status awaiting a wait()
    Reaped,   ///< exit status collected; never scheduled again
};

/** One open-file slot in a process's descriptor table. */
struct FileDesc
{
    bool used = false;
    bool console = false;  ///< console fd (0/1/2): no VFS backing
    Word fileIndex = 0;    ///< VFS file index (disk fds only)
    Word offset = 0;       ///< read/write position
    Word flags = 0;        ///< open() flags
};

/**
 * One simulated process: an address space plus the guest-resident
 * proc structure and u-area the kernel code operates on.
 */
class Process
{
  public:
    unsigned pid() const { return pid_; }
    unsigned asid() const { return asid_; }
    AddressSpace &as() { return *as_; }
    const AddressSpace &as() const { return *as_; }

    /** Guest (kseg0) address of the proc structure. */
    Addr procKva() const { return procKva_; }
    /** Guest (kseg0) address of the u-area / trapframe. */
    Addr uareaKva() const { return uareaKva_; }

    /** Read/write a proc-structure field by byte offset. */
    Word field(Word offset) const;
    void setField(Word offset, Word value);

    /** Read/write a trapframe slot (word index, see os::tf). */
    Word tfWord(unsigned word_index) const;
    void setTfWord(unsigned word_index, Word value);

    // -- fork/wait lineage ------------------------------------------------

    /** Pid of the parent, or 0 for a root process. */
    unsigned parentPid() const { return parentPid_; }
    ProcState state() const { return state_; }
    /** Exit status (meaningful once state() != Running). */
    Word exitStatus() const { return exitStatus_; }
    /** Blocked in wait() until a child exits. */
    bool waiting() const { return waiting_; }

    // -- open files -------------------------------------------------------

    /** Descriptor table slot @p fd; fatal if out of range. */
    const FileDesc &fd(unsigned fd_num) const;

  private:
    friend class Kernel;
    Process(Kernel &kernel, unsigned pid, unsigned asid, Addr proc_kva,
            Addr uarea_kva, std::unique_ptr<AddressSpace> as);

    Kernel &kernel_;
    unsigned pid_;
    unsigned asid_;
    Addr procKva_;
    Addr uareaKva_;
    std::unique_ptr<AddressSpace> as_;

    unsigned parentPid_ = 0;
    ProcState state_ = ProcState::Running;
    Word exitStatus_ = 0;
    bool waiting_ = false;
    Addr waitStatusVa_ = 0;  ///< wait()'s status pointer while blocked
    std::array<FileDesc, kMaxFds> fds_{};
};

/**
 * Analytic model of the shared kernel stack/trap lock.
 *
 * The stock kernel owns one exception stack and the scattered global
 * structures the Ultrix trap path touches; on a multithreaded machine
 * every kernel-mediated delivery serializes on that lock, which is
 * exactly the Tera-motivated scalability argument of the paper: user-
 * vectored delivery touches only per-hart state and never takes it.
 *
 * The model is a single busy-until timestamp. A hart acquiring at its
 * own cycle time @c now spins for max(0, busyUntil - now) cycles and
 * then holds the lock for @p hold cycles. Under the deterministic
 * round-robin scheduler all hart clocks advance near-lockstep, so the
 * shared timeline is a faithful stand-in for global time, and the
 * model stays bit-reproducible (no host randomness).
 */
class KernelStackLock
{
  public:
    /**
     * Acquire at local time @p now, holding for @p hold cycles.
     * Returns the spin cycles the caller must charge to itself.
     */
    Cycles acquire(Cycles now, Cycles hold)
    {
        Cycles spin = (busyUntil_ > now) ? busyUntil_ - now : 0;
        if (spin) {
            ++contendedAcquires_;
            spinCycles_ += spin;
        }
        ++acquires_;
        Cycles start = (busyUntil_ > now) ? busyUntil_ : now;
        busyUntil_ = start + hold;
        return spin;
    }

    std::uint64_t acquires() const { return acquires_; }
    std::uint64_t contendedAcquires() const { return contendedAcquires_; }
    Cycles spinCycles() const { return spinCycles_; }

    /** Snapshot access: the busy-until timestamp is model state. */
    Cycles busyUntil() const { return busyUntil_; }
    void restoreState(Cycles busy_until, std::uint64_t acquires,
                      std::uint64_t contended, Cycles spin)
    {
        busyUntil_ = busy_until;
        acquires_ = acquires;
        contendedAcquires_ = contended;
        spinCycles_ = spin;
    }

  private:
    Cycles busyUntil_ = 0;
    std::uint64_t acquires_ = 0;
    std::uint64_t contendedAcquires_ = 0;
    Cycles spinCycles_ = 0;
};

/**
 * The kernel. Construct over a Machine; boot() loads the guest image
 * and installs the host-call bridge.
 */
class Kernel
{
  public:
    explicit Kernel(sim::Machine &machine);

    /** Build and load the kernel image, hook hcall dispatch. */
    void boot();

    sim::Machine &machine() { return machine_; }

    /** Guest address of a kernel symbol. */
    Addr sym(const std::string &name) const;

    // -- processes -----------------------------------------------------

    /**
     * Create a process: address space, proc struct, u-area, and a
     * mapped user stack.
     */
    Process &createProcess();

    /**
     * Make @p p the current process (curproc, ASID, PTEBase) on the
     * currently bound hart. Each hart has its own current process;
     * curproc (the shared guest global) tracks the hart that
     * activated last, which under run-to-completion host operations
     * is always the hart about to execute guest code.
     */
    void activate(Process &p);

    /** Current process of the currently bound hart. */
    Process *current() { return currents_[machine_.currentHart()]; }

    /** The process the guest's shared curproc global points at — the
     *  last activate() on ANY hart. UserEnv::bind compares against
     *  this (not the per-hart view) to decide whether the guest
     *  kernel state must be re-activated for its process. */
    Process *guestCurrent() const { return guestCurrent_; }

    /**
     * Arrange for the CPU to be in user mode in @p p at @p entry.
     * Stack pointer and gp are initialized; status gains KUc (and UV
     * when @p user_vectoring).
     */
    void enterUser(Process &p, Addr entry, bool user_vectoring = false);

    /** Number of processes created. */
    unsigned numProcesses() const { return procs_.size(); }

    /**
     * Load a user program into @p p: maps the covered pages
     * read-write and copies the image through the page tables.
     * Equivalent to loadImage(p, GuestImage::fromProgram(...)) — the
     * assembled path and the ELF path share one loader.
     */
    void loadProgram(Process &p, const sim::Program &program);

    /**
     * Map a guest image into @p p: allocate each section read-write,
     * copy the initialized words, zero-fill is implicit (frames come
     * zeroed), then re-protect read-only sections. Sets the initial
     * program break to the page-rounded image end.
     */
    void loadImage(Process &p, const GuestImage &img);

    /**
     * Load @p img and arrange entry at its entry point with a
     * Unix-style initial stack: argument strings and the
     * NULL-terminated argv array above the stack pointer, a0 = argc,
     * a1 = argv. The image must carry a nonzero entry.
     */
    void execve(Process &p, const GuestImage &img,
                const std::vector<std::string> &argv,
                bool user_vectoring = false);

    // -- kernel services (also the hcall-bridged syscalls) ------------------

    /** mprotect(): page-granularity protection change. */
    void svcMprotect(Process &p, Addr addr, Word len, Word prot);

    /**
     * Enable fast user-level exceptions (the paper's new syscall):
     * @p mask is an ExcCode bitmask (Int and Sys are silently
     * cleared), @p handler the user handler entry, @p frame_va the
     * user page to pin as the exception frame page.
     */
    void svcUexcEnable(Process &p, Word mask, Addr handler,
                       Addr frame_va);

    /**
     * Protection change for fast-exception users: like mprotect, and
     * additionally marks the pages' TLB entries user-modifiable when
     * the machine has TLBMP hardware.
     */
    void svcUexcProtect(Process &p, Addr addr, Word len, Word prot);

    /** Subpage (1 KB) protection (section 3.2.4). */
    void svcSubpageProtect(Process &p, Addr addr, Word len, Word prot);

    /** Set proc flags (eager amplification). */
    void svcUexcSetFlags(Process &p, Word flags);

    // -- table-dispatched syscall handlers (see os/syscalls.h) --------------
    //
    // Uniform signature so the declarative table can point at them;
    // the legacy rows wrap the svc* services above (zero extra cost),
    // the file/process rows implement the Ultrix-flavored userland
    // ABI. Return nullopt to leave the caller's saved v0 untouched
    // (context switched away, or halt).

    std::optional<Word> sysMprotect(Process &p, Word a0, Word a1, Word a2);
    std::optional<Word> sysUexcEnable(Process &p, Word a0, Word a1, Word a2);
    std::optional<Word> sysUexcProtect(Process &p, Word a0, Word a1, Word a2);
    std::optional<Word> sysSubpageProtect(Process &p, Word a0, Word a1,
                                          Word a2);
    std::optional<Word> sysUexcSetFlags(Process &p, Word a0, Word a1,
                                        Word a2);
    std::optional<Word> sysExit(Process &p, Word a0, Word a1, Word a2);
    std::optional<Word> sysOpen(Process &p, Word a0, Word a1, Word a2);
    std::optional<Word> sysClose(Process &p, Word a0, Word a1, Word a2);
    std::optional<Word> sysRead(Process &p, Word a0, Word a1, Word a2);
    std::optional<Word> sysWrite(Process &p, Word a0, Word a1, Word a2);
    std::optional<Word> sysSbrk(Process &p, Word a0, Word a1, Word a2);
    std::optional<Word> sysFork(Process &p, Word a0, Word a1, Word a2);
    std::optional<Word> sysWait(Process &p, Word a0, Word a1, Word a2);

    // -- filesystem and console ---------------------------------------------

    Vfs &vfs() { return vfs_; }
    const Vfs &vfs() const { return vfs_; }

    /** Everything written to the console fds (1/2) so far. */
    const std::string &consoleOutput() const { return console_; }

    /** Process by pid, or nullptr. */
    Process *findProcess(unsigned pid);

    /**
     * Graceful degradation: demote @p p from user-vectored delivery
     * back to kernel-mediated (Unix signal) delivery. Clears the
     * process's fast-exception mask so the dispatcher's compatibility
     * check takes the stock path, and drops the UV/UX status bits on
     * the bound hart so hardware vectoring (when present) is off.
     * Used by the handler watchdog and the save-page canary check;
     * counted in deliveryDemotions().
     */
    void demoteDelivery(Process &p);

    // -- app upcall bridge -------------------------------------------------

    /**
     * Host callback invoked when guest code executes
     * hcall svc::Upcall; used by host-side applications to run their
     * handler logic at user level.
     */
    using UpcallFn = std::function<void(Kernel &)>;
    void setUpcallHandler(UpcallFn fn) { upcall_ = std::move(fn); }
    bool hasUpcallHandler() const { return static_cast<bool>(upcall_); }

    /**
     * Per-hart upcall routing: an upcall raised while @p hart is
     * bound goes to its handler when one is installed, else to the
     * machine-wide handler above. Lets each hart host its own
     * UserEnv on a shared kernel.
     */
    void setUpcallHandler(unsigned hart, UpcallFn fn);
    /** Whether @p hart has its own (per-hart) handler installed. */
    bool hasUpcallHandler(unsigned hart) const
    {
        return hart < hartUpcalls_.size() &&
               static_cast<bool>(hartUpcalls_[hart]);
    }

    // -- multi-hart support --------------------------------------------------

    /**
     * Guest (kseg0) address of hart @p hart's kernel save area
     * (os::hartsave layout). Allocated at boot on multi-hart
     * machines only; fatal on a single-hart machine.
     */
    Addr hartSaveKva(unsigned hart) const;

    /** The shared kernel-stack lock model (see KernelStackLock). */
    const KernelStackLock &stackLock() const { return stackLock_; }

    /** Exit code recorded by sys::Exit (process exit halts the CPU). */
    Word exitCode() const { return exitCode_; }
    bool exited() const { return exited_; }

    // -- statistics ---------------------------------------------------------

    std::uint64_t subpageEmulations() const { return subpageEmuls_; }
    std::uint64_t riEmulations() const { return riEmuls_; }
    /** Processes demoted to kernel-mediated delivery. */
    std::uint64_t deliveryDemotions() const { return demotions_; }

    // -- snapshot ------------------------------------------------------------

    /**
     * Serialize/restore the kernel's mutable host-side bookkeeping
     * (allocation cursors, per-hart current-process bindings, the
     * stack-lock model, counters). boot() registers these with the
     * machine as the "KERN" snapshot section; everything else the
     * kernel owns lives in guest memory and CP0 and travels in the
     * machine's own sections. Restore targets a kernel rebuilt by the
     * same deterministic construction (same boot, same createProcess
     * sequence) — process identity is validated, not recreated.
     */
    void snapshotSave(sim::SnapshotWriter &w) const;
    void snapshotLoad(sim::SnapshotReader &r);

  private:
    void onHcall(sim::Cpu &cpu, Word service);
    void doComplexSyscall();
    void doSubpageEmulate();
    void doRiEmulate();
    [[noreturn]] void doBadTrap();

    /** User register value as the faulted instruction saw it, taking
     *  the fast path's frame-saved scratch registers into account. */
    Word faultedReg(Process &p, unsigned reg, Addr frame_kva) const;
    void setFaultedReg(Process &p, unsigned reg, Addr frame_kva,
                       Word value);

    Addr allocKernelData(Word bytes, Word align);

    /** Copy host bytes into @p p's mapped user memory at @p va. */
    void copyout(Process &p, Addr va, const void *src, Word len);
    /** Copy @p len bytes out of @p p's mapped user memory at @p va. */
    std::vector<Byte> copyin(Process &p, Addr va, Word len);
    /** NUL-terminated string at @p va, bounded by kMaxPathBytes. */
    std::string copyinString(Process &p, Addr va);

    /** Child side of fork: duplicate address space, proc fields,
     *  u-area, and descriptor table of @p parent into @p child. */
    void forkInto(Process &parent, Process &child);
    /** Deliver @p child's exit status to its blocked parent and
     *  switch execution back to the parent. */
    void reapInto(Process &parent, Process &child);

    sim::Machine &machine_;
    bool booted_ = false;
    std::vector<std::unique_ptr<Process>> procs_;
    /** Per-hart current process (index = hart id). */
    std::vector<Process *> currents_;
    Process *guestCurrent_ = nullptr;
    FrameAllocator frames_;
    Addr kdataBump_ = kKernelDataBase;
    unsigned nextAsid_ = 1;
    UpcallFn upcall_;
    std::vector<UpcallFn> hartUpcalls_;
    std::vector<Addr> hartSaves_;
    KernelStackLock stackLock_;
    bool exited_ = false;
    Word exitCode_ = 0;
    std::uint64_t subpageEmuls_ = 0;
    std::uint64_t riEmuls_ = 0;
    std::uint64_t demotions_ = 0;
    Vfs vfs_;
    std::string console_;
};

/**
 * Cycle charges for host-bridged kernel services. These stand in for
 * kernel C code we do not execute as guest instructions; values are
 * rough R3000 instruction-count estimates for the corresponding
 * Ultrix code paths and are documented in DESIGN.md.
 */
namespace charge {
constexpr Cycles MprotectBase = 60;      ///< vm_map lookup, validation
constexpr Cycles MprotectPerPage = 40;   ///< PTE rewrite + TLB probe
constexpr Cycles UexcEnable = 80;        ///< validate + pin frame page
constexpr Cycles SubpageBase = 40;
constexpr Cycles SubpagePerSub = 15;
constexpr Cycles SubpageEmulate = 30;    ///< decode + EA + access
constexpr Cycles RiEmulate = 40;         ///< decode + PTE/TLB update
constexpr Cycles SetFlags = 10;
/**
 * Hold time of the shared kernel-stack lock across one kernel-
 * mediated delivery: the serialized window covering stack claim,
 * trap bookkeeping in shared structures, and stack release. Rough
 * R3000 estimate for the Ultrix trap prologue/epilogue touching
 * globals; only charged on multi-hart machines.
 */
constexpr Cycles KernelStackHold = 20;
/** File/process syscalls (Ultrix namei/rdwr/fork rough estimates). */
constexpr Cycles OpenBase  = 150;   ///< namei walk + fd allocation
constexpr Cycles CloseBase = 40;
constexpr Cycles RdWrBase  = 100;   ///< fd validation + uio setup
constexpr Cycles CopyPerWord = 1;   ///< copyin/copyout inner loop
constexpr Cycles SbrkBase  = 60;    ///< vm_map extension
constexpr Cycles ForkBase  = 400;   ///< proc/u-area duplication
constexpr Cycles ForkPerPage = 120; ///< per copied page (no COW)
constexpr Cycles WaitBase  = 80;
constexpr Cycles ExitBase  = 120;   ///< only when a parent reaps
} // namespace charge

} // namespace uexc::os

#endif // UEXC_OS_KERNEL_H
