#include "os/kernel.h"

#include "common/bits.h"
#include "common/guesterror.h"
#include "common/logging.h"
#include "os/syscalls.h"
#include "sim/cp0.h"
#include "sim/isa.h"

namespace uexc::os {

using namespace sim;

// -- Process ------------------------------------------------------------------

Process::Process(Kernel &kernel, unsigned pid, unsigned asid,
                 Addr proc_kva, Addr uarea_kva,
                 std::unique_ptr<AddressSpace> as)
    : kernel_(kernel), pid_(pid), asid_(asid), procKva_(proc_kva),
      uareaKva_(uarea_kva), as_(std::move(as))
{
}

Word
Process::field(Word offset) const
{
    return kernel_.machine().debugReadWord(procKva_ + offset);
}

void
Process::setField(Word offset, Word value)
{
    kernel_.machine().debugWriteWord(procKva_ + offset, value);
}

Word
Process::tfWord(unsigned word_index) const
{
    return kernel_.machine().debugReadWord(
        uareaKva_ + uarea::TrapFrame + 4 * word_index);
}

void
Process::setTfWord(unsigned word_index, Word value)
{
    kernel_.machine().debugWriteWord(
        uareaKva_ + uarea::TrapFrame + 4 * word_index, value);
}

const FileDesc &
Process::fd(unsigned fd_num) const
{
    if (fd_num >= kMaxFds)
        UEXC_FATAL("fd %u out of range", fd_num);
    return fds_[fd_num];
}

// -- Kernel -------------------------------------------------------------------

Kernel::Kernel(Machine &machine)
    : machine_(machine),
      currents_(machine.numHarts(), nullptr),
      frames_(kUserFrameBase,
              static_cast<Addr>(machine.config().memBytes))
{
}

void
Kernel::boot()
{
    if (booted_)
        UEXC_FATAL("kernel: boot() called twice");
    machine_.load(buildKernelGuestImage().textProgram());
    machine_.cpu().setHcallHandler(
        [this](Cpu &cpu, Word service) { onHcall(cpu, service); });
    // Multi-hart only (keeps the single-hart kernel-data layout, and
    // so every derived guest address, bit-identical to the classic
    // machine): one save area per hart, contiguous so guest code can
    // index by PrId[31:24] << hartsave::SizeShift.
    if (machine_.numHarts() > 1) {
        Addr base = allocKernelData(
            machine_.numHarts() * hartsave::Bytes, hartsave::Bytes);
        for (unsigned i = 0; i < machine_.numHarts(); ++i)
            hartSaves_.push_back(base + i * hartsave::Bytes);
    }
    machine_.registerSnapshotSection(
        sim::snapshotTag('K', 'E', 'R', 'N'),
        [this](sim::SnapshotWriter &w) { snapshotSave(w); },
        [this](sim::SnapshotReader &r) { snapshotLoad(r); });
    booted_ = true;
}

void
Kernel::snapshotSave(sim::SnapshotWriter &w) const
{
    // Process identity (count, asids, guest addresses) is produced by
    // deterministic reconstruction; the image carries it only so
    // restore can refuse a kernel whose construction diverged.
    w.u32(std::uint32_t(procs_.size()));
    for (const auto &p : procs_) {
        w.u32(p->pid());
        w.u32(p->asid());
        w.u32(p->procKva());
        w.u32(p->uareaKva());
    }
    w.u32(std::uint32_t(currents_.size()));
    for (Process *p : currents_)
        w.u32(p ? p->pid() : 0);
    w.u32(guestCurrent_ ? guestCurrent_->pid() : 0);
    w.u32(frames_.cursor());
    w.u32(kdataBump_);
    w.u32(nextAsid_);
    w.u64(stackLock_.busyUntil());
    w.u64(stackLock_.acquires());
    w.u64(stackLock_.contendedAcquires());
    w.u64(stackLock_.spinCycles());
    w.boolean(exited_);
    w.u32(exitCode_);
    w.u64(subpageEmuls_);
    w.u64(riEmuls_);
    w.u64(demotions_);
    // v2: filesystem, console, and per-process fork/fd state.
    vfs_.snapshotSave(w);
    w.str(console_);
    for (const auto &p : procs_) {
        w.u32(p->parentPid_);
        w.u8(static_cast<std::uint8_t>(p->state_));
        w.u32(p->exitStatus_);
        w.boolean(p->waiting_);
        w.u32(p->waitStatusVa_);
        for (const FileDesc &d : p->fds_) {
            w.boolean(d.used);
            w.boolean(d.console);
            w.u32(d.fileIndex);
            w.u32(d.offset);
            w.u32(d.flags);
        }
    }
}

void
Kernel::snapshotLoad(sim::SnapshotReader &r)
{
    std::uint32_t nprocs = r.u32();
    if (nprocs != procs_.size())
        r.fail("kernel has " + std::to_string(procs_.size()) +
               " processes, image has " + std::to_string(nprocs));
    for (const auto &p : procs_) {
        if (r.u32() != p->pid() || r.u32() != p->asid() ||
            r.u32() != p->procKva() || r.u32() != p->uareaKva())
            r.fail("process identity mismatch for pid " +
                   std::to_string(p->pid()));
    }
    std::uint32_t nharts = r.u32();
    if (nharts != currents_.size())
        r.fail("per-hart current-process vector size mismatch");
    auto byPid = [this, &r](std::uint32_t pid) -> Process * {
        if (pid == 0)
            return nullptr;
        if (pid > procs_.size())
            r.fail("current-process pid " + std::to_string(pid) +
                   " out of range");
        return procs_[pid - 1].get();
    };
    for (Process *&cur : currents_)
        cur = byPid(r.u32());
    guestCurrent_ = byPid(r.u32());
    Addr cursor = r.u32();
    if (cursor < kUserFrameBase || cursor > frames_.limit())
        r.fail("frame-allocator cursor out of range");
    frames_.restoreCursor(cursor);
    kdataBump_ = r.u32();
    nextAsid_ = r.u32();
    Cycles busy = r.u64();
    std::uint64_t acquires = r.u64();
    std::uint64_t contended = r.u64();
    Cycles spin = r.u64();
    stackLock_.restoreState(busy, acquires, contended, spin);
    exited_ = r.boolean();
    exitCode_ = r.u32();
    subpageEmuls_ = r.u64();
    riEmuls_ = r.u64();
    demotions_ = r.u64();
    // v2: filesystem, console, and per-process fork/fd state. The
    // VFS is restored first so descriptor file indices can be
    // validated against it.
    vfs_.snapshotLoad(r);
    console_ = r.str();
    for (const auto &p : procs_) {
        std::uint32_t parent_pid = r.u32();
        if (parent_pid > procs_.size())
            r.fail("parent pid " + std::to_string(parent_pid) +
                   " out of range");
        p->parentPid_ = parent_pid;
        std::uint8_t state = r.u8();
        if (state > static_cast<std::uint8_t>(ProcState::Reaped))
            r.fail("bad process state " + std::to_string(state));
        p->state_ = static_cast<ProcState>(state);
        p->exitStatus_ = r.u32();
        p->waiting_ = r.boolean();
        p->waitStatusVa_ = r.u32();
        for (FileDesc &d : p->fds_) {
            d.used = r.boolean();
            d.console = r.boolean();
            d.fileIndex = r.u32();
            d.offset = r.u32();
            d.flags = r.u32();
            if (d.used && !d.console &&
                d.fileIndex >= vfs_.numFiles())
                r.fail("fd file index " +
                       std::to_string(d.fileIndex) +
                       " out of range");
        }
    }
}

Addr
Kernel::hartSaveKva(unsigned hart) const
{
    if (hart >= hartSaves_.size())
        UEXC_FATAL("no save area for hart %u (multi-hart machines "
                   "only; this machine booted with %u)", hart,
                   machine_.numHarts());
    return hartSaves_[hart];
}

void
Kernel::setUpcallHandler(unsigned hart, UpcallFn fn)
{
    if (hart >= machine_.numHarts())
        UEXC_FATAL("upcall handler for hart %u on a %u-hart machine",
                   hart, machine_.numHarts());
    if (hartUpcalls_.size() < machine_.numHarts())
        hartUpcalls_.resize(machine_.numHarts());
    hartUpcalls_[hart] = std::move(fn);
}

Addr
Kernel::sym(const std::string &name) const
{
    return machine_.symbol(name);
}

Addr
Kernel::allocKernelData(Word bytes, Word align)
{
    kdataBump_ = roundUp(kdataBump_, align);
    Addr addr = kdataBump_;
    kdataBump_ += bytes;
    if (kdataBump_ >= kPageTableArena)
        UEXC_FATAL("kernel data region exhausted");
    return addr;
}

Process &
Kernel::createProcess()
{
    if (!booted_)
        UEXC_FATAL("kernel: createProcess before boot");
    unsigned asid = nextAsid_++;
    Addr pt_kva = kPageTableArena + (asid - 1) * kPageTableBytes;
    if (Machine::unmappedToPhys(pt_kva) + kPageTableBytes >
        machine_.config().memBytes) {
        UEXC_FATAL("out of room for page tables (asid %u); raise "
                   "MachineConfig::memBytes", asid);
    }
    auto as = std::make_unique<AddressSpace>(machine_, asid, pt_kva,
                                             frames_);

    Addr proc_kva = allocKernelData(proc::StructBytes, 64);
    Addr uarea_kva = allocKernelData(uarea::Bytes, 256);

    auto p = std::unique_ptr<Process>(
        new Process(*this, procs_.size() + 1, asid, proc_kva,
                    uarea_kva, std::move(as)));
    Process &proc_ref = *p;
    procs_.push_back(std::move(p));

    proc_ref.setField(proc::Asid, asid);
    proc_ref.setField(proc::PtBase, pt_kva);
    proc_ref.setField(proc::Pid, proc_ref.pid());
    proc_ref.setField(proc::UArea, uarea_kva);
    proc_ref.setField(proc::Flags, 0);
    proc_ref.setField(proc::FpUsed, 0);

    // map a user stack (8 pages)
    proc_ref.as().allocate(kUserStackTop - 8 * kPageBytes,
                           8 * kPageBytes, kProtRead | kProtWrite);

    // pre-opened console descriptors: stdin (EOF on read), stdout,
    // stderr (both append to the kernel console buffer)
    for (unsigned fd_num = 0; fd_num < 3; fd_num++) {
        proc_ref.fds_[fd_num].used = true;
        proc_ref.fds_[fd_num].console = true;
        proc_ref.fds_[fd_num].flags =
            fd_num == 0 ? kOpenRead : kOpenWrite;
    }
    return proc_ref;
}

Process *
Kernel::findProcess(unsigned pid)
{
    if (pid == 0 || pid > procs_.size())
        return nullptr;
    return procs_[pid - 1].get();
}

void
Kernel::loadProgram(Process &p, const Program &program)
{
    loadImage(p, GuestImage::fromProgram(program, "program"));
}

void
Kernel::loadImage(Process &p, const GuestImage &img)
{
    img.validate();
    for (const GuestSection &s : img.sections) {
        if (s.vaddr >= Cpu::Kseg0Base || s.end() > Cpu::Kseg0Base)
            UEXC_FATAL("guest image '%s': section '%s' at kernel "
                       "address 0x%08x", img.name.c_str(),
                       s.name.c_str(), s.vaddr);
        p.as().allocate(s.vaddr, s.memBytes, kProtRead | kProtWrite);
        for (Word i = 0; i < s.words.size(); i++) {
            Addr va = s.vaddr + 4 * i;
            machine_.mem().writeWord(p.as().physOf(va), s.words[i]);
        }
        // BSS (memBytes past the words) needs no explicit fill: user
        // frames are handed out zeroed and never recycled.
    }
    // Re-protect after the copy so a read-only text section can still
    // be written by its own loader.
    for (const GuestSection &s : img.sections) {
        if (!s.writable)
            p.as().protect(s.vaddr, s.memBytes, kProtRead);
    }
    // The per-page write versions already force the fast interpreter
    // to re-decode these pages, but a fresh program image invalidates
    // any stale predecoded state wholesale, so drop it eagerly rather
    // than letting dead pages linger in the host-side cache.
    machine_.cpu().flushHostCaches();
    // Initial program break: first page past the loaded image. sbrk
    // grows the heap from here.
    p.setField(proc::Brk, roundUp(img.loadEnd(), kPageBytes));
}

void
Kernel::copyout(Process &p, Addr va, const void *src, Word len)
{
    const Byte *bytes = static_cast<const Byte *>(src);
    for (Word i = 0; i < len; i++) {
        if (!p.as().present(va + i))
            UEXC_FATAL("copyout to unmapped user address 0x%08x",
                       va + i);
        machine_.mem().writeByte(p.as().physOf(va + i), bytes[i]);
    }
}

std::vector<Byte>
Kernel::copyin(Process &p, Addr va, Word len)
{
    std::vector<Byte> out;
    out.reserve(len);
    for (Word i = 0; i < len; i++) {
        if (!p.as().present(va + i))
            UEXC_FATAL("copyin from unmapped user address 0x%08x",
                       va + i);
        out.push_back(machine_.mem().readByte(p.as().physOf(va + i)));
    }
    return out;
}

std::string
Kernel::copyinString(Process &p, Addr va)
{
    // Graceful on bad pointers (returns "", the caller fails the
    // syscall with -1): a guest passing garbage to open() should get
    // an error, not take the simulator down.
    std::string out;
    for (Word i = 0; i < kMaxPathBytes; i++) {
        if (!p.as().present(va + i))
            return "";
        Byte b = machine_.mem().readByte(p.as().physOf(va + i));
        if (b == 0)
            return out;
        out.push_back(static_cast<char>(b));
    }
    return ""; // unterminated within kMaxPathBytes
}

void
Kernel::execve(Process &p, const GuestImage &img,
               const std::vector<std::string> &argv,
               bool user_vectoring)
{
    if (img.entry == 0)
        UEXC_FATAL("execve of image '%s' with no entry point",
                   img.name.c_str());
    loadImage(p, img);

    // Unix-style initial stack, built downward from the stack top:
    // argument strings first, then the NULL-terminated pointer array,
    // then an O32-flavored argument-save area below the final sp.
    Addr sp = kUserStackTop;
    std::vector<Addr> ptrs;
    for (const std::string &arg : argv) {
        sp -= static_cast<Addr>(arg.size() + 1);
        copyout(p, sp, arg.c_str(), static_cast<Word>(arg.size() + 1));
        ptrs.push_back(sp);
    }
    sp = roundDown(sp, 8);
    sp -= static_cast<Addr>(4 * (ptrs.size() + 1));
    Addr argv_base = sp;
    for (size_t i = 0; i < ptrs.size(); i++) {
        machine_.mem().writeWord(
            p.as().physOf(argv_base + static_cast<Addr>(4 * i)),
            ptrs[i]);
    }
    machine_.mem().writeWord(
        p.as().physOf(argv_base + static_cast<Addr>(4 * ptrs.size())),
        0);
    sp = roundDown(sp - 16, 8);

    enterUser(p, img.entry, user_vectoring);
    Cpu &cpu = machine_.cpu();
    cpu.setReg(SP, sp);
    cpu.setReg(FP, sp);
    cpu.setReg(A0, static_cast<Word>(argv.size()));
    cpu.setReg(A1, argv_base);
}

void
Kernel::activate(Process &p)
{
    // No host-cache invalidation needed on context switch: the fast
    // interpreter's micro-TLB and fetch cache key on (VPN, ASID,
    // mode), so the EntryHi write below makes the old process's
    // entries unreachable rather than stale.
    machine_.debugWriteWord(sym(ksym::Curproc), p.procKva());
    Cp0 &cp0 = machine_.cpu().cp0();
    cp0.write(cp0reg::EntryHi,
              p.asid() << sim::entryhi::AsidShift);
    cp0.write(cp0reg::Context, p.as().ptKva() & 0xffe00000u);
    currents_[machine_.currentHart()] = &p;
    guestCurrent_ = &p;
}

void
Kernel::enterUser(Process &p, Addr entry, bool user_vectoring)
{
    activate(p);
    Cpu &cpu = machine_.cpu();
    Word st = status::KUc;
    if (user_vectoring)
        st |= status::UV;
    cpu.cp0().setStatusReg(st);
    cpu.setReg(SP, kUserStackTop - 64);
    cpu.setReg(FP, kUserStackTop - 64);
    cpu.setPc(entry);
}

// -- services ------------------------------------------------------------------

void
Kernel::svcMprotect(Process &p, Addr addr, Word len, Word prot)
{
    unsigned pages = p.as().protect(addr, len, prot);
    machine_.cpu().charge(charge::MprotectBase +
                          pages * charge::MprotectPerPage);
}

void
Kernel::svcUexcEnable(Process &p, Word mask, Addr handler, Addr frame_va)
{
    // The paper (section 3.2): "a user process can choose to handle
    // any synchronous exception ... with the exception of system
    // calls, co-processor unusable exceptions, and page faults."
    // Interrupts are asynchronous and likewise excluded; Reserved
    // Instruction stays with the kernel because it carries the
    // software emulation of TLBMP and other unused opcodes (section
    // 3.2.3), which user-level delivery would starve. True page
    // faults are filtered in the fast path's TLB-fault check (the
    // kPtePresent test), not here.
    mask &= ~((1u << static_cast<unsigned>(ExcCode::Int)) |
              (1u << static_cast<unsigned>(ExcCode::Sys)) |
              (1u << static_cast<unsigned>(ExcCode::CpU)) |
              (1u << static_cast<unsigned>(ExcCode::Ri)));
    if (!isAligned(frame_va, kPageBytes))
        UEXC_FATAL("uexc_enable: frame page 0x%08x not page aligned",
                   frame_va);
    p.as().allocate(frame_va, kPageBytes, kProtRead | kProtWrite);
    Addr frame_kva = Cpu::Kseg0Base + p.as().frameOf(frame_va);
    p.setField(proc::UexcMask, mask);
    p.setField(proc::UexcHandler, handler);
    p.setField(proc::UexcFrameK, frame_kva);
    p.setField(proc::UexcFrameU, frame_va);
    machine_.cpu().charge(charge::UexcEnable);
}

void
Kernel::svcUexcProtect(Process &p, Addr addr, Word len, Word prot)
{
    unsigned pages = p.as().protect(addr, len, prot);
    // Mark the pages user-protection-managed (the U bit): the TLBMP
    // hardware checks it in the TLB entry, and the kernel's software
    // emulation checks it in the PTE (section 3.2.3).
    for (Addr page = roundDown(addr, kPageBytes);
         page < roundUp(addr + len, kPageBytes); page += kPageBytes) {
        p.as().setUserModifiable(page, true);
    }
    machine_.cpu().charge(charge::MprotectBase +
                          pages * charge::MprotectPerPage);
}

void
Kernel::svcSubpageProtect(Process &p, Addr addr, Word len, Word prot)
{
    unsigned subs = p.as().subpageProtect(addr, len, prot);
    machine_.cpu().charge(charge::SubpageBase +
                          subs * charge::SubpagePerSub);
}

void
Kernel::svcUexcSetFlags(Process &p, Word flags)
{
    p.setField(proc::Flags, flags);
    machine_.cpu().charge(charge::SetFlags);
}

void
Kernel::demoteDelivery(Process &p)
{
    // Clearing the fast-exception mask makes the dispatcher's
    // phase-2 compatibility check fail for every code, so future
    // exceptions take the stock (signal) path; dropping UV/UX turns
    // off hardware vectoring on the bound hart.
    p.setField(proc::UexcMask, 0);
    Cp0 &cp0 = machine_.cpu().cp0();
    cp0.setStatusReg(cp0.statusReg() &
                     ~(sim::status::UV | sim::status::UX));
    demotions_++;
}

// -- hcall bridge ---------------------------------------------------------------

void
Kernel::onHcall(Cpu &cpu, Word service)
{
    // Every bridged service runs on the shared kernel stack; on a
    // multi-hart machine that means taking the stack lock first, so
    // a hart that traps while another one is inside the kernel spins
    // (charged to the spinner). Single-hart machines never contend
    // and are charged nothing, preserving bit-identical cycles.
    if (machine_.numHarts() > 1) {
        cpu.charge(stackLock_.acquire(cpu.cycles(),
                                      charge::KernelStackHold));
    }
    switch (service) {
      case svc::SyscallComplex:
        doComplexSyscall();
        break;
      case svc::SubpageEmulate:
        doSubpageEmulate();
        break;
      case svc::RiEmulate:
        doRiEmulate();
        break;
      case svc::Upcall: {
        unsigned hart = cpu.hartId();
        const UpcallFn &fn =
            (hart < hartUpcalls_.size() && hartUpcalls_[hart])
                ? hartUpcalls_[hart] : upcall_;
        if (!fn) {
            UEXC_GUEST_ERROR(hart, cpu.pc(), cpu.cp0().badVAddr(),
                             "guest upcall with no host handler "
                             "installed");
        }
        fn(*this);
        break;
      }
      case svc::PanicBadTrap:
        doBadTrap();
      default:
        UEXC_GUEST_ERROR(cpu.hartId(), cpu.pc(), 0,
                         "unknown hcall service %u", service);
    }
}

void
Kernel::doComplexSyscall()
{
    Process *p = current();
    if (!p) {
        Cpu &cpu = machine_.cpu();
        UEXC_GUEST_ERROR(cpu.hartId(), cpu.pc(), 0,
                         "complex syscall with no current process");
    }
    Word num = p->tfWord(tf::Regs + V0 - 1);
    Word a0 = p->tfWord(tf::Regs + A0 - 1);
    Word a1 = p->tfWord(tf::Regs + A1 - 1);
    Word a2 = p->tfWord(tf::Regs + A2 - 1);

    const SyscallDef *def = syscallByNum(num);
    if (!def) {
        p->setTfWord(tf::Regs + V0 - 1, static_cast<Word>(-1));
        return;
    }
    if (def->baseCharge != 0)
        machine_.cpu().charge(def->baseCharge);
    std::optional<Word> result = (this->*def->handler)(*p, a0, a1, a2);
    // nullopt: the handler switched contexts (fork/wait/exit) or
    // halted; the saved v0 it arranged must survive untouched.
    if (result)
        p->setTfWord(tf::Regs + V0 - 1, *result);
}

// -- table-dispatched syscall handlers ----------------------------------------

std::optional<Word>
Kernel::sysMprotect(Process &p, Word a0, Word a1, Word a2)
{
    svcMprotect(p, a0, a1, a2);
    return 0;
}

std::optional<Word>
Kernel::sysUexcEnable(Process &p, Word a0, Word a1, Word a2)
{
    svcUexcEnable(p, a0, a1, a2);
    return 0;
}

std::optional<Word>
Kernel::sysUexcProtect(Process &p, Word a0, Word a1, Word a2)
{
    svcUexcProtect(p, a0, a1, a2);
    return 0;
}

std::optional<Word>
Kernel::sysSubpageProtect(Process &p, Word a0, Word a1, Word a2)
{
    svcSubpageProtect(p, a0, a1, a2);
    return 0;
}

std::optional<Word>
Kernel::sysUexcSetFlags(Process &p, Word a0, Word a1, Word a2)
{
    (void)a1;
    (void)a2;
    svcUexcSetFlags(p, a0);
    return 0;
}

std::optional<Word>
Kernel::sysExit(Process &p, Word a0, Word a1, Word a2)
{
    (void)a1;
    (void)a2;
    Process *parent =
        p.parentPid_ != 0 ? findProcess(p.parentPid_) : nullptr;
    if (parent == nullptr) {
        // Root process: record the exit and halt the machine —
        // exactly the pre-fork behavior (v0 = 0 lands in the
        // trapframe via the dispatcher).
        exited_ = true;
        exitCode_ = a0;
        machine_.cpu().requestHalt();
        return 0;
    }
    p.state_ = ProcState::Zombie;
    p.exitStatus_ = a0;
    if (parent->waiting_) {
        machine_.cpu().charge(charge::ExitBase);
        reapInto(*parent, p);
        return std::nullopt;
    }
    // The cooperative scheduler only runs a child while its parent
    // waits, so a zombie with a non-waiting parent means nothing is
    // runnable: stop the clock and leave the status for wait().
    machine_.cpu().requestHalt();
    return 0;
}

std::optional<Word>
Kernel::sysOpen(Process &p, Word a0, Word a1, Word a2)
{
    (void)a2;
    std::string path = copyinString(p, a0);
    if (path.empty())
        return static_cast<Word>(-1);
    machine_.cpu().charge(
        static_cast<Cycles>((path.size() + 3) / 4) *
        charge::CopyPerWord);
    int idx = vfs_.lookup(path);
    if (idx < 0) {
        if ((a1 & kOpenCreate) == 0)
            return static_cast<Word>(-1);
        idx = vfs_.create(path);
    }
    Vfs::File &f = vfs_.file(static_cast<unsigned>(idx));
    if ((a1 & kOpenTrunc) != 0)
        f.data.clear();
    for (unsigned fd_num = 0; fd_num < kMaxFds; fd_num++) {
        FileDesc &d = p.fds_[fd_num];
        if (d.used)
            continue;
        d.used = true;
        d.console = false;
        d.fileIndex = static_cast<Word>(idx);
        d.offset = (a1 & kOpenAppend) != 0
                       ? static_cast<Word>(f.data.size())
                       : 0;
        d.flags = a1;
        return fd_num;
    }
    return static_cast<Word>(-1); // descriptor table full
}

std::optional<Word>
Kernel::sysClose(Process &p, Word a0, Word a1, Word a2)
{
    (void)a1;
    (void)a2;
    if (a0 >= kMaxFds || !p.fds_[a0].used)
        return static_cast<Word>(-1);
    p.fds_[a0] = FileDesc{};
    return 0;
}

std::optional<Word>
Kernel::sysRead(Process &p, Word a0, Word a1, Word a2)
{
    if (a0 >= kMaxFds || !p.fds_[a0].used)
        return static_cast<Word>(-1);
    FileDesc &d = p.fds_[a0];
    if ((d.flags & 3u) == kOpenWrite)
        return static_cast<Word>(-1);
    if (d.console)
        return 0; // stdin is permanently at EOF
    const Vfs::File &f = vfs_.file(d.fileIndex);
    if (d.offset >= f.data.size() || a2 == 0)
        return 0;
    Word n = std::min<Word>(
        a2, static_cast<Word>(f.data.size()) - d.offset);
    for (Word i = 0; i < n; i++) {
        if (!p.as().present(a1 + i))
            return static_cast<Word>(-1);
    }
    copyout(p, a1, f.data.data() + d.offset, n);
    machine_.cpu().charge(static_cast<Cycles>((n + 3) / 4) *
                          charge::CopyPerWord);
    d.offset += n;
    return n;
}

std::optional<Word>
Kernel::sysWrite(Process &p, Word a0, Word a1, Word a2)
{
    if (a0 >= kMaxFds || !p.fds_[a0].used)
        return static_cast<Word>(-1);
    FileDesc &d = p.fds_[a0];
    if (!d.console && (d.flags & 3u) == kOpenRead)
        return static_cast<Word>(-1);
    for (Word i = 0; i < a2; i++) {
        if (!p.as().present(a1 + i))
            return static_cast<Word>(-1);
    }
    std::vector<Byte> buf = copyin(p, a1, a2);
    machine_.cpu().charge(static_cast<Cycles>((a2 + 3) / 4) *
                          charge::CopyPerWord);
    if (d.console) {
        console_.append(reinterpret_cast<const char *>(buf.data()),
                        buf.size());
        return a2;
    }
    Vfs::File &f = vfs_.file(d.fileIndex);
    if (f.data.size() < d.offset + a2)
        f.data.resize(d.offset + a2, 0);
    std::copy(buf.begin(), buf.end(),
              f.data.begin() + static_cast<long>(d.offset));
    d.offset += a2;
    return a2;
}

std::optional<Word>
Kernel::sysSbrk(Process &p, Word a0, Word a1, Word a2)
{
    (void)a1;
    (void)a2;
    Word old_brk = p.field(proc::Brk);
    SWord incr = static_cast<SWord>(a0);
    Word new_brk = old_brk + a0;
    if (incr > 0) {
        // Keep the heap out of the stack region, with slack for
        // growth; overflow also lands here.
        if (new_brk < old_brk ||
            new_brk >= kUserStackTop - 64 * kPageBytes)
            return static_cast<Word>(-1);
        unsigned new_pages = 0;
        for (Addr pg = roundDown(old_brk, kPageBytes);
             pg < roundUp(new_brk, kPageBytes); pg += kPageBytes) {
            if (!p.as().present(pg))
                new_pages++;
        }
        p.as().allocate(old_brk, a0, kProtRead | kProtWrite);
        machine_.cpu().charge(new_pages * charge::MprotectPerPage);
    } else {
        // Negative increments just move the break; frames are not
        // reclaimed (the frame allocator never frees).
        if (new_brk > old_brk)
            return static_cast<Word>(-1); // underflow
    }
    p.setField(proc::Brk, new_brk);
    return old_brk;
}

std::optional<Word>
Kernel::sysFork(Process &p, Word a0, Word a1, Word a2)
{
    (void)a0;
    (void)a1;
    (void)a2;
    Process &child = createProcess();
    forkInto(p, child);
    // The parent keeps running; the child is scheduled when the
    // parent calls wait() (cooperative run-to-completion model).
    return child.pid();
}

std::optional<Word>
Kernel::sysWait(Process &p, Word a0, Word a1, Word a2)
{
    (void)a1;
    (void)a2;
    bool has_child = false;
    for (auto &c : procs_) {
        if (c->parentPid_ != p.pid() || c->state_ == ProcState::Reaped)
            continue;
        has_child = true;
        if (c->state_ == ProcState::Zombie) {
            c->state_ = ProcState::Reaped;
            if (a0 != 0 && p.as().present(a0) && a0 % 4 == 0) {
                machine_.mem().writeWord(p.as().physOf(a0),
                                         c->exitStatus_);
            }
            return c->pid();
        }
    }
    if (!has_child)
        return static_cast<Word>(-1);
    // Block: run the first runnable child; reapInto writes our v0
    // (and status word) when it exits. The guest's restore_all picks
    // up the child because activate() retargets curproc.
    p.waiting_ = true;
    p.waitStatusVa_ = a0;
    for (auto &c : procs_) {
        if (c->parentPid_ == p.pid() &&
            c->state_ == ProcState::Running) {
            activate(*c);
            return std::nullopt;
        }
    }
    p.waiting_ = false;
    return static_cast<Word>(-1); // children died unreaped elsewhere
}

void
Kernel::forkInto(Process &parent, Process &child)
{
    // Full-copy fork (no copy-on-write, as Ultrix on the R3000):
    // walk the parent's linear page table across the whole user
    // range and duplicate every present page, protection and soft
    // PTE bits included. createProcess already mapped the child's
    // stack pages; allocate() skips those and the copy overwrites
    // their (zeroed) contents with the parent's.
    unsigned pages = 0;
    for (Addr va = 0; va < Cpu::Kseg0Base; va += kPageBytes) {
        if (!parent.as().present(va))
            continue;
        child.as().allocate(va, kPageBytes, kProtRead | kProtWrite);
        Addr src = parent.as().frameOf(va);
        Addr dst = child.as().frameOf(va);
        for (Word off = 0; off < kPageBytes; off += 4) {
            machine_.mem().writeWord(
                dst + off, machine_.mem().readWord(src + off));
        }
        Word parent_pte = parent.as().pte(va);
        Word child_pte = child.as().pte(va);
        child.as().setPte(va,
                          (child_pte & sim::entrylo::PfnMask) |
                              (parent_pte & ~sim::entrylo::PfnMask));
        pages++;
    }
    machine_.cpu().charge(pages * charge::ForkPerPage);
    machine_.cpu().flushHostCaches();

    // proc-structure state the child inherits (identity fields —
    // asid, pt base, pid, u-area — were set by createProcess).
    static const Word kInherited[] = {
        proc::Flags,      proc::UexcMask, proc::UexcHandler,
        proc::UexcFrameU, proc::SigPending, proc::SigMask,
        proc::TrampolineU, proc::FpUsed,  proc::Brk,
    };
    for (Word f : kInherited)
        child.setField(f, parent.field(f));
    for (unsigned s = 0; s < kNumSignals; s++) {
        child.setField(proc::SigHandlers + 4 * s,
                       parent.field(proc::SigHandlers + 4 * s));
    }
    // The pinned frame page's kseg0 alias must name the CHILD's copy
    // of the frame page, not the parent's.
    Addr frame_u = parent.field(proc::UexcFrameU);
    if (frame_u != 0) {
        child.setField(proc::UexcFrameK,
                       Cpu::Kseg0Base + child.as().frameOf(frame_u));
    }

    // u-area (trapframe included): the parent's syscall path already
    // advanced the saved EPC past the fork, so the child resumes at
    // the instruction after it — with v0 = 0.
    for (Word off = 0; off < uarea::Bytes; off += 4) {
        machine_.debugWriteWord(
            child.uareaKva() + off,
            machine_.debugReadWord(parent.uareaKva() + off));
    }
    child.setTfWord(tf::Regs + V0 - 1, 0);

    child.parentPid_ = parent.pid();
    child.fds_ = parent.fds_;
}

void
Kernel::reapInto(Process &parent, Process &child)
{
    child.state_ = ProcState::Reaped;
    parent.waiting_ = false;
    Addr status_va = parent.waitStatusVa_;
    parent.waitStatusVa_ = 0;
    if (status_va != 0 && status_va % 4 == 0 &&
        parent.as().present(status_va)) {
        machine_.mem().writeWord(parent.as().physOf(status_va),
                                 child.exitStatus_);
    }
    parent.setTfWord(tf::Regs + V0 - 1, child.pid());
    // The guest is about to run restore_all, which reloads curproc:
    // retargeting it resumes the parent inside its wait().
    activate(parent);
}

Word
Kernel::faultedReg(Process &p, unsigned reg, Addr frame_kva) const
{
    // at and t0-t5 were stashed in the exception frame by the fast
    // path's save phase; everything else is still live in the CPU.
    switch (reg) {
      case AT: return machine_.debugReadWord(frame_kva + uframe::At);
      case T0: return machine_.debugReadWord(frame_kva + uframe::T0);
      case T1: return machine_.debugReadWord(frame_kva + uframe::T1);
      case T2: return machine_.debugReadWord(frame_kva + uframe::T2);
      case T3: return machine_.debugReadWord(frame_kva + uframe::T3);
      case T4: return machine_.debugReadWord(frame_kva + uframe::T4);
      case T5: return machine_.debugReadWord(frame_kva + uframe::T5);
      default: return machine_.cpu().reg(reg);
    }
    (void)p;
}

void
Kernel::setFaultedReg(Process &p, unsigned reg, Addr frame_kva,
                      Word value)
{
    (void)p;
    switch (reg) {
      case Zero: return;
      case AT: machine_.debugWriteWord(frame_kva + uframe::At, value);
               return;
      case T0: machine_.debugWriteWord(frame_kva + uframe::T0, value);
               return;
      case T1: machine_.debugWriteWord(frame_kva + uframe::T1, value);
               return;
      case T2: machine_.debugWriteWord(frame_kva + uframe::T2, value);
               return;
      case T3: machine_.debugWriteWord(frame_kva + uframe::T3, value);
               return;
      case T4: machine_.debugWriteWord(frame_kva + uframe::T4, value);
               return;
      case T5: machine_.debugWriteWord(frame_kva + uframe::T5, value);
               return;
      default: machine_.cpu().setReg(reg, value); return;
    }
}

void
Kernel::doSubpageEmulate()
{
    // Emulate the access that faulted into an *unprotected* logical
    // subpage (section 3.2.4): perform the load/store with kernel
    // rights, emulate the branch if the access sat in a delay slot,
    // and point EPC at the resume address.
    Process *p = current();
    Cpu &cpu = machine_.cpu();
    Cp0 &cp0 = cpu.cp0();
    if (!p) {
        UEXC_GUEST_ERROR(cpu.hartId(), cpu.pc(), 0,
                         "subpage emulation with no current process");
    }
    Addr epc = cp0.epc();
    bool bd = cp0.causeReg() & cause::BD;
    Word cause_code = (cp0.causeReg() & cause::ExcCodeMask) >>
                      cause::ExcCodeShift;
    Addr frame_kva = p->field(proc::UexcFrameK) +
                     (cause_code << uframe::FrameShift);

    Addr access_pc = bd ? epc + 4 : epc;
    if (!p->as().present(access_pc)) {
        UEXC_GUEST_ERROR(cpu.hartId(), access_pc, cp0.badVAddr(),
                         "subpage emulation with unmapped access pc");
    }
    Word raw = machine_.mem().readWord(p->as().physOf(access_pc));
    DecodedInst inst = decode(raw);
    if (!inst.isMemory()) {
        UEXC_GUEST_ERROR(cpu.hartId(), access_pc, cp0.badVAddr(),
                         "subpage emulation of non-memory instruction "
                         "'%s' at 0x%08x (jumps into protected pages "
                         "are not handled, as in the paper's "
                         "prototype)",
                         disassemble(inst).c_str(), access_pc);
    }

    Addr ea = faultedReg(*p, inst.rs, frame_kva) + inst.simm;
    if (!p->as().present(ea)) {
        UEXC_GUEST_ERROR(cpu.hartId(), access_pc, ea,
                         "subpage emulation of access to unmapped "
                         "address 0x%08x", ea);
    }
    Addr pa = p->as().physOf(ea);
    switch (inst.op) {
      case Op::Lw:
        setFaultedReg(*p, inst.rt, frame_kva, machine_.mem().readWord(pa));
        break;
      case Op::Lh:
        setFaultedReg(*p, inst.rt, frame_kva,
                      signExtend(machine_.mem().readHalf(pa), 16));
        break;
      case Op::Lhu:
        setFaultedReg(*p, inst.rt, frame_kva, machine_.mem().readHalf(pa));
        break;
      case Op::Lb:
        setFaultedReg(*p, inst.rt, frame_kva,
                      signExtend(machine_.mem().readByte(pa), 8));
        break;
      case Op::Lbu:
        setFaultedReg(*p, inst.rt, frame_kva, machine_.mem().readByte(pa));
        break;
      case Op::Sw:
        machine_.mem().writeWord(pa, faultedReg(*p, inst.rt, frame_kva));
        break;
      case Op::Sh:
        machine_.mem().writeHalf(
            pa, static_cast<Half>(faultedReg(*p, inst.rt, frame_kva)));
        break;
      case Op::Sb:
        machine_.mem().writeByte(
            pa, static_cast<Byte>(faultedReg(*p, inst.rt, frame_kva)));
        break;
      default:
        UEXC_GUEST_ERROR(cpu.hartId(), access_pc, ea,
                         "subpage emulation of unsupported memory op "
                         "'%s'", disassemble(inst).c_str());
    }

    // resume address: trivial unless the access was in a delay slot,
    // in which case the kernel must emulate the branch as well
    Addr resume;
    if (!bd) {
        resume = epc + 4;
    } else {
        Word braw = machine_.mem().readWord(p->as().physOf(epc));
        DecodedInst br = decode(braw);
        Word rs = faultedReg(*p, br.rs, frame_kva);
        Word rt = faultedReg(*p, br.rt, frame_kva);
        Addr taken = epc + 4 + (br.simm << 2);
        Addr fallthrough = epc + 8;
        switch (br.op) {
          case Op::Beq:  resume = (rs == rt) ? taken : fallthrough; break;
          case Op::Bne:  resume = (rs != rt) ? taken : fallthrough; break;
          case Op::Blez:
            resume = (static_cast<SWord>(rs) <= 0) ? taken : fallthrough;
            break;
          case Op::Bgtz:
            resume = (static_cast<SWord>(rs) > 0) ? taken : fallthrough;
            break;
          case Op::Bltz:
            resume = (static_cast<SWord>(rs) < 0) ? taken : fallthrough;
            break;
          case Op::Bgez:
            resume = (static_cast<SWord>(rs) >= 0) ? taken : fallthrough;
            break;
          case Op::J:
          case Op::Jal:
            resume = ((epc + 4) & 0xf0000000u) | (br.target << 2);
            if (br.op == Op::Jal)
                setFaultedReg(*p, RA, frame_kva, epc + 8);
            break;
          case Op::Jr:
            resume = rs;
            break;
          case Op::Jalr:
            resume = rs;
            setFaultedReg(*p, br.rd, frame_kva, epc + 8);
            break;
          default:
            UEXC_GUEST_ERROR(cpu.hartId(), epc, ea,
                             "subpage emulation: BD set but 0x%08x is "
                             "not a branch", epc);
        }
    }
    cp0.write(cp0reg::Epc, resume);
    cpu.charge(charge::SubpageEmulate);
    subpageEmuls_++;
}

void
Kernel::doRiEmulate()
{
    // The stock path asks whether this Reserved Instruction fault is
    // a TLBMP to emulate (section 3.2.3's software fallback). Sets
    // guest k1 = 1 when handled (saved EPC advanced), 0 otherwise.
    Process *p = current();
    Cpu &cpu = machine_.cpu();
    cpu.setReg(K1, 0);
    if (!p)
        return;
    Addr epc = p->tfWord(tf::Epc);
    if (!p->as().present(epc))
        return;
    Word raw = machine_.mem().readWord(p->as().physOf(epc));
    DecodedInst inst = decode(raw);
    if (inst.op != Op::Tlbmp)
        return;
    Addr va = p->tfWord(tf::Regs + inst.rs - 1);
    Word ctl = p->tfWord(tf::Regs + inst.rt - 1);
    if (!p->as().present(va))
        return;  // unmapped: let the signal path handle it
    Word pte = p->as().pte(va);
    if (!(pte & entrylo::U))
        return;  // policy: not user-modifiable -> SIGILL
    pte = (ctl & 1u) ? (pte | entrylo::D) : (pte & ~entrylo::D);
    pte = (ctl & 2u) ? (pte | entrylo::V) : (pte & ~entrylo::V);
    p->as().setPte(va, pte);
    machine_.invalidateTlbs(va, p->asid());
    // skip the TLBMP instruction on return
    p->setTfWord(tf::Epc, epc + 4);
    cpu.setReg(K1, 1);
    cpu.charge(charge::RiEmulate);
    riEmuls_++;
}

void
Kernel::doBadTrap()
{
    // The guest kernel diagnosed an inconsistency it cannot recover
    // from (TLB/pmap disagreement, fault from kernel mode, malformed
    // trap state). Surface it as a structured guest-visible error
    // instead of killing the host process.
    const Cp0 &cp0 = machine_.cpu().cp0();
    UEXC_GUEST_ERROR(
        machine_.currentHart(), cp0.epc(), cp0.badVAddr(),
        "bad trap: cause=0x%08x (%s) status=0x%08x",
        cp0.causeReg(),
        excName(static_cast<ExcCode>(
            (cp0.causeReg() & cause::ExcCodeMask) >>
            cause::ExcCodeShift)),
        cp0.statusReg());
}

} // namespace uexc::os
