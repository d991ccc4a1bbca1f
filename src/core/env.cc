#include "core/env.h"

#include "common/bits.h"
#include "common/guesterror.h"
#include "common/logging.h"
#include "core/lintspec.h"
#include "sim/cp0.h"
#include "sim/faultinject.h"

namespace uexc::rt {

using namespace sim;
using namespace os;

// -- Fault ---------------------------------------------------------------------

Word
Fault::reg(unsigned r) const
{
    return env_.contextReg(r);
}

void
Fault::setReg(unsigned r, Word value)
{
    env_.setContextReg(r, value);
}

void
Fault::resumeAt(Addr pc)
{
    switch (env_.curDelivery_) {
      case DeliveryMode::UltrixSignal:
        env_.kernel().machine().debugWriteWord(
            env_.sigctxKva() + sigctx::Pc * 4, pc);
        break;
      case DeliveryMode::FastSoftware:
        env_.kernel().machine().debugWriteWord(
            env_.frameKva() + uframe::Epc, pc);
        break;
      case DeliveryMode::FastHardwareVector:
        env_.cpu().cp0().setUxReg(UxReg::Epc, pc);
        break;
    }
}

// -- UserEnv ----------------------------------------------------------------------

UserEnv::UserEnv(Kernel &kernel, DeliveryMode mode, SavePolicy policy,
                 unsigned hart)
    : kernel_(kernel), mode_(mode), policy_(policy), hart_(hart)
{
    if (mode == DeliveryMode::FastHardwareVector &&
        !kernel.machine().cpu().config().userVectorHw) {
        UEXC_FATAL("FastHardwareVector mode needs "
                   "CpuConfig::userVectorHw");
    }
    if (hart >= kernel.machine().numHarts())
        UEXC_FATAL("UserEnv on hart %u of a %u-hart machine", hart,
                   kernel.machine().numHarts());
}

void
UserEnv::bind()
{
    Machine &m = kernel_.machine();
    if (m.currentHart() != hart_)
        m.setCurrentHart(hart_);
    // Re-activating syncs the shared curproc global and this hart's
    // ASID/PTEBase after another env ran; host-side only, uncharged
    // (the host is the scheduler here). The comparison must be
    // against the machine-wide guest curproc: another hart's env may
    // have activated its process since we last ran, even though this
    // hart's own current() still names ours.
    if (proc_ && kernel_.guestCurrent() != proc_)
        kernel_.activate(*proc_);
}

Program
UserEnv::buildShimProgram(SavePolicy policy, bool user_vector_hw)
{
    Assembler a(kUserTextBase);

    // parking loop: the CPU sits here, in user mode, between
    // host-driven operations
    a.label("shim_idle");
    a.j("shim_idle");
    a.nop();

    // fault sites: single-instruction load/store used to inject
    // application memory accesses into the real machine pipeline
    a.label("fault_lw");
    a.lw(T7, 0, T6);
    a.label("fault_lw_done");
    a.nop();
    a.nop();
    a.label("fault_sw");
    a.sw(T7, 0, T6);
    a.label("fault_sw_done");
    a.nop();
    a.nop();

    // raw syscall site: v0/a0-a2 are set by the host
    a.label("do_syscall");
    a.syscall();
    a.label("do_syscall_ret");
    a.nop();
    a.nop();

    // user-level TLB protection modification site (section 3.2.3)
    a.label("tlbmp_site");
    a.tlbmp(T6, T7);
    a.label("tlbmp_done");
    a.nop();
    a.nop();

    // fast software stub: body bridges to the host handler
    emitFastStub(a, "fast_stub", policy,
                 [](Assembler &as) { as.hcall(svc::Upcall); });

    // hardware-vectored stub
    if (user_vector_hw) {
        emitUserVectorStub(a, "hw_stub", [](Assembler &as) {
            as.hcall(svc::Upcall);
        });
    }

    // Unix signal handler (called by the trampoline) + trampoline
    a.label("unix_handler");
    a.hcall(svc::Upcall);
    a.jr(RA);
    a.nop();
    emitTrampoline(a, "sigtramp");

    return a.finalize();
}

os::GuestImage
UserEnv::buildShimImage(SavePolicy policy, bool user_vector_hw)
{
    Program p = buildShimProgram(policy, user_vector_hw);
    GuestImage img = GuestImage::fromProgram(p, "user-shim");
    img.entry = p.symbol("shim_idle");
    img.setLintConfig(userProgramLintConfig(p));
    img.validate();
    return img;
}

void
UserEnv::buildShim()
{
    GuestImage img = buildShimImage(
        policy_, kernel_.machine().cpu().config().userVectorHw);
    Program p = img.textProgram();
#ifndef NDEBUG
    // Debug builds refuse to install a shim that fails the analyzer,
    // including the worst-case-latency bound of every handler stub
    // against the delivery watchdog budget.
    std::vector<analysis::Finding> findings =
        analysis::lint(p, shimLintConfig());
    if (analysis::hasErrors(findings)) {
        UEXC_PANIC("user shim fails uexc-lint:\n%s",
                   analysis::formatFindings(findings).c_str());
    }
#endif
    kernel_.loadImage(*proc_, img);

    shimIdle_ = p.symbol("shim_idle");
    faultLw_ = p.symbol("fault_lw");
    faultLwDone_ = p.symbol("fault_lw_done");
    faultSw_ = p.symbol("fault_sw");
    faultSwDone_ = p.symbol("fault_sw_done");
    doSyscall_ = p.symbol("do_syscall");
    doSyscallRet_ = p.symbol("do_syscall_ret");
    tlbmpSite_ = p.symbol("tlbmp_site");
    tlbmpDone_ = p.symbol("tlbmp_done");
    stub_ = p.symbol(mode_ == DeliveryMode::FastHardwareVector
                         ? "hw_stub"
                         : "fast_stub");
    stubRestore_ = p.symbol("fast_stub__restore");
    stubEnd_ = p.symbol("fast_stub__end");
    trampoline_ = p.symbol("sigtramp");

    unixHandler_ = p.symbol("unix_handler");
}

analysis::LintConfig
UserEnv::shimLintConfig() const
{
    Program p = buildShimProgram(
        policy_, kernel_.machine().cpu().config().userVectorHw);
    analysis::LintConfig config = userProgramLintConfig(p);
    // A handler whose static worst case cannot fit the watchdog
    // budget would be demoted on every single delivery.
    applyHandlerWcetBudget(config, handlerBudget_);
    return config;
}

void
UserEnv::setHandlerBudget(InstCount budget)
{
    handlerBudget_ = budget;
#ifndef NDEBUG
    Program p = buildShimProgram(
        policy_, kernel_.machine().cpu().config().userVectorHw);
    std::vector<analysis::Finding> findings =
        analysis::lint(p, shimLintConfig());
    if (analysis::hasErrors(findings)) {
        UEXC_PANIC("user shim fails uexc-lint under handler budget "
                   "%llu:\n%s",
                   (unsigned long long)budget,
                   analysis::formatFindings(findings).c_str());
    }
#endif
}

void
UserEnv::install(Word exc_mask)
{
    if (installed_)
        UEXC_FATAL("UserEnv installed twice");
    Machine &m = kernel_.machine();
    if (m.numHarts() > 1) {
        if (kernel_.hasUpcallHandler(hart_))
            UEXC_FATAL("another UserEnv is already installed on hart "
                       "%u; one environment per hart (env.h)", hart_);
    } else if (kernel_.hasUpcallHandler()) {
        UEXC_FATAL("another UserEnv is already installed on this "
                   "kernel; one machine per environment (env.h)");
    }
    if (m.currentHart() != hart_)
        m.setCurrentHart(hart_);
    proc_ = &kernel_.createProcess();
    buildShim();
    kernel_.activate(*proc_);

    if (m.numHarts() > 1)
        kernel_.setUpcallHandler(hart_, [this](Kernel &) { onUpcall(); });
    else
        kernel_.setUpcallHandler([this](Kernel &) { onUpcall(); });

    // Unix signal state is always set up: it is the fallback for
    // recursive exceptions and the primary path in UltrixSignal mode
    proc_->setField(proc::TrampolineU, trampoline_);
    for (unsigned sig : {kSigill, kSigtrap, kSigfpe, kSigbus, kSigsegv})
        proc_->setField(proc::SigHandlers + 4 * sig, unixHandler_);

    switch (mode_) {
      case DeliveryMode::UltrixSignal:
        break;
      case DeliveryMode::FastSoftware:
        kernel_.svcUexcEnable(*proc_, exc_mask, stub_, kUexcFramePage);
        writeCanary();
        break;
      case DeliveryMode::FastHardwareVector:
        kernel_.svcUexcEnable(*proc_, exc_mask, stub_, kUexcFramePage);
        cpu().cp0().setUxReg(UxReg::Target, stub_);
        writeCanary();
        break;
    }

    // The fast stub's restore window has k0 live across user
    // instructions; tell any fault injector not to raise spurious
    // exceptions inside it (the PR 4 K0 resume-window hazard). Every
    // env shares the same shim layout, so the window may already be
    // registered by another hart's env.
    if (FaultInjector *inj = cpu().config().faultInjector) {
        bool present = false;
        for (const auto &[b, e] : inj->maskedPcWindows())
            present = present || (b == stubRestore_ && e == stubEnd_);
        if (!present)
            inj->maskPcWindow(stubRestore_, stubEnd_);
    }

    m.registerSnapshotSection(
        sim::snapshotTag('U', 'E', 'N', '\0') | (Word(hart_) << 24),
        [this](sim::SnapshotWriter &w) { snapshotSave(w); },
        [this](sim::SnapshotReader &r) { snapshotLoad(r); });

    kernel_.enterUser(*proc_, shimIdle_,
                      mode_ == DeliveryMode::FastHardwareVector);
    installed_ = true;
}

void
UserEnv::snapshotSave(sim::SnapshotWriter &w) const
{
    if (inHandler_)
        UEXC_FATAL("UserEnv: checkpoint taken mid-delivery (snapshots "
                    "are only meaningful between operations)");
    w.u32(hart_);
    w.u32(static_cast<std::uint32_t>(mode_));
    w.boolean(demoted_);
    w.u64(handlerBudget_);
    w.u64(syscallOverhead_);
    w.u64(stats_.loads);
    w.u64(stats_.stores);
    w.u64(stats_.faultsDelivered);
    w.u64(stats_.guestSyscalls);
    w.u64(stats_.inHandlerServiceCalls);
    w.u64(stats_.deliveryDemoted);
    w.u64(stats_.savePageCorruptions);
}

void
UserEnv::snapshotLoad(sim::SnapshotReader &r)
{
    if (r.u32() != hart_)
        r.fail("env hart mismatch");
    if (r.u32() != static_cast<std::uint32_t>(mode_))
        r.fail("env delivery-mode mismatch");
    demoted_ = r.boolean();
    handlerBudget_ = r.u64();
    syscallOverhead_ = r.u64();
    stats_.loads = r.u64();
    stats_.stores = r.u64();
    stats_.faultsDelivered = r.u64();
    stats_.guestSyscalls = r.u64();
    stats_.inHandlerServiceCalls = r.u64();
    stats_.deliveryDemoted = r.u64();
    stats_.savePageCorruptions = r.u64();
    inHandler_ = false;
}

void
UserEnv::allocate(Addr va, Word len, Word prot)
{
    proc_->as().allocate(va, len, prot);
}

void
UserEnv::runGuest(Addr entry, Addr stop, InstCount limit)
{
    Cpu &c = cpu();
    InstCount budget = std::min(limit, handlerBudget_);
    c.setPc(entry);
    c.addBreakpoint(stop);
    RunResult r;
    try {
        r = c.run(budget);
        if (r.reason == StopReason::InstLimit &&
            deliveryMode() != DeliveryMode::UltrixSignal) {
            // Watchdog: the delivery exhausted its instruction budget
            // — a runaway user handler. Demote to kernel-mediated
            // delivery and retry the (idempotent, single-instruction)
            // guest entry once; the retried fault then takes the
            // stock signal path with an intact handler chain.
            demote();
            c.setPc(entry);
            r = c.run(budget);
        }
    } catch (...) {
        c.removeBreakpoint(stop);
        throw;
    }
    c.removeBreakpoint(stop);
    if (r.reason != StopReason::Breakpoint) {
        UEXC_GUEST_ERROR(
            hart_, c.pc(), c.cp0().badVAddr(),
            "guest execution from 0x%08x did not reach 0x%08x "
            "(%s after %llu instructions%s)", entry, stop,
            r.reason == StopReason::Halted ? "halted"
                                           : "instruction limit",
            static_cast<unsigned long long>(r.instsExecuted),
            demoted_ ? ", after demotion to kernel delivery" : "");
    }
}

bool
UserEnv::hostRefill(Addr va, AccessType type)
{
    // Emulate the TLB refill handler host-side: used when a quiet
    // translation misses only because the entry was shot down, which
    // must not surface as a fault to in-handler code. Charges what
    // the 8-instruction guest refill costs.
    Word pte = proc_->as().pte(va);
    if (!(pte & sim::entrylo::V))
        return false;
    if (type == AccessType::Store && !(pte & sim::entrylo::D))
        return false;
    Word hi = (va & sim::entryhi::VpnMask) |
              (proc_->asid() << sim::entryhi::AsidShift);
    cpu().tlb().setEntry(cpu().cp0().randomIndex(), hi, pte);
    cpu().charge(12);
    return true;
}

Word
UserEnv::load(Addr va)
{
    bind();
    stats_.loads++;
    if (isAligned(va, 4)) {
        TranslateResult tr = cpu().translateQuiet(va, AccessType::Load);
        if (!tr.ok && tr.refill && inHandler_ &&
            hostRefill(va, AccessType::Load)) {
            tr = cpu().translateQuiet(va, AccessType::Load);
        }
        if (tr.ok) {
            cpu().charge(cpu().config().cost.baseCost +
                         cpu().config().cost.loadExtra);
            cpu().chargeDataAccess(tr.paddr, tr.cacheable);
            return kernel_.machine().mem().readWord(tr.paddr);
        }
    }
    if (inHandler_) {
        UEXC_GUEST_ERROR(hart_, cpu().pc(), va,
                         "fault on load 0x%08x from inside a fault "
                         "handler (recursive faults on the host "
                         "bridge are not supported; see DESIGN.md)",
                         va);
    }
    cpu().setReg(T6, va);
    runGuest(faultLw_, faultLwDone_, 1'000'000);
    return cpu().reg(T7);
}

void
UserEnv::store(Addr va, Word value)
{
    bind();
    stats_.stores++;
    if (isAligned(va, 4)) {
        TranslateResult tr = cpu().translateQuiet(va, AccessType::Store);
        if (!tr.ok && tr.refill && inHandler_ &&
            hostRefill(va, AccessType::Store)) {
            tr = cpu().translateQuiet(va, AccessType::Store);
        }
        if (tr.ok) {
            cpu().charge(cpu().config().cost.baseCost +
                         cpu().config().cost.storeExtra);
            cpu().chargeDataAccess(tr.paddr, tr.cacheable);
            kernel_.machine().mem().writeWord(tr.paddr, value);
            return;
        }
    }
    if (inHandler_) {
        UEXC_GUEST_ERROR(hart_, cpu().pc(), va,
                         "fault on store 0x%08x from inside a fault "
                         "handler (recursive faults on the host "
                         "bridge are not supported; see DESIGN.md)",
                         va);
    }
    cpu().setReg(T6, va);
    cpu().setReg(T7, value);
    runGuest(faultSw_, faultSwDone_, 1'000'000);
}

void
UserEnv::setHandler(sim::ExcCode code, FaultHandler handler)
{
    typedHandlers_[static_cast<unsigned>(code)] = std::move(handler);
}

Word
UserEnv::guestSyscall(Word num, Word a0, Word a1, Word a2)
{
    if (inHandler_)
        UEXC_PANIC("guestSyscall from inside a fault handler");
    bind();
    Cpu &c = cpu();
    c.setReg(V0, num);
    c.setReg(A0, a0);
    c.setReg(A1, a1);
    c.setReg(A2, a2);
    runGuest(doSyscall_, doSyscallRet_, 1'000'000);
    stats_.guestSyscalls++;
    return c.reg(V0);
}

void
UserEnv::protect(Addr va, Word len, Word prot)
{
    Word call = (mode_ == DeliveryMode::UltrixSignal) ? sys::Mprotect
                                                      : sys::UexcProtect;
    if (inHandler_) {
        cpu().charge(syscallOverhead_);
        stats_.inHandlerServiceCalls++;
        if (mode_ == DeliveryMode::UltrixSignal)
            kernel_.svcMprotect(*proc_, va, len, prot);
        else
            kernel_.svcUexcProtect(*proc_, va, len, prot);
        return;
    }
    guestSyscall(call, va, len, prot);
}

void
UserEnv::subpageProtect(Addr va, Word len, Word prot)
{
    if (inHandler_) {
        cpu().charge(syscallOverhead_);
        stats_.inHandlerServiceCalls++;
        kernel_.svcSubpageProtect(*proc_, va, len, prot);
        return;
    }
    guestSyscall(sys::SubpageProtect, va, len, prot);
}

void
UserEnv::userTlbModify(Addr va, bool writable, bool valid)
{
    if (inHandler_) {
        // A handler executing TLBMP: with the hardware present this
        // is a register-file-speed operation, which is exactly what
        // makes user-level fault handling self-sufficient (section
        // 2.2). We apply the instruction's semantics directly.
        if (!cpu().config().tlbmpHw)
            UEXC_PANIC("in-handler userTlbModify requires TLBMP "
                       "hardware (the software emulation re-enters "
                       "the kernel)");
        auto hit = cpu().tlb().probeQuiet(va, proc_->asid());
        if (!hit || !cpu().tlb().entry(*hit).userModifiable()) {
            // miss or no U bit: the hardware would trap to the
            // kernel's emulation; model that cost and do it there
            cpu().charge(syscallOverhead_);
            Word pte = proc_->as().pte(va);
            pte = writable ? (pte | sim::entrylo::D)
                           : (pte & ~sim::entrylo::D);
            pte = valid ? (pte | sim::entrylo::V)
                        : (pte & ~sim::entrylo::V);
            proc_->as().setPte(va, pte);
            return;
        }
        const sim::TlbEntry &e = cpu().tlb().entry(*hit);
        Word lo = e.lo;
        lo = writable ? (lo | sim::entrylo::D) : (lo & ~sim::entrylo::D);
        lo = valid ? (lo | sim::entrylo::V) : (lo & ~sim::entrylo::V);
        cpu().tlb().setEntry(*hit, e.hi, lo);
        cpu().charge(2);
        return;
    }
    bind();
    Word ctl = (writable ? 1u : 0u) | (valid ? 2u : 0u);
    cpu().setReg(T6, va);
    cpu().setReg(T7, ctl);
    runGuest(tlbmpSite_, tlbmpDone_, 1'000'000);
}

void
UserEnv::setEagerAmplify(bool enable)
{
    Word flags = enable ? kPfEagerAmplify : 0;
    if (inHandler_) {
        cpu().charge(syscallOverhead_);
        kernel_.svcUexcSetFlags(*proc_, flags);
        return;
    }
    guestSyscall(sys::UexcSetFlags, flags);
}

// -- upcall dispatch -----------------------------------------------------------------

Addr
UserEnv::frameKva() const
{
    Word frame_u_base = proc_->field(proc::UexcFrameU);
    Word frame_k_base = proc_->field(proc::UexcFrameK);
    return frame_k_base + (curFrameU_ - frame_u_base);
}

void
UserEnv::demote()
{
    if (demoted_)
        return;
    kernel_.demoteDelivery(*proc_);
    demoted_ = true;
    stats_.deliveryDemoted++;
}

namespace {

constexpr std::size_t kCanaryWords =
    (os::kPageBytes - os::kUexcCanaryOffset) / 4;
using CanaryImage = std::array<Word, kCanaryWords>;

/**
 * The canary as the host builds it once: a deterministic, index-
 * dependent pattern (an all-zero page or a single repeated word would
 * miss many corruption shapes), indexed by word within the page.
 */
constexpr CanaryImage kCanary = [] {
    CanaryImage image{};
    for (std::size_t i = 0; i < kCanaryWords; i++)
        image[i] = 0xc0ffee00u ^
                   ((Word(i) + os::kUexcCanaryOffset / 4) * 0x9e3779b9u);
    return image;
}();

} // namespace

/** Physical address of the canary in this process's pinned page. */
Addr
UserEnv::canaryPhys() const
{
    return Machine::unmappedToPhys(proc_->field(proc::UexcFrameK) +
                                   os::kUexcCanaryOffset);
}

/**
 * The pinned exception frame page holds one 128-byte frame per
 * ExcCode: 16 * 128 = 2048 bytes. The upper half of the 4 KB page is
 * dead space, which the canary fills: any stray write into the pinned
 * page — a wild user store, a corrupted DMA, an injected bit flip —
 * lands in it with probability 1/2 even if it misses live frames.
 */
void
UserEnv::writeCanary()
{
    kernel_.machine().mem().writeBlock(canaryPhys(), kCanary.data(),
                                       sizeof(kCanary));
}

bool
UserEnv::checkCanary()
{
    CanaryImage now;
    kernel_.machine().mem().readBlock(canaryPhys(), now.data(),
                                      sizeof(now));
    if (now == kCanary)
        return true;
    // Corruption of the pinned save page: the fast mechanism can no
    // longer be trusted with this process. Demote to kernel-mediated
    // delivery and repair the canary so the diagnosis fires once per
    // corruption event.
    stats_.savePageCorruptions++;
    demote();
    writeCanary();
    return false;
}

Addr
UserEnv::sigctxKva() const
{
    return Cpu::Kseg0Base + proc_->as().physOf(curSigctxU_);
}

void
UserEnv::onUpcall()
{
    stats_.faultsDelivered++;
    Machine &m = kernel_.machine();
    ExcCode code;
    Addr pc, badva;
    bool bd;

    // Latch the mechanism this delivery actually used: a demotion
    // that happens here (canary corruption) or mid-handler only
    // applies to *future* deliveries; the fault in flight decodes and
    // resumes through the mechanism that delivered it (its frame
    // words sit in the canary-free low half of the pinned page).
    curDelivery_ = deliveryMode();
    if (curDelivery_ != DeliveryMode::UltrixSignal)
        checkCanary();

    switch (curDelivery_) {
      case DeliveryMode::FastSoftware: {
        curFrameU_ = cpu().reg(T3);
        Addr fk = frameKva();
        Word cause_word = m.debugReadWord(fk + uframe::Cause);
        code = static_cast<ExcCode>((cause_word & cause::ExcCodeMask) >>
                                    cause::ExcCodeShift);
        bd = cause_word & cause::BD;
        pc = m.debugReadWord(fk + uframe::Epc);
        badva = m.debugReadWord(fk + uframe::BadVA);
        break;
      }
      case DeliveryMode::FastHardwareVector: {
        Word cond = cpu().cp0().uxReg(UxReg::Cond);
        code = static_cast<ExcCode>(cond >> 2);
        bd = cond & 1u;
        pc = cpu().cp0().uxReg(UxReg::Epc);
        badva = cpu().cp0().uxReg(UxReg::BadAddr);
        break;
      }
      case DeliveryMode::UltrixSignal:
      default: {
        curSigctxU_ = cpu().reg(A2);
        Addr sk = sigctxKva();
        Word cause_word = m.debugReadWord(sk + sigctx::Cause * 4);
        code = static_cast<ExcCode>((cause_word & cause::ExcCodeMask) >>
                                    cause::ExcCodeShift);
        bd = cause_word & cause::BD;
        pc = m.debugReadWord(sk + sigctx::Pc * 4);
        badva = m.debugReadWord(sk + sigctx::BadVA * 4);
        break;
      }
    }

    const FaultHandler &handler =
        typedHandlers_[static_cast<unsigned>(code)]
            ? typedHandlers_[static_cast<unsigned>(code)]
            : handler_;
    if (!handler) {
        UEXC_GUEST_ERROR(hart_, pc, badva,
                         "fault (%s at pc=0x%08x badva=0x%08x) "
                         "delivered with no handler installed",
                         excName(code), pc, badva);
    }

    curCode_ = code;
    bool was = inHandler_;
    inHandler_ = true;
    Fault fault(*this, code, pc, badva, bd);
    handler(fault);
    inHandler_ = was;
    // Validate the pinned save page again before the guest resumes
    // from it (the canary covers the unused top half of the page).
    if (curDelivery_ != DeliveryMode::UltrixSignal)
        checkCanary();
}

Word
UserEnv::contextReg(unsigned r) const
{
    if (r == 0)
        return 0;
    Machine &m = kernel_.machine();
    switch (curDelivery_) {
      case DeliveryMode::UltrixSignal:
        return m.debugReadWord(sigctxKva() + (sigctx::Regs + r - 1) * 4);
      case DeliveryMode::FastSoftware: {
        Addr fk = frameKva();
        switch (r) {
          case AT: return m.debugReadWord(fk + uframe::At);
          case T0: return m.debugReadWord(fk + uframe::T0);
          case T1: return m.debugReadWord(fk + uframe::T1);
          case T2: return m.debugReadWord(fk + uframe::T2);
          case T3: return m.debugReadWord(fk + uframe::T3);
          case T4: return m.debugReadWord(fk + uframe::T4);
          case T5: return m.debugReadWord(fk + uframe::T5);
          default: break;
        }
        if (policy_ == SavePolicy::UltrixEquivalent) {
            int slot = spillSlot(r);
            if (slot >= 0)
                return m.debugReadWord(fk + uframe::Spill + 4 * slot);
        }
        return cpu().reg(r);
      }
      case DeliveryMode::FastHardwareVector:
      default:
        switch (r) {
          case AT: return cpu().cp0().uxReg(UxReg::Scratch0);
          case T0: return cpu().cp0().uxReg(UxReg::Scratch1);
          case T1: return cpu().cp0().uxReg(UxReg::Scratch2);
          case T2: return cpu().cp0().uxReg(UxReg::Scratch3);
          case T3: return cpu().cp0().uxReg(UxReg::Scratch4);
          case RA: return cpu().cp0().uxReg(UxReg::Scratch5);
          default: return cpu().reg(r);
        }
    }
}

void
UserEnv::setContextReg(unsigned r, Word value)
{
    if (r == 0)
        return;
    Machine &m = kernel_.machine();
    switch (curDelivery_) {
      case DeliveryMode::UltrixSignal:
        m.debugWriteWord(sigctxKva() + (sigctx::Regs + r - 1) * 4,
                         value);
        return;
      case DeliveryMode::FastSoftware: {
        Addr fk = frameKva();
        switch (r) {
          case AT: m.debugWriteWord(fk + uframe::At, value); return;
          case T0: m.debugWriteWord(fk + uframe::T0, value); return;
          case T1: m.debugWriteWord(fk + uframe::T1, value); return;
          case T2: m.debugWriteWord(fk + uframe::T2, value); return;
          case T3: m.debugWriteWord(fk + uframe::T3, value); return;
          case T4: m.debugWriteWord(fk + uframe::T4, value); return;
          case T5: m.debugWriteWord(fk + uframe::T5, value); return;
          default: break;
        }
        if (policy_ == SavePolicy::UltrixEquivalent) {
            int slot = spillSlot(r);
            if (slot >= 0) {
                m.debugWriteWord(fk + uframe::Spill + 4 * slot, value);
                return;
            }
        }
        cpu().setReg(r, value);
        return;
      }
      case DeliveryMode::FastHardwareVector:
      default:
        switch (r) {
          case AT: cpu().cp0().setUxReg(UxReg::Scratch0, value); return;
          case T0: cpu().cp0().setUxReg(UxReg::Scratch1, value); return;
          case T1: cpu().cp0().setUxReg(UxReg::Scratch2, value); return;
          case T2: cpu().cp0().setUxReg(UxReg::Scratch3, value); return;
          case T3: cpu().cp0().setUxReg(UxReg::Scratch4, value); return;
          case RA: cpu().cp0().setUxReg(UxReg::Scratch5, value); return;
          default: cpu().setReg(r, value); return;
        }
    }
}

} // namespace uexc::rt
