/**
 * @file
 * Multi-hart machine tests: the scheduling determinism contract
 * (machine.h file comment), bit-identity of a one-hart Machine::run
 * with the plain Cpu::run path, shared-memory visibility across
 * harts, per-hart breakpoints and budget exhaustion at quantum
 * boundaries, host-store invalidation of predecoded pages, TLB
 * shootdown across harts, and the multihart guest programs'
 * per-hart exception counters.
 */

#include <gtest/gtest.h>

#include "core/multihart.h"
#include "os/kernel.h"
#include "os/layout.h"
#include "sim_test_util.h"

namespace uexc::sim {
namespace {

using testutil::kTestOrigin;

/** A shared kseg0 word clear of the test program. */
constexpr Addr kSharedWord = 0x80020000u;

/**
 * One program with an entry per hart. Hart 0 counts to @p iters0 in
 * s0 and publishes the count; hart 1 counts to @p iters1 and stores
 * next to it. Distinct iteration counts make the per-hart statistics
 * distinguishable.
 */
Program
buildTwoHartProgram(unsigned iters0, unsigned iters1)
{
    Assembler a(kTestOrigin);
    a.label("h0_entry");
    a.li(S0, 0);
    a.li(T0, iters0);
    a.label("h0_loop");
    a.addiu(S0, S0, 1);
    a.addiu(T0, T0, -1);
    a.bne(T0, Zero, "h0_loop");
    a.nop();
    a.li(A0, kSharedWord);
    a.sw(S0, 0, A0);
    a.hcall(0);

    a.label("h1_entry");
    a.li(S0, 0);
    a.li(T0, iters1);
    a.label("h1_loop");
    a.addiu(S0, S0, 1);
    a.addiu(T0, T0, -1);
    a.bne(T0, Zero, "h1_loop");
    a.nop();
    a.li(A0, kSharedWord);
    a.sw(S0, 4, A0);
    a.hcall(0);
    return a.finalize();
}

void
startHart(Machine &m, unsigned hart, const std::string &entry)
{
    m.hart(hart).setPc(m.symbol(entry));
}

// ---------------------------------------------------------------------------
// N = 1: Machine::run is the old Cpu::run, bit for bit.
// ---------------------------------------------------------------------------

void
expectIdenticalState(Machine &a, Machine &b)
{
    for (unsigned r = 0; r < NumRegs; r++)
        EXPECT_EQ(a.hart(0).reg(r), b.hart(0).reg(r)) << "reg " << r;
    EXPECT_EQ(a.hart(0).pc(), b.hart(0).pc());
    const CpuStats &sa = a.hart(0).stats();
    const CpuStats &sb = b.hart(0).stats();
    EXPECT_EQ(sa.instructions, sb.instructions);
    EXPECT_EQ(sa.cycles, sb.cycles);
    EXPECT_EQ(sa.loads, sb.loads);
    EXPECT_EQ(sa.stores, sb.stores);
    EXPECT_EQ(sa.branches, sb.branches);
    EXPECT_EQ(sa.exceptionsTaken, sb.exceptionsTaken);
}

void
checkSingleHartIdentity(bool fast_interpreter)
{
    MachineConfig cfg;
    cfg.cpu.fastInterpreter = fast_interpreter;
    cfg.quantum = 7;   // must be irrelevant at N = 1
    Machine via_cpu(cfg), via_machine(cfg);

    Program p = buildTwoHartProgram(100, 50);
    via_cpu.load(p);
    via_machine.load(p);
    via_cpu.cpu().setPc(via_cpu.symbol("h0_entry"));
    via_machine.hart(0).setPc(via_machine.symbol("h0_entry"));

    RunResult rc = via_cpu.cpu().run(1000);
    MachineRunResult rm = via_machine.run(1000);

    EXPECT_EQ(rm.reason, rc.reason);
    EXPECT_EQ(rm.instsExecuted, rc.instsExecuted);
    EXPECT_EQ(rm.hart, 0u);
    expectIdenticalState(via_cpu, via_machine);
}

TEST(Multihart, SingleHartMachineRunMatchesCpuRun)
{
    checkSingleHartIdentity(false);
}

TEST(Multihart, SingleHartIdentityHoldsUnderFastInterpreter)
{
    checkSingleHartIdentity(true);
}

// ---------------------------------------------------------------------------
// Determinism: the schedule is a pure function of (program, config).
// ---------------------------------------------------------------------------

struct Fingerprint
{
    std::vector<Cycles> cycles;
    std::vector<InstCount> insts;
    std::vector<Word> s0;
    InstCount total = 0;

    bool operator==(const Fingerprint &o) const
    {
        return cycles == o.cycles && insts == o.insts && s0 == o.s0 &&
               total == o.total;
    }
};

Fingerprint
runInterleaved(InstCount quantum)
{
    MachineConfig cfg;
    cfg.harts = 2;
    cfg.quantum = quantum;
    Machine m(cfg);
    m.load(buildTwoHartProgram(200, 300));
    startHart(m, 0, "h0_entry");
    startHart(m, 1, "h1_entry");

    MachineRunResult r = m.run(1'000'000);
    EXPECT_EQ(r.reason, StopReason::Halted);

    Fingerprint f;
    f.total = r.instsExecuted;
    for (unsigned i = 0; i < m.numHarts(); i++) {
        f.cycles.push_back(m.hart(i).cycles());
        f.insts.push_back(m.hart(i).instret());
        f.s0.push_back(m.hart(i).reg(S0));
    }
    return f;
}

TEST(Multihart, TwoHartRunIsDeterministic)
{
    Fingerprint a = runInterleaved(37);
    Fingerprint b = runInterleaved(37);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.s0[0], 200u);
    EXPECT_EQ(a.s0[1], 300u);
    // Both harts really ran (distinct loop lengths, distinct work).
    EXPECT_GT(a.insts[1], a.insts[0]);
}

TEST(Multihart, HaltedOnlyWhenEveryHartHalts)
{
    MachineConfig cfg;
    cfg.harts = 2;
    cfg.quantum = 50;
    Machine m(cfg);
    m.load(buildTwoHartProgram(3, 400));  // hart 0 halts in quantum 1
    startHart(m, 0, "h0_entry");
    startHart(m, 1, "h1_entry");

    MachineRunResult r = m.run(1'000'000);
    EXPECT_EQ(r.reason, StopReason::Halted);
    EXPECT_TRUE(m.hart(0).halted());
    EXPECT_TRUE(m.hart(1).halted());
    EXPECT_EQ(m.hart(1).reg(S0), 400u);
}

// ---------------------------------------------------------------------------
// Shared memory: one PhysMemory under every hart.
// ---------------------------------------------------------------------------

TEST(Multihart, StoreByOneHartIsVisibleToAnother)
{
    MachineConfig cfg;
    cfg.harts = 2;
    cfg.quantum = 50;
    cfg.cpu.cachesEnabled = true;  // per-hart caches, shared backing
    Machine m(cfg);

    Assembler a(kTestOrigin);
    a.label("writer");
    a.li(T0, 0x12345678);
    a.li(A0, kSharedWord);
    a.sw(T0, 0, A0);
    a.hcall(0);
    a.label("reader");
    a.li(A0, kSharedWord);
    a.lw(V0, 0, A0);
    a.nop();
    a.hcall(0);
    m.load(a.finalize());

    // Hart 0 is scheduled first, so its store retires before hart 1's
    // first load (which misses its own cold dcache and fills from the
    // shared physical memory).
    startHart(m, 0, "writer");
    startHart(m, 1, "reader");
    MachineRunResult r = m.run(1000);
    EXPECT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(m.hart(1).reg(V0), 0x12345678u);
    EXPECT_EQ(m.debugReadWord(kSharedWord), 0x12345678u);
}

// ---------------------------------------------------------------------------
// Breakpoints: per-hart, stable across quantum boundaries.
// ---------------------------------------------------------------------------

TEST(Multihart, BreakpointStopsOnlyTheOwningHart)
{
    MachineConfig cfg;
    cfg.harts = 2;
    cfg.quantum = 10;
    Machine m(cfg);
    // Both harts execute the same loop at the same addresses; the
    // breakpoint is registered on hart 1 alone, so hart 0 streams
    // through it.
    Assembler a(kTestOrigin);
    a.label("entry");
    a.li(S0, 0);
    a.li(T0, 50);
    a.label("loop");
    a.addiu(S0, S0, 1);
    a.label("bploc");
    a.addiu(T0, T0, -1);
    a.bne(T0, Zero, "loop");
    a.nop();
    a.hcall(0);
    m.load(a.finalize());
    startHart(m, 0, "entry");
    startHart(m, 1, "entry");

    Addr bp = m.symbol("bploc");
    m.hart(1).addBreakpoint(bp);

    MachineRunResult r = m.run(1'000'000);
    EXPECT_EQ(r.reason, StopReason::Breakpoint);
    EXPECT_EQ(r.hart, 1u);
    EXPECT_EQ(m.hart(1).pc(), bp);
    // Hart 0 ran its full first quantum before hart 1 was bound.
    EXPECT_EQ(m.hart(0).instret(), 10u);
    // The schedule position is preserved: the stopped hart resumes.
    EXPECT_EQ(m.currentHart(), 1u);

    // Resuming executes the breakpointed instruction and stops again
    // one loop iteration later.
    InstCount before = m.hart(1).instret();
    r = m.run(1'000'000);
    EXPECT_EQ(r.reason, StopReason::Breakpoint);
    EXPECT_EQ(r.hart, 1u);
    EXPECT_EQ(m.hart(1).pc(), bp);
    // One loop iteration: addiu t0, bne, delay-slot nop, addiu s0.
    EXPECT_EQ(m.hart(1).instret(), before + 4);

    m.hart(1).removeBreakpoint(bp);
    r = m.run(1'000'000);
    EXPECT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(m.hart(0).reg(S0), 50u);
    EXPECT_EQ(m.hart(1).reg(S0), 50u);
}

// ---------------------------------------------------------------------------
// Budget exhaustion: the total budget splits across quanta.
// ---------------------------------------------------------------------------

Program
spinProgram()
{
    Assembler a(kTestOrigin);
    a.label("spin");
    a.j("spin");
    a.nop();
    return a.finalize();
}

TEST(Multihart, InstLimitSplitsBudgetAcrossQuanta)
{
    MachineConfig cfg;
    cfg.harts = 2;
    cfg.quantum = 50;
    Machine m(cfg);
    m.load(spinProgram());
    startHart(m, 0, "spin");
    startHart(m, 1, "spin");

    // 75 = one full quantum for hart 0 plus a truncated 25-instruction
    // quantum for hart 1.
    MachineRunResult r = m.run(75);
    EXPECT_EQ(r.reason, StopReason::InstLimit);
    EXPECT_EQ(r.instsExecuted, 75u);
    EXPECT_EQ(m.hart(0).instret(), 50u);
    EXPECT_EQ(m.hart(1).instret(), 25u);

    // The next run continues the rotation deterministically.
    r = m.run(60);
    EXPECT_EQ(r.reason, StopReason::InstLimit);
    EXPECT_EQ(r.instsExecuted, 60u);
    EXPECT_EQ(m.hart(0).instret() + m.hart(1).instret(), 135u);
}

TEST(Multihart, InstLimitExactlyAtQuantumBoundary)
{
    MachineConfig cfg;
    cfg.harts = 2;
    cfg.quantum = 50;
    Machine m(cfg);
    m.load(spinProgram());
    startHart(m, 0, "spin");
    startHart(m, 1, "spin");

    MachineRunResult r = m.run(50);
    EXPECT_EQ(r.reason, StopReason::InstLimit);
    EXPECT_EQ(r.instsExecuted, 50u);
    EXPECT_EQ(m.hart(0).instret(), 50u);
    EXPECT_EQ(m.hart(1).instret(), 0u);
}

// ---------------------------------------------------------------------------
// Host stores invalidate predecoded pages (the page-version audit).
// ---------------------------------------------------------------------------

TEST(Multihart, DebugWriteWordInvalidatesPredecodedCode)
{
    MachineConfig cfg;
    cfg.cpu.fastInterpreter = true;
    Machine m(cfg);
    Assembler a(kTestOrigin);
    a.label("patch");
    a.addiu(V0, Zero, 5);
    a.hcall(0);
    m.load(a.finalize());
    m.hart(0).setPc(kTestOrigin);

    EXPECT_EQ(m.run(100).reason, StopReason::Halted);
    EXPECT_EQ(m.hart(0).reg(V0), 5u);  // page is now predecoded

    // Patch the immediate of the executed addiu through the host
    // debug interface; the page-version bump must force a redecode.
    Addr patch = m.symbol("patch");
    Word inst = m.debugReadWord(patch);
    m.debugWriteWord(patch, (inst & 0xffff0000u) | 7u);

    m.hart(0).clearHalt();
    m.hart(0).setPc(kTestOrigin);
    EXPECT_EQ(m.run(100).reason, StopReason::Halted);
    EXPECT_EQ(m.hart(0).reg(V0), 7u);
}

TEST(Multihart, ReloadOverExecutedCodeInvalidatesPredecodedCode)
{
    MachineConfig cfg;
    cfg.cpu.fastInterpreter = true;
    Machine m(cfg);

    auto image = [](Word value) {
        Assembler a(kTestOrigin);
        a.addiu(V0, Zero, static_cast<SWord>(value));
        a.hcall(0);
        return a.finalize();
    };

    m.load(image(5));
    m.hart(0).setPc(kTestOrigin);
    EXPECT_EQ(m.run(100).reason, StopReason::Halted);
    EXPECT_EQ(m.hart(0).reg(V0), 5u);

    // load() goes through PhysMemory::writeBlock, which bumps the
    // page versions of every page it touches.
    m.load(image(9));
    m.hart(0).clearHalt();
    m.hart(0).setPc(kTestOrigin);
    EXPECT_EQ(m.run(100).reason, StopReason::Halted);
    EXPECT_EQ(m.hart(0).reg(V0), 9u);
}

// ---------------------------------------------------------------------------
// TLB shootdown reaches every hart.
// ---------------------------------------------------------------------------

TEST(Multihart, InvalidateTlbsDropsTheMappingOnEveryHart)
{
    MachineConfig cfg;
    cfg.harts = 3;
    Machine m(cfg);
    constexpr Addr kVa = 0x00400000;
    constexpr unsigned kAsid = 5;
    for (unsigned i = 0; i < 3; i++)
        m.hart(i).tlb().setEntry(0,
                                 (kVa & entryhi::VpnMask) |
                                     (kAsid << entryhi::AsidShift),
                                 (0x00210000 & entrylo::PfnMask) |
                                     entrylo::V | entrylo::D);
    for (unsigned i = 0; i < 3; i++)
        EXPECT_TRUE(m.hart(i).tlb().entry(0).valid());

    m.invalidateTlbs(kVa, kAsid);
    for (unsigned i = 0; i < 3; i++)
        EXPECT_FALSE(m.hart(i).tlb().entry(0).valid());
}

// ---------------------------------------------------------------------------
// The multihart guest programs: per-hart counters under both
// delivery mechanisms.
// ---------------------------------------------------------------------------

struct GuestRig
{
    GuestRig(unsigned n, bool user_vectored, MachineConfig cfg = {})
    {
        cfg.harts = n;
        cfg.quantum = 100;
        cfg.cpu.userVectorHw = true;
        m = std::make_unique<Machine>(cfg);
        m->load(rt::multihart::buildKernelImage(n));
        Program worker = rt::multihart::buildWorkerProgram(n);
        constexpr Addr kWorkerPhys = 0x00210000;
        constexpr unsigned kAsid = 1;
        m->mem().writeBlock(kWorkerPhys, worker.words.data(),
                            4 * worker.words.size());
        for (unsigned i = 0; i < n; i++) {
            Hart &h = m->hart(i);
            h.tlb().setEntry(0,
                             (os::kUserTextBase & entryhi::VpnMask) |
                                 (kAsid << entryhi::AsidShift),
                             (kWorkerPhys & entrylo::PfnMask) |
                                 entrylo::V);
            Word st = h.cp0().statusReg() | status::KUc;
            if (user_vectored) {
                st |= status::UV;
                h.cp0().setUxReg(UxReg::Target,
                                 worker.symbol("mh_uv_handler"));
            }
            h.cp0().setStatusReg(st);
            h.cp0().write(cp0reg::EntryHi,
                          kAsid << entryhi::AsidShift);
            h.setPc(worker.symbol("mh_hart" + std::to_string(i) +
                                  "_entry"));
        }
    }

    std::unique_ptr<Machine> m;
};

TEST(Multihart, KernelMediatedGuestCountsPerHartExceptions)
{
    GuestRig rig(2, /*user_vectored=*/false);
    rig.m->run(4000);
    for (unsigned i = 0; i < 2; i++) {
        std::uint64_t delivered =
            rig.m->hart(i).stats().exceptionsTaken;
        Word counted = rig.m->debugReadWord(
            rig.m->symbol("mh_save") + i * os::hartsave::Bytes);
        EXPECT_GT(delivered, 0u) << "hart " << i;
        // The save-slot counter trails delivery by at most the
        // iteration in flight when the budget expired.
        EXPECT_GE(counted + 1, delivered) << "hart " << i;
        EXPECT_LE(counted, delivered) << "hart " << i;
    }
}

/**
 * The fast interpreter decodes a slot on its first fetch at each page
 * version, not the whole page. Every kernel-mediated exception stores
 * into the kernel's page (the per-hart save slot), so each one makes
 * the handler's slots stale; the exact decode count pins what a burst
 * of exceptions costs in decodes, a handful per exception where a
 * whole-page redecode would cost 1024.
 */
TEST(Multihart, KernelMediatedExceptionDecodesOnlyTheSlotsItRuns)
{
    constexpr unsigned kHarts = 4;
    MachineConfig cfg;
    cfg.cpu.fastInterpreter = true;
    // Serial, whatever UEXC_PARALLEL says: a barrier round that aborts
    // drops its harts' decoded pages, so the count is per scheduler.
    cfg.scheduler = SchedulerMode::Serial;
    GuestRig rig(kHarts, /*user_vectored=*/false, cfg);
    auto totals = [&rig] {
        std::pair<std::uint64_t, std::uint64_t> t{0, 0};
        for (unsigned i = 0; i < kHarts; i++) {
            t.first += rig.m->hart(i).stats().exceptionsTaken;
            t.second += rig.m->hart(i).fastDecodes();
        }
        return t;
    };
    rig.m->run(4000);  // warm: every page and slot seen once
    auto [exc0, dec0] = totals();
    rig.m->run(40000);
    auto [exc1, dec1] = totals();
    EXPECT_EQ(exc1 - exc0, 2220u);
    EXPECT_EQ(dec1 - dec0, 31108u);
    EXPECT_LE(dec1 - dec0, 32 * (exc1 - exc0));
}

TEST(Multihart, UserVectoredGuestNeverEntersTheKernel)
{
    GuestRig rig(2, /*user_vectored=*/true);
    rig.m->run(4000);
    for (unsigned i = 0; i < 2; i++) {
        const CpuStats &s = rig.m->hart(i).stats();
        EXPECT_GT(s.userVectoredExceptions, 0u) << "hart " << i;
        // Every exception vectored to the user handler; none entered
        // the kernel, so its per-hart counter never moved.
        EXPECT_EQ(s.exceptionsTaken, s.userVectoredExceptions)
            << "hart " << i;
        EXPECT_EQ(rig.m->debugReadWord(rig.m->symbol("mh_save") +
                                       i * os::hartsave::Bytes),
                  0u)
            << "hart " << i;
        Word counted = rig.m->hart(i).reg(S0);
        EXPECT_GE(counted + 1, s.userVectoredExceptions)
            << "hart " << i;
    }
}

// ---------------------------------------------------------------------------
// Kernel save areas: one per hart, disjoint.
// ---------------------------------------------------------------------------

TEST(Multihart, KernelAllocatesDisjointPerHartSaveAreas)
{
    MachineConfig cfg;
    cfg.harts = 4;
    Machine m(cfg);
    os::Kernel kernel(m);
    kernel.boot();
    for (unsigned i = 0; i + 1 < 4; i++)
        EXPECT_GE(kernel.hartSaveKva(i + 1),
                  kernel.hartSaveKva(i) + os::hartsave::Bytes);
}

} // namespace
} // namespace uexc::sim
