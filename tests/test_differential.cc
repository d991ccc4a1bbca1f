/**
 * @file
 * Differential execution tests: every guest program is run twice, on
 * a reference machine (per-instruction interpreter) and on a machine
 * with the predecoded fast interpreter enabled, and the complete
 * architectural state — registers, HI/LO, PC/NPC, CP0, TLB, physical
 * memory — plus every statistic (instruction/cycle/branch/exception
 * counters, TLB lookup/miss counts, phase profiles) must come out
 * bit-identical. The fast path is an optimization, never a semantic.
 *
 * The cases deliberately stress the fast path's invalidation edges:
 * self-modifying code, exceptions in the middle of a decoded block,
 * faults in branch delay slots, TLB rewrites, user/kernel transitions
 * and the cache-modeled paper configuration.
 */

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "core/microbench.h"
#include "sim_test_util.h"

namespace uexc::sim {
namespace {

using testutil::BareMachine;
using testutil::kTestOrigin;

MachineConfig
smallConfig(bool fast)
{
    MachineConfig config;
    config.memBytes = 1 << 20;
    config.cpu.fastInterpreter = fast;
    return config;
}

/** Compare every architectural register, statistic and memory word. */
void
expectIdenticalState(Machine &ref, Machine &fst)
{
    const Cpu &rc = ref.cpu();
    const Cpu &fc = fst.cpu();

    for (unsigned r = 0; r < NumRegs; r++)
        EXPECT_EQ(rc.reg(r), fc.reg(r)) << "GPR " << regName(r);
    EXPECT_EQ(rc.hi(), fc.hi());
    EXPECT_EQ(rc.lo(), fc.lo());
    EXPECT_EQ(rc.pc(), fc.pc());
    EXPECT_EQ(rc.npc(), fc.npc());

    static const unsigned cp0_regs[] = {
        cp0reg::Index, cp0reg::Random, cp0reg::EntryLo, cp0reg::Context,
        cp0reg::BadVAddr, cp0reg::EntryHi, cp0reg::Status, cp0reg::Cause,
        cp0reg::Epc,
    };
    for (unsigned r : cp0_regs)
        EXPECT_EQ(rc.cp0().read(r), fc.cp0().read(r)) << "CP0 reg " << r;

    for (unsigned i = 0; i < Tlb::NumEntries; i++) {
        EXPECT_EQ(rc.tlb().entry(i).hi, fc.tlb().entry(i).hi)
            << "TLB entry " << i << " hi";
        EXPECT_EQ(rc.tlb().entry(i).lo, fc.tlb().entry(i).lo)
            << "TLB entry " << i << " lo";
    }

    const CpuStats &rs = rc.stats();
    const CpuStats &fs = fc.stats();
    EXPECT_EQ(rs.instructions, fs.instructions);
    EXPECT_EQ(rs.cycles, fs.cycles);
    EXPECT_EQ(rs.loads, fs.loads);
    EXPECT_EQ(rs.stores, fs.stores);
    EXPECT_EQ(rs.branches, fs.branches);
    EXPECT_EQ(rs.exceptionsTaken, fs.exceptionsTaken);
    EXPECT_EQ(rs.tlbRefillFaults, fs.tlbRefillFaults);
    EXPECT_EQ(rs.userVectoredExceptions, fs.userVectoredExceptions);
    for (unsigned c = 0; c < NumExcCodes; c++)
        EXPECT_EQ(rs.perExcCode[c], fs.perExcCode[c]) << "exc code " << c;

    EXPECT_EQ(rc.tlb().stats().lookups, fc.tlb().stats().lookups);
    EXPECT_EQ(rc.tlb().stats().misses, fc.tlb().stats().misses);

    ASSERT_EQ(ref.mem().size(), fst.mem().size());
    std::vector<Word> rmem(ref.mem().size() / 4);
    std::vector<Word> fmem(fst.mem().size() / 4);
    ref.mem().readBlock(0, rmem.data(), ref.mem().size());
    fst.mem().readBlock(0, fmem.data(), fst.mem().size());
    unsigned reported = 0;
    for (std::size_t i = 0; i < rmem.size() && reported < 8; i++) {
        if (rmem[i] != fmem[i]) {
            ADD_FAILURE() << "memory differs at paddr 0x" << std::hex
                          << (i * 4) << ": ref 0x" << rmem[i]
                          << " fast 0x" << fmem[i];
            reported++;
        }
    }
}

/** A reference machine and a fast-interpreter machine run in lockstep. */
struct DiffPair
{
    explicit DiffPair(const MachineConfig &ref_config = smallConfig(false),
                      const MachineConfig &fast_config = smallConfig(true))
        : ref(ref_config), fst(fast_config)
    {
    }

    void load(const std::function<void(Assembler &)> &body)
    {
        ref.loadAsm(body);
        fst.loadAsm(body);
    }

    /** Apply identical host-side setup (mappings, mode, ...) to both. */
    void setup(const std::function<void(Machine &)> &fn)
    {
        fn(ref.machine);
        fn(fst.machine);
    }

    void run(InstCount max_insts = 1'000'000)
    {
        RunResult r = ref.cpu().run(max_insts);
        RunResult f = fst.cpu().run(max_insts);
        EXPECT_EQ(static_cast<int>(r.reason), static_cast<int>(f.reason));
        EXPECT_EQ(r.instsExecuted, f.instsExecuted);
        expectIdenticalState(ref.machine, fst.machine);
    }

    BareMachine ref;
    BareMachine fst;
};

/**
 * Install a skip-the-faulting-instruction handler at both exception
 * vectors, so programs can take exceptions mid-stream and continue.
 */
void
installSkipHandlers(Machine &m)
{
    for (Addr vector : {Cpu::RefillVector, Cpu::GeneralVector}) {
        Assembler a(vector);
        a.mfc0(K0, cp0reg::Epc);
        a.addiu(K0, K0, 4);
        a.jr(K0);
        a.rfe();  // delay slot
        m.load(a.finalize());
    }
}

TEST(Differential, TightAluLoop)
{
    DiffPair d;
    d.load([](Assembler &a) {
        a.li32(T1, 5000);
        a.label("loop");
        a.addiu(T0, T0, 3);
        a.xor_(T2, T0, T1);
        a.addiu(T1, T1, -1);
        a.bne(T1, Zero, "loop");
        a.sltu(T3, T1, T0);  // delay slot
        a.hcall(0);
    });
    d.run();
}

TEST(Differential, MixedAluMultDivShifts)
{
    DiffPair d;
    d.load([](Assembler &a) {
        a.li32(T0, 0x80000000u);
        a.li32(T1, 0xffffffffu);
        a.div(T0, T1);       // INT_MIN / -1 wrap case
        a.mfhi(T2);
        a.mflo(T3);
        a.divu(T0, Zero);    // divide by zero, defined result
        a.mfhi(T4);
        a.mflo(T5);
        a.mult(T0, T1);
        a.mfhi(T6);
        a.mflo(T7);
        a.li32(A0, 123456789);
        a.sra(A1, A0, 7);
        a.srlv(A2, A0, T0);
        a.slti(A3, A0, -5);
        a.lui(V0, 0xbeef);
        a.nor(V1, A0, A1);
        a.hcall(0);
    });
    d.run();
}

TEST(Differential, SelfModifyingCodeSamePage)
{
    // The program overwrites an instruction a few words ahead of the
    // PC, inside the page (and decoded block) currently executing.
    // The fast interpreter must notice the page-version bump and
    // re-decode; both modes must retire the *new* instruction.
    DiffPair d;
    d.load([](Assembler &a) {
        a.li32(T0, enc::addiu(V0, V0, 7));  // replacement instruction
        a.li32(T1, kTestOrigin);
        a.lwLo(T2, "patch", T1);   // not needed; keep addresses simple
        a.swLo(T0, "patch", T1);   // patch the slot below
        a.label("patch");
        a.addiu(V0, V0, 1);        // replaced by addiu v0, v0, 7
        a.addiu(V0, V0, 100);
        a.hcall(0);
    });
    d.run();
    EXPECT_EQ(d.ref.cpu().reg(V0), 107u);
    EXPECT_EQ(d.fst.cpu().reg(V0), 107u);
}

TEST(Differential, SelfModifyingCodeBackwardLoop)
{
    // A loop whose body is patched on a later iteration: the patch
    // targets an *earlier* address the fast path already has decoded.
    DiffPair d;
    d.load([](Assembler &a) {
        a.li32(T1, 4);                       // iterations
        a.li32(T0, enc::addiu(V0, V0, 50));
        a.li32(T3, kTestOrigin);
        a.label("loop");
        a.addiu(V0, V0, 1);                  // patched mid-run
        a.label("after");
        a.addiu(T1, T1, -1);
        a.swLo(T0, "loop", T3);              // patch the loop body
        a.bne(T1, Zero, "loop");
        a.nop();
        a.hcall(0);
    });
    d.run();
    // iteration 1 runs the original +1, the store then rewrites it,
    // so iterations 2..4 run +50
    EXPECT_EQ(d.ref.cpu().reg(V0), 151u);
    EXPECT_EQ(d.fst.cpu().reg(V0), 151u);
}

// -- lazy decode: a slot is decoded on its first fetch at each page
// -- version, so every way of making a decoded slot stale must make the
// -- fast interpreter decode it again before it runs it

TEST(Differential, LazyDecodeStoreRewritesAStaleUnfetchedSlot)
{
    // "sub" is decoded by the first call. A store to a data word of
    // the running page then moves the page version, and a second store
    // rewrites sub's first slot while no fetch has touched it since:
    // the second call must decode the slot again.
    DiffPair d;
    d.load([](Assembler &a) {
        a.li32(T3, kTestOrigin);
        a.li32(T0, enc::addiu(V0, V0, 50));
        a.jal("sub");
        a.nop();
        a.swLo(T3, "data", T3);
        a.swLo(T0, "sub", T3);
        a.jal("sub");
        a.nop();
        a.hcall(0);
        a.label("sub");
        a.addiu(V0, V0, 1);
        a.jr(RA);
        a.nop();
        a.label("data");
        a.word(0);
    });
    d.run();
    EXPECT_EQ(d.ref.cpu().reg(V0), 51u);
    EXPECT_EQ(d.fst.cpu().reg(V0), 51u);
}

TEST(Differential, LazyDecodeStoreRewritesADecodedSlotAndBranchesBack)
{
    // Each iteration rewrites the slot it has just run, with a new
    // immediate every time, and branches back to it: the slot is
    // decoded, made stale and decoded again on every pass.
    DiffPair d;
    d.load([](Assembler &a) {
        a.li32(T1, 4);
        a.li32(T3, kTestOrigin);
        a.li32(T0, enc::addiu(V0, V0, 50));
        a.label("loop");
        a.label("patch");
        a.addiu(V0, V0, 1);
        a.swLo(T0, "patch", T3);
        a.addiu(T0, T0, 1);  // the next immediate
        a.addiu(T1, T1, -1);
        a.bne(T1, Zero, "loop");
        a.nop();
        a.hcall(0);
    });
    d.run();
    EXPECT_EQ(d.ref.cpu().reg(V0), 1u + 50 + 51 + 52);
    EXPECT_EQ(d.fst.cpu().reg(V0), 1u + 50 + 51 + 52);
}

TEST(Differential, LazyDecodeDebugWriteBetweenRuns)
{
    // The first run stops mid-loop with the loop body decoded; the
    // host then rewrites a body slot through debugWriteWord.
    auto body = [](Assembler &a) {
        a.li32(T1, 100);
        a.label("loop");
        a.label("patch");
        a.addiu(V0, V0, 1);
        a.addiu(T1, T1, -1);
        a.bne(T1, Zero, "loop");
        a.nop();
        a.hcall(0);
    };
    DiffPair d;
    Program p = d.ref.loadAsm(body);
    d.fst.loadAsm(body);
    d.run(2 + 4 * 10);  // li32 and ten iterations
    ASSERT_FALSE(d.fst.cpu().halted());
    d.setup([&](Machine &m) {
        m.debugWriteWord(p.symbol("patch"), enc::addiu(V0, V0, 7));
    });
    d.run();
    EXPECT_EQ(d.ref.cpu().reg(V0), 10u + 7 * 90);
    EXPECT_EQ(d.fst.cpu().reg(V0), 10u + 7 * 90);
}

TEST(Differential, LazyDecodeRestoreOverADirtyTwin)
{
    // Each machine checkpoints one program, then loads and runs
    // another over the same page (its harts decode that one), and
    // restores the checkpoint: the restored program must run.
    auto body = [](SWord step) {
        return [step](Assembler &a) {
            a.li32(T1, 20);
            a.label("loop");
            a.addiu(V0, V0, step);
            a.addiu(T1, T1, -1);
            a.bne(T1, Zero, "loop");
            a.nop();
            a.hcall(0);
        };
    };
    DiffPair d;
    d.load(body(3));
    std::vector<Byte> ref_image = d.ref.machine.checkpoint();
    std::vector<Byte> fast_image = d.fst.machine.checkpoint();
    d.load(body(5));
    d.run();
    EXPECT_EQ(d.fst.cpu().reg(V0), 100u);
    d.ref.machine.restore(ref_image);
    d.fst.machine.restore(fast_image);
    d.run();
    EXPECT_EQ(d.ref.cpu().reg(V0), 60u);
    EXPECT_EQ(d.fst.cpu().reg(V0), 60u);
}

TEST(Differential, MidBlockException)
{
    // A TLB refill fault from a kuseg load in the middle of a
    // straight-line block; the skip handler resumes after it.
    DiffPair d;
    d.setup(installSkipHandlers);
    d.load([](Assembler &a) {
        a.addiu(V0, V0, 1);
        a.addiu(V0, V0, 2);
        a.lw(T0, 0, Zero);     // kuseg vaddr 0: refill fault
        a.addiu(V0, V0, 4);
        a.addiu(V0, V0, 8);
        a.hcall(0);
    });
    d.run();
    EXPECT_EQ(d.ref.cpu().reg(V0), 15u);
    EXPECT_EQ(d.ref.cpu().stats().tlbRefillFaults, 1u);
}

TEST(Differential, OverflowExceptionMidBlock)
{
    DiffPair d;
    d.setup(installSkipHandlers);
    d.load([](Assembler &a) {
        a.li32(T0, 0x7fffffffu);
        a.addiu(V0, V0, 1);
        a.add(T1, T0, T0);     // signed overflow -> Ov exception
        a.addiu(V0, V0, 2);
        a.hcall(0);
    });
    d.run();
    EXPECT_EQ(d.ref.cpu().reg(V0), 3u);
    EXPECT_EQ(d.ref.cpu().stats().exceptionsTaken, 1u);
}

TEST(Differential, BranchDelaySlotFault)
{
    // The delay slot of a taken branch faults: EPC must point at the
    // branch (BD set) and both modes must agree. The skip handler
    // resumes at EPC + 4 — the delay slot — which then re-executes as
    // a standalone instruction, faults with its own EPC, and the
    // second skip lands past it; the branch redirect is lost, which
    // is precisely the subtle trajectory both interpreters must share.
    DiffPair d;
    d.setup(installSkipHandlers);
    d.load([](Assembler &a) {
        a.li32(T0, 0x00001000u);   // kuseg address, unmapped
        a.li32(T1, kTestOrigin);   // valid kseg0 address
        a.addiu(V0, V0, 1);
        a.beq(Zero, Zero, "out");
        a.lw(T2, 0, T0);           // delay slot: refill fault
        a.label("out");
        a.addiu(V0, V0, 2);
        a.hcall(0);
    });
    d.run();
    // the handler resumes at branch+4 (the delay slot), which faults
    // again ad infinitum unless the skip lands past it; either way
    // both interpreters must do exactly the same thing for a bounded
    // instruction budget
}

TEST(Differential, JumpToUnalignedAddress)
{
    DiffPair d;
    d.setup(installSkipHandlers);
    d.load([](Assembler &a) {
        a.li32(T0, kTestOrigin + 0x22);  // unaligned target
        a.jr(T0);
        a.nop();
        a.hcall(0);
    });
    // AdEL on fetch; the skip handler "resumes" at epc+4 which is
    // also unaligned, so this loops taking exceptions — run a fixed
    // budget and require identical trajectories.
    d.run(2000);
}

TEST(Differential, TlbWriteAndRemapSequence)
{
    // Kernel-mode code maps a kuseg page via mtc0/tlbwi, stores
    // through it, remaps the same VPN to a different frame, and reads
    // back — exercising micro-TLB invalidation on TLB writes.
    constexpr Addr kVa = 0x00400000u;
    constexpr Addr kPa1 = 0x00080000u;
    constexpr Addr kPa2 = 0x000a0000u;
    DiffPair d;
    d.load([](Assembler &a) {
        // entryhi = VPN | asid 0; entrylo = PFN | V | D
        a.li32(T0, kVa);
        a.li32(T1, kPa1 | entrylo::V | entrylo::D);
        a.mtc0(T0, cp0reg::EntryHi);
        a.mtc0(T1, cp0reg::EntryLo);
        a.li32(T2, 9u << 8);       // index 9 (not wired), bits [13:8]
        a.mtc0(T2, cp0reg::Index);
        a.tlbwi();
        a.li32(T3, kVa);
        a.li32(T4, 0xdeadbeefu);
        a.sw(T4, 0, T3);
        a.lw(T5, 0, T3);           // hits micro-dTLB
        // remap the same VPN to frame 2
        a.li32(T1, kPa2 | entrylo::V | entrylo::D);
        a.mtc0(T1, cp0reg::EntryLo);
        a.tlbwi();
        a.lw(T6, 0, T3);           // must see frame 2 (zeroes)
        a.sw(T5, 4, T3);
        a.hcall(0);
    });
    d.run();
    EXPECT_EQ(d.ref.cpu().reg(T5), 0xdeadbeefu);
    EXPECT_EQ(d.ref.cpu().reg(T6), 0u);
}

TEST(Differential, UserModeExecutionWithAsid)
{
    // User-mode code fetched through the TLB: exercises the fetch
    // cache's (VPN, ASID, mode) key. Runs a fixed budget.
    constexpr Addr kUserCode = 0x00010000u;
    constexpr Addr kCodePhys = 0x00040000u;
    constexpr unsigned kAsid = 5;
    Program prog;
    {
        Assembler a(kUserCode);
        a.label("loop");
        a.addiu(T0, T0, 1);
        a.bne(T0, T1, "loop");
        a.addiu(T2, T2, 2);
        a.j("loop");
        a.nop();
        prog = a.finalize();
    }
    DiffPair d;
    d.setup([&](Machine &m) {
        for (Word i = 0; i < prog.words.size(); i++)
            m.mem().writeWord(kCodePhys + 4 * i, prog.words[i]);
        testutil::mapPage(m, kUserCode, kCodePhys, kAsid, 1, false);
        testutil::enterUserMode(m, kAsid);
        m.cpu().setPc(kUserCode);
    });
    d.run(50'000);
}

TEST(Differential, CacheModeledConfigIdenticalCycles)
{
    // The paper configuration models I/D caches; hit/miss charging
    // must be identical in both interpreters.
    MachineConfig ref_config = rt::micro::paperMachineConfig();
    ref_config.memBytes = 1 << 20;
    ref_config.cpu.fastInterpreter = false;
    MachineConfig fast_config = ref_config;
    fast_config.cpu.fastInterpreter = true;
    DiffPair d(ref_config, fast_config);
    d.load([](Assembler &a) {
        a.li32(T1, 200);
        a.li32(T3, kTestOrigin + 0x800);
        a.label("loop");
        a.sw(T1, 0, T3);
        a.lw(T4, 0, T3);
        a.addiu(T3, T3, 4);
        a.addiu(T1, T1, -1);
        a.bne(T1, Zero, "loop");
        a.nop();
        a.hcall(0);
    });
    d.run();
}

/**
 * Stop PCs end a run at the same instruction on both interpreters: a
 * page's first word, the middle of the page, and a branch delay slot,
 * all on the page a hot loop spends most of its time in. Every stop
 * is resumed with a fresh run(), so the fast interpreter alternates
 * between one-instruction blocks on the stop page and whole blocks on
 * the loop's other page; each run must end with identical state,
 * cycles and statistics.
 */
TEST(Differential, StopPcsInAHotLoop)
{
    constexpr Addr kStopPage = kTestOrigin + 0x1000;
    constexpr unsigned kIterations = 40;
    auto body = [](Assembler &a) {
        a.li32(T1, kIterations);
        a.li32(A0, kTestOrigin + 0x2000);    // a data word
        a.j("loop");
        a.nop();
        a.space(kStopPage - 16 - a.here());  // zero words are nops
        a.label("loop");                     // last words of page 0
        a.addiu(T0, T0, 3);
        a.xor_(T2, T0, T1);
        a.mult(T0, T2);
        a.mflo(T3);
        a.label("first");                    // kStopPage
        a.addu(V0, V0, T3);
        a.sw(V0, 0, A0);
        a.j("middle");
        a.nop();
        a.space(kStopPage + 0x800 - a.here());
        a.label("middle");
        a.lw(T4, 0, A0);
        a.addiu(T1, T1, -1);
        a.bne(T1, Zero, "loop");
        a.label("slot");
        a.addu(V1, V1, T4);                  // delay slot
        a.hcall(0);
    };

    MachineConfig paper = rt::micro::paperMachineConfig();
    paper.memBytes = 1 << 20;
    paper.cpu.fastInterpreter = false;
    MachineConfig paper_fast = paper;
    paper_fast.cpu.fastInterpreter = true;
    for (auto [ref_config, fast_config] :
         {std::pair{smallConfig(false), smallConfig(true)},
          std::pair{paper, paper_fast}}) {
        DiffPair d(ref_config, fast_config);
        Program p = d.ref.loadAsm(body);
        d.fst.loadAsm(body);
        const Addr stops[] = {p.symbol("first"), p.symbol("middle"),
                              p.symbol("slot")};
        ASSERT_EQ(stops[0], kStopPage);
        ASSERT_EQ(stops[1], kStopPage + 0x800);
        for (Addr stop : stops) {
            d.ref.cpu().addBreakpoint(stop);
            d.fst.cpu().addBreakpoint(stop);
        }

        unsigned hits = 0;
        while (!d.ref.cpu().halted() && hits <= 3 * kIterations) {
            d.run();
            if (d.ref.cpu().halted())
                break;
            EXPECT_EQ(d.ref.cpu().pc(), stops[hits % 3]) << "stop " << hits;
            EXPECT_EQ(d.ref.cpu().hart().inDelaySlot(), hits % 3 == 2);
            hits++;
        }
        EXPECT_EQ(hits, 3 * kIterations);
        EXPECT_TRUE(d.fst.cpu().halted());
    }
}

TEST(Differential, MicrobenchTimingsIdentical)
{
    // The paper's scenario measurements (Tables 1/2) must not depend
    // on the interpreter implementation.
    using rt::micro::Scenario;
    MachineConfig ref_config = rt::micro::paperMachineConfig();
    MachineConfig fast_config = ref_config;
    fast_config.cpu.fastInterpreter = true;
    for (Scenario s : {Scenario::FastSimple, Scenario::FastWriteProt,
                       Scenario::HwVectorSimple, Scenario::NullSyscall}) {
        rt::micro::Timing ref_t = rt::micro::measure(s, ref_config);
        rt::micro::Timing fast_t = rt::micro::measure(s, fast_config);
        EXPECT_EQ(ref_t.deliverCycles, fast_t.deliverCycles)
            << "scenario " << static_cast<int>(s);
        EXPECT_EQ(ref_t.returnCycles, fast_t.returnCycles)
            << "scenario " << static_cast<int>(s);
        EXPECT_EQ(ref_t.roundTripCycles, fast_t.roundTripCycles)
            << "scenario " << static_cast<int>(s);
        EXPECT_EQ(ref_t.kernelInsts, fast_t.kernelInsts)
            << "scenario " << static_cast<int>(s);
    }
}

TEST(Differential, FastPathPhaseStatsIdentical)
{
    // Table 3 phase attribution runs with an instruction observer
    // installed; the fast interpreter must deliver the identical
    // per-phase instruction and cycle counts.
    MachineConfig ref_config = rt::micro::paperMachineConfig();
    MachineConfig fast_config = ref_config;
    fast_config.cpu.fastInterpreter = true;
    auto ref_phases = rt::micro::profileFastPath(ref_config);
    auto fast_phases = rt::micro::profileFastPath(fast_config);
    ASSERT_EQ(ref_phases.size(), fast_phases.size());
    for (std::size_t i = 0; i < ref_phases.size(); i++) {
        EXPECT_EQ(ref_phases[i].name, fast_phases[i].name);
        EXPECT_EQ(ref_phases[i].instructions, fast_phases[i].instructions)
            << "phase " << ref_phases[i].name;
        EXPECT_EQ(ref_phases[i].cycles, fast_phases[i].cycles)
            << "phase " << ref_phases[i].name;
    }
}

} // namespace
} // namespace uexc::sim
