/**
 * @file
 * Lockstep equivalence suite for the host-parallel scheduler
 * (machine.h SchedulerMode). The Barrier scheduler's contract is that
 * running every quantum on its own host thread is *observably
 * indistinguishable* from the serial round-robin reference — final
 * architectural state, cycle and instruction counters, delivery
 * statistics, stop reason, and the full checkpoint image are
 * bit-identical. This file enforces that contract three ways:
 *
 *   1. the 1000-seed differential fuzz corpus (the same generator the
 *      cross-interpreter suite uses), replayed on {1,4,8}-hart
 *      machines with all harts racing through the same program — a
 *      conflict storm that exercises the speculative-round rollback
 *      path constantly;
 *   2. the multihart delivery study (user-vectored and
 *      kernel-mediated), where rounds genuinely commit in parallel
 *      because each hart touches only per-hart state;
 *   3. a shared-counter ping-pong designed so every speculative round
 *      aborts, proving rollback restores the serial schedule exactly.
 *
 * The oracle is Machine::checkpoint() byte-equality: the image holds
 * every hart's architectural context, physical memory, and the
 * scheduler position, and SchedulerMode is deliberately excluded from
 * the config echo — so a serial and a barrier machine that executed
 * the same schedule produce the same bytes.
 *
 * The UEXC_PARALLEL resolution tests close the file. Run this binary
 * under TSan (cmake -DUEXC_TSAN=ON) to check the synchronization
 * itself.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/conflict.h"
#include "common/logging.h"
#include "core/multihart.h"
#include "fuzz_util.h"
#include "os/kernel.h"
#include "os/layout.h"
#include "sim/faultinject.h"
#include "sim_test_util.h"

namespace uexc::sim {
namespace {

using namespace fuzzutil;

constexpr InstCount kSmallQuantum = 256;

/** Byte-compare two machines' checkpoint images; on mismatch report
 *  the first differing offset (the snapshot section layout makes the
 *  offset enough to tell which hart or page diverged). */
void
expectSameImage(Machine &serial, Machine &parallel,
                const std::string &what)
{
    std::vector<Byte> a = serial.checkpoint();
    std::vector<Byte> b = parallel.checkpoint();
    ASSERT_EQ(a.size(), b.size()) << what << ": image sizes differ";
    for (std::size_t i = 0; i < a.size(); i++) {
        if (a[i] != b[i]) {
            ADD_FAILURE() << what << ": images differ at offset " << i
                          << " (serial 0x" << std::hex << unsigned(a[i])
                          << " vs parallel 0x" << unsigned(b[i]) << ")";
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// 1. Fuzz corpus: serial vs barrier on racing multi-hart machines.
// ---------------------------------------------------------------------------

/** One corpus seed: N harts all start the same random program at the
 *  same PC on a serial and on a barrier machine; everything observable
 *  must match. Hart count and interpreter flavour are derived from
 *  the seed so the corpus covers the whole matrix. */
void
runFuzzSeedSerialVsBarrier(unsigned seed)
{
    SCOPED_TRACE(::testing::Message() << "fuzz seed " << seed);

    static const unsigned kHartChoices[] = {1, 4, 8};
    MachineConfig cfg;
    cfg.memBytes = 1 << 18;
    cfg.harts = kHartChoices[seed % 3];
    cfg.quantum = kSmallQuantum;
    cfg.cpu.fastInterpreter = (seed & 1) != 0;
    cfg.scheduler = SchedulerMode::Serial;
    MachineConfig bar_cfg = cfg;
    bar_cfg.scheduler = SchedulerMode::Barrier;

    Machine serial(cfg), barrier(bar_cfg);
    Program prog = buildFuzzProgram(seed);
    for (Machine *m : {&serial, &barrier}) {
        installFuzzSkipHandlers(*m);
        m->load(prog);
        for (unsigned i = 0; i < cfg.harts; i++)
            m->hart(i).setPc(testutil::kTestOrigin);
    }

    InstCount budget = InstCount(cfg.harts) * kFuzzInstLimit;
    MachineRunResult rs = serial.run(budget);
    MachineRunResult rb = barrier.run(budget);

    EXPECT_EQ(int(rs.reason), int(rb.reason));
    EXPECT_EQ(rs.instsExecuted, rb.instsExecuted);
    EXPECT_EQ(rs.hart, rb.hart);
    expectSameImage(serial, barrier,
                    "seed " + std::to_string(seed));
}

constexpr unsigned kShards = 8;
constexpr unsigned kSeedsPerShard = 125; // the full 1000-seed corpus

class ParallelFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelFuzz, SerialAndBarrierSchedulesAreBitIdentical)
{
    const unsigned base = GetParam() * kSeedsPerShard;
    for (unsigned s = 0; s < kSeedsPerShard; s++) {
        runFuzzSeedSerialVsBarrier(base + s);
        if (::testing::Test::HasNonfatalFailure())
            break; // the failing seed is in the trace; stop the shard
    }
}

INSTANTIATE_TEST_SUITE_P(Shards, ParallelFuzz,
                         ::testing::Range(0u, kShards));

// ---------------------------------------------------------------------------
// 1b. Soundness oracle for the static shared-page analyzer
//     (analysis/conflict.h): over the same 1000-seed corpus, every
//     page set a barrier round's StoreBuffer observes must sit inside
//     the statically computed may-sets, and every page that could
//     have aborted a round must be in the static predicted conflict
//     set. This is the containment half of the analyzer's contract;
//     precision (no spurious pages) is test_analysis.cc's job.
// ---------------------------------------------------------------------------

/** Translate a fuzz-program virtual address to the physical page the
 *  StoreBuffer would record: kseg0 is identity minus the segment
 *  base, and the one kuseg page the corpus maps (kMapVa) goes to its
 *  fixed frame. */
Word
fuzzPhysPage(Addr va)
{
    if (va >= 0x80000000u)
        return (va - 0x80000000u) >> PhysMemory::PageShift;
    if (va >= kMapVa && va < kMapVa + PhysMemory::PageBytes)
        return kMapFrame >> PhysMemory::PageShift;
    return va >> PhysMemory::PageShift;
}

/** Static may-read/may-write/may-fetch sets of one fuzz hart: the
 *  generated program (every hart runs the same image from the same
 *  PC) plus the two skip handlers, in physical pages so they compare
 *  directly against StoreBuffer observations. */
analysis::PageAccessSummary
staticFuzzMaySets(const Program &prog)
{
    analysis::PageAccessOptions opts;
    opts.pageOf = fuzzPhysPage;

    analysis::CodeRegion region;
    region.begin = prog.origin;
    region.end = prog.end();
    region.entries = {prog.origin};
    region.dataRanges.push_back({prog.symbol("buf"), prog.end()});

    analysis::PageAccessSummary sum =
        analysis::analyzePageAccesses(prog, region, opts);

    // The skip handlers (installFuzzSkipHandlers) are separate images
    // entered asynchronously by the vectoring hardware.
    for (Addr vector : {Cpu::RefillVector, Cpu::GeneralVector}) {
        Assembler a(vector);
        a.mfc0(K0, cp0reg::Epc);
        a.addiu(K0, K0, 4);
        a.jr(K0);
        a.rfe(); // delay slot
        Program h = a.finalize();
        analysis::CodeRegion hr;
        hr.begin = h.origin;
        hr.end = h.end();
        hr.entries = {h.origin};
        analysis::mergeSummaries(
            sum, analysis::analyzePageAccesses(h, hr, opts));
    }
    return sum;
}

/** One corpus seed: run the barrier machine with a PageTouchLog
 *  attached and hold every observed round inside the static result.
 *  Returns the number of speculative rounds observed so the shard
 *  can prove the oracle is not vacuous. */
std::size_t
runFuzzSeedSoundnessOracle(unsigned seed)
{
    SCOPED_TRACE(::testing::Message() << "oracle seed " << seed);

    static const unsigned kHartChoices[] = {1, 4, 8};
    MachineConfig cfg;
    cfg.memBytes = 1 << 18;
    cfg.harts = kHartChoices[seed % 3];
    cfg.quantum = kSmallQuantum;
    cfg.cpu.fastInterpreter = (seed & 1) != 0;
    cfg.scheduler = SchedulerMode::Barrier;

    Machine m(cfg);
    Program prog = buildFuzzProgram(seed);
    installFuzzSkipHandlers(m);
    m.load(prog);
    for (unsigned i = 0; i < cfg.harts; i++)
        m.hart(i).setPc(testutil::kTestOrigin);

    PageTouchLog log;
    m.setPageTouchLog(&log);
    m.run(InstCount(cfg.harts) * kFuzzInstLimit);

    analysis::PageAccessSummary may = staticFuzzMaySets(prog);
    // Every address in the corpus is computable (constant bases), so
    // a non-empty unbounded list is an analyzer precision regression
    // — and would make the containment checks below vacuous.
    if (!may.unboundedLoads.empty() || !may.unboundedStores.empty()) {
        ADD_FAILURE() << "VSA failed to resolve a fuzz memory "
                         "address; the containment check would be "
                         "vacuous";
        return log.rounds.size();
    }

    analysis::ConflictResult predicted = analysis::intersectSummaries(
        std::vector<analysis::PageAccessSummary>(cfg.harts, may));

    auto contained = [](const std::unordered_set<Addr> &observed,
                        const std::set<Word> &mayset,
                        const char *what) {
        for (Addr p : observed)
            EXPECT_TRUE(mayset.count(Word(p)))
                << what << " page 0x" << std::hex << p
                << " observed but absent from the static may-set";
    };

    for (std::size_t r = 0; r < log.rounds.size(); r++) {
        const PageTouchLog::Round &round = log.rounds[r];
        SCOPED_TRACE(::testing::Message() << "round " << r);

        std::set<Word> dynConflicts;
        bool anySelfAbort = false;
        for (std::size_t j = 0; j < round.harts.size(); j++) {
            const PageTouchLog::HartTouches &t = round.harts[j];
            contained(t.readPages, may.readPages, "read");
            contained(t.writePages, may.writePages, "write");
            contained(t.fetchPages, may.fetchPages, "fetch");
            anySelfAbort |= t.selfAborted;

            // Reconstruct the abort predicate in serial round order:
            // earlier writers against this hart's reads and fetches,
            // plus this hart's own write/fetch (SMC) overlap.
            for (std::size_t i = 0; i < j; i++)
                for (Addr p : round.harts[i].writePages)
                    if (t.readPages.count(p) || t.fetchPages.count(p))
                        dynConflicts.insert(Word(p));
            for (Addr p : t.writePages)
                if (t.fetchPages.count(p))
                    dynConflicts.insert(Word(p));
        }

        if (round.aborted)
            EXPECT_TRUE(anySelfAbort || !dynConflicts.empty())
                << "aborted round with no reconstructible cause";
        for (Word p : dynConflicts)
            EXPECT_TRUE(predicted.conflictPages.count(p))
                << "dynamic conflict page 0x" << std::hex << p
                << " missing from the static predicted conflict set";
    }
    return log.rounds.size();
}

class StaticOracleFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(StaticOracleFuzz, MaySetsContainObservedPageSets)
{
    const unsigned base = GetParam() * kSeedsPerShard;
    std::size_t rounds = 0;
    for (unsigned s = 0; s < kSeedsPerShard; s++) {
        rounds += runFuzzSeedSoundnessOracle(base + s);
        if (::testing::Test::HasNonfatalFailure())
            break; // the failing seed is in the trace; stop the shard
    }
    // The corpus is a conflict storm: if no shard seed ever produced
    // a speculative round, the containment checks above checked
    // nothing and the instrumentation hook is broken.
    EXPECT_GT(rounds, 0u) << "no speculative rounds observed";
}

INSTANTIATE_TEST_SUITE_P(Shards, StaticOracleFuzz,
                         ::testing::Range(0u, kShards));

// ---------------------------------------------------------------------------
// 2. The delivery study: rounds genuinely commit in parallel.
// ---------------------------------------------------------------------------

constexpr Addr kWorkerPhys = 0x00210000;
constexpr unsigned kAsid = 1;

/** Boot the multihart study (bench_multihart's workload) on a machine
 *  with the given scheduler. No observer — the barrier scheduler
 *  falls back to serial quanta under one, which is correct but not
 *  what this test wants to exercise. */
std::unique_ptr<Machine>
buildStudy(unsigned harts, bool user_vectored, bool fast,
           SchedulerMode sched)
{
    MachineConfig cfg;
    cfg.harts = harts;
    cfg.quantum = kSmallQuantum;
    cfg.cpu.userVectorHw = true;
    cfg.cpu.fastInterpreter = fast;
    cfg.scheduler = sched;
    auto m = std::make_unique<Machine>(cfg);

    m->load(rt::multihart::buildKernelImage(harts));
    Program worker = rt::multihart::buildWorkerProgram(harts);
    m->mem().writeBlock(kWorkerPhys, worker.words.data(),
                        4 * worker.words.size());
    for (unsigned i = 0; i < harts; i++) {
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
        h.cp0().write(cp0reg::EntryHi, kAsid << entryhi::AsidShift);
        h.setPc(worker.symbol("mh_hart" + std::to_string(i) +
                              "_entry"));
    }
    return m;
}

void
checkStudyLockstep(unsigned harts, bool user_vectored, bool fast)
{
    SCOPED_TRACE(::testing::Message()
                 << harts << " harts, "
                 << (user_vectored ? "user-vectored" : "kernel-mediated")
                 << (fast ? ", fast interpreter" : ", reference"));

    auto serial = buildStudy(harts, user_vectored, fast,
                             SchedulerMode::Serial);
    auto barrier = buildStudy(harts, user_vectored, fast,
                              SchedulerMode::Barrier);
    InstCount budget = InstCount(harts) * 20000;
    MachineRunResult rs = serial->run(budget);
    MachineRunResult rb = barrier->run(budget);

    EXPECT_EQ(int(rs.reason), int(rb.reason));
    EXPECT_EQ(rs.instsExecuted, rb.instsExecuted);
    EXPECT_EQ(rs.hart, rb.hart);
    for (unsigned i = 0; i < harts; i++) {
        const CpuStats &a = serial->hart(i).stats();
        const CpuStats &b = barrier->hart(i).stats();
        EXPECT_EQ(a.instructions, b.instructions) << "hart " << i;
        EXPECT_EQ(a.cycles, b.cycles) << "hart " << i;
        EXPECT_EQ(a.exceptionsTaken, b.exceptionsTaken) << "hart " << i;
        EXPECT_EQ(a.userVectoredExceptions, b.userVectoredExceptions)
            << "hart " << i;
    }
    expectSameImage(*serial, *barrier, "study image");

    const BarrierSchedStats &bs = barrier->barrierStats();
    EXPECT_GT(bs.parallelRounds, 0u);
    if (user_vectored) {
        // User-vectored delivery touches only per-hart state, so
        // every speculative round must commit — otherwise this test
        // is vacuously serial.
        EXPECT_EQ(bs.committedRounds, bs.parallelRounds);
        EXPECT_EQ(bs.abortedRounds, 0u);
    } else {
        // Kernel-mediated delivery is the paper's bottleneck made
        // literal: every hart's handler spills into mh_save slots
        // that share one physical page, so page-granular conflict
        // detection aborts the rounds — and rollback must still
        // reproduce the serial schedule (checked above).
        EXPECT_GT(bs.abortedRounds, 0u);
    }
}

TEST(ParallelStudy, UserVectored4Harts)
{
    checkStudyLockstep(4, true, false);
}

TEST(ParallelStudy, UserVectored8Harts)
{
    checkStudyLockstep(8, true, false);
}

TEST(ParallelStudy, UserVectored8HartsFastInterpreter)
{
    checkStudyLockstep(8, true, true);
}

TEST(ParallelStudy, KernelMediated4Harts)
{
    checkStudyLockstep(4, false, false);
}

TEST(ParallelStudy, KernelMediated8HartsFastInterpreter)
{
    checkStudyLockstep(8, false, true);
}

// ---------------------------------------------------------------------------
// 3. Conflict storm: every round aborts, rollback must be exact.
// ---------------------------------------------------------------------------

/** All harts increment the same shared kseg0 word in a tight loop:
 *  every speculative round has write/read page overlap between every
 *  pair of harts, so the barrier scheduler aborts and re-runs the
 *  round serially, every time it tries. */
Program
buildSharedCounterProgram(unsigned iters)
{
    Assembler a(testutil::kTestOrigin);
    a.li32(A0, 0x80020000u);
    a.li32(T0, iters);
    a.label("loop");
    a.lw(T1, 0, A0);
    a.addiu(T1, T1, 1);
    a.sw(T1, 0, A0);
    a.addiu(T0, T0, -1);
    a.bne(T0, Zero, "loop");
    a.nop();
    a.hcall(0);
    return a.finalize();
}

TEST(ParallelConflict, RollbackReproducesTheSerialSchedule)
{
    MachineConfig cfg;
    cfg.memBytes = 1 << 18;
    cfg.harts = 4;
    cfg.quantum = kSmallQuantum;
    cfg.scheduler = SchedulerMode::Serial;
    MachineConfig bar_cfg = cfg;
    bar_cfg.scheduler = SchedulerMode::Barrier;

    Machine serial(cfg), barrier(bar_cfg);
    Program prog = buildSharedCounterProgram(3000);
    for (Machine *m : {&serial, &barrier}) {
        m->load(prog);
        for (unsigned i = 0; i < cfg.harts; i++)
            m->hart(i).setPc(testutil::kTestOrigin);
    }

    MachineRunResult rs = serial.run(200000);
    MachineRunResult rb = barrier.run(200000);
    EXPECT_EQ(int(rs.reason), int(rb.reason));
    EXPECT_EQ(rs.instsExecuted, rb.instsExecuted);
    expectSameImage(serial, barrier, "conflict storm");

    // The serial schedule interleaves whole quanta, so the racy
    // increments lose updates deterministically; the final count is a
    // schedule fingerprint both machines must share.
    EXPECT_EQ(serial.debugReadWord(0x80020000u),
              barrier.debugReadWord(0x80020000u));

    // The storm must actually have tripped the abort path.
    const BarrierSchedStats &bs = barrier.barrierStats();
    EXPECT_GT(bs.abortedRounds, 0u);
    EXPECT_GT(bs.serialQuanta, 0u);
}

// ---------------------------------------------------------------------------
// 4. Breakpoints force serial quanta but stay bit-identical.
// ---------------------------------------------------------------------------

TEST(ParallelConflict, BreakpointsAreIneligibleButIdentical)
{
    MachineConfig cfg;
    cfg.memBytes = 1 << 18;
    cfg.harts = 4;
    cfg.quantum = kSmallQuantum;
    cfg.scheduler = SchedulerMode::Serial;
    MachineConfig bar_cfg = cfg;
    bar_cfg.scheduler = SchedulerMode::Barrier;

    Machine serial(cfg), barrier(bar_cfg);
    Program prog = buildSharedCounterProgram(200);
    for (Machine *m : {&serial, &barrier}) {
        m->load(prog);
        for (unsigned i = 0; i < cfg.harts; i++)
            m->hart(i).setPc(testutil::kTestOrigin);
        // A breakpoint on hart 2's loop head: the machine must stop
        // there with the schedule position intact, twice over.
        m->hart(2).addBreakpoint(serial.symbol("loop"));
    }

    MachineRunResult rs = serial.run(100000);
    MachineRunResult rb = barrier.run(100000);
    EXPECT_EQ(int(rs.reason), int(rb.reason));
    EXPECT_EQ(rs.hart, rb.hart);
    EXPECT_EQ(rs.instsExecuted, rb.instsExecuted);
    expectSameImage(serial, barrier, "breakpoint stop");
    // Breakpoints pin the barrier machine to serial quanta.
    EXPECT_EQ(barrier.barrierStats().parallelRounds, 0u);
}

// ---------------------------------------------------------------------------
// 5. An active fault injector gates rounds but stays bit-identical.
// ---------------------------------------------------------------------------

TEST(ParallelConflict, ActiveInjectorIsIneligibleButIdentical)
{
    MachineConfig cfg;
    cfg.memBytes = 1 << 18;
    cfg.harts = 4;
    cfg.quantum = kSmallQuantum;
    cfg.scheduler = SchedulerMode::Serial;
    MachineConfig bar_cfg = cfg;
    bar_cfg.scheduler = SchedulerMode::Barrier;

    // Injectors fire at fixed (hart, instret) points, so the same
    // events on both machines perturb the same instructions; while
    // events are pending for a live hart the barrier scheduler must
    // run serial quanta (worker engines have no injector attached).
    FaultInjector inj_s, inj_b;
    cfg.cpu.faultInjector = &inj_s;
    bar_cfg.cpu.faultInjector = &inj_b;
    Machine serial(cfg), barrier(bar_cfg);

    Program prog = buildFuzzProgram(7);
    for (Machine *m : {&serial, &barrier}) {
        installFuzzSkipHandlers(*m);
        m->load(prog);
        for (unsigned i = 0; i < 4; i++)
            m->hart(i).setPc(testutil::kTestOrigin);
    }
    Addr buf_pa = Machine::unmappedToPhys(serial.symbol("buf"));
    for (FaultInjector *inj : {&inj_s, &inj_b}) {
        inj->addEvent({FaultKind::MemBitFlip, 0, 400, buf_pa + 8,
                       5, 0});
        inj->addEvent({FaultKind::TlbSpuriousMiss, 2, 700, 0, 0, 9});
    }

    InstCount budget = 4 * kFuzzInstLimit;
    MachineRunResult rs = serial.run(budget);
    MachineRunResult rb = barrier.run(budget);
    EXPECT_EQ(int(rs.reason), int(rb.reason));
    EXPECT_EQ(rs.instsExecuted, rb.instsExecuted);
    EXPECT_EQ(inj_s.fired().size(), inj_b.fired().size());
    expectSameImage(serial, barrier, "active injector");
}

// ---------------------------------------------------------------------------
// 6. UEXC_PARALLEL resolution (SchedulerMode::Auto).
// ---------------------------------------------------------------------------

/** Save/restore the env var around a test so running the suite under
 *  UEXC_PARALLEL=1 (as the TSan CI leg does) is not perturbed. */
class EnvOverride : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const char *prev = std::getenv("UEXC_PARALLEL");
        had_ = prev != nullptr;
        if (had_)
            saved_ = prev;
    }
    void TearDown() override
    {
        if (had_)
            setenv("UEXC_PARALLEL", saved_.c_str(), 1);
        else
            unsetenv("UEXC_PARALLEL");
    }

    SchedulerMode resolvedWith(const char *value)
    {
        if (value)
            setenv("UEXC_PARALLEL", value, 1);
        else
            unsetenv("UEXC_PARALLEL");
        MachineConfig cfg; // scheduler = Auto
        Machine m(cfg);
        return m.schedulerMode();
    }

  private:
    bool had_ = false;
    std::string saved_;
};

TEST_F(EnvOverride, AutoResolvesFromEnvironment)
{
    EXPECT_EQ(resolvedWith(nullptr), SchedulerMode::Serial);
    EXPECT_EQ(resolvedWith("0"), SchedulerMode::Serial);
    EXPECT_EQ(resolvedWith("serial"), SchedulerMode::Serial);
    EXPECT_EQ(resolvedWith("1"), SchedulerMode::Barrier);
    EXPECT_EQ(resolvedWith("barrier"), SchedulerMode::Barrier);
    // Any other value, "2" and "relaxed" included, is fatal and names
    // the accepted values.
    for (const char *bad : {"2", "relaxed", "", "yes"}) {
        try {
            resolvedWith(bad);
            ADD_FAILURE() << "UEXC_PARALLEL='" << bad << "' resolved";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("0, serial, 1, barrier"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST_F(EnvOverride, ExplicitModeBeatsEnvironment)
{
    // An explicit mode never reads the variable, so even a value that
    // Auto would reject is ignored.
    setenv("UEXC_PARALLEL", "bogus", 1);
    MachineConfig cfg;
    cfg.scheduler = SchedulerMode::Barrier;
    Machine m(cfg);
    EXPECT_EQ(m.schedulerMode(), SchedulerMode::Barrier);
}

} // namespace
} // namespace uexc::sim
