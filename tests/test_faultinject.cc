/**
 * @file
 * Fault injection and recovery hardening.
 *
 * Two layers of coverage, both running on the shared chaos rig
 * (core/chaos.h) so the workload here is byte-for-byte the one the
 * checkpoint/replay machinery snapshots:
 *
 *  1. Deterministic unit tests: each injection kind, the watchdog
 *     demotion path, the save-page canary, and the zero-overhead
 *     guarantee of an idle injector.
 *
 *  2. A seeded chaos campaign: many independently-seeded runs of the
 *     protection-fault workload with randomly placed injections. The
 *     invariant under test is the robustness contract — every run
 *     either converges bit-identically to the fault-free reference
 *     or terminates with a structured GuestError diagnosis; no run
 *     may crash the host, hang, or die on a PanicError/FatalError.
 *     When a seed breaks the contract, the divergence finder shrinks
 *     it to a minimal repro window and the failure message carries
 *     the copy-pasteable `uexc-snap replay` line for the saved file —
 *     nobody re-runs the campaign from boot to debug a CI failure.
 *
 * Seed count defaults to 200 and can be overridden with the
 * UEXC_CHAOS_SEEDS environment variable.
 */

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/guesterror.h"
#include "common/logging.h"
#include "core/chaos.h"
#include "os/layout.h"
#include "sim/faultinject.h"
#include "sim/snapshot.h"
#include "sim_test_util.h"

namespace uexc::rt {
namespace {

using chaos::kRegion;
using chaos::kRegionBytes;
using chaos::kScratch;
using chaos::Rig;
using os::kPageBytes;
using os::kProtRead;
using os::kProtWrite;
using sim::FaultInjector;
using sim::FaultKind;

// -- deterministic unit coverage -------------------------------------------

/**
 * The zero-overhead baseline: an attached injector with no events is
 * bit-identical (cycles, instret, memory contents) to no injector.
 */
TEST(FaultInject, IdleInjectorIsBitIdentical)
{
    Rig plain;
    FaultInjector idle;
    Rig hooked(&idle);

    plain.run();
    hooked.run();

    EXPECT_EQ(plain.words(), hooked.words());
    EXPECT_EQ(plain.env().cpu().cycles(), hooked.env().cpu().cycles());
    EXPECT_EQ(plain.env().cpu().instret(),
              hooked.env().cpu().instret());
    EXPECT_TRUE(idle.fired().empty());
}

/** A spurious refill for a mapped page is repaired transparently. */
TEST(FaultInject, SpuriousRefillIsTransparent)
{
    FaultInjector inj;
    Rig rig(&inj);
    inj.addEvent({FaultKind::SpuriousException, 0,
                  rig.env().cpu().instret() + 5, kScratch, 0, 0});

    rig.env().store(kRegion, 41);
    (void)rig.env().load(kScratch);
    EXPECT_EQ(inj.pendingCount(), 0u);
    ASSERT_EQ(inj.fired().size(), 1u);
    EXPECT_EQ(rig.env().load(kRegion), 41u);
    EXPECT_FALSE(rig.env().demoted());
}

/** A TLB eviction only costs a refill; execution is unaffected. */
TEST(FaultInject, TlbEvictionIsRecoverable)
{
    FaultInjector inj;
    Rig rig(&inj);
    for (unsigned idx = 0; idx < 8; idx++) {
        inj.addEvent({FaultKind::TlbSpuriousMiss, 0,
                      rig.env().cpu().instret() + 20 + idx, 0, 0, idx});
    }
    rig.env().store(kRegion, 7);
    rig.env().store(kRegion + kPageBytes, 8);
    EXPECT_EQ(rig.env().load(kRegion), 7u);
    EXPECT_EQ(rig.env().load(kRegion + kPageBytes), 8u);
    EXPECT_FALSE(rig.env().demoted());
}

/**
 * In-place TLB corruption (V cleared under a valid PTE) is detected
 * by the kernel's pmap consistency check and surfaces as a structured
 * GuestError, not a host panic.
 */
TEST(FaultInject, TlbCorruptionIsDiagnosed)
{
    setLoggingEnabled(false);
    bool diagnosed = false;
    try {
        for (unsigned pass = 0; pass < 8 && !diagnosed; pass++) {
            FaultInjector inj;
            Rig rig(&inj);
            rig.env().store(kRegion, 1); // a live TLB entry exists
            for (unsigned idx = 0; idx < 8; idx++) {
                inj.addEvent({FaultKind::TlbCorrupt, 0,
                              rig.env().cpu().instret(), 0, 0,
                              pass * 8 + idx});
            }
            try {
                rig.runTo(chaos::kChaosOps);
            } catch (const GuestError &e) {
                diagnosed = true;
                EXPECT_NE(std::string(e.what()).find("bad trap"),
                          std::string::npos)
                    << e.what();
            }
        }
    } catch (const std::exception &e) {
        FAIL() << "non-GuestError escaped: " << e.what();
    }
    EXPECT_TRUE(diagnosed);
    setLoggingEnabled(true);
}

/**
 * A runaway user handler exhausts the watchdog budget, is demoted to
 * kernel-mediated delivery, and the faulting access still completes.
 */
TEST(FaultInject, HandlerRunawayDemotesAndRecovers)
{
    FaultInjector inj;
    chaos::RigConfig cfg;
    cfg.handlerBudget = 20000;
    Rig rig(&inj, cfg);

    Addr stub_page = rig.env().stubAddr() & ~(kPageBytes - 1);
    Addr stub_pa = rig.physOf(stub_page) +
                   (rig.env().stubAddr() & (kPageBytes - 1));
    inj.addEvent({FaultKind::HandlerRunaway, 0,
                  rig.env().cpu().instret(), stub_pa, 0, 0});

    rig.env().protect(kRegion, kRegionBytes, kProtRead);
    rig.env().store(kRegion + 8, 99); // faults into the looping stub

    EXPECT_TRUE(rig.env().demoted());
    EXPECT_EQ(rig.env().deliveryMode(), DeliveryMode::UltrixSignal);
    EXPECT_EQ(rig.env().stats().deliveryDemoted, 1u);
    EXPECT_EQ(rig.kernel().deliveryDemotions(), 1u);
    EXPECT_EQ(rig.env().load(kRegion + 8), 99u);

    // Later faults keep working through the kernel-mediated path.
    rig.env().protect(kRegion, kRegionBytes, kProtRead);
    rig.env().store(kRegion + 12, 100);
    EXPECT_EQ(rig.env().load(kRegion + 12), 100u);
    EXPECT_EQ(rig.env().stats().deliveryDemoted, 1u);
}

/**
 * Corrupting the pinned save page's canary is detected at the next
 * fast-mode delivery: the delivery in flight still completes, the
 * environment is demoted, and the canary is repaired.
 */
TEST(FaultInject, SavePageCanaryCorruptionDemotes)
{
    FaultInjector inj;
    Rig rig(&inj);

    Addr frame_pa = rig.physOf(os::kUexcFramePage);
    inj.addEvent({FaultKind::MemBitFlip, 0, rig.env().cpu().instret(),
                  frame_pa + os::kUexcCanaryOffset + 128, 13, 0});

    rig.env().protect(kRegion, kRegionBytes, kProtRead);
    rig.env().store(kRegion + 4, 55);

    EXPECT_EQ(rig.env().load(kRegion + 4), 55u);
    EXPECT_EQ(rig.env().stats().savePageCorruptions, 1u);
    EXPECT_TRUE(rig.env().demoted());
    EXPECT_EQ(rig.env().stats().deliveryDemoted, 1u);

    // Demoted but alive: further protection faults still deliver.
    rig.env().protect(kRegion, kRegionBytes, kProtRead);
    rig.env().store(kRegion + 16, 56);
    EXPECT_EQ(rig.env().load(kRegion + 16), 56u);
    EXPECT_EQ(rig.env().stats().savePageCorruptions, 1u);
}

/**
 * The canary check compares the whole canary at once: a flip in its
 * first, a middle or its last word is caught exactly like one inside
 * it, counted once, and repaired to the bytes an untouched rig holds.
 */
TEST(FaultInject, CanaryFlipAtEitherEndOrTheMiddleDemotesOnce)
{
    constexpr Word kCanaryBytes = kPageBytes - os::kUexcCanaryOffset;
    for (Word off : {Word(0), kCanaryBytes / 2, kCanaryBytes - 4}) {
        SCOPED_TRACE(off);
        Rig plain;
        FaultInjector inj;
        Rig rig(&inj);
        Addr canary_pa =
            rig.physOf(os::kUexcFramePage) + os::kUexcCanaryOffset;
        inj.addEvent({FaultKind::MemBitFlip, 0, rig.env().cpu().instret(),
                      canary_pa + off, off % 32, 0});

        rig.env().protect(kRegion, kRegionBytes, kProtRead);
        rig.env().store(kRegion + 4, 55);
        EXPECT_EQ(rig.env().load(kRegion + 4), 55u);
        EXPECT_EQ(rig.env().stats().savePageCorruptions, 1u);
        EXPECT_EQ(rig.env().stats().deliveryDemoted, 1u);

        std::vector<Byte> repaired(kCanaryBytes), untouched(kCanaryBytes);
        rig.machine().mem().readBlock(canary_pa, repaired.data(),
                                      kCanaryBytes);
        plain.machine().mem().readBlock(
            plain.physOf(os::kUexcFramePage) + os::kUexcCanaryOffset,
            untouched.data(), kCanaryBytes);
        EXPECT_EQ(repaired, untouched);
    }
}

/** A data-region bit flip before the final rewrite cannot survive
 *  (the rig closes the injection window before the rewrite). */
TEST(FaultInject, DataBitFlipIsOverwrittenByRecovery)
{
    Rig plain;
    plain.run();

    FaultInjector inj;
    Rig rig(&inj);
    inj.addEvent({FaultKind::MemBitFlip, 0,
                  rig.env().cpu().instret() + 100,
                  rig.physOf(kRegion) + 64, 7, 0});
    rig.run();
    EXPECT_EQ(rig.words(), plain.words());
}

/** Records the instret before the first instruction retired inside
 *  [begin, end). */
struct WindowProbe : sim::InstObserver
{
    WindowProbe(const sim::Cpu &cpu, Addr begin, Addr end)
        : cpu(cpu), begin(begin), end(end)
    {
    }
    void onInst(Addr pc, const sim::DecodedInst &, Cycles) override
    {
        if (!found && pc >= begin && pc < end) {
            found = true;
            at = cpu.instret() - 1;
        }
    }
    void onException(sim::ExcCode, Addr, Addr) override {}

    const sim::Cpu &cpu;
    Addr begin, end;
    bool found = false;
    InstCount at = 0;
};

/** What one interpreter made of a fault plan. */
struct PlanOutcome
{
    std::vector<sim::FiredEvent> fired;
    std::string error;
    std::vector<Word> words;
    std::uint32_t memCrc = 0;
    Cycles cycles = 0;
    InstCount instret = 0;
};

PlanOutcome
runPlan(bool fast, const std::vector<sim::FaultEvent> &plan)
{
    FaultInjector inj;
    chaos::RigConfig cfg;
    cfg.fastInterpreter = fast;
    Rig rig(&inj, cfg);
    for (const sim::FaultEvent &e : plan)
        inj.addEvent(e);
    PlanOutcome out;
    try {
        rig.runTo(chaos::kChaosOps);
        out.fired = inj.fired(); // the final phase clears the injector
        rig.run();
    } catch (const GuestError &e) {
        out.fired = inj.fired();
        out.error = e.what();
    }
    out.words = rig.words();
    sim::PhysMemory &mem = rig.machine().mem();
    std::vector<Byte> bytes(mem.size());
    mem.readBlock(0, bytes.data(), bytes.size());
    out.memCrc = sim::snapshotCrc32(bytes.data(), bytes.size());
    out.cycles = rig.env().cpu().cycles();
    out.instret = rig.env().cpu().instret();
    return out;
}

/**
 * The fast interpreter fires every injection at the same point as the
 * reference: one event of each kind, the spurious refill scheduled
 * inside the stub's masked restore window so it defers, and the two
 * runs must deliver identical (event, firedAt, pc) lists and end in
 * identical memory, readback words, cycles and instret.
 */
TEST(FaultInject, FastInterpreterFiresLikeTheReference)
{
    setLoggingEnabled(false);
    // Find when the stub first executes inside its masked window.
    FaultInjector dry_inj;
    Rig dry(&dry_inj);
    ASSERT_EQ(dry_inj.maskedPcWindows().size(), 1u);
    auto [begin, end] = dry_inj.maskedPcWindows().front();
    WindowProbe probe(dry.env().cpu(), begin, end);
    dry.env().cpu().setObserver(&probe);
    dry.runTo(chaos::kOpsPerRound);
    dry.env().cpu().setObserver(nullptr);
    ASSERT_TRUE(probe.found);

    Addr stub_page = dry.env().stubAddr() & ~(kPageBytes - 1);
    Addr stub_pa = dry.physOf(stub_page) +
                   (dry.env().stubAddr() & (kPageBytes - 1));
    const InstCount t = probe.at;
    const std::vector<sim::FaultEvent> plan = {
        {FaultKind::SpuriousException, 0, t, kScratch, 0, 0},
        {FaultKind::MemBitFlip, 0, t + 300, dry.physOf(kRegion) + 64, 7,
         0},
        {FaultKind::TlbSpuriousMiss, 0, t + 600, 0, 0, 5},
        {FaultKind::HandlerRunaway, 0, t + 900, stub_pa, 0, 0},
        {FaultKind::TlbCorrupt, 0, t + 3000, 0, 0, 61},
    };

    PlanOutcome ref = runPlan(false, plan);
    PlanOutcome fst = runPlan(true, plan);

    ASSERT_EQ(ref.fired.size(), plan.size()) << ref.error;
    for (std::size_t i = 0; i < plan.size(); i++)
        EXPECT_EQ(ref.fired[i].event.kind, plan[i].kind) << i;
    EXPECT_GT(ref.fired[0].firedAt, t) << "the spurious refill did not defer";
    ASSERT_EQ(fst.fired.size(), ref.fired.size());
    for (std::size_t i = 0; i < ref.fired.size(); i++) {
        SCOPED_TRACE(i);
        EXPECT_EQ(fst.fired[i].event.kind, ref.fired[i].event.kind);
        EXPECT_EQ(fst.fired[i].event.atInst, ref.fired[i].event.atInst);
        EXPECT_EQ(fst.fired[i].firedAt, ref.fired[i].firedAt);
        EXPECT_EQ(fst.fired[i].pc, ref.fired[i].pc);
    }
    EXPECT_EQ(fst.error, ref.error);
    EXPECT_EQ(fst.words, ref.words);
    EXPECT_EQ(fst.memCrc, ref.memCrc);
    EXPECT_EQ(fst.cycles, ref.cycles);
    EXPECT_EQ(fst.instret, ref.instret);
    setLoggingEnabled(true);
}

/**
 * A spurious refill deferred out of a branch delay slot fires one
 * instruction later, at the branch target, on both interpreters; the
 * fast interpreter must not run on to the end of its block first.
 * A bare machine keeps the loop's user page free of stop PCs, so its
 * blocks are long.
 */
TEST(FaultInject, DelaySlotDeferralEndsMidBlock)
{
    constexpr Addr kUserCode = 0x00010000u;
    constexpr Addr kCodePhys = 0x00040000u;
    constexpr unsigned kAsid = 5;
    using sim::K0, sim::T0, sim::T2, sim::Zero;
    sim::Assembler a(kUserCode);
    a.label("loop");
    a.addiu(T0, T0, 1);
    a.bne(T0, Zero, "loop");
    a.addiu(T2, T2, 2);  // delay slot
    sim::Program prog = a.finalize();
    // return to EPC: the injected refill needs no repair
    sim::Assembler h(sim::Cpu::RefillVector);
    h.mfc0(K0, sim::cp0reg::Epc);
    h.jr(K0);
    h.rfe();
    sim::Program handler = h.finalize();

    // instret 2 and 53 sit on the delay slot, 30 does not
    const std::vector<sim::FaultEvent> plan = {
        {FaultKind::SpuriousException, 0, 2, kScratch, 0, 0},
        {FaultKind::SpuriousException, 0, 30, kScratch, 0, 0},
        {FaultKind::SpuriousException, 0, 53, kScratch, 0, 0},
    };
    std::vector<std::vector<sim::FiredEvent>> fired;
    std::vector<Word> t2;
    std::vector<Cycles> cycles;
    for (bool fast : {false, true}) {
        FaultInjector inj;
        sim::MachineConfig cfg;
        cfg.memBytes = 1 << 20;
        cfg.cpu.fastInterpreter = fast;
        cfg.cpu.faultInjector = &inj;
        sim::Machine m(cfg);
        m.load(handler);
        for (Word i = 0; i < prog.words.size(); i++)
            m.mem().writeWord(kCodePhys + 4 * i, prog.words[i]);
        sim::testutil::mapPage(m, kUserCode, kCodePhys, kAsid, 1, false);
        sim::testutil::enterUserMode(m, kAsid);
        m.cpu().setPc(kUserCode);
        for (const sim::FaultEvent &e : plan)
            inj.addEvent(e);
        EXPECT_EQ(m.run(1000).instsExecuted, 1000u);
        fired.push_back(inj.fired());
        t2.push_back(m.cpu().reg(T2));
        cycles.push_back(m.cpu().cycles());
    }
    ASSERT_EQ(fired[0].size(), plan.size());
    EXPECT_EQ(fired[0][0].firedAt, 3u);
    EXPECT_EQ(fired[0][1].firedAt, 30u);
    EXPECT_EQ(fired[0][2].firedAt, 54u);
    ASSERT_EQ(fired[1].size(), fired[0].size());
    for (std::size_t i = 0; i < fired[0].size(); i++) {
        EXPECT_EQ(fired[1][i].firedAt, fired[0][i].firedAt) << i;
        EXPECT_EQ(fired[1][i].pc, fired[0][i].pc) << i;
    }
    EXPECT_EQ(t2[1], t2[0]);
    EXPECT_EQ(cycles[1], cycles[0]);
}

// -- the seeded chaos campaign ------------------------------------------

/**
 * Shrink a failing seed to its minimal repro window, save the window
 * to a repro file (under UEXC_REPRO_DIR when set, so CI uploads it as
 * an artifact), and return the one-line reproduction command. Called
 * from assertion messages, i.e. only when a seed actually fails.
 */
std::string
reproLineFor(std::uint64_t seed, const chaos::Reference &ref)
{
    chaos::ReproWindow repro =
        chaos::shrinkCampaign(seed, ref.window, ref.words);
    if (!repro.found)
        return "(shrink could not reproduce the failure)";
    std::string dir = ::testing::TempDir();
    if (const char *d = std::getenv("UEXC_REPRO_DIR"))
        dir = std::string(d) + "/";
    std::string path = dir + "chaos_seed_" + std::to_string(seed) +
                       ".uxsn";
    chaos::writeReproFile(repro, path);
    return "reproduce ops [" + std::to_string(repro.startOp) + ", " +
           std::to_string(repro.endOp) + ") with: " +
           chaos::reproCommandLine(path);
}

TEST(FaultInjectChaos, SeededCampaign)
{
    setLoggingEnabled(false);
    chaos::Reference ref = chaos::makeReference();

    unsigned seeds = 200;
    if (const char *s = std::getenv("UEXC_CHAOS_SEEDS"))
        seeds = static_cast<unsigned>(std::atoi(s));

    unsigned converged = 0, diagnosed = 0;
    for (unsigned seed = 1; seed <= seeds; seed++) {
        std::uint64_t full_seed = 0x9000 + seed;
        chaos::CampaignOutcome out =
            chaos::runCampaign(full_seed, ref.window, ref.words);
        ASSERT_FALSE(out.hostFailure)
            << "seed " << seed << ": " << out.what << "\n"
            << reproLineFor(full_seed, ref);
        if (out.diagnosed) {
            // Only the detected classes may end in a diagnosis;
            // every recoverable class must converge.
            ASSERT_TRUE(out.mayDiagnose)
                << "seed " << seed
                << " diagnosed without a detectable fault: " << out.what
                << "\n"
                << reproLineFor(full_seed, ref);
            diagnosed++;
        } else {
            converged++;
        }
    }
    EXPECT_EQ(converged + diagnosed, seeds);
    EXPECT_GT(converged, 0u);
    setLoggingEnabled(true);
}

/**
 * The campaign verdict is scheduler-independent: running the rig's
 * machine under the Barrier (host-thread) scheduler instead of the
 * Serial reference changes nothing a seed can observe — diagnosis,
 * failure op, and final words all match. (RigConfig::scheduler is
 * the knob chaos replays would use; this pins its equivalence.)
 */
TEST(FaultInjectChaos, VerdictIsSchedulerIndependent)
{
    setLoggingEnabled(false);
    chaos::RigConfig serial_cfg, barrier_cfg;
    serial_cfg.scheduler = sim::SchedulerMode::Serial;
    barrier_cfg.scheduler = sim::SchedulerMode::Barrier;
    chaos::Reference ref = chaos::makeReference(serial_cfg);

    for (std::uint64_t seed : {0x61ull, 0x62ull, 0x63ull, 0x64ull,
                               0x9001ull, 0x9002ull}) {
        chaos::CampaignOutcome a =
            chaos::runCampaign(seed, ref.window, ref.words,
                               serial_cfg);
        chaos::CampaignOutcome b =
            chaos::runCampaign(seed, ref.window, ref.words,
                               barrier_cfg);
        EXPECT_EQ(a.diagnosed, b.diagnosed) << seed;
        EXPECT_EQ(a.hostFailure, b.hostFailure) << seed;
        EXPECT_EQ(a.what, b.what) << seed;
        EXPECT_EQ(a.failOp, b.failOp) << seed;
        EXPECT_EQ(a.words, b.words) << seed;
    }
    setLoggingEnabled(true);
}

/** Same seed, same machine: the campaign replays bit-identically. */
TEST(FaultInjectChaos, CampaignIsDeterministic)
{
    setLoggingEnabled(false);
    chaos::Reference ref = chaos::makeReference();

    for (std::uint64_t seed : {0x51ull, 0x52ull, 0x53ull}) {
        chaos::CampaignOutcome a =
            chaos::runCampaign(seed, ref.window, ref.words);
        chaos::CampaignOutcome b =
            chaos::runCampaign(seed, ref.window, ref.words);
        EXPECT_EQ(a.diagnosed, b.diagnosed) << seed;
        EXPECT_EQ(a.hostFailure, b.hostFailure) << seed;
        EXPECT_EQ(a.what, b.what) << seed;
        EXPECT_EQ(a.failOp, b.failOp) << seed;
        EXPECT_EQ(a.words, b.words) << seed;
    }
    setLoggingEnabled(true);
}

} // namespace
} // namespace uexc::rt
