/**
 * @file
 * Live-migration coverage, transport-up:
 *
 *  - the chunked seeded-lossy transfer: lossless identity, lossy
 *    convergence, the capped doubling retransmit timeout, typed
 *    partition errors with a resumable delivered-chunk set, and a
 *    100-seed in-flight bit-flip sweep proving a torn image is never
 *    accepted;
 *  - hostile restore targets: hart-count mismatch refused with a
 *    typed error (source untouched), scheduler mode proven to be
 *    host policy (cross-scheduler migration restores bit-identically),
 *    truncated images rejected before any restore;
 *  - the hard bit-identity oracle: a 200-seed sharded sweep over the
 *    lockstep fuzz corpus where a machine is migrated over a lossy
 *    link at a random cut and must finish byte-identical to the
 *    never-migrated reference — across both interpreters, 1 and 4
 *    harts, and live fault injectors whose pending events straddle
 *    the migration;
 *  - migration while a COP3 user-vectored handler is live on a
 *    multihart guest (cuts land inside the handler body);
 *  - chaos-rig migrations mid-campaign, including graceful
 *    degradation when the transfer partitions;
 *  - iterative pre-copy: the dirty-heavy downtime win over
 *    stop-and-copy, the give-up-after-maxRounds path, partitions
 *    leaving the source running, and (inside the 200-seed oracle)
 *    bit-identity for every third seed migrated live;
 *  - TransferSession::reconfigure() mid-session: a resumed session
 *    bit-matches an uninterrupted reference, weather changes between
 *    partitions heal the link, and a tightened retry budget applies
 *    to the chunks still in flight;
 *  - per-chunk failure diagnostics (chunk index, retries, charged
 *    timeout) surfaced through MigrationResult;
 *  - migration and host-crash as first-class chaos-campaign ops:
 *    deterministic seeded plans, clean migrations invisible to the
 *    campaign oracle, endpoint crashes diagnosed deterministically,
 *    and shrinkCampaign reducing a migration-triggered failure to a
 *    replayable <= 12-op repro window that round-trips through a
 *    repro file;
 *  - the fleet soak harness: healthy deterministic soaks, the
 *    all-partitions drill where every migration fails and every guest
 *    still converges, and the supervised self-healing soaks — a
 *    200-seed sharded sweep under injected host crashes, wedges,
 *    guest crashes, torn checkpoints, and mid-transfer source
 *    crashes, where every non-quarantined guest must converge
 *    bit-identically to its unfailed reference.
 */

#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/fleet/fleet.h"
#include "common/guesterror.h"
#include "core/migrate.h"
#include "core/multihart.h"
#include "fuzz_util.h"
#include "os/layout.h"
#include "sim/faultinject.h"
#include "sim/snapshot.h"
#include "sim_test_util.h"

namespace uexc::sim {
namespace {

namespace migrate = rt::migrate;
namespace chaos = rt::chaos;
using migrate::MigrateError;
using migrate::MigrateErrorKind;
using migrate::TransportConfig;

/** A real mid-run machine image to push through the transport. */
std::vector<Byte>
sampleImage(unsigned seed = 11)
{
    MachineConfig cfg;
    cfg.memBytes = 1 << 18;
    Machine m(cfg);
    fuzzutil::installFuzzSkipHandlers(m);
    m.load(fuzzutil::buildFuzzProgram(seed));
    m.hart(0).setPc(testutil::kTestOrigin);
    m.run(1500);
    return m.checkpoint();
}

TransportConfig
lossyTransport(std::uint64_t seed)
{
    TransportConfig t;
    t.seed = seed;
    t.chunkBytes = 1024; // many chunks, so the weather gets chances
    t.lossPercent = 20;
    t.corruptPercent = 15;
    t.dupPercent = 10;
    t.delayPercent = 20;
    return t;
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

TEST(MigrateTransport, LosslessTransferIsIdentity)
{
    std::vector<Byte> image = sampleImage();
    migrate::TransportStats stats;
    TransportConfig clean;
    std::vector<Byte> out = migrate::transferImage(image, clean,
                                                   &stats);
    EXPECT_EQ(out, image);
    EXPECT_EQ(stats.chunksDelivered, stats.chunksTotal);
    EXPECT_EQ(stats.retries, 0u);
    EXPECT_EQ(stats.corruptDropped, 0u);
    EXPECT_EQ(stats.framesSent, stats.chunksTotal);
    // every chunk landed on its first attempt
    EXPECT_EQ(stats.retryHistogram[0], stats.chunksTotal);
}

TEST(MigrateTransport, LossyTransferConvergesBitIdentically)
{
    std::vector<Byte> image = sampleImage();
    TransportConfig t = lossyTransport(99);
    t.chunkBytes = 256; // plenty of chunks for every weather kind
    t.dupPercent = 30;
    migrate::TransportStats stats;
    std::vector<Byte> out = migrate::transferImage(image, t, &stats);
    EXPECT_EQ(out, image);
    // the weather actually happened
    EXPECT_GT(stats.retries, 0u);
    EXPECT_GT(stats.lostInFlight, 0u);
    EXPECT_GT(stats.corruptDropped, 0u);
    EXPECT_GT(stats.duplicatesSuppressed, 0u);
    EXPECT_GT(stats.framesSent, stats.chunksTotal);
    EXPECT_LE(stats.maxTimeoutCharged, t.timeoutCapCycles);
    std::uint64_t histogram_total = 0;
    for (std::uint64_t b : stats.retryHistogram)
        histogram_total += b;
    EXPECT_EQ(histogram_total, stats.chunksDelivered);
}

TEST(MigrateTransport, SameSeedIsDeterministic)
{
    std::vector<Byte> image = sampleImage();
    migrate::TransportStats a, b, c;
    migrate::transferImage(image, lossyTransport(5), &a);
    migrate::transferImage(image, lossyTransport(5), &b);
    EXPECT_EQ(a.framesSent, b.framesSent);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.cyclesCharged, b.cyclesCharged);
    migrate::transferImage(image, lossyTransport(6), &c);
    EXPECT_TRUE(a.framesSent != c.framesSent ||
                a.cyclesCharged != c.cyclesCharged)
        << "different seeds produced identical weather";
}

TEST(MigrateTransport, RetryTimeoutIsCapped)
{
    std::vector<Byte> image = sampleImage();
    TransportConfig t = lossyTransport(3);
    t.lossPercent = 60;
    t.corruptPercent = 0;
    t.maxRetries = 40;
    t.timeoutCapCycles = 2 * t.timeoutCycles; // tight cap
    migrate::TransportStats stats;
    std::vector<Byte> out = migrate::transferImage(image, t, &stats);
    EXPECT_EQ(out, image);
    EXPECT_GT(stats.retries, 0u);
    EXPECT_EQ(stats.maxTimeoutCharged, t.timeoutCapCycles);
}

TEST(MigrateTransport, PartitionIsTypedAndTheSessionResumes)
{
    std::vector<Byte> image = sampleImage();
    TransportConfig t;
    t.seed = 17;
    t.chunkBytes = 1024;
    t.lossPercent = 100;
    t.maxRetries = 3;
    migrate::TransferSession session(image, t);
    try {
        session.run();
        FAIL() << "a fully partitioned transfer completed";
    } catch (const MigrateError &e) {
        EXPECT_EQ(e.kind(), MigrateErrorKind::Partition);
        EXPECT_EQ(e.chunk(), 0u);
        EXPECT_NE(std::string(e.what()).find("partition"),
                  std::string::npos);
    }
    EXPECT_FALSE(session.complete());

    // a partial image is never observable as success
    try {
        session.receivedImage();
        FAIL() << "incomplete image reassembled";
    } catch (const MigrateError &e) {
        EXPECT_EQ(e.kind(), MigrateErrorKind::ImageRejected);
    }

    // the network heals: only the missing chunks move, and the
    // reassembled image is byte-identical
    TransportConfig healed = t;
    healed.lossPercent = 5;
    session.reconfigure(healed);
    session.run();
    EXPECT_TRUE(session.complete());
    EXPECT_EQ(session.receivedImage(), image);
}

TEST(MigrateTransport, ResumeRetransmitsOnlyMissingChunks)
{
    std::vector<Byte> image = sampleImage();
    TransportConfig flaky;
    flaky.seed = 23;
    flaky.chunkBytes = 512;
    flaky.lossPercent = 35;
    flaky.maxRetries = 1; // partitions quickly, mid-image
    migrate::TransferSession session(image, flaky);
    unsigned interruptions = 0;
    for (; interruptions < 10000 && !session.complete();
         interruptions++) {
        try {
            session.run();
        } catch (const MigrateError &e) {
            ASSERT_EQ(e.kind(), MigrateErrorKind::Partition);
            // delivered chunks survive the interruption
        }
    }
    ASSERT_TRUE(session.complete());
    EXPECT_GT(interruptions, 1u) << "test never exercised a resume";
    EXPECT_EQ(session.receivedImage(), image);
    EXPECT_EQ(session.stats().chunksDelivered,
              session.stats().chunksTotal);
}

TEST(MigrateTransport, HundredSeedBitFlipSweepNeverAcceptsATornImage)
{
    // 100 seeds of in-flight single-bit corruption (plus loss): every
    // transfer either converges to the exact source bytes or fails
    // with a typed error. A delivered-but-wrong image must never
    // escape the per-chunk CRC + whole-image validation.
    std::vector<Byte> image = sampleImage();
    std::uint64_t corrupt_total = 0;
    unsigned converged = 0;
    for (unsigned seed = 0; seed < 100; seed++) {
        SCOPED_TRACE(::testing::Message() << "bit-flip seed " << seed);
        TransportConfig t;
        t.seed = 0xb17f11b0ull + seed;
        t.chunkBytes = 2048;
        t.corruptPercent = 35;
        t.lossPercent = 10;
        migrate::TransportStats stats;
        try {
            std::vector<Byte> out =
                migrate::transferImage(image, t, &stats);
            ASSERT_EQ(out, image);
            converged++;
        } catch (const MigrateError &e) {
            EXPECT_EQ(e.kind(), MigrateErrorKind::Partition);
        }
        corrupt_total += stats.corruptDropped;
    }
    EXPECT_GT(converged, 90u); // retries absorb almost all weather
    EXPECT_GT(corrupt_total, 100u); // the sweep really flipped bits
}

TEST(MigrateTransport, EmptyAndTinyImagesTransfer)
{
    for (std::size_t n : {std::size_t(0), std::size_t(1),
                          std::size_t(4095), std::size_t(4096),
                          std::size_t(4097)}) {
        std::vector<Byte> blob(n, Byte(0x5a));
        TransportConfig t = lossyTransport(n + 1);
        migrate::TransferSession session(blob, t);
        session.run();
        EXPECT_TRUE(session.complete());
        // raw blobs are not snapshot images; bypass validation by
        // checking the stats grid instead
        EXPECT_EQ(session.stats().chunksDelivered,
                  session.stats().chunksTotal);
        EXPECT_EQ(session.stats().chunksTotal,
                  std::max<std::uint64_t>(
                      1, (n + t.chunkBytes - 1) / t.chunkBytes));
    }
}

// ---------------------------------------------------------------------------
// Hostile restore targets
// ---------------------------------------------------------------------------

TEST(MigrateHostile, TruncatedImageIsRejectedBeforeRestore)
{
    std::vector<Byte> image = sampleImage();
    image.resize(image.size() - 37); // torn mid-section
    bool restore_ran = false;
    migrate::MigrationResult result = migrate::migrateImage(
        image,
        [&restore_ran](const std::vector<Byte> &) {
            restore_ran = true;
        },
        {});
    EXPECT_FALSE(result.succeeded);
    EXPECT_EQ(result.errorKind, MigrateErrorKind::ImageRejected);
    EXPECT_FALSE(restore_ran) << "a torn image reached the restore";
}

TEST(MigrateHostile, HartCountMismatchIsRefusedAndSourceKeepsRunning)
{
    MachineConfig cfg;
    cfg.memBytes = 1 << 18;
    cfg.harts = 4;
    cfg.quantum = 512;
    Machine src(cfg);
    fuzzutil::installFuzzSkipHandlers(src);
    Program prog = fuzzutil::buildFuzzProgram(21);
    src.load(prog);
    for (unsigned h = 0; h < 4; h++)
        src.hart(h).setPc(testutil::kTestOrigin);
    src.run(1000);

    MachineConfig narrow = cfg;
    narrow.harts = 1;
    Machine dst(narrow);
    migrate::MigrationResult result =
        migrate::migrateMachine(src, dst, {});
    EXPECT_FALSE(result.succeeded);
    EXPECT_EQ(result.errorKind, MigrateErrorKind::RestoreRefused);

    // graceful degradation: the source was never stopped or mutated
    std::vector<Byte> before = src.checkpoint();
    EXPECT_NO_THROW(src.run(500));
    EXPECT_NE(src.checkpoint(), before) << "source stopped running";
}

TEST(MigrateHostile, SchedulerModeIsHostPolicyNotGuestState)
{
    // The scheduler is deliberately excluded from the checkpoint
    // config echo: Barrier is bit-identical to Serial, so migrating
    // between hosts with different scheduling policies is supported
    // and must be state-preserving (this is a design guarantee, not
    // a rejection case — asserted here so a future config-echo change
    // that breaks cross-scheduler migration fails loudly).
    MachineConfig cfg;
    cfg.memBytes = 1 << 18;
    cfg.harts = 4;
    cfg.quantum = 512;
    cfg.scheduler = SchedulerMode::Serial;
    Machine src(cfg);
    fuzzutil::installFuzzSkipHandlers(src);
    src.load(fuzzutil::buildFuzzProgram(33));
    for (unsigned h = 0; h < 4; h++)
        src.hart(h).setPc(testutil::kTestOrigin);
    src.run(1200);

    MachineConfig barrier = cfg;
    barrier.scheduler = SchedulerMode::Barrier;
    Machine dst(barrier);
    migrate::MigrationConfig mc;
    mc.transport = lossyTransport(77);
    migrate::MigrationResult result =
        migrate::migrateMachine(src, dst, mc);
    ASSERT_TRUE(result.succeeded) << result.error;
    EXPECT_GT(result.downtimeCycles, 0u);

    src.run(1800);
    dst.run(1800);
    EXPECT_EQ(src.checkpoint(), dst.checkpoint())
        << "cross-scheduler migration perturbed guest state";
}

// ---------------------------------------------------------------------------
// The bit-identity oracle: 200 seeds, both interpreters, 1 and 4
// harts, live injectors, lossy transport
// ---------------------------------------------------------------------------

constexpr unsigned kMigrateFuzzShards = 8;
constexpr unsigned kMigrateSeedsPerShard = 25; // 200-seed corpus

/**
 * One oracle run: twin machines T (reference, never migrated) and U.
 * Both run the same corpus program to a random cut; U is then
 * migrated over a seeded lossy link into a freshly built twin V, and
 * T and V run to the end. Their final serialized states must be
 * byte-identical — the migrated run converges to exactly the state
 * the unmigrated one reaches. Configuration rotates with the seed
 * exactly like the snapshot round-trip corpus, including fault
 * injectors with events pending across the cut (the resume-window
 * hazard: an event planned to fire just after the cut must defer and
 * fire identically on the migrated guest).
 *
 * The migration mode also rotates: every third seed migrates with
 * iterative pre-copy (the guest keeps running while dirty pages
 * ship; the reference mirrors the same host run() slices), the rest
 * with single-shot stop-and-copy — so the 200-seed corpus holds the
 * bit-identity bar for both modes.
 */
void
runMigrationOracleSeed(unsigned seed)
{
    SCOPED_TRACE(::testing::Message() << "migrate fuzz seed " << seed);

    const bool fast = seed % 2 != 0;
    const unsigned harts = seed % 4 == 3 ? 4 : 1;
    const bool injected = seed % 5 == 0;
    const bool precopy = seed % 3 == 2;

    MachineConfig cfg;
    cfg.memBytes = 1 << 18;
    cfg.harts = harts;
    cfg.quantum = 512;
    cfg.cpu.fastInterpreter = fast;

    FaultInjector inj_t, inj_u, inj_v;
    MachineConfig cfg_t = cfg, cfg_u = cfg, cfg_v = cfg;
    if (injected) {
        cfg_t.cpu.faultInjector = &inj_t;
        cfg_u.cpu.faultInjector = &inj_u;
        cfg_v.cpu.faultInjector = &inj_v;
    }

    Machine t(cfg_t), u(cfg_u), v(cfg_v);
    Program prog = fuzzutil::buildFuzzProgram(seed);
    for (Machine *m : {&t, &u, &v}) {
        fuzzutil::installFuzzSkipHandlers(*m);
        m->load(prog);
        for (unsigned h = 0; h < harts; h++)
            m->hart(h).setPc(testutil::kTestOrigin);
    }
    auto attach = [](Machine &m, FaultInjector &inj) {
        m.registerSnapshotSection(
            snapshotTag('F', 'I', 'N', 'J'),
            [&inj](SnapshotWriter &w) { inj.snapshotSave(w); },
            [&inj](SnapshotReader &r) { inj.snapshotLoad(r); });
    };
    if (injected) {
        attach(t, inj_t);
        attach(u, inj_u);
        attach(v, inj_v);
    }

    std::mt19937 rng(seed * 2654435761u + 23);
    const InstCount cut = 200 + rng() % 3000;
    if (injected) {
        // identical plans on reference and source; one event lands
        // BEFORE the cut, one lands in the first instructions AFTER
        // resume on the destination (the migration resume window)
        Addr buf_pa = Machine::unmappedToPhys(t.symbol("buf"));
        FaultEvent flip{FaultKind::MemBitFlip, 0, cut / 2,
                        buf_pa + 4 * Addr(rng() % 32),
                        unsigned(rng() % 32), 0};
        FaultEvent miss{FaultKind::TlbSpuriousMiss, harts - 1,
                        cut + 5 + seed % 40, 0, 0,
                        unsigned(rng() % 64)};
        for (FaultInjector *inj : {&inj_t, &inj_u}) {
            inj->addEvent(flip);
            inj->addEvent(miss);
        }
    }

    const InstCount total = fuzzutil::kFuzzInstLimit;
    t.run(cut);
    u.run(cut);

    migrate::MigrationConfig mc;
    mc.transport = lossyTransport(0xfee7 + seed);
    mc.transport.chunkBytes = 4096;
    migrate::MigrationResult result;
    InstCount sliced = 0;
    if (precopy) {
        migrate::PreCopyConfig pc;
        pc.maxRounds = 3;
        pc.convergePages = 4;
        constexpr InstCount kSlice = 100;
        result = migrate::migrateMachinePreCopy(
            u, v, mc, pc, [&u, &sliced]() {
                u.run(kSlice);
                sliced += kSlice;
            });
        ASSERT_TRUE(result.succeeded) << result.error;
        EXPECT_TRUE(result.usedPreCopy);
        // the reference mirrors the source's host run() calls
        // exactly: the round-robin schedule position at an InstLimit
        // boundary is host policy, so the budget split must match
        for (InstCount s = 0; s < sliced; s += kSlice)
            t.run(kSlice);
    } else {
        result = migrate::migrateMachine(u, v, mc);
        ASSERT_TRUE(result.succeeded) << result.error;
    }
    if (injected && !precopy) {
        // the pending post-cut event travelled inside the image
        // (under pre-copy it may legitimately fire on the source
        // during a slice — bit-identity still holds, because the
        // reference mirrors the same slices)
        EXPECT_GT(inj_v.pendingCount(), 0u)
            << "pending injection lost in migration";
    }

    t.run(total - cut - sliced);
    v.run(total - cut - sliced);

    std::vector<Byte> end_t = t.checkpoint();
    std::vector<Byte> end_v = v.checkpoint();
    EXPECT_EQ(end_t, end_v) << "migrated twin diverged";
    if (end_t != end_v) {
        // name the diverging sections and offsets for triage
        SnapshotImage a(end_t), b(end_v);
        for (const SnapshotSectionDiff &d : diffSnapshotImages(a, b))
            ADD_FAILURE() << snapshotDiffLine(d);
        if (harts == 1)
            fuzzutil::expectLockstepState(t, v);
    }
}

class MigrateFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(MigrateFuzz, MigratedRunIsBitIdenticalToUnmigratedReference)
{
    const unsigned base = GetParam() * kMigrateSeedsPerShard;
    for (unsigned s = 0; s < kMigrateSeedsPerShard; s++) {
        runMigrationOracleSeed(base + s);
        if (::testing::Test::HasNonfatalFailure())
            break;
    }
}

INSTANTIATE_TEST_SUITE_P(Shards, MigrateFuzz,
                         ::testing::Range(0u, kMigrateFuzzShards));

// ---------------------------------------------------------------------------
// Migration while a user-vectored handler is live
// ---------------------------------------------------------------------------

/** The multihart COP3 user-vectored guest (mirrors test_multihart's
 *  rig) — exceptions vector directly to user code, so a migration cut
 *  can land with a hart mid-handler. */
struct UvGuest
{
    explicit UvGuest(unsigned n)
    {
        MachineConfig cfg;
        cfg.harts = n;
        cfg.quantum = 100;
        cfg.cpu.userVectorHw = true;
        m = std::make_unique<Machine>(cfg);
        m->load(rt::multihart::buildKernelImage(n));
        worker = rt::multihart::buildWorkerProgram(n);
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
            h.cp0().setStatusReg(h.cp0().statusReg() | status::KUc |
                                 status::UV);
            h.cp0().setUxReg(UxReg::Target,
                             worker.symbol("mh_uv_handler"));
            h.cp0().write(cp0reg::EntryHi,
                          kAsid << entryhi::AsidShift);
            h.setPc(worker.symbol("mh_hart" + std::to_string(i) +
                                  "_entry"));
        }
    }

    std::unique_ptr<Machine> m;
    Program worker;
};

TEST(MigrateUserVectored, CutsInsideALiveHandlerMigrateBitIdentically)
{
    constexpr unsigned kHarts = 2;
    constexpr InstCount kTotal = 4000;

    unsigned in_handler_cuts = 0;

    for (InstCount cut = 250; cut < kTotal; cut += 250) {
        SCOPED_TRACE(::testing::Message() << "cut at " << cut);
        // The never-migrated reference makes the *same* host run()
        // calls as the migrated guest: the round-robin schedule
        // position at an InstLimit boundary depends on the budget
        // split, which is host policy, not guest state.
        UvGuest ref(kHarts), src(kHarts), dst(kHarts);
        Addr handler = ref.worker.symbol("mh_uv_handler");
        ref.m->run(cut);
        ref.m->run(kTotal - cut);

        src.m->run(cut);
        for (unsigned h = 0; h < kHarts; h++) {
            Addr pc = src.m->hart(h).pc();
            // generous bound: the worker handler body is tiny
            if (pc >= handler && pc < handler + 256)
                in_handler_cuts++;
        }
        migrate::MigrationConfig mc;
        mc.transport = lossyTransport(0xc0b3 + unsigned(cut));
        migrate::MigrationResult result =
            migrate::migrateMachine(*src.m, *dst.m, mc);
        ASSERT_TRUE(result.succeeded) << result.error;
        dst.m->run(kTotal - cut);
        EXPECT_EQ(dst.m->checkpoint(), ref.m->checkpoint())
            << "migration at cut " << cut << " diverged";
    }
    // the exception rate is high enough that the sweep must have
    // caught harts mid-handler; otherwise the test proves nothing
    EXPECT_GT(in_handler_cuts, 0u)
        << "no cut landed inside the user-vectored handler";
}

// ---------------------------------------------------------------------------
// Chaos-rig migrations mid-campaign
// ---------------------------------------------------------------------------

TEST(MigrateRig, MidCampaignMigrationConvergesToUnmigratedReference)
{
    for (std::uint64_t seed : {3ull, 9ull, 14ull, 27ull}) {
        SCOPED_TRACE(::testing::Message() << "campaign seed " << seed);
        chaos::Reference ref = chaos::makeReference();

        // unmigrated reference run of the same seeded campaign
        FaultInjector inj_a;
        chaos::Rig a(&inj_a);
        bool may_a = false;
        for (const FaultEvent &e :
             chaos::planEvents(seed, ref.window, a, &may_a))
            inj_a.addEvent(e);

        // source, identically seeded
        FaultInjector inj_b;
        chaos::Rig b(&inj_b);
        bool may_b = false;
        for (const FaultEvent &e :
             chaos::planEvents(seed, ref.window, b, &may_b))
            inj_b.addEvent(e);

        std::mt19937 rng(unsigned(seed) * 40503u + 3);
        unsigned cut = 10 + rng() % (chaos::kChaosOps - 10);
        auto runToEnd = [](chaos::Rig &rig) -> bool {
            try {
                rig.run();
                return true;
            } catch (const GuestError &) {
                return false; // diagnosed (legal when planned)
            }
        };

        bool a_threw_early = false;
        try {
            a.runTo(cut);
            b.runTo(cut);
        } catch (const GuestError &) {
            a_threw_early = true; // both rigs behave identically
        }
        if (a_threw_early)
            continue;

        FaultInjector inj_c;
        chaos::Rig c(&inj_c);
        migrate::MigrationConfig mc;
        mc.transport = lossyTransport(seed * 31 + 7);
        migrate::MigrationResult result =
            migrate::migrateRig(b, c, mc);
        ASSERT_TRUE(result.succeeded) << result.error;
        EXPECT_EQ(c.cursor(), cut);

        bool a_done = runToEnd(a);
        bool c_done = runToEnd(c);
        ASSERT_EQ(a_done, c_done)
            << "migrated campaign classified differently";
        if (a_done) {
            EXPECT_EQ(c.words(), a.words());
            EXPECT_EQ(c.checkpoint(), a.checkpoint())
                << "migrated rig state diverged";
        }
    }
}

TEST(MigrateRig, PartitionedMigrationLeavesTheSourceCampaignRunning)
{
    chaos::Reference ref = chaos::makeReference();
    FaultInjector inj_src, inj_dst;
    chaos::Rig src(&inj_src);
    src.runTo(chaos::kChaosOps / 2);

    chaos::Rig dst(&inj_dst);
    migrate::MigrationConfig mc;
    mc.transport.lossPercent = 100;
    mc.transport.maxRetries = 3;
    migrate::MigrationResult result =
        migrate::migrateRig(src, dst, mc);
    EXPECT_FALSE(result.succeeded);
    EXPECT_EQ(result.errorKind, MigrateErrorKind::Partition);
    EXPECT_GT(result.transport.retries, 0u);

    // graceful degradation: the source finishes and converges
    src.run();
    EXPECT_EQ(src.words(), ref.words);
}

// ---------------------------------------------------------------------------
// Fleet soaks
// ---------------------------------------------------------------------------

apps::fleet::FleetConfig
smallFleet(std::uint64_t seed)
{
    apps::fleet::FleetConfig cfg;
    cfg.seed = seed;
    cfg.hosts = 3;
    cfg.guests = 5;
    cfg.dsmGuests = 1;
    cfg.targetMigrations = 8;
    cfg.opsPerTick = 8;
    cfg.cooldownTicks = 2;
    return cfg;
}

TEST(FleetSoak, SmallSoakIsHealthy)
{
    apps::fleet::Fleet fleet(smallFleet(101));
    const apps::fleet::FleetStats &s = fleet.run();
    EXPECT_EQ(s.hostFailures, 0u);
    EXPECT_TRUE(s.failureNotes.empty());
    EXPECT_EQ(s.migrationsAttempted, 8u);
    EXPECT_GT(s.migrationsSucceeded, 0u);
    // every failure is diagnosed into exactly one taxonomy bucket
    EXPECT_EQ(s.migrationsFailed(),
              s.migrationsAttempted - s.migrationsSucceeded);
    // the deliberate-partition drill ran and was absorbed
    EXPECT_GT(s.partitionsInjected, 0u);
    EXPECT_GE(s.migrationsFailedByKind[0], s.partitionsInjected);
    EXPECT_GT(s.campaignsConverged, 0u);
    EXPECT_GT(s.dsmReadsVerified, 0u);
    EXPECT_EQ(s.downtimeCycles.size(), s.migrationsSucceeded);
    EXPECT_GE(s.downtimeP99(), s.downtimeP50());
}

TEST(FleetSoak, SameSeedYieldsAnIdenticalLedger)
{
    apps::fleet::Fleet a(smallFleet(77)), b(smallFleet(77));
    const apps::fleet::FleetStats &sa = a.run();
    const apps::fleet::FleetStats &sb = b.run();
    EXPECT_EQ(sa.chaosOpsRun, sb.chaosOpsRun);
    EXPECT_EQ(sa.dsmOpsRun, sb.dsmOpsRun);
    EXPECT_EQ(sa.campaignsConverged, sb.campaignsConverged);
    EXPECT_EQ(sa.campaignsDiagnosed, sb.campaignsDiagnosed);
    EXPECT_EQ(sa.migrationsSucceeded, sb.migrationsSucceeded);
    EXPECT_EQ(sa.migrationsFailedByKind, sb.migrationsFailedByKind);
    EXPECT_EQ(sa.downtimeCycles, sb.downtimeCycles);
    EXPECT_EQ(sa.framesSent, sb.framesSent);
    EXPECT_EQ(sa.perHostArrivals, sb.perHostArrivals);
    EXPECT_EQ(sa.hostFailures, sb.hostFailures);
}

TEST(FleetSoak, AllPartitionsDrillDegradesGracefullyEverywhere)
{
    apps::fleet::FleetConfig cfg = smallFleet(55);
    cfg.partitionEvery = 1; // every migration hits a dead link
    apps::fleet::Fleet fleet(cfg);
    const apps::fleet::FleetStats &s = fleet.run();
    EXPECT_EQ(s.migrationsSucceeded, 0u);
    EXPECT_EQ(s.migrationsFailedByKind[0], s.migrationsAttempted);
    EXPECT_EQ(s.partitionsInjected, s.migrationsAttempted);
    // and yet: zero host failures — every guest kept running on its
    // source and converged
    EXPECT_EQ(s.hostFailures, 0u);
    EXPECT_GT(s.campaignsConverged, 0u);
}

// ---------------------------------------------------------------------------
// Iterative pre-copy
// ---------------------------------------------------------------------------

TEST(MigratePreCopy, DirtyGuestPreCopyShrinksTheDowntimeWindow)
{
    // Same guest state, same weather seed, both modes: pre-copy must
    // pause the guest for strictly less than the full-image window,
    // paying for it in total bytes (every round re-ships dirty pages).
    migrate::MigrationConfig mc;
    mc.transport.seed = 0xD1517;
    mc.transport.lossPercent = 4;
    mc.transport.corruptPercent = 2;
    mc.transport.delayPercent = 8;

    chaos::Rig src_stop;
    src_stop.runTo(chaos::kChaosOps / 2);
    chaos::Rig dst_stop;
    migrate::MigrationResult stopcopy =
        migrate::migrateRig(src_stop, dst_stop, mc);
    ASSERT_TRUE(stopcopy.succeeded) << stopcopy.error;
    EXPECT_FALSE(stopcopy.usedPreCopy);

    chaos::Rig src_pre;
    src_pre.runTo(chaos::kChaosOps / 2);
    chaos::Rig dst_pre;
    migrate::PreCopyConfig pc;
    pc.maxRounds = 2;
    pc.convergePages = 8;
    migrate::MigrationResult precopy =
        migrate::migrateRigPreCopy(src_pre, dst_pre, mc, pc, 4);
    ASSERT_TRUE(precopy.succeeded) << precopy.error;
    EXPECT_TRUE(precopy.usedPreCopy);
    EXPECT_GT(precopy.precopy.pagesSentPreCopy, 0u);
    EXPECT_LT(precopy.downtimeCycles, stopcopy.downtimeCycles);
    EXPECT_GT(precopy.bytesMoved, stopcopy.bytesMoved);
    EXPECT_EQ(precopy.bytesMoved,
              precopy.precopy.bytesMovedPreCopy +
                  precopy.precopy.bytesMovedStopCopy);

    // the migrated guest finishes the campaign and converges
    chaos::Reference ref = chaos::makeReference();
    dst_pre.run();
    EXPECT_EQ(dst_pre.words(), ref.words);
}

TEST(MigratePreCopy, GiveUpAfterMaxRoundsStillRestoresBitIdentically)
{
    // convergePages = 0 with a chaos guest dirtying pages every op:
    // the loop can never converge, spends its round budget, and falls
    // back to stop-and-copy on the residual — still bit-identical.
    chaos::Rig src;
    src.runTo(chaos::kChaosOps / 2);
    chaos::Rig dst;
    migrate::MigrationConfig mc;
    mc.transport = lossyTransport(0x61FE);
    migrate::PreCopyConfig pc;
    pc.maxRounds = 2;
    pc.convergePages = 0;
    migrate::MigrationResult result =
        migrate::migrateRigPreCopy(src, dst, mc, pc, 4);
    ASSERT_TRUE(result.succeeded) << result.error;
    EXPECT_TRUE(result.usedPreCopy);
    EXPECT_FALSE(result.precopy.converged);
    EXPECT_EQ(result.precopy.roundsRun, 2u);
    // the give-up round shipped its dirty set live, so only what was
    // dirtied after that last send is residual
    EXPECT_GT(result.precopy.pagesSentPreCopy, 0u);

    // reference: a fresh rig run straight to the destination's cursor
    chaos::Rig a;
    a.runTo(dst.cursor());
    a.run();
    dst.run();
    EXPECT_EQ(dst.words(), a.words());
    EXPECT_EQ(dst.checkpoint(), a.checkpoint());
}

/**
 * A page the guest makes nonzero in one dirty round and zero again in
 * the next reaches the receiver as a delivered page of zeros. The
 * splice must scan it and elide it, so the restored image is the
 * stop-and-copy checkpoint of the same paused state, byte for byte.
 */
TEST(MigratePreCopy, PageZeroedAgainBeforeStopAndCopyIsElided)
{
    MachineConfig cfg;
    cfg.memBytes = 1 << 18;
    Machine src(cfg), dst(cfg);
    fuzzutil::installFuzzSkipHandlers(src);
    src.load(fuzzutil::buildFuzzProgram(5));
    src.hart(0).setPc(testutil::kTestOrigin);
    src.run(1000);

    const Addr page = Addr(cfg.memBytes - PhysMemory::PageBytes);
    ASSERT_TRUE(src.mem().blockIsZero(page, PhysMemory::PageBytes));

    migrate::MigrationConfig mc;
    mc.transport = lossyTransport(0x2E60);
    migrate::PreCopyConfig pc;
    pc.maxRounds = 2;
    pc.convergePages = 0; // ship every round's dirty set
    unsigned round = 0;
    migrate::MigrationResult result = migrate::migrateMachinePreCopy(
        src, dst, mc, pc, [&src, &round, page] {
            src.mem().writeWord(page + 0x40, round++ == 0 ? 0xfeedu : 0);
            src.run(100);
        });
    ASSERT_TRUE(result.succeeded) << result.error;
    EXPECT_EQ(result.precopy.roundsRun, 2u);

    std::vector<Byte> stopcopy = src.checkpoint();
    std::vector<Byte> restored = dst.checkpoint();
    EXPECT_EQ(restored, stopcopy);
    SnapshotImage img(restored);
    SnapshotReader r = img.section(kSnapshotMemoryTag);
    ASSERT_EQ(r.u64(), cfg.memBytes);
    std::uint32_t live = r.u32();
    std::vector<Byte> buf(PhysMemory::PageBytes);
    for (std::uint32_t i = 0; i < live; i++) {
        std::uint32_t p = r.u32();
        EXPECT_NE(p, page / PhysMemory::PageBytes) << "zero page shipped";
        r.bytes(buf.data(), buf.size());
    }
    r.expectEnd();
}

/** A fuzz machine and a pre-copy source over it whose guest never
 *  runs between rounds, so the initial pass ships every live page
 *  exactly once and the final cut leaves no residual. */
struct IdlePreCopy
{
    MachineConfig cfg;
    std::unique_ptr<Machine> src, dst;
    migrate::PreCopySource source;
    bool restored = false;

    IdlePreCopy()
    {
        cfg.memBytes = 1 << 18;
        src = std::make_unique<Machine>(cfg);
        dst = std::make_unique<Machine>(cfg);
        fuzzutil::installFuzzSkipHandlers(*src);
        src->load(fuzzutil::buildFuzzProgram(7));
        src->hart(0).setPc(testutil::kTestOrigin);
        src->run(1000);
        PhysMemory &mem = src->mem();
        auto base = [](std::uint32_t p) {
            return Addr(std::size_t(p) * kSnapshotPageBytes);
        };
        source.memBytes = mem.size();
        source.readPage = [&mem, base](std::uint32_t p, Byte *out,
                                       std::size_t len) {
            mem.readBlock(base(p), out, len);
        };
        source.pageVersion = [&mem, base](std::uint32_t p) {
            return mem.pageVersion(base(p));
        };
        source.pageIsZero = [&mem, base](std::uint32_t p,
                                         std::size_t len) {
            return mem.blockIsZero(base(p), len);
        };
        source.runSlice = [] {};
        source.checkpoint = [this] { return src->checkpoint(); };
    }

    migrate::MigrationResult migrate()
    {
        migrate::PreCopyConfig pc;
        pc.maxRounds = 1;
        return migrate::migrateImagePreCopy(
            source,
            [this](const std::vector<Byte> &image) {
                restored = true;
                dst->restore(image);
            },
            migrate::MigrationConfig(), pc);
    }
};

TEST(MigratePreCopy, FlippedPageStoreBitIsRejectedByThePayloadCrc)
{
    IdlePreCopy clean;
    migrate::MigrationResult ok = clean.migrate();
    ASSERT_TRUE(ok.succeeded) << ok.error;
    EXPECT_EQ(ok.precopy.residualPages, 0u);
    EXPECT_EQ(clean.dst->checkpoint(), clean.src->checkpoint());

    // The first page shipped reaches the receiver's page store with
    // one bit flipped; nothing dirties it again, so the splice serves
    // the flipped byte and only the MEM payload CRC can notice.
    IdlePreCopy torn;
    auto read = torn.source.readPage;
    bool flipped = false;
    torn.source.readPage = [&](std::uint32_t p, Byte *out,
                               std::size_t len) {
        read(p, out, len);
        if (!flipped)
            out[len / 2] ^= 0x08;
        flipped = true;
    };
    migrate::MigrationResult result = torn.migrate();
    EXPECT_TRUE(flipped);
    ASSERT_FALSE(result.succeeded);
    EXPECT_EQ(result.errorKind, MigrateErrorKind::ImageRejected);
    EXPECT_NE(result.error.find("payload CRC mismatch"),
              std::string::npos)
        << result.error;
    EXPECT_FALSE(torn.restored);
}

TEST(MigratePreCopy, FlippedControlSectionBitIsRejectedByItsSectionCrc)
{
    // One bit of a non-memory section of the source checkpoint flips,
    // and the footer CRC is recomputed over the torn bytes, so only
    // that section's own CRC can reject it.
    IdlePreCopy torn;
    torn.source.checkpoint = [&torn] {
        std::vector<Byte> image = torn.src->checkpoint();
        SnapshotImage parsed(image);
        SnapshotSection victim;
        for (const SnapshotSection &s : parsed.sections())
            if (s.tag != kSnapshotMemoryTag && s.length > 0)
                victim = s;
        image[victim.offset + victim.length / 2] ^= 0x01;
        std::uint32_t total =
            snapshotCrc32(image.data(), image.size() - 4);
        for (unsigned i = 0; i < 4; i++)
            image[image.size() - 4 + i] = Byte(total >> (8 * i));
        return image;
    };
    migrate::MigrationResult result = torn.migrate();
    ASSERT_FALSE(result.succeeded);
    EXPECT_EQ(result.errorKind, MigrateErrorKind::ImageRejected);
    EXPECT_NE(result.error.find("CRC mismatch"), std::string::npos)
        << result.error;
    EXPECT_EQ(result.error.find("total CRC"), std::string::npos)
        << result.error;
    EXPECT_FALSE(torn.restored);
}

TEST(MigratePreCopy, PartitionLeavesTheSourceCampaignRunning)
{
    chaos::Reference ref = chaos::makeReference();
    chaos::Rig src;
    src.runTo(chaos::kChaosOps / 2);
    chaos::Rig dst;
    migrate::MigrationConfig mc;
    mc.transport.lossPercent = 100;
    mc.transport.maxRetries = 2;
    migrate::PreCopyConfig pc;
    migrate::MigrationResult result =
        migrate::migrateRigPreCopy(src, dst, mc, pc, 4);
    EXPECT_FALSE(result.succeeded);
    EXPECT_EQ(result.errorKind, MigrateErrorKind::Partition);
    // graceful degradation: the source finishes and converges (it may
    // have advanced by the slices already run — that is what "live"
    // means)
    src.run();
    EXPECT_EQ(src.words(), ref.words);
}

// ---------------------------------------------------------------------------
// TransferSession::reconfigure() mid-session
// ---------------------------------------------------------------------------

TEST(TransportReconfigure, ResumedSessionBitMatchesUninterruptedRun)
{
    // The RNG roll order is per-chunk-attempt, independent of where
    // run() calls are split — so interrupting after 5 chunks and
    // resuming (reconfigure with identical knobs) must replay the
    // same weather and land the same ledger, bit for bit.
    std::vector<Byte> image = sampleImage(21);
    TransportConfig cfg = lossyTransport(0xC0FFEE);

    migrate::TransferSession ref(image, cfg);
    ref.run();
    std::vector<Byte> want = ref.receivedImage();

    migrate::TransferSession s(image, cfg);
    EXPECT_EQ(s.runSome(5), 5u);
    EXPECT_EQ(s.chunksDelivered(), 5u);
    s.reconfigure(cfg);
    s.run();
    EXPECT_TRUE(s.complete());
    EXPECT_EQ(s.receivedImage(), want);
    EXPECT_EQ(s.stats().framesSent, ref.stats().framesSent);
    EXPECT_EQ(s.stats().retries, ref.stats().retries);
    EXPECT_EQ(s.stats().cyclesCharged, ref.stats().cyclesCharged);
    EXPECT_EQ(s.stats().retryHistogram, ref.stats().retryHistogram);
}

TEST(TransportReconfigure, WeatherChangeBetweenPartitionsHealsTheLink)
{
    std::vector<Byte> image = sampleImage(22);
    TransportConfig dead;
    dead.seed = 5;
    dead.chunkBytes = 1024;
    dead.lossPercent = 100;
    dead.maxRetries = 3;
    migrate::TransferSession s(image, dead);
    try {
        s.run();
        FAIL() << "a fully partitioned link delivered";
    } catch (const MigrateError &e) {
        EXPECT_EQ(e.kind(), MigrateErrorKind::Partition);
        EXPECT_EQ(e.retries(), 3u);
        EXPECT_GT(e.chargedTimeout(), 0u);
    }
    EXPECT_EQ(s.chunksDelivered(), 0u);

    TransportConfig healed = dead;
    healed.lossPercent = 10;
    s.reconfigure(healed);
    s.run();
    EXPECT_TRUE(s.complete());
    EXPECT_EQ(s.receivedImage(), image);
}

TEST(TransportReconfigure, TightenedRetryBudgetAppliesMidSession)
{
    std::vector<Byte> image = sampleImage(23);
    TransportConfig cfg;
    cfg.seed = 9;
    cfg.chunkBytes = 1024;
    migrate::TransferSession s(image, cfg);
    EXPECT_EQ(s.runSome(3), 3u);

    TransportConfig dead = cfg;
    dead.lossPercent = 100;
    dead.maxRetries = 2;
    s.reconfigure(dead);
    try {
        s.run();
        FAIL() << "a fully partitioned link delivered";
    } catch (const MigrateError &e) {
        EXPECT_EQ(e.kind(), MigrateErrorKind::Partition);
        // the failure names the first chunk still in flight, under
        // the *tightened* budget
        EXPECT_EQ(e.chunk(), 3u);
        EXPECT_EQ(e.retries(), 2u);
    }
    // the delivered set survived the failed epoch
    EXPECT_EQ(s.chunksDelivered(), 3u);
}

// ---------------------------------------------------------------------------
// Per-chunk failure diagnostics
// ---------------------------------------------------------------------------

TEST(MigrateDiagnostics, FailureCarriesChunkRetriesAndChargedTimeout)
{
    chaos::Rig src;
    src.runTo(chaos::kChaosOps / 3);
    chaos::Rig dst;
    migrate::MigrationConfig mc;
    mc.transport.lossPercent = 100;
    mc.transport.maxRetries = 4;
    migrate::MigrationResult result = migrate::migrateRig(src, dst, mc);
    ASSERT_FALSE(result.succeeded);
    EXPECT_EQ(result.errorKind, MigrateErrorKind::Partition);
    EXPECT_EQ(result.errorChunk, 0u);
    EXPECT_EQ(result.errorRetries, 4u);
    EXPECT_GT(result.errorTimeoutCharged, 0u);
    EXPECT_LE(result.errorTimeoutCharged,
              mc.transport.timeoutCapCycles);
}

// ---------------------------------------------------------------------------
// Migration and host-crash as first-class chaos-campaign ops
// ---------------------------------------------------------------------------

TEST(ChaosMigrateOps, PlannedOpsAreSeededDeterministicAndSorted)
{
    chaos::MigrationPlan a = chaos::planMigrationOps(1234, 6);
    chaos::MigrationPlan b = chaos::planMigrationOps(1234, 6);
    ASSERT_EQ(a.size(), 6u);
    ASSERT_EQ(b.size(), 6u);
    for (std::size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].atOp, b[i].atOp);
        EXPECT_EQ(a[i].crash, b[i].crash);
        EXPECT_EQ(a[i].crashAfterPercent, b[i].crashAfterPercent);
        EXPECT_EQ(a[i].weather.seed, b[i].weather.seed);
        EXPECT_EQ(a[i].weather.lossPercent, b[i].weather.lossPercent);
        EXPECT_LT(a[i].atOp, chaos::kTotalOps);
        if (i != 0)
            EXPECT_GE(a[i].atOp, a[i - 1].atOp) << "plan not sorted";
    }
}

TEST(ChaosMigrateOps, CleanMigrationOpIsInvisibleToTheCampaignOracle)
{
    chaos::Reference ref = chaos::makeReference();
    chaos::MigrationPlan plan(1);
    plan[0].kind = chaos::MigrateOp::Kind::Migrate;
    plan[0].atOp = 30;
    plan[0].weather.seed = 99;
    plan[0].weather.lossPercent = 15;
    plan[0].weather.corruptPercent = 10;

    for (std::uint64_t seed : {2ull, 5ull, 12ull}) {
        SCOPED_TRACE(::testing::Message() << "campaign seed " << seed);
        chaos::CampaignOutcome with = chaos::runCampaign(
            seed, ref.window, ref.words, {}, 0, nullptr, &plan);
        chaos::CampaignOutcome without =
            chaos::runCampaign(seed, ref.window, ref.words, {});
        // a successful migration swapped onto a bit-identical twin; a
        // typed transfer failure kept the source — either way the
        // campaign outcome is exactly the no-migration outcome
        EXPECT_EQ(with.diagnosed, without.diagnosed);
        EXPECT_EQ(with.hostFailure, without.hostFailure);
        EXPECT_EQ(with.what, without.what);
        EXPECT_EQ(with.words, without.words);
        EXPECT_FALSE(with.hostFailure);
    }
}

TEST(ChaosMigrateOps, DestCrashMidTransferDegradesGracefully)
{
    chaos::Reference ref = chaos::makeReference();
    chaos::MigrationPlan plan(1);
    plan[0].atOp = 44;
    plan[0].crash = chaos::MigrateOp::Crash::Dest;
    plan[0].crashAfterPercent = 50;
    const std::uint64_t seed = 2;
    chaos::CampaignOutcome with = chaos::runCampaign(
        seed, ref.window, ref.words, {}, 0, nullptr, &plan);
    chaos::CampaignOutcome without =
        chaos::runCampaign(seed, ref.window, ref.words, {});
    // the half-staged image died with the destination; the source
    // never paused, so the campaign is oblivious
    EXPECT_EQ(with.diagnosed, without.diagnosed);
    EXPECT_EQ(with.what, without.what);
    EXPECT_EQ(with.words, without.words);
    EXPECT_FALSE(with.hostFailure);
}

TEST(ChaosMigrateOps, SourceCrashMidTransferIsADeterministicDiagnosis)
{
    chaos::Reference ref = chaos::makeReference();
    chaos::MigrationPlan plan(1);
    plan[0].atOp = 37;
    plan[0].crash = chaos::MigrateOp::Crash::Source;
    plan[0].crashAfterPercent = 40;
    const std::uint64_t seed = 2;
    chaos::CampaignOutcome out = chaos::runCampaign(
        seed, ref.window, ref.words, {}, 0, nullptr, &plan);
    EXPECT_TRUE(out.diagnosed);
    EXPECT_FALSE(out.hostFailure);
    EXPECT_NE(out.what.find(
                  "source host crashed mid-migration at op 37"),
              std::string::npos)
        << out.what;
    EXPECT_NE(out.what.find("chunks delivered"), std::string::npos)
        << out.what;

    chaos::CampaignOutcome again = chaos::runCampaign(
        seed, ref.window, ref.words, {}, 0, nullptr, &plan);
    EXPECT_EQ(out.what, again.what);
    EXPECT_EQ(out.failOp, again.failOp);
}

TEST(ChaosMigrateOps, HostCrashOpIsADeterministicDiagnosis)
{
    chaos::Reference ref = chaos::makeReference();
    chaos::MigrationPlan plan(1);
    plan[0].kind = chaos::MigrateOp::Kind::HostCrash;
    plan[0].atOp = 21;
    const std::uint64_t seed = 2;
    chaos::CampaignOutcome out = chaos::runCampaign(
        seed, ref.window, ref.words, {}, 0, nullptr, &plan);
    EXPECT_TRUE(out.diagnosed);
    EXPECT_FALSE(out.hostFailure);
    EXPECT_NE(
        out.what.find("host crashed under the campaign at op 21"),
        std::string::npos)
        << out.what;
    chaos::CampaignOutcome again = chaos::runCampaign(
        seed, ref.window, ref.words, {}, 0, nullptr, &plan);
    EXPECT_EQ(out.what, again.what);
}

TEST(ChaosMigrateOps, ShrinkerReducesAMigrationFailureToATinyWindow)
{
    chaos::Reference ref = chaos::makeReference();
    chaos::MigrationPlan plan(1);
    plan[0].atOp = 50;
    plan[0].crash = chaos::MigrateOp::Crash::Source;
    plan[0].crashAfterPercent = 35;
    const std::uint64_t seed = 3;

    chaos::ReproWindow repro = chaos::shrinkCampaign(
        seed, ref.window, ref.words, {}, 8, &plan);
    ASSERT_TRUE(repro.found);
    EXPECT_LE(repro.endOp - repro.startOp, 12u)
        << "migration failure did not minimize to a tiny window";
    EXPECT_LE(repro.startOp, 50u);
    EXPECT_GE(repro.endOp, 50u);
    EXPECT_NE(repro.failure.find("crashed mid-migration"),
              std::string::npos)
        << repro.failure;

    chaos::CampaignOutcome replay =
        chaos::replayRepro(repro, ref.words);
    EXPECT_TRUE(replay.diagnosed);
    EXPECT_EQ(replay.what, repro.failure);

    // round-trip through the crash-consistent repro file
    std::string path =
        ::testing::TempDir() + "uexc_migrate_repro.uxsn";
    chaos::writeReproFile(repro, path);
    chaos::ReproWindow loaded = chaos::readReproFile(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.seed, repro.seed);
    EXPECT_EQ(loaded.startOp, repro.startOp);
    EXPECT_EQ(loaded.endOp, repro.endOp);
    EXPECT_EQ(loaded.snapshot, repro.snapshot);
    ASSERT_EQ(loaded.migrations.size(), repro.migrations.size());
    EXPECT_EQ(loaded.migrations[0].atOp, repro.migrations[0].atOp);
    EXPECT_EQ(loaded.migrations[0].crash, repro.migrations[0].crash);
    chaos::CampaignOutcome replay2 =
        chaos::replayRepro(loaded, ref.words);
    EXPECT_EQ(replay2.what, repro.failure);
}

// ---------------------------------------------------------------------------
// Supervised self-healing fleet
// ---------------------------------------------------------------------------

apps::fleet::FleetConfig
supervisedFleet(std::uint64_t seed)
{
    apps::fleet::FleetConfig cfg;
    cfg.seed = seed;
    cfg.hosts = 3;
    cfg.guests = 4;
    cfg.dsmGuests = 1;
    cfg.targetMigrations = 4;
    cfg.opsPerTick = 8;
    cfg.cooldownTicks = 2;
    cfg.supervise = true;
    cfg.failEvery = 2;
    cfg.checkpointEveryTicks = 2;
    return cfg;
}

TEST(FleetSupervised, DrilledSoakSelfHealsWithZeroHostFailures)
{
    apps::fleet::FleetConfig cfg = supervisedFleet(404);
    cfg.precopyRounds = 2;
    apps::fleet::Fleet fleet(cfg);
    const apps::fleet::FleetStats &s = fleet.run();
    EXPECT_EQ(s.hostFailures, 0u);
    for (const std::string &note : s.failureNotes)
        ADD_FAILURE() << note;
    EXPECT_GT(s.drillsHostCrash + s.drillsWedge + s.drillsGuestCrash +
                  s.drillsCorruptImage + s.drillsSourceCrash,
              0u);
    EXPECT_GT(s.recoveriesRestart + s.recoveriesRemigrate, 0u);

    const rt::supervise::Supervisor *sup = fleet.supervisor();
    ASSERT_NE(sup, nullptr);
    EXPECT_GT(sup->stats().heartbeats, 0u);
    EXPECT_EQ(sup->stats().recoveries,
              s.recoveriesRestart + s.recoveriesRemigrate);
    EXPECT_EQ(sup->stats().mttrTicks.size(),
              sup->stats().recoveries);
    EXPECT_GE(sup->stats().mttrTicksPercentile(99),
              sup->stats().mttrTicksPercentile(50));
    if (s.drillsCorruptImage != 0) {
        // every deliberately torn checkpoint was refused by
        // validation before touching any guest state
        EXPECT_GE(s.corruptImagesRejected, s.drillsCorruptImage);
    }
}

TEST(FleetSupervised, SameSeedYieldsAnIdenticalDecisionLog)
{
    apps::fleet::Fleet a(supervisedFleet(505));
    apps::fleet::Fleet b(supervisedFleet(505));
    const apps::fleet::FleetStats &sa = a.run();
    const apps::fleet::FleetStats &sb = b.run();
    ASSERT_NE(a.supervisor(), nullptr);
    ASSERT_NE(b.supervisor(), nullptr);
    EXPECT_EQ(a.supervisor()->decisionLogText(),
              b.supervisor()->decisionLogText());
    EXPECT_EQ(a.supervisor()->stats().mttrTicks,
              b.supervisor()->stats().mttrTicks);
    EXPECT_EQ(a.supervisor()->stats().mttrCycles,
              b.supervisor()->stats().mttrCycles);
    EXPECT_EQ(sa.recoveriesRestart, sb.recoveriesRestart);
    EXPECT_EQ(sa.recoveriesRemigrate, sb.recoveriesRemigrate);
    EXPECT_EQ(sa.corruptImagesRejected, sb.corruptImagesRejected);
    EXPECT_EQ(sa.guestsQuarantined, sb.guestsQuarantined);
    EXPECT_EQ(sa.chaosOpsRun, sb.chaosOpsRun);
    EXPECT_EQ(sa.downtimeCycles, sb.downtimeCycles);
    EXPECT_EQ(sa.hostFailures, sb.hostFailures);
}

TEST(FleetSupervised, RepeatedFailuresQuarantineWithoutBreakingTheSoak)
{
    apps::fleet::FleetConfig cfg = supervisedFleet(666);
    cfg.supervisor.quarantineAfter = 1; // first failure quarantines
    apps::fleet::Fleet fleet(cfg);
    const apps::fleet::FleetStats &s = fleet.run();
    EXPECT_GT(s.guestsQuarantined, 0u);
    // quarantined guests are excluded from the convergence oracles;
    // everyone else still converges
    EXPECT_EQ(s.hostFailures, 0u);
    for (const std::string &note : s.failureNotes)
        ADD_FAILURE() << note;
}

// The acceptance sweep: 200 seeded supervised soaks under injected
// host crashes, wedges, guest crashes, torn checkpoints, and
// mid-transfer source crashes — every non-quarantined guest must end
// converged and bit-identical to its unfailed reference, with zero
// torn images accepted.
constexpr unsigned kFleetFuzzShards = 8;
constexpr unsigned kFleetSeedsPerShard = 25;

void
runSupervisedSoakSeed(unsigned seed)
{
    SCOPED_TRACE(::testing::Message()
                 << "supervised fleet seed " << seed);
    apps::fleet::FleetConfig cfg =
        supervisedFleet(0x5EED0000ull + seed);
    cfg.guests = 3;
    cfg.dsmGuests = 1;
    cfg.targetMigrations = 3;
    cfg.cooldownTicks = 1;
    cfg.precopyRounds = seed % 2 ? 2 : 0; // both migration modes
    apps::fleet::Fleet fleet(cfg);
    const apps::fleet::FleetStats &s = fleet.run();
    EXPECT_EQ(s.hostFailures, 0u);
    for (const std::string &note : s.failureNotes)
        ADD_FAILURE() << note;
    EXPECT_EQ(s.migrationsFailed(),
              s.migrationsAttempted - s.migrationsSucceeded);
    if (s.drillsCorruptImage != 0)
        EXPECT_GE(s.corruptImagesRejected, s.drillsCorruptImage);
}

class FleetSupervisedFuzz : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FleetSupervisedFuzz, EveryNonQuarantinedGuestSelfHeals)
{
    const unsigned base = GetParam() * kFleetSeedsPerShard;
    for (unsigned s = 0; s < kFleetSeedsPerShard; s++) {
        runSupervisedSoakSeed(base + s);
        if (::testing::Test::HasNonfatalFailure())
            break;
    }
}

INSTANTIATE_TEST_SUITE_P(Shards, FleetSupervisedFuzz,
                         ::testing::Range(0u, kFleetFuzzShards));

} // namespace
} // namespace uexc::sim
