/**
 * @file
 * Checkpoint/restore coverage, bottom-up:
 *
 *  - the snapshot container itself: primitive round trips, and a
 *    hostile-loader campaign — every bit flip, truncation, and
 *    version skew must be rejected with a structured SnapshotError
 *    (never UB, never a crash);
 *  - machine-level round trips over the lockstep fuzz corpus: a run
 *    checkpointed at a random instruction and restored into a twin
 *    must finish bit-identical to the unbroken run, across both
 *    interpreters, 1 and 4 harts, and idle/active fault injectors;
 *  - the restore path's interpreter-cache invalidation;
 *  - the K0 resume-window hazard regression (a spurious refill aimed
 *    into the fast stub's register-restore window must defer);
 *  - chaos-campaign record/replay: mid-campaign restore convergence,
 *    and the divergence finder shrinking a failing seed to a minimal
 *    repro window that replays from its snapshot alone;
 *  - DSM cluster checkpoints, including a fork-SIGKILL-restore soak
 *    over the crash-consistent snapshot file.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "apps/dsm/dsm.h"
#include "common/guesterror.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/chaos.h"
#include "fuzz_util.h"
#include "sim/faultinject.h"
#include "sim/snapshot.h"
#include "sim_test_util.h"

// ---------------------------------------------------------------------------
// Container format
// ---------------------------------------------------------------------------

namespace uexc::sim {
namespace {

Word
leWord(const std::vector<Byte> &buf, std::size_t off)
{
    return Word(buf[off]) | Word(buf[off + 1]) << 8 |
           Word(buf[off + 2]) << 16 | Word(buf[off + 3]) << 24;
}

void
putLeWord(std::vector<Byte> &buf, std::size_t off, Word v)
{
    buf[off] = Byte(v);
    buf[off + 1] = Byte(v >> 8);
    buf[off + 2] = Byte(v >> 16);
    buf[off + 3] = Byte(v >> 24);
}

/** Recompute the footer CRC after deliberately editing an image. */
void
resealImage(std::vector<Byte> &img)
{
    putLeWord(img, img.size() - 4,
              snapshotCrc32(img.data(), img.size() - 4));
}

/** Bit-at-a-time CRC-32, the reference the table-driven one must
 *  match at every length and alignment. */
std::uint32_t
referenceCrc32(const Byte *data, std::size_t len)
{
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < len; i++) {
        crc ^= data[i];
        for (int k = 0; k < 8; k++)
            crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc ^ 0xffffffffu;
}

TEST(SnapshotCrc, KnownAnswers)
{
    const char check[] = "123456789";
    EXPECT_EQ(snapshotCrc32(reinterpret_cast<const Byte *>(check), 9),
              0xCBF43926u);
    EXPECT_EQ(snapshotCrc32(nullptr, 0), 0u);
}

TEST(SnapshotCrc, MatchesReferenceAtEveryShortLengthAndOffset)
{
    // lengths 0-67 cover the empty input, tails alone, and several
    // eight-byte blocks followed by every tail length; offsets 0-7
    // cover every alignment of the block loads
    std::mt19937 rng(0xC4C);
    std::vector<Byte> buf(8 + 67);
    for (Byte &b : buf)
        b = Byte(rng());
    for (std::size_t off = 0; off < 8; off++)
        for (std::size_t len = 0; len <= 67; len++)
            ASSERT_EQ(snapshotCrc32(buf.data() + off, len),
                      referenceCrc32(buf.data() + off, len))
                << "offset " << off << " length " << len;
}

TEST(SnapshotCrc, MatchesReferenceOnAnUnalignedMebibyte)
{
    constexpr std::size_t kLen = std::size_t(1) << 20;
    std::mt19937 rng(0x1F1B);
    std::vector<Byte> buf(kLen + 3);
    for (Byte &b : buf)
        b = Byte(rng());
    EXPECT_EQ(snapshotCrc32(buf.data() + 3, kLen),
              referenceCrc32(buf.data() + 3, kLen));
}

TEST(SnapshotFormat, PrimitivesRoundTrip)
{
    const Word tag1 = snapshotTag('T', 'S', 'T', '1');
    const Word tag2 = snapshotTag('T', 'S', 'T', '2');

    SnapshotWriter w;
    w.beginSection(tag1);
    w.u8(0xab);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.boolean(true);
    w.boolean(false);
    w.str("hello snapshot");
    w.endSection();
    w.beginSection(tag2);
    w.endSection();
    std::vector<Byte> img = w.finish();

    SnapshotImage parsed(img);
    ASSERT_TRUE(parsed.has(tag1));
    ASSERT_TRUE(parsed.has(tag2));
    EXPECT_FALSE(parsed.has(snapshotTag('N', 'O', 'P', 'E')));
    ASSERT_EQ(parsed.sections().size(), 2u);

    SnapshotReader r = parsed.section(tag1);
    EXPECT_EQ(r.u8(), 0xabu);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_TRUE(r.boolean());
    EXPECT_FALSE(r.boolean());
    EXPECT_EQ(r.str(), "hello snapshot");
    r.expectEnd();

    SnapshotReader r2 = parsed.section(tag2);
    EXPECT_EQ(r2.remaining(), 0u);
    r2.expectEnd();
}

TEST(SnapshotFormat, ReaderIsBoundsChecked)
{
    const Word tag = snapshotTag('B', 'N', 'D', 'S');
    SnapshotWriter w;
    w.beginSection(tag);
    w.u8(2); // also an invalid boolean
    w.endSection();
    std::vector<Byte> img = w.finish();

    SnapshotImage parsed(img);
    EXPECT_THROW(parsed.section(tag).u32(), SnapshotError);
    EXPECT_THROW(parsed.section(tag).u64(), SnapshotError);
    EXPECT_THROW(parsed.section(tag).boolean(), SnapshotError);
    EXPECT_THROW(parsed.section(tag).expectEnd(), SnapshotError);
    SnapshotReader ok = parsed.section(tag);
    EXPECT_EQ(ok.u8(), 2u);
    ok.expectEnd();
}

/** A real machine image for the hostile-loader campaigns. */
std::vector<Byte>
smallMachineImage()
{
    MachineConfig cfg;
    cfg.memBytes = 1 << 16;
    Machine m(cfg);
    m.cpu().setPc(0x80000400u);
    return m.checkpoint();
}

TEST(SnapshotFormat, EveryBitFlipIsRejected)
{
    std::vector<Byte> image = smallMachineImage();
    std::mt19937 rng(1234);
    for (int trial = 0; trial < 400; trial++) {
        std::vector<Byte> bad = image;
        std::size_t bit = rng() % (bad.size() * 8);
        bad[bit / 8] ^= Byte(1u << (bit % 8));
        EXPECT_THROW(SnapshotImage{bad}, SnapshotError)
            << "flipped bit " << bit << " of " << bad.size() * 8;
    }
}

TEST(SnapshotFormat, EveryTruncationIsRejected)
{
    std::vector<Byte> image = smallMachineImage();
    for (std::size_t len = 0; len < image.size();
         len += 1 + len / 16) {
        std::vector<Byte> bad(image.begin(),
                              image.begin() +
                                  static_cast<std::ptrdiff_t>(len));
        EXPECT_THROW(SnapshotImage{bad}, SnapshotError)
            << "truncated to " << len << " of " << image.size();
    }
}

TEST(SnapshotFormat, VersionSkewIsRejectedByName)
{
    std::vector<Byte> image = smallMachineImage();
    ASSERT_EQ(leWord(image, 4), kSnapshotVersion);
    putLeWord(image, 4, kSnapshotVersion + 7);
    resealImage(image); // so the *version* check is what fires
    try {
        SnapshotImage parsed(image);
        FAIL() << "version skew accepted";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SnapshotFormat, FileRoundTripIsCrashConsistent)
{
    std::vector<Byte> image = smallMachineImage();
    std::string path = ::testing::TempDir() + "uexc_snap_test_" +
                       std::to_string(getpid()) + ".uxsn";
    writeSnapshotFile(path, image);
    // overwrite with a second image: the rename must be atomic and
    // leave no .tmp debris
    writeSnapshotFile(path, image);
    EXPECT_EQ(readSnapshotFile(path), image);
    FILE *tmp = std::fopen((path + ".tmp").c_str(), "rb");
    EXPECT_EQ(tmp, nullptr);
    if (tmp)
        std::fclose(tmp);
    std::remove(path.c_str());
    EXPECT_THROW(readSnapshotFile(path), SnapshotError);
}

TEST(SnapshotFormat, InterruptedWriteIsNeverObservable)
{
    // Simulate a crash mid-write: the write-to-tmp/rename/dir-fsync
    // protocol must mean a reader only ever sees the old complete
    // image or the new complete image — never a torn one.
    std::vector<Byte> old_image = smallMachineImage();
    std::string path = ::testing::TempDir() + "uexc_snap_torn_" +
                       std::to_string(getpid()) + ".uxsn";
    writeSnapshotFile(path, old_image);

    // crash scenario 1: died after opening the tmp, before writing
    // it all — a truncated .tmp litters the directory
    MachineConfig cfg;
    cfg.memBytes = 1 << 16;
    Machine next(cfg);
    next.cpu().setPc(0x80000800u);
    std::vector<Byte> new_image = next.checkpoint();
    ASSERT_NE(new_image, old_image);
    {
        std::FILE *f = std::fopen((path + ".tmp").c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(new_image.data(), 1, new_image.size() / 3, f);
        std::fclose(f);
    }
    // the published path still reads as the old, valid image
    EXPECT_EQ(readSnapshotFile(path), old_image);
    EXPECT_NO_THROW(SnapshotImage{readSnapshotFile(path)});

    // crash scenario 2: the torn tmp itself is rejected if someone
    // reads it directly (partial image is never parseable)
    EXPECT_THROW(SnapshotImage{readSnapshotFile(path + ".tmp")},
                 SnapshotError);

    // recovery: a fresh complete write replaces both, atomically
    writeSnapshotFile(path, new_image);
    EXPECT_EQ(readSnapshotFile(path), new_image);
    std::FILE *tmp = std::fopen((path + ".tmp").c_str(), "rb");
    EXPECT_EQ(tmp, nullptr) << ".tmp debris after a complete write";
    if (tmp)
        std::fclose(tmp);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Section diffs
// ---------------------------------------------------------------------------

TEST(SnapshotDiff, ReportsSectionTagAndFirstDivergingByte)
{
    const Word tag_same = snapshotTag('S', 'A', 'M', 'E');
    const Word tag_diff = snapshotTag('D', 'I', 'F', 'F');
    auto build = [&](Byte fortysecond) {
        SnapshotWriter w;
        w.beginSection(tag_same);
        for (unsigned i = 0; i < 16; i++)
            w.u8(Byte(i));
        w.endSection();
        w.beginSection(tag_diff);
        for (unsigned i = 0; i < 64; i++)
            w.u8(i == 42 ? fortysecond : Byte(7));
        w.endSection();
        return w.finish();
    };
    std::vector<Byte> bytes_a = build(0x11);
    std::vector<Byte> bytes_b = build(0x22);
    SnapshotImage a(bytes_a), b(bytes_b);

    // identical images: no diffs
    EXPECT_TRUE(diffSnapshotImages(a, a).empty());

    std::vector<SnapshotSectionDiff> diffs = diffSnapshotImages(a, b);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_EQ(diffs[0].tag, tag_diff);
    EXPECT_TRUE(diffs[0].inA);
    EXPECT_TRUE(diffs[0].inB);
    EXPECT_EQ(diffs[0].firstDiffOffset, 42u);
    std::string line = snapshotDiffLine(diffs[0]);
    EXPECT_NE(line.find("DIFF"), std::string::npos) << line;
    EXPECT_NE(line.find("42"), std::string::npos) << line;
}

TEST(SnapshotDiff, ReportsMissingSectionsAndLengthSkew)
{
    const Word tag_a = snapshotTag('O', 'N', 'L', 'A');
    const Word tag_b = snapshotTag('O', 'N', 'L', 'B');
    const Word tag_len = snapshotTag('L', 'E', 'N', 'S');
    auto build = [&](Word only, unsigned len) {
        SnapshotWriter w;
        w.beginSection(only);
        w.u8(1);
        w.endSection();
        w.beginSection(tag_len);
        for (unsigned i = 0; i < len; i++)
            w.u8(9);
        w.endSection();
        return w.finish();
    };
    std::vector<Byte> bytes_a = build(tag_a, 8);
    std::vector<Byte> bytes_b = build(tag_b, 12);
    SnapshotImage a(bytes_a), b(bytes_b);

    std::vector<SnapshotSectionDiff> diffs = diffSnapshotImages(a, b);
    ASSERT_EQ(diffs.size(), 3u);
    unsigned only_a = 0, only_b = 0, skewed = 0;
    for (const SnapshotSectionDiff &d : diffs) {
        if (d.tag == tag_a) {
            EXPECT_TRUE(d.inA && !d.inB);
            only_a++;
        } else if (d.tag == tag_b) {
            EXPECT_TRUE(d.inB && !d.inA);
            only_b++;
        } else {
            ASSERT_EQ(d.tag, tag_len);
            // equal prefix, different length: diverges at the short
            // image's end
            EXPECT_EQ(d.firstDiffOffset, 8u);
            EXPECT_NE(d.lengthA, d.lengthB);
            skewed++;
        }
    }
    EXPECT_EQ(only_a, 1u);
    EXPECT_EQ(only_b, 1u);
    EXPECT_EQ(skewed, 1u);
}

// ---------------------------------------------------------------------------
// Machine round trips over the fuzz corpus
// ---------------------------------------------------------------------------

constexpr unsigned kSnapFuzzShards = 8;
constexpr unsigned kSnapSeedsPerShard = 125; // the full 1000-seed corpus

/**
 * One corpus round trip: run machine T to a random cut, checkpoint,
 * restore into twin U, run both to the end, and require the final
 * serialized states to be byte-identical. The configuration rotates
 * with the seed: interpreter mode, hart count, and whether a fault
 * injector is attached with events straddling the cut (so a pending
 * event must travel through the image and fire identically after
 * restore).
 */
void
runSnapshotRoundTripSeed(unsigned seed)
{
    SCOPED_TRACE(::testing::Message() << "snapshot fuzz seed " << seed);

    const bool fast = seed % 2 != 0;
    const unsigned harts = seed % 4 == 3 ? 4 : 1;
    const bool injected = seed % 5 == 0;

    MachineConfig cfg;
    cfg.memBytes = 1 << 18;
    cfg.harts = harts;
    cfg.quantum = 512; // schedule phase crosses the checkpoint
    cfg.cpu.fastInterpreter = fast;

    FaultInjector inj_t, inj_u;
    MachineConfig cfg_t = cfg, cfg_u = cfg;
    if (injected) {
        cfg_t.cpu.faultInjector = &inj_t;
        cfg_u.cpu.faultInjector = &inj_u;
    }

    Machine t(cfg_t), u(cfg_u);
    Program prog = fuzzutil::buildFuzzProgram(seed);
    for (Machine *m : {&t, &u}) {
        fuzzutil::installFuzzSkipHandlers(*m);
        m->load(prog);
        for (unsigned h = 0; h < harts; h++)
            m->hart(h).setPc(testutil::kTestOrigin);
    }
    if (injected) {
        t.registerSnapshotSection(
            snapshotTag('F', 'I', 'N', 'J'),
            [&inj_t](SnapshotWriter &w) { inj_t.snapshotSave(w); },
            [&inj_t](SnapshotReader &r) { inj_t.snapshotLoad(r); });
        u.registerSnapshotSection(
            snapshotTag('F', 'I', 'N', 'J'),
            [&inj_u](SnapshotWriter &w) { inj_u.snapshotSave(w); },
            [&inj_u](SnapshotReader &r) { inj_u.snapshotLoad(r); });
    }

    std::mt19937 rng(seed * 2654435761u + 17);
    const InstCount cut = 200 + rng() % 3000;
    if (injected) {
        // One event on each side of the cut; only the recoverable,
        // kernel-less-safe kinds (the corpus has no OS to diagnose
        // TlbCorrupt, but the skip handlers recover everything).
        Addr buf_pa = Machine::unmappedToPhys(t.symbol("buf"));
        inj_t.addEvent({FaultKind::MemBitFlip, 0, cut / 2,
                        buf_pa + 4 * Addr(rng() % 32),
                        unsigned(rng() % 32), 0});
        inj_t.addEvent({FaultKind::TlbSpuriousMiss, harts - 1,
                        cut + 200, 0, 0, unsigned(rng() % 64)});
        if (rng() % 2 != 0) {
            inj_t.addEvent({FaultKind::TlbCorrupt, 0, cut + 50, 0, 0,
                            unsigned(rng() % 64)});
        }
    }

    const InstCount total = fuzzutil::kFuzzInstLimit;
    t.run(cut);
    std::vector<Byte> img = t.checkpoint();
    u.restore(img);
    t.run(total - cut);
    u.run(total - cut);

    std::vector<Byte> end_t = t.checkpoint();
    std::vector<Byte> end_u = u.checkpoint();
    EXPECT_EQ(end_t, end_u) << "restored twin diverged";
    if (end_t != end_u && harts == 1) {
        // byte compare failed: dump the architectural differences
        fuzzutil::expectLockstepState(t, u);
    }
}

class SnapshotFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(SnapshotFuzz, RoundTripIsBitIdenticalAcrossTheCorpus)
{
    const unsigned base = GetParam() * kSnapSeedsPerShard;
    for (unsigned s = 0; s < kSnapSeedsPerShard; s++) {
        runSnapshotRoundTripSeed(base + s);
        if (::testing::Test::HasNonfatalFailure())
            break;
    }
}

INSTANTIATE_TEST_SUITE_P(Shards, SnapshotFuzz,
                         ::testing::Range(0u, kSnapFuzzShards));

// ---------------------------------------------------------------------------
// Scheduler-independent checkpoints
// ---------------------------------------------------------------------------

/**
 * SchedulerMode is host policy, not machine state: a Barrier machine
 * paused mid-run must checkpoint byte-identically to the Serial
 * reference at the same point, and each image must restore into a
 * machine running the *other* scheduler and finish identically — the
 * images carry no trace of which scheduler produced them.
 */
TEST(SnapshotMachine, BarrierMidRunCheckpointMatchesSerial)
{
    MachineConfig cfg;
    cfg.memBytes = 1 << 18;
    cfg.harts = 4;
    cfg.quantum = 512;
    cfg.cpu.fastInterpreter = true;
    cfg.scheduler = SchedulerMode::Serial;
    MachineConfig bar_cfg = cfg;
    bar_cfg.scheduler = SchedulerMode::Barrier;

    Machine serial(cfg), barrier(bar_cfg);
    Program prog = fuzzutil::buildFuzzProgram(42);
    for (Machine *m : {&serial, &barrier}) {
        fuzzutil::installFuzzSkipHandlers(*m);
        m->load(prog);
        for (unsigned h = 0; h < cfg.harts; h++)
            m->hart(h).setPc(testutil::kTestOrigin);
    }

    // Pause mid-run (the cut is inside a round-robin phase) and
    // compare the images.
    const InstCount cut = 4000;
    serial.run(cut);
    barrier.run(cut);
    std::vector<Byte> mid_s = serial.checkpoint();
    std::vector<Byte> mid_b = barrier.checkpoint();
    EXPECT_EQ(mid_s, mid_b) << "mid-run images diverged";

    // Cross-restore: the serial image into the barrier machine and
    // vice versa; both must run on to the same final image.
    serial.restore(mid_b);
    barrier.restore(mid_s);
    serial.run(fuzzutil::kFuzzInstLimit);
    barrier.run(fuzzutil::kFuzzInstLimit);
    EXPECT_EQ(serial.checkpoint(), barrier.checkpoint())
        << "cross-restored machines diverged";
}

// ---------------------------------------------------------------------------
// Restore-path invalidation
// ---------------------------------------------------------------------------

/**
 * Restore must invalidate predecoded pages: after a checkpoint, the
 * code page is rewritten through the debug interface and re-executed
 * (the fast path re-decodes and runs the *new* instruction); restore
 * then puts the old bytes back, and execution must follow them — a
 * stale decoded page would replay the overwritten instruction.
 */
TEST(SnapshotMachine, RestoreInvalidatesPredecodedPages)
{
    MachineConfig cfg;
    cfg.memBytes = 1 << 18;
    cfg.cpu.fastInterpreter = true;
    Machine m(cfg);

    Assembler a(testutil::kTestOrigin);
    a.addiu(V0, Zero, 0x111);
    a.hcall(0);
    m.load(a.finalize());
    m.cpu().setPc(testutil::kTestOrigin);
    m.run(100);
    ASSERT_EQ(m.cpu().reg(V0), 0x111u); // page is now predecoded

    std::vector<Byte> img = m.checkpoint();

    m.debugWriteWord(testutil::kTestOrigin,
                     enc::addiu(V0, Zero, 0x222));
    m.hart(0).clearHalt();
    m.hart(0).setPc(testutil::kTestOrigin);
    m.run(100);
    ASSERT_EQ(m.cpu().reg(V0), 0x222u); // debug write invalidated

    m.restore(img); // memory back to the 0x111 instruction
    m.hart(0).clearHalt();
    m.hart(0).setPc(testutil::kTestOrigin);
    m.run(100);
    EXPECT_EQ(m.cpu().reg(V0), 0x111u)
        << "fast interpreter executed a stale predecoded page after "
           "restore";
}

/**
 * Restore must leave memory exactly as the image says, whatever the
 * target held before: a twin whose memory holds a different program
 * and stale nonzero words on pages the source has zero (and on pages
 * it does not) must read back byte for byte as the source, and
 * checkpoint to the same image.
 */
TEST(SnapshotMachine, RestoreOverDirtyTwinIsExact)
{
    MachineConfig cfg;
    cfg.memBytes = 1 << 18;
    Machine src(cfg), twin(cfg);
    fuzzutil::installFuzzSkipHandlers(src);
    src.load(fuzzutil::buildFuzzProgram(7));
    src.hart(0).setPc(testutil::kTestOrigin);
    src.run(2000);
    std::vector<Byte> img = src.checkpoint();

    twin.load(fuzzutil::buildFuzzProgram(8));
    std::mt19937 rng(0xD1E7);
    for (Addr pa = 0; pa < cfg.memBytes; pa += 3 * PhysMemory::PageBytes)
        twin.mem().writeWord(pa + 4 * Addr(rng() % 1024), rng() | 1u);
    twin.mem().clearRange(PhysMemory::PageBytes, 64); // a partial clear

    twin.restore(img);
    std::vector<Byte> want(cfg.memBytes), got(cfg.memBytes);
    src.mem().readBlock(0, want.data(), want.size());
    twin.mem().readBlock(0, got.data(), got.size());
    EXPECT_TRUE(got == want) << "restored memory differs from the source";
    EXPECT_EQ(twin.checkpoint(), img);
}

/** Restoring an image into a machine with a different shape, or with
 *  an unconsumed/unregistered section, is a structured error. */
TEST(SnapshotMachine, ShapeMismatchesAreRejected)
{
    MachineConfig cfg;
    cfg.memBytes = 1 << 16;
    Machine m(cfg);
    std::vector<Byte> img = m.checkpoint();

    MachineConfig bigger = cfg;
    bigger.memBytes = 1 << 17;
    Machine other(bigger);
    EXPECT_THROW(other.restore(img), SnapshotError);

    MachineConfig more_harts = cfg;
    more_harts.harts = 2;
    Machine wide(more_harts);
    EXPECT_THROW(wide.restore(img), SnapshotError);

    // a consumer registered on the target but absent from the image
    Machine hungry(cfg);
    hungry.registerSnapshotSection(
        snapshotTag('X', 'T', 'R', 'A'), [](SnapshotWriter &) {},
        [](SnapshotReader &) {});
    EXPECT_THROW(hungry.restore(img), SnapshotError);

    // a section in the image nobody on the target consumes
    Machine donor(cfg);
    donor.registerSnapshotSection(
        snapshotTag('X', 'T', 'R', 'A'), [](SnapshotWriter &w) { w.u8(1); },
        [](SnapshotReader &r) { (void)r.u8(); });
    std::vector<Byte> fat = donor.checkpoint();
    Machine plain(cfg);
    EXPECT_THROW(plain.restore(fat), SnapshotError);
}

} // namespace
} // namespace uexc::sim

// ---------------------------------------------------------------------------
// Chaos-campaign record/replay
// ---------------------------------------------------------------------------

namespace uexc::rt {
namespace {

using namespace chaos;

/**
 * The K0 resume-window regression (the PR 4 hazard): pin a spurious
 * refill to an instret at which the fast stub is executing its
 * register-restore window. The injector must defer it past the
 * window — delivery stays transparent, nothing is demoted, and the
 * fault fires at a PC outside the window.
 */
TEST(SnapshotChaos, SpuriousRefillInStubRestoreWindowIsDeferred)
{
    struct WindowObserver : sim::InstObserver
    {
        Addr lo = 0, hi = 0;
        const sim::Cpu *cpu = nullptr;
        InstCount hit = 0;
        void onInst(Addr pc, const sim::DecodedInst &, Cycles) override
        {
            if (hit == 0 && pc >= lo && pc < hi)
                hit = cpu->instret();
        }
        void onException(sim::ExcCode, Addr, Addr) override {}
    };

    // Clean run: find the first instret at which the restore window
    // is executing (i.e. the next fire-check lands inside it).
    Rig clean(nullptr);
    ASSERT_LT(clean.env().stubRestoreAddr(), clean.env().stubEndAddr());
    ASSERT_GE(clean.env().stubEndAddr() - clean.env().stubRestoreAddr(),
              8u)
        << "restore window too short for the deferral to be observable";
    WindowObserver obs;
    obs.lo = clean.env().stubRestoreAddr();
    obs.hi = clean.env().stubEndAddr();
    obs.cpu = &clean.env().cpu();
    clean.env().cpu().setObserver(&obs);
    clean.runTo(kChaosOps);
    clean.env().cpu().setObserver(nullptr);
    ASSERT_NE(obs.hit, 0u) << "no delivery ran through the stub";
    clean.run();
    std::vector<Word> want = clean.words();

    // Injected run: the spurious refill lands exactly there.
    sim::FaultInjector inj;
    Rig rig(&inj);
    inj.addEvent({sim::FaultKind::SpuriousException, 0, obs.hit,
                  kScratch, 0, 0});
    rig.runTo(kChaosOps);
    ASSERT_EQ(inj.fired().size(), 1u);
    EXPECT_EQ(inj.pendingCount(), 0u);
    Addr fired_pc = inj.fired()[0].pc;
    EXPECT_TRUE(fired_pc < obs.lo || fired_pc >= obs.hi)
        << "refill fired inside the masked window at 0x" << std::hex
        << fired_pc;
    EXPECT_GT(inj.fired()[0].firedAt, obs.hit) << "no deferral happened";
    rig.run();
    EXPECT_EQ(rig.words(), want);
    EXPECT_FALSE(rig.env().demoted());
}

/**
 * The image bytes are pinned: a fixed chaos-rig checkpoint, taken
 * mid-campaign with a seeded injection event pending, must keep its
 * size and the CRC of every section's payload. A change to the CRC,
 * the zero-page scan or the memory serializer that moves one byte
 * fails here; a deliberate format change bumps kSnapshotVersion and
 * re-pins the digest. The footer CRC cannot serve as the digest: a
 * CRC run over a payload followed by that payload's own CRC ends in
 * the same state whatever the payload bytes, so the footer CRC
 * depends on the section tags and lengths only.
 */
TEST(SnapshotChaos, GoldenImageDigestIsPinned)
{
    sim::FaultInjector inj;
    Rig rig(&inj);
    rig.runTo(kChaosOps / 4);
    bool may_diagnose = false;
    for (const sim::FaultEvent &e :
         planEvents(0x601E, 200000, rig, &may_diagnose))
        inj.addEvent(e);
    ASSERT_FALSE(may_diagnose);
    rig.runTo(kChaosOps / 2);
    std::vector<Byte> img = rig.checkpoint();

    struct Pin
    {
        Word tag;
        std::size_t length;
        std::uint32_t crc;
    };
    const std::vector<Pin> want = {
        {sim::snapshotTag('C', 'F', 'G', ' '), 25, 0x3930cec5u},
        {sim::kSnapshotMemoryTag, 45112, 0x7858f69cu},
        {sim::snapshotTag('S', 'C', 'H', 'D'), 4, 0x2144df1cu},
        {sim::snapshotTag('H', 'R', 'T', '\0'), 1052, 0x9b42dee3u}, // hart 0
        {sim::snapshotTag('K', 'E', 'R', 'N'), 351, 0x5f2e978du},
        {sim::snapshotTag('U', 'E', 'N', '\0'), 81, 0x36ffe337u},
        {sim::snapshotTag('F', 'I', 'N', 'J'), 36, 0xf831f13du},
        {sim::snapshotTag('C', 'R', 'I', 'G'), 8, 0x0d94a1f7u},
    };
    EXPECT_EQ(sim::kSnapshotVersion, 3u);
    EXPECT_EQ(img.size(), 46785u);
    sim::SnapshotImage parsed(img);
    ASSERT_EQ(parsed.sections().size(), want.size());
    for (std::size_t i = 0; i < want.size(); i++) {
        const sim::SnapshotSection &sec = parsed.sections()[i];
        SCOPED_TRACE(sim::snapshotTagName(sec.tag));
        EXPECT_EQ(sec.tag, want[i].tag);
        EXPECT_EQ(sec.length, want[i].length);
        EXPECT_EQ(sim::snapshotCrc32(parsed.sectionData(sec), sec.length),
                  want[i].crc);
    }
}

/** A converging campaign restored from any mid-run checkpoint must
 *  converge to the identical final words. */
TEST(SnapshotChaos, MidCampaignRestoreConvergesIdentically)
{
    setLoggingEnabled(false);
    Reference ref = makeReference();

    std::uint64_t seed = 0;
    CampaignOutcome full;
    std::vector<CampaignCheckpoint> cps;
    for (std::uint64_t s = 0x4100; s < 0x4140 && seed == 0; s++) {
        cps.clear();
        full = runCampaign(s, ref.window, ref.words, {}, 32, &cps);
        if (!outcomeFailed(full))
            seed = s;
    }
    ASSERT_NE(seed, 0u) << "no converging seed found";
    ASSERT_GE(cps.size(), 3u);

    for (const CampaignCheckpoint *cp :
         {&cps.front(), &cps[cps.size() / 2], &cps.back()}) {
        SCOPED_TRACE(::testing::Message() << "checkpoint op " << cp->op);
        ReproWindow w;
        w.startOp = cp->op;
        w.endOp = kTotalOps;
        w.snapshot = cp->image;
        CampaignOutcome replayed = replayRepro(w, ref.words);
        EXPECT_FALSE(outcomeFailed(replayed)) << replayed.what;
        EXPECT_EQ(replayed.words, full.words);
    }
    setLoggingEnabled(true);
}

/**
 * The divergence finder: a seed whose campaign ends in a structured
 * diagnosis is shrunk to a repro window no longer than a tenth of the
 * campaign, and the window replays the identical failure from its
 * snapshot alone — including after a round trip through the repro
 * file format the CI artifacts use.
 */
TEST(SnapshotChaos, ShrinkEmitsMinimalReproWindow)
{
    setLoggingEnabled(false);
    Reference ref = makeReference();

    std::uint64_t failing = 0;
    CampaignOutcome failure;
    for (std::uint64_t s = 0x7001; s <= 0x7190 && failing == 0; s++) {
        CampaignOutcome out = runCampaign(s, ref.window, ref.words);
        EXPECT_FALSE(out.hostFailure) << "seed " << s << ": " << out.what;
        if (out.diagnosed && out.mayDiagnose) {
            failing = s;
            failure = out;
        }
    }
    ASSERT_NE(failing, 0u) << "no diagnosing seed in 400 campaigns";

    ReproWindow repro = shrinkCampaign(failing, ref.window, ref.words);
    ASSERT_TRUE(repro.found);
    EXPECT_EQ(repro.failure, failure.what);
    EXPECT_GT(repro.endOp, repro.startOp);
    EXPECT_LE(repro.endOp - repro.startOp, kTotalOps / 10)
        << "window [" << repro.startOp << ", " << repro.endOp
        << ") of " << kTotalOps << " ops is not minimal";

    CampaignOutcome replayed = replayRepro(repro, ref.words);
    EXPECT_TRUE(replayed.diagnosed);
    EXPECT_EQ(replayed.what, failure.what);

    // Round-trip the window through the artifact file format.
    std::string dir = ::testing::TempDir();
    if (const char *d = std::getenv("UEXC_REPRO_DIR"))
        dir = std::string(d) + "/";
    std::string path = dir + "chaos_repro_" +
                       std::to_string(getpid()) + ".uxsn";
    writeReproFile(repro, path);
    ReproWindow loaded = readReproFile(path);
    EXPECT_EQ(loaded.seed, repro.seed);
    EXPECT_EQ(loaded.startOp, repro.startOp);
    EXPECT_EQ(loaded.endOp, repro.endOp);
    EXPECT_EQ(loaded.snapshot, repro.snapshot);
    CampaignOutcome from_file = replayRepro(loaded, ref.words);
    EXPECT_EQ(from_file.what, failure.what);
    EXPECT_FALSE(reproCommandLine(path).empty());
    if (std::getenv("UEXC_REPRO_DIR") == nullptr)
        std::remove(path.c_str());
    setLoggingEnabled(true);
}

} // namespace
} // namespace uexc::rt

// ---------------------------------------------------------------------------
// DSM cluster checkpoints
// ---------------------------------------------------------------------------

namespace uexc::apps {
namespace {

constexpr Addr kSoakBase = 0x40000000;
constexpr unsigned kSoakPages = 4;
constexpr Word kSoakBytes = kSoakPages * os::kPageBytes;

DsmCluster::Config
soakConfig()
{
    DsmCluster::Config cfg;
    cfg.nodes = 3;
    cfg.base = kSoakBase;
    cfg.bytes = kSoakBytes;
    cfg.network.seed = 77;
    cfg.network.lossPercent = 5;
    cfg.network.dupPercent = 5;
    cfg.network.delayPercent = 10;
    return cfg;
}

/** One deterministic soak operation, a pure function of the op index
 *  (so a resumed run needs no host-side RNG state). */
void
soakOp(DsmCluster &c, unsigned op)
{
    std::uint64_t s = 0x50a50a50ull + op * 0x9e3779b97f4a7c15ull;
    auto r = [&s] { return splitmix64(s); };
    unsigned node = static_cast<unsigned>(r() % c.nodes());
    Addr va = kSoakBase + static_cast<Word>(r() % (kSoakBytes / 4)) * 4;
    if (r() % 2 != 0)
        c.write(node, va, static_cast<Word>(r()));
    else
        (void)c.read(node, va);
}

std::vector<Word>
soakContents(DsmCluster &c)
{
    std::vector<Word> words;
    for (Word off = 0; off < kSoakBytes; off += 64)
        words.push_back(c.read(0, kSoakBase + off));
    return words;
}

TEST(DsmSnapshot, MidRunRestoreConvergesIdentically)
{
    setLoggingEnabled(false);
    DsmCluster ref(soakConfig());
    for (unsigned op = 0; op < 120; op++)
        soakOp(ref, op);
    std::vector<Word> want = soakContents(ref);

    DsmCluster a(soakConfig());
    for (unsigned op = 0; op < 50; op++)
        soakOp(a, op);
    std::vector<Byte> img = a.checkpoint();

    DsmCluster b(soakConfig());
    b.restore(img);
    for (unsigned op = 50; op < 120; op++)
        soakOp(b, op);

    EXPECT_EQ(soakContents(b), want);
    EXPECT_EQ(b.stats().messages, ref.stats().messages);
    EXPECT_EQ(b.stats().pageTransfers, ref.stats().pageTransfers);
    EXPECT_EQ(b.stats().retries, ref.stats().retries);
    EXPECT_EQ(b.totalCycles(), ref.totalCycles());
    setLoggingEnabled(true);
}

TEST(DsmSnapshot, ConfigMismatchIsRejected)
{
    setLoggingEnabled(false);
    DsmCluster a(soakConfig());
    std::vector<Byte> img = a.checkpoint();

    DsmCluster::Config two = soakConfig();
    two.nodes = 2;
    DsmCluster b(two);
    EXPECT_THROW(b.restore(img), sim::SnapshotError);

    DsmCluster::Config reliable = soakConfig();
    reliable.network.lossPercent = 0;
    reliable.network.dupPercent = 0;
    reliable.network.delayPercent = 0;
    DsmCluster c(reliable);
    EXPECT_THROW(c.restore(img), sim::SnapshotError);
    setLoggingEnabled(true);
}

/**
 * The crash-consistency soak: a child process runs the workload,
 * checkpointing the cluster to one snapshot file every few ops, and
 * is SIGKILLed mid-flight at an op *not* aligned to the checkpoint
 * stride. The parent reads whatever the atomic rename left behind,
 * restores, replays the remaining ops, and must converge to exactly
 * the contents and statistics of an unbroken run.
 */
TEST(DsmSnapshot, CheckpointedSoakSurvivesSigkill)
{
    constexpr unsigned kOps = 160;
    constexpr unsigned kEvery = 25;
    constexpr unsigned kKillAt = 133; // 133 % 25 != 0: torn interval
    const Word soak_tag = sim::snapshotTag('S', 'O', 'A', 'K');

    std::string path = ::testing::TempDir() + "uexc_dsm_soak_" +
                       std::to_string(getpid()) + ".uxsn";
    std::remove(path.c_str());

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // child: never returns
        setLoggingEnabled(false);
        DsmCluster c(soakConfig());
        for (unsigned op = 0; op < kOps; op++) {
            if (op % kEvery == 0) {
                sim::SnapshotWriter w;
                w.beginSection(soak_tag);
                w.u32(op);
                std::vector<Byte> img = c.checkpoint();
                w.u64(img.size());
                w.bytes(img.data(), img.size());
                w.endSection();
                sim::writeSnapshotFile(path, w.finish());
            }
            if (op == kKillAt)
                raise(SIGKILL);
            soakOp(c, op);
        }
        _exit(0); // not reached
    }

    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    setLoggingEnabled(false);
    std::vector<Byte> file = sim::readSnapshotFile(path);
    sim::SnapshotImage parsed(file);
    sim::SnapshotReader r = parsed.section(soak_tag);
    unsigned resume_op = r.u32();
    std::uint64_t len = r.u64();
    ASSERT_EQ(len, r.remaining());
    std::vector<Byte> cluster_img(len);
    r.bytes(cluster_img.data(), cluster_img.size());
    r.expectEnd();
    EXPECT_EQ(resume_op, kKillAt / kEvery * kEvery);

    DsmCluster resumed(soakConfig());
    resumed.restore(cluster_img);
    for (unsigned op = resume_op; op < kOps; op++)
        soakOp(resumed, op);

    DsmCluster ref(soakConfig());
    for (unsigned op = 0; op < kOps; op++)
        soakOp(ref, op);

    EXPECT_EQ(soakContents(resumed), soakContents(ref));
    EXPECT_EQ(resumed.stats().messages, ref.stats().messages);
    EXPECT_EQ(resumed.stats().retries, ref.stats().retries);
    EXPECT_EQ(resumed.stats().duplicatesSuppressed,
              ref.stats().duplicatesSuppressed);
    EXPECT_EQ(resumed.totalCycles(), ref.totalCycles());
    std::remove(path.c_str());
    setLoggingEnabled(true);
}

} // namespace
} // namespace uexc::apps
