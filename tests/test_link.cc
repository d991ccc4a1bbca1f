/**
 * @file
 * Pins the exact seeded streams of the two lossy-link users: a lossy
 * DSM cluster's protocol statistics and simulated cycles, and the
 * migration transport's statistics for a fixed image under mixed
 * weather. Every value below is a consequence of the RNG draw order
 * (loss, corruption, delay, duplicate), the capped doubling timeout
 * and the retry budget, so any change to how a message or a chunk
 * crosses the link shows up here as a changed number.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "apps/dsm/dsm.h"
#include "common/guesterror.h"
#include "common/logging.h"
#include "core/migrate.h"
#include "sim/snapshot.h"

namespace uexc {
namespace {

using apps::DsmCluster;
using apps::DsmStats;
namespace migrate = rt::migrate;

constexpr Addr kBase = 0x40000000;

DsmCluster::Config
lossyDsm(std::uint64_t seed, unsigned loss, unsigned dup,
         unsigned delay)
{
    DsmCluster::Config cfg;
    cfg.nodes = 2;
    cfg.bytes = 4 * os::kPageBytes;
    cfg.network.latencyCycles = 1000;
    cfg.network.seed = seed;
    cfg.network.lossPercent = loss;
    cfg.network.dupPercent = dup;
    cfg.network.delayPercent = delay;
    return cfg;
}

/** Ping-pong writes and cross reads over two pages. */
void
pingPong(DsmCluster &dsm)
{
    for (Word i = 0; i < 24; i++) {
        unsigned writer = i % 2;
        dsm.write(writer, kBase + 4 * (i % 16), i * 3 + 1);
        dsm.write(writer, kBase + os::kPageBytes + 4 * (i % 16), i);
        (void)dsm.read(1 - writer, kBase + 4 * (i % 16));
    }
}

/** The pinned values of one DSM run, in DsmStats order. */
struct DsmPin
{
    std::uint64_t readFaults, writeFaults, pageTransfers, invalidations,
        messages, retries, timeouts, duplicatesSuppressed;
    Cycles timeoutCap, maxTimeout;
    std::vector<std::uint64_t> perLinkRetries;
    Cycles totalCycles;
};

void
expectPinned(const DsmCluster &dsm, const DsmPin &want)
{
    const DsmStats &s = dsm.stats();
    EXPECT_EQ(s.readFaults, want.readFaults);
    EXPECT_EQ(s.writeFaults, want.writeFaults);
    EXPECT_EQ(s.pageTransfers, want.pageTransfers);
    EXPECT_EQ(s.invalidations, want.invalidations);
    EXPECT_EQ(s.messages, want.messages);
    EXPECT_EQ(s.retries, want.retries);
    EXPECT_EQ(s.timeouts, want.timeouts);
    EXPECT_EQ(s.duplicatesSuppressed, want.duplicatesSuppressed);
    EXPECT_EQ(s.timeoutCapCycles, want.timeoutCap);
    EXPECT_EQ(s.maxTimeoutCharged, want.maxTimeout);
    EXPECT_EQ(s.perLinkRetries, want.perLinkRetries);
    EXPECT_EQ(dsm.totalCycles(), want.totalCycles);
}

TEST(LinkStream, LossyDsmClusterIsPinned)
{
    DsmCluster a(lossyDsm(42, 20, 10, 10));
    pingPong(a);
    expectPinned(a, {24, 46, 47, 46, 178, 30, 30, 8, 400000, 200000,
                     {0, 13, 17, 0}, 2138130});

    DsmCluster b(lossyDsm(7, 35, 25, 30));
    pingPong(b);
    expectPinned(b, {24, 46, 47, 46, 244, 74, 74, 30, 400000, 400000,
                     {0, 42, 32, 0}, 7013130});

    // total loss: 16 capped timeouts, then the partition diagnosis
    setLoggingEnabled(false);
    DsmCluster dead(lossyDsm(3, 100, 0, 0));
    dead.write(0, kBase, 1);
    EXPECT_THROW(dead.read(1, kBase), GuestError);
    setLoggingEnabled(true);
    expectPinned(dead, {1, 0, 0, 0, 17, 16, 16, 0, 400000, 400000,
                        {0, 0, 16, 0}, 5551648});
}

/** A valid snapshot image of fixed content: two sections, ~20 KiB. */
std::vector<Byte>
fixedImage()
{
    sim::SnapshotWriter w;
    w.beginSection(sim::snapshotTag('P', 'I', 'N', '1'));
    for (Word i = 0; i < 4000; i++)
        w.u32(i * 2654435761u);
    w.endSection();
    w.beginSection(sim::snapshotTag('P', 'I', 'N', '2'));
    for (Word i = 0; i < 1111; i++)
        w.u32(i ^ 0x5a5a5a5au);
    w.endSection();
    return w.finish();
}

/** The pinned values of one transfer, in TransportStats order. */
struct TransferPin
{
    std::uint64_t chunksTotal, chunksDelivered, framesSent, retries,
        lostInFlight, corruptDropped, duplicatesSuppressed;
    Cycles maxTimeout, cycles;
    std::vector<std::uint64_t> retryHistogram;
};

void
expectPinned(const migrate::TransportStats &s, const TransferPin &want)
{
    EXPECT_EQ(s.chunksTotal, want.chunksTotal);
    EXPECT_EQ(s.chunksDelivered, want.chunksDelivered);
    EXPECT_EQ(s.framesSent, want.framesSent);
    EXPECT_EQ(s.retries, want.retries);
    EXPECT_EQ(s.lostInFlight, want.lostInFlight);
    EXPECT_EQ(s.corruptDropped, want.corruptDropped);
    EXPECT_EQ(s.duplicatesSuppressed, want.duplicatesSuppressed);
    EXPECT_EQ(s.maxTimeoutCharged, want.maxTimeout);
    EXPECT_EQ(s.cyclesCharged, want.cycles);
    EXPECT_EQ(s.retryHistogram, want.retryHistogram);
}

TEST(LinkStream, TransferImageStatsArePinned)
{
    std::vector<Byte> image = fixedImage();
    ASSERT_EQ(image.size(), 20488u);
    migrate::TransportConfig t;
    t.seed = 99;
    t.chunkBytes = 1024;
    t.lossPercent = 20;
    t.corruptPercent = 15;
    t.dupPercent = 10;
    t.delayPercent = 20;
    migrate::TransportStats stats;
    EXPECT_EQ(migrate::transferImage(image, t, &stats), image);
    expectPinned(stats, {21, 21, 32, 11, 6, 5, 0, 100000, 1301148,
                         {11, 9, 1, 0, 0, 0, 0, 0, 0}});

    t.seed = 0xC0FFEE;
    t.chunkBytes = 256;
    t.lossPercent = 40;
    t.corruptPercent = 25;
    t.dupPercent = 30;
    t.delayPercent = 50;
    t.timeoutCapCycles = 2 * t.timeoutCycles;
    EXPECT_EQ(migrate::transferImage(image, t, &stats), image);
    expectPinned(stats, {81, 81, 227, 125, 94, 31, 21, 100000,
                         13598326, {30, 19, 16, 8, 2, 3, 0, 1, 2}});

    // a partition on the first chunk, after three capped timeouts
    t.seed = 5;
    t.chunkBytes = 4096;
    t.lossPercent = 60;
    t.maxRetries = 3;
    try {
        migrate::transferImage(image, t, &stats);
        ADD_FAILURE() << "partition expected";
    } catch (const migrate::MigrateError &e) {
        EXPECT_EQ(e.kind(), migrate::MigrateErrorKind::Partition);
        EXPECT_EQ(e.chunk(), 0u);
        EXPECT_EQ(e.retries(), 3u);
        EXPECT_EQ(e.chargedTimeout(), 100000u);
    }
    expectPinned(stats, {6, 0, 4, 3, 3, 1, 0, 100000, 281024,
                         {0, 0, 0, 0, 0, 0, 0, 0, 0}});
}

} // namespace
} // namespace uexc
