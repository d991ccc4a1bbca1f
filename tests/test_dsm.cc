/**
 * @file
 * Tests for the page-based DSM cluster: coherence of the
 * write-invalidate protocol (reads see the latest write, ownership
 * migrates, copysets invalidate), fault accounting, and the
 * exception-cost contribution to page-miss latency.
 */

#include <gtest/gtest.h>

#include "apps/dsm/dsm.h"
#include "common/guesterror.h"

namespace uexc::apps {
namespace {

using rt::DeliveryMode;

constexpr Addr kBase = 0x40000000;

DsmCluster::Config
smallCluster(DeliveryMode mode = DeliveryMode::FastSoftware,
             unsigned nodes = 2)
{
    DsmCluster::Config cfg;
    cfg.nodes = nodes;
    cfg.bytes = 4 * os::kPageBytes;
    cfg.mode = mode;
    cfg.network.latencyCycles = 1000;   // fast fabric for tests
    return cfg;
}

TEST(Dsm, InitialOwnerReadsAndWritesWithoutFaults)
{
    DsmCluster dsm(smallCluster());
    dsm.write(0, kBase, 42);
    EXPECT_EQ(dsm.read(0, kBase), 42u);
    EXPECT_EQ(dsm.stats().readFaults, 0u);
    EXPECT_EQ(dsm.stats().writeFaults, 0u);
}

TEST(Dsm, RemoteReadFetchesPageAndSeesData)
{
    DsmCluster dsm(smallCluster());
    dsm.write(0, kBase + 0x10, 1234);
    EXPECT_EQ(dsm.read(1, kBase + 0x10), 1234u);
    EXPECT_EQ(dsm.stats().readFaults, 1u);
    EXPECT_EQ(dsm.stats().pageTransfers, 1u);
    EXPECT_EQ(dsm.state(1, kBase), DsmPageState::ReadShared);
    // the former owner dropped to read-shared
    EXPECT_EQ(dsm.state(0, kBase), DsmPageState::ReadShared);
    // further reads on node 1 are local
    EXPECT_EQ(dsm.read(1, kBase + 0x10), 1234u);
    EXPECT_EQ(dsm.stats().readFaults, 1u);
}

TEST(Dsm, RemoteWriteTakesOwnershipAndInvalidates)
{
    DsmCluster dsm(smallCluster());
    dsm.write(0, kBase, 1);
    EXPECT_EQ(dsm.read(1, kBase), 1u);       // node 1 joins copyset
    dsm.write(1, kBase, 2);                  // node 1 takes ownership
    EXPECT_EQ(dsm.ownerOf(kBase), 1u);
    EXPECT_EQ(dsm.state(0, kBase), DsmPageState::Invalid);
    EXPECT_EQ(dsm.state(1, kBase), DsmPageState::Writable);
    EXPECT_GE(dsm.stats().invalidations, 1u);
    // node 0 reading again sees node 1's write
    EXPECT_EQ(dsm.read(0, kBase), 2u);
}

TEST(Dsm, SequentialConsistencyUnderPingPong)
{
    DsmCluster dsm(smallCluster());
    for (Word i = 0; i < 20; i++) {
        unsigned writer = i % 2;
        unsigned reader = 1 - writer;
        dsm.write(writer, kBase + 0x20, i);
        EXPECT_EQ(dsm.read(reader, kBase + 0x20), i) << "iteration " << i;
    }
}

TEST(Dsm, IndependentPagesDoNotInterfere)
{
    DsmCluster dsm(smallCluster());
    dsm.write(0, kBase, 10);                     // page 0
    dsm.write(1, kBase + os::kPageBytes, 20);    // page 1
    EXPECT_EQ(dsm.ownerOf(kBase), 0u);
    EXPECT_EQ(dsm.ownerOf(kBase + os::kPageBytes), 1u);
    EXPECT_EQ(dsm.read(0, kBase), 10u);
    EXPECT_EQ(dsm.read(1, kBase + os::kPageBytes), 20u);
}

TEST(Dsm, ThreeNodeCopysetInvalidation)
{
    DsmCluster dsm(smallCluster(DeliveryMode::FastSoftware, 3));
    dsm.write(0, kBase, 5);
    EXPECT_EQ(dsm.read(1, kBase), 5u);
    EXPECT_EQ(dsm.read(2, kBase), 5u);
    // all three share the page read-only now
    dsm.write(2, kBase, 6);
    EXPECT_EQ(dsm.state(0, kBase), DsmPageState::Invalid);
    EXPECT_EQ(dsm.state(1, kBase), DsmPageState::Invalid);
    EXPECT_EQ(dsm.state(2, kBase), DsmPageState::Writable);
    EXPECT_EQ(dsm.read(0, kBase), 6u);
    EXPECT_EQ(dsm.read(1, kBase), 6u);
}

TEST(Dsm, WholePageContentTransfers)
{
    DsmCluster dsm(smallCluster());
    for (unsigned i = 0; i < 32; i++)
        dsm.write(0, kBase + 4 * i, 100 + i);
    // one read miss transfers the whole page
    EXPECT_EQ(dsm.read(1, kBase), 100u);
    for (unsigned i = 1; i < 32; i++)
        EXPECT_EQ(dsm.read(1, kBase + 4 * i), 100 + i);
    EXPECT_EQ(dsm.stats().pageTransfers, 1u);
}

TEST(Dsm, ExceptionMechanismMattersOnFastNetworks)
{
    // with a fast interconnect, the dispatch path is a visible
    // fraction of a page miss: the fast mechanism beats signals
    auto pingpong = [](DeliveryMode mode, Cycles latency) {
        DsmCluster::Config cfg = smallCluster(mode);
        cfg.network.latencyCycles = latency;
        DsmCluster dsm(cfg);
        dsm.write(0, kBase, 0);   // establish ownership
        Cycles before = dsm.totalCycles();
        for (Word i = 0; i < 10; i++)
            dsm.write(i % 2, kBase, i);
        return dsm.totalCycles() - before;
    };

    Cycles fast_net_fast_exc =
        pingpong(DeliveryMode::FastSoftware, 500);
    Cycles fast_net_ultrix =
        pingpong(DeliveryMode::UltrixSignal, 500);
    EXPECT_LT(fast_net_fast_exc, fast_net_ultrix);

    // on a slow 1994 network the mechanism matters relatively less
    double slow_ratio =
        static_cast<double>(pingpong(DeliveryMode::UltrixSignal, 50000)) /
        pingpong(DeliveryMode::FastSoftware, 50000);
    double fast_ratio = static_cast<double>(fast_net_ultrix) /
                        fast_net_fast_exc;
    EXPECT_GT(fast_ratio, slow_ratio);
}

TEST(Dsm, SharedMachinePlacementRunsTheSameProtocol)
{
    // Nodes placed on harts of one machine instead of one machine
    // each: same coherence behaviour, same fault accounting.
    DsmCluster::Config cfg = smallCluster();
    cfg.sharedMachine = true;
    DsmCluster dsm(cfg);
    dsm.write(0, kBase, 77);
    EXPECT_EQ(dsm.read(1, kBase), 77u);
    EXPECT_EQ(dsm.stats().readFaults, 1u);
    EXPECT_EQ(dsm.state(0, kBase), DsmPageState::ReadShared);
    EXPECT_EQ(dsm.state(1, kBase), DsmPageState::ReadShared);
    dsm.write(1, kBase, 78);
    EXPECT_EQ(dsm.state(1, kBase), DsmPageState::Writable);
    EXPECT_EQ(dsm.state(0, kBase), DsmPageState::Invalid);
    EXPECT_EQ(dsm.read(0, kBase), 78u);
}

TEST(Dsm, SharedMachinePlacementMatchesSeparateMachines)
{
    auto faults = [](bool shared) {
        DsmCluster::Config cfg = smallCluster();
        cfg.sharedMachine = shared;
        DsmCluster dsm(cfg);
        dsm.write(0, kBase, 0);
        for (Word i = 0; i < 8; i++)
            dsm.write(i % 2, kBase, i);
        return dsm.stats().writeFaults;
    };
    EXPECT_EQ(faults(true), faults(false));
}

// -- unreliable network --------------------------------------------------

/** A deterministic workload; returns the final shared contents. */
std::vector<Word>
runWorkload(DsmCluster &dsm)
{
    for (Word i = 0; i < 24; i++) {
        unsigned writer = i % 2;
        dsm.write(writer, kBase + 4 * (i % 16), i * 3 + 1);
        dsm.write(writer, kBase + os::kPageBytes + 4 * (i % 16), i);
        (void)dsm.read(1 - writer, kBase + 4 * (i % 16));
    }
    std::vector<Word> words;
    for (Word off = 0; off < 16 * 4; off += 4) {
        words.push_back(dsm.read(0, kBase + off));
        words.push_back(dsm.read(0, kBase + os::kPageBytes + off));
    }
    return words;
}

DsmCluster::Config
lossyCluster(unsigned loss, unsigned dup, unsigned delay,
             std::uint64_t seed = 42)
{
    DsmCluster::Config cfg = smallCluster();
    cfg.network.seed = seed;
    cfg.network.lossPercent = loss;
    cfg.network.dupPercent = dup;
    cfg.network.delayPercent = delay;
    return cfg;
}

TEST(DsmUnreliable, LossyRunConvergesToLosslessContents)
{
    DsmCluster reliable(smallCluster());
    std::vector<Word> want = runWorkload(reliable);

    DsmCluster lossy(lossyCluster(20, 10, 10));
    EXPECT_EQ(runWorkload(lossy), want);

    // the retry machinery actually engaged
    EXPECT_GT(lossy.stats().retries, 0u);
    EXPECT_GT(lossy.stats().timeouts, 0u);
    EXPECT_GT(lossy.stats().duplicatesSuppressed, 0u);
    EXPECT_GT(lossy.stats().messages, reliable.stats().messages);
    // and cost simulated time: timeouts charge the waiting node
    EXPECT_GT(lossy.totalCycles(), reliable.totalCycles());
}

TEST(DsmUnreliable, ReliableModeIsUnchangedByTheNewPlumbing)
{
    // a network with every percentage at zero is reliable: no
    // retries, no timeouts, no dups
    DsmCluster dsm(smallCluster());
    runWorkload(dsm);
    EXPECT_EQ(dsm.stats().retries, 0u);
    EXPECT_EQ(dsm.stats().timeouts, 0u);
    EXPECT_EQ(dsm.stats().duplicatesSuppressed, 0u);
}

TEST(DsmUnreliable, FixedSeedIsDeterministic)
{
    DsmCluster a(lossyCluster(25, 15, 10, 7));
    DsmCluster b(lossyCluster(25, 15, 10, 7));
    EXPECT_EQ(runWorkload(a), runWorkload(b));
    EXPECT_EQ(a.stats().messages, b.stats().messages);
    EXPECT_EQ(a.stats().retries, b.stats().retries);
    EXPECT_EQ(a.stats().timeouts, b.stats().timeouts);
    EXPECT_EQ(a.stats().duplicatesSuppressed,
              b.stats().duplicatesSuppressed);
    EXPECT_EQ(a.totalCycles(), b.totalCycles());

    DsmCluster c(lossyCluster(25, 15, 10, 8));
    EXPECT_NE(a.stats().messages, c.stats().messages);
    EXPECT_EQ(runWorkload(c), runWorkload(a));  // contents still agree
}

TEST(DsmUnreliable, TotalLossIsDiagnosedAsPartition)
{
    DsmCluster dsm(lossyCluster(100, 0, 0));
    dsm.write(0, kBase, 1);                  // owner: no messages
    EXPECT_THROW(dsm.read(1, kBase), GuestError);

    // Even a full partition (16 retries of doubling timeouts) never
    // charges a single wait beyond the configured ceiling — the
    // 2^16 tail the cap exists to bound.
    const DsmStats &s = dsm.stats();
    EXPECT_EQ(s.timeoutCapCycles,
              lossyCluster(100, 0, 0).network.timeoutCapCycles);
    EXPECT_GT(s.maxTimeoutCharged, 0u);
    EXPECT_LE(s.maxTimeoutCharged, s.timeoutCapCycles);
}

TEST(DsmUnreliable, RetryTimeoutCapBoundsThePartitionWait)
{
    // With the cap, a declared partition costs at most
    // initial + sum(min(2^i * t, cap)) cycles; compare a tight cap
    // against a loose one on the same seed to see the bound bite.
    DsmCluster::Config tight = lossyCluster(100, 0, 0);
    // never doubles
    tight.network.timeoutCapCycles = tight.network.timeoutCycles;
    DsmCluster a(tight);
    a.write(0, kBase, 1);
    EXPECT_THROW(a.read(1, kBase), GuestError);
    EXPECT_EQ(a.stats().maxTimeoutCharged, tight.network.timeoutCycles);

    DsmCluster b(lossyCluster(100, 0, 0));
    b.write(0, kBase, 1);
    EXPECT_THROW(b.read(1, kBase), GuestError);
    EXPECT_GT(b.stats().maxTimeoutCharged,
              a.stats().maxTimeoutCharged);
    EXPECT_GT(b.totalCycles(), a.totalCycles());
}

TEST(DsmUnreliable, PerLinkRetryHistogramAccountsEveryRetry)
{
    DsmCluster dsm(lossyCluster(20, 10, 10));
    runWorkload(dsm);
    const DsmStats &s = dsm.stats();
    ASSERT_EQ(s.perLinkRetries.size(),
              std::size_t(dsm.nodes()) * dsm.nodes());
    std::uint64_t total = 0;
    for (std::uint64_t r : s.perLinkRetries)
        total += r;
    // every retransmission is attributed to exactly one ordered link
    EXPECT_EQ(total, s.retries);
    EXPECT_GT(total, 0u);
    // a node never retransmits to itself
    for (unsigned n = 0; n < dsm.nodes(); n++)
        EXPECT_EQ(s.perLinkRetries[n * dsm.nodes() + n], 0u);
}

} // namespace
} // namespace uexc::apps
