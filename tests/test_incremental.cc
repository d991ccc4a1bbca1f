/**
 * @file
 * Tests for the incremental collector: bounded pauses, correctness
 * of the protection-based retrace barrier (a mutator writing into
 * scanned territory cannot hide live objects from the marker), and
 * pause behaviour across delivery mechanisms.
 */

#include <gtest/gtest.h>

#include "apps/gc/incremental.h"
#include "os_test_util.h"

namespace uexc::apps {
namespace {

using namespace os::testutil;
using rt::DeliveryMode;
using rt::UserEnv;

struct IncSetup
{
    explicit IncSetup(DeliveryMode mode = DeliveryMode::FastSoftware,
                      unsigned slice = 64)
        : booted(osMachineConfig(true)), env(booted.kernel, mode)
    {
        env.install(kAllExcMask);
        IncrementalCollector::Config cfg;
        cfg.sliceBudget = slice;
        gc = std::make_unique<IncrementalCollector>(env, cfg);
    }

    BootedKernel booted;
    UserEnv env;
    std::unique_ptr<IncrementalCollector> gc;
};

TEST(IncGc, BasicAllocReadWrite)
{
    IncSetup s;
    Addr a = s.gc->alloc(4);
    s.gc->writeWord(a, 1, 0x77);
    EXPECT_EQ(s.gc->readWord(a, 1), 0x77u);
    EXPECT_EQ(s.gc->readWord(a, 0), 0u);
}

TEST(IncGc, FullCycleReclaimsGarbageKeepsLive)
{
    IncSetup s;
    Addr keep = s.gc->alloc(2);
    Addr child = s.gc->alloc(2);
    s.gc->writeWord(keep, 0, child);
    s.gc->setRoot(0, keep);
    for (int i = 0; i < 200; i++)
        s.gc->alloc(2);
    s.gc->startCycle();
    s.gc->finishCycle();
    EXPECT_TRUE(s.gc->isObject(keep));
    EXPECT_TRUE(s.gc->isObject(child));
    EXPECT_EQ(s.gc->liveObjects(), 2u);
    EXPECT_GE(s.gc->stats().objectsSwept, 200u);
}

TEST(IncGc, MarkingProceedsInBoundedSlices)
{
    IncSetup s(DeliveryMode::FastSoftware, /*slice=*/8);
    // a chain of 100 objects: marking needs many slices
    Addr prev = 0;
    for (int i = 0; i < 100; i++) {
        Addr cell = s.gc->alloc(2);
        s.gc->writeWord(cell, 1, prev);
        prev = cell;
    }
    s.gc->setRoot(0, prev);
    s.gc->startCycle();
    unsigned steps = 0;
    while (s.gc->collecting()) {
        s.gc->step();
        steps++;
        ASSERT_LT(steps, 1000u);
    }
    EXPECT_GT(steps, 5u);  // genuinely incremental
    EXPECT_EQ(s.gc->liveObjects(), 100u);
}

TEST(IncGc, MutatorWriteIntoScannedObjectIsRetraced)
{
    IncSetup s(DeliveryMode::FastSoftware, /*slice=*/4);
    // a long chain keeps marking busy across many slices
    Addr prev = 0;
    for (int i = 0; i < 50; i++) {
        Addr cell = s.gc->alloc(2);
        s.gc->writeWord(cell, 1, prev);
        prev = cell;
    }
    Addr chain_head = prev;
    s.gc->setRoot(0, chain_head);
    // a white object reachable from nothing (yet)
    Addr hidden = s.gc->alloc(2);
    s.gc->writeWord(hidden, 0, 0xbeef);

    s.gc->startCycle();
    s.gc->step();   // scans the chain head; its page is now protected
    ASSERT_TRUE(s.gc->collecting());

    // hide the white object behind the already-scanned chain head:
    // without the retrace barrier the marker would never see it
    std::uint64_t faults_before = s.gc->stats().retraceFaults;
    s.gc->writeWord(chain_head, 0, hidden);
    EXPECT_GT(s.gc->stats().retraceFaults, faults_before);

    s.gc->finishCycle();
    EXPECT_TRUE(s.gc->isObject(hidden));
    EXPECT_EQ(s.gc->readWord(hidden, 0), 0xbeefu);
    EXPECT_GT(s.gc->stats().retracedObjects, 0u);
}

TEST(IncGc, AllocationTriggersCyclesAutomatically)
{
    IncSetup s;
    Addr keep = s.gc->alloc(2);
    s.gc->setRoot(0, keep);
    for (int i = 0; i < 30000; i++)
        s.gc->alloc(2);
    s.gc->finishCycle();
    EXPECT_GE(s.gc->stats().cycles, 1u);
    EXPECT_GT(s.gc->stats().objectsSwept, 0u);
    EXPECT_TRUE(s.gc->isObject(keep));
}

TEST(IncGc, SmallerSlicesGiveSmallerMaxPause)
{
    auto max_pause = [](unsigned slice) {
        IncSetup s(DeliveryMode::FastSoftware, slice);
        Addr prev = 0;
        for (int i = 0; i < 400; i++) {
            Addr cell = s.gc->alloc(3);
            s.gc->writeWord(cell, 2, prev);
            prev = cell;
        }
        s.gc->setRoot(0, prev);
        s.gc->startCycle();
        s.gc->finishCycle();
        return s.gc->stats().maxPauseCycles;
    };
    Cycles small = max_pause(8);
    Cycles big = max_pause(512);
    EXPECT_LT(small, big / 4);
}

class IncModes : public ::testing::TestWithParam<DeliveryMode> {};

TEST_P(IncModes, RetraceBarrierCorrectUnderEveryMechanism)
{
    IncSetup s(GetParam(), 4);
    Addr prev = 0;
    for (int i = 0; i < 40; i++) {
        Addr cell = s.gc->alloc(2);
        s.gc->writeWord(cell, 1, prev);
        prev = cell;
    }
    s.gc->setRoot(0, prev);
    Addr hidden = s.gc->alloc(2);   // white, unreferenced

    s.gc->startCycle();
    s.gc->step();
    ASSERT_TRUE(s.gc->collecting());
    s.gc->writeWord(prev, 0, hidden);   // into scanned territory
    s.gc->finishCycle();
    EXPECT_TRUE(s.gc->isObject(hidden));
    EXPECT_GT(s.gc->stats().retraceFaults, 0u);

    // the exact work of the cycle; the retrace fault is taken by the
    // mutator, outside every slice, so the pauses are the same under
    // every mechanism
    const IncStats &st = s.gc->stats();
    EXPECT_EQ(st.cycles, 1u);
    EXPECT_EQ(st.retraceFaults, 1u);
    EXPECT_EQ(st.retracedObjects, 4u);
    EXPECT_EQ(st.maxPauseCycles, 436u);
    EXPECT_EQ(st.totalPauseCycles, 1793u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, IncModes,
    ::testing::Values(DeliveryMode::UltrixSignal,
                      DeliveryMode::FastSoftware,
                      DeliveryMode::FastHardwareVector),
    [](const ::testing::TestParamInfo<DeliveryMode> &info) {
        switch (info.param) {
          case DeliveryMode::UltrixSignal: return "Ultrix";
          case DeliveryMode::FastSoftware: return "FastSw";
          default: return "FastHw";
        }
    });

} // namespace
} // namespace uexc::apps
