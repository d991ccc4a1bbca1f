/**
 * @file
 * Tests for the generational conservative collector: allocation,
 * reachability, promotion, and all three write-barrier strategies
 * across delivery mechanisms.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "apps/gc/gc.h"
#include "apps/gc/workloads.h"
#include "os_test_util.h"

namespace uexc::apps {
namespace {

using namespace os::testutil;
using rt::DeliveryMode;
using rt::UserEnv;

struct GcSetup
{
    explicit GcSetup(DeliveryMode mode = DeliveryMode::FastSoftware,
                     BarrierKind barrier = BarrierKind::PageProtection)
        : booted(osMachineConfig(true)), env(booted.kernel, mode)
    {
        env.install(kAllExcMask);
        Collector::Config cfg;
        cfg.barrier = barrier;
        gc = std::make_unique<Collector>(env, cfg);
    }

    BootedKernel booted;
    UserEnv env;
    std::unique_ptr<Collector> gc;
};

TEST(Gc, AllocReturnsZeroedDistinctObjects)
{
    GcSetup s;
    Addr a = s.gc->alloc(4);
    Addr b = s.gc->alloc(4);
    EXPECT_NE(a, b);
    for (unsigned i = 0; i < 4; i++) {
        EXPECT_EQ(s.gc->readWord(a, i), 0u);
    }
    s.gc->writeWord(a, 2, 0x1234);
    EXPECT_EQ(s.gc->readWord(a, 2), 0x1234u);
    EXPECT_EQ(s.gc->readWord(b, 2), 0u);
    EXPECT_EQ(s.gc->stats().allocations, 2u);
}

TEST(Gc, CollectionReclaimsUnreachable)
{
    GcSetup s;
    Addr kept = s.gc->alloc(2);
    s.gc->setRoot(0, kept);
    for (int i = 0; i < 100; i++)
        s.gc->alloc(2);  // garbage
    EXPECT_EQ(s.gc->liveObjects(), 101u);
    s.gc->collect();
    EXPECT_EQ(s.gc->liveObjects(), 1u);
    EXPECT_TRUE(s.gc->isObject(kept));
    EXPECT_EQ(s.gc->stats().objectsSwept, 100u);
}

TEST(Gc, ReachabilityThroughPointerChains)
{
    GcSetup s;
    // a chain root -> a -> b -> c
    Addr c = s.gc->alloc(2);
    Addr b = s.gc->alloc(2);
    Addr a = s.gc->alloc(2);
    s.gc->writeWord(a, 0, b);
    s.gc->writeWord(b, 0, c);
    s.gc->setRoot(0, a);
    for (int i = 0; i < 50; i++)
        s.gc->alloc(2);
    s.gc->collect();
    EXPECT_TRUE(s.gc->isObject(a));
    EXPECT_TRUE(s.gc->isObject(b));
    EXPECT_TRUE(s.gc->isObject(c));
    EXPECT_EQ(s.gc->readWord(a, 0), b);
}

TEST(Gc, SurvivorsArePromotedToOld)
{
    GcSetup s;
    Addr kept = s.gc->alloc(2);
    s.gc->setRoot(0, kept);
    EXPECT_FALSE(s.gc->isOld(kept));
    s.gc->collect();
    EXPECT_TRUE(s.gc->isOld(kept));
    EXPECT_GE(s.gc->stats().blocksPromoted, 1u);
}

TEST(Gc, AllocationBudgetTriggersCollections)
{
    GcSetup s;
    for (int i = 0; i < 30000; i++)
        s.gc->alloc(2);  // 12 bytes each, budget 256 KB
    EXPECT_GE(s.gc->stats().collections, 1u);
}

TEST(Gc, OldToYoungPointerKeepsYoungAliveViaPageBarrier)
{
    GcSetup s;
    Addr old_obj = s.gc->alloc(2);
    s.gc->setRoot(0, old_obj);
    s.gc->collect();                   // promotes old_obj
    ASSERT_TRUE(s.gc->isOld(old_obj));

    // store a fresh young object into the (protected) old object:
    // this is the barrier fault
    Addr young = s.gc->alloc(2);
    s.gc->writeWord(young, 1, 0xbeef);
    s.gc->writeWord(old_obj, 0, young);
    EXPECT_GE(s.gc->stats().barrierFaults, 1u);

    // young is reachable only through the old object
    s.gc->collect();
    EXPECT_TRUE(s.gc->isObject(young));
    EXPECT_EQ(s.gc->readWord(young, 1), 0xbeefu);
}

TEST(Gc, UnrecordedYoungIsCollectedDespiteOldStore)
{
    GcSetup s;
    Addr old_obj = s.gc->alloc(2);
    s.gc->setRoot(0, old_obj);
    s.gc->collect();
    // no store into old: a young object with no root dies
    Addr young = s.gc->alloc(2);
    s.gc->collect();
    EXPECT_FALSE(s.gc->isObject(young));
    (void)old_obj;
}

TEST(Gc, SoftwareCheckBarrierTracksOldToYoung)
{
    GcSetup s(DeliveryMode::FastSoftware, BarrierKind::SoftwareCheck);
    Addr old_obj = s.gc->alloc(2);
    s.gc->setRoot(0, old_obj);
    s.gc->collect();
    ASSERT_TRUE(s.gc->isOld(old_obj));

    Addr young = s.gc->alloc(2);
    s.gc->writeWord(old_obj, 0, young);
    EXPECT_GE(s.gc->stats().barrierChecks, 1u);
    EXPECT_EQ(s.gc->stats().barrierFaults, 0u);
    EXPECT_EQ(s.env.stats().faultsDelivered, 0u);

    s.gc->collect();
    EXPECT_TRUE(s.gc->isObject(young));
}

TEST(Gc, LargeOldObjectSpansBlocks)
{
    GcSetup s;
    Addr big = s.gc->allocOld(4000);   // ~16 KB: 4+ blocks
    s.gc->setRoot(0, big);
    EXPECT_TRUE(s.gc->isOld(big));
    s.gc->writeWord(big, 3999, 42);    // last word, other block
    EXPECT_EQ(s.gc->readWord(big, 3999), 42u);
    // the store faulted (old blocks are protected after allocOld)
    EXPECT_GE(s.gc->stats().barrierFaults, 1u);

    // a young object stored deep into the large object is found by
    // the dirty-page scan
    Addr young = s.gc->alloc(2);
    s.gc->writeWord(big, 3000, young);
    s.gc->collect();
    EXPECT_TRUE(s.gc->isObject(young));
}

class GcModes : public ::testing::TestWithParam<DeliveryMode> {};

TEST_P(GcModes, BarrierWorksUnderEveryDeliveryMechanism)
{
    GcSetup s(GetParam(), BarrierKind::PageProtection);
    Addr old_obj = s.gc->alloc(2);
    s.gc->setRoot(0, old_obj);
    s.gc->collect();

    Addr young = s.gc->alloc(2);
    s.gc->writeWord(young, 0, 7u);
    s.gc->writeWord(old_obj, 1, young);
    EXPECT_GE(s.gc->stats().barrierFaults, 1u);
    s.gc->collect();
    EXPECT_TRUE(s.gc->isObject(young));
    EXPECT_EQ(s.gc->readWord(young, 0), 7u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, GcModes,
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

/** One pinned workload run: the exact counts the collector produced
 *  for one delivery mode and one write barrier. */
struct GcPin
{
    DeliveryMode mode;
    BarrierKind barrier;
    Cycles cycles;
    std::uint64_t faultsDelivered;
    std::uint64_t collections;
    std::uint64_t objectsSwept;
    std::uint64_t blocksPromoted;
    std::uint64_t pagesReprotected;
    std::uint64_t rememberedObjects;
};

/** Run @p workload under each pin's mode and barrier and compare every
 *  pinned count exactly: a collector change that keeps the shape of
 *  a run but moves its work shows up here. */
template <typename Workload>
void
expectPinned(const std::vector<GcPin> &pins, Workload workload)
{
    for (const GcPin &pin : pins) {
        BootedKernel bk(osMachineConfig(true));
        UserEnv env(bk.kernel, pin.mode);
        env.install(kAllExcMask);
        GcRunResult r = workload(env, pin.barrier);
        SCOPED_TRACE(::testing::Message()
                     << "mode " << static_cast<int>(pin.mode)
                     << " barrier " << static_cast<int>(pin.barrier)
                     << ": {" << r.cycles << ", " << r.faultsDelivered
                     << ", " << r.gc.collections << ", "
                     << r.gc.objectsSwept << ", " << r.gc.blocksPromoted
                     << ", " << r.gc.pagesReprotected << ", "
                     << r.gc.rememberedObjects << "}");
        EXPECT_EQ(r.cycles, pin.cycles);
        EXPECT_EQ(r.faultsDelivered, pin.faultsDelivered);
        EXPECT_EQ(r.gc.collections, pin.collections);
        EXPECT_EQ(r.gc.objectsSwept, pin.objectsSwept);
        EXPECT_EQ(r.gc.blocksPromoted, pin.blocksPromoted);
        EXPECT_EQ(r.gc.pagesReprotected, pin.pagesReprotected);
        EXPECT_EQ(r.gc.rememberedObjects, pin.rememberedObjects);
    }
}

constexpr BarrierKind kPage = BarrierKind::PageProtection;
constexpr BarrierKind kSoft = BarrierKind::SoftwareCheck;
constexpr DeliveryMode kUltrix = DeliveryMode::UltrixSignal;
constexpr DeliveryMode kFastSw = DeliveryMode::FastSoftware;
constexpr DeliveryMode kFastHw = DeliveryMode::FastHardwareVector;

TEST(GcWorkloads, LispOpsRunsInPaperRegime)
{
    BootedKernel bk(osMachineConfig(true));
    UserEnv env(bk.kernel, DeliveryMode::FastSoftware);
    env.install(kAllExcMask);
    GcWorkloadParams params;
    // shortened for the test suite, but long enough for two full
    // collections
    params.lispIterations = 150;
    params.lispTreeDepth = 8;
    params.youngBudgetBytes = 24 * 1024;
    GcRunResult r = runLispOps(env, BarrierKind::PageProtection, params);
    EXPECT_GT(r.gc.collections, 0u);
    EXPECT_GT(r.gc.barrierFaults, 0u);
    EXPECT_GT(r.cycles, 0u);

    expectPinned(
        {
            {kUltrix, kPage, 2006879, 170, 18, 25346, 126, 1140, 0},
            {kFastSw, kPage, 1617571, 170, 18, 25346, 126, 1140, 0},
            {kFastHw, kPage, 1561955, 182, 18, 25346, 126, 1140, 0},
            {kUltrix, kSoft, 1802550, 0, 18, 25346, 126, 0, 183},
            {kFastSw, kSoft, 1802550, 0, 18, 25346, 126, 0, 183},
            {kFastHw, kSoft, 1802550, 0, 18, 25346, 126, 0, 183},
        },
        [&](UserEnv &e, BarrierKind barrier) {
            return runLispOps(e, barrier, params);
        });
}

/** Walk @p node against the shape buildTree promises, a complete
 *  binary tree of @p depth levels: every cell a live object reached
 *  exactly once, and 0 below the last level. */
void
walkTree(Collector &gc, Addr node, unsigned depth, std::set<Addr> &seen)
{
    if (depth == 0) {
        EXPECT_EQ(node, 0u);
        return;
    }
    ASSERT_NE(node, 0u) << "missing subtree of depth " << depth;
    ASSERT_TRUE(gc.isObject(node))
        << "reclaimed cell 0x" << std::hex << node;
    ASSERT_TRUE(seen.insert(node).second)
        << "cell 0x" << std::hex << node << " reached twice";
    walkTree(gc, gc.readWord(node, 0), depth - 1, seen);
    walkTree(gc, gc.readWord(node, 1), depth - 1, seen);
}

TEST(GcWorkloads, BuildTreeSurvivesCollectionsMidConstruction)
{
    BootedKernel bk(osMachineConfig(true));
    UserEnv env(bk.kernel, DeliveryMode::FastSoftware);
    env.install(kAllExcMask);
    Collector::Config cfg;
    cfg.youngBudgetBytes = 4096; // a collection every few hundred cells
    Collector gc(env, cfg);

    constexpr unsigned kDepth = 10;
    Addr tree = buildTree(gc, kDepth);
    ASSERT_GE(gc.stats().collections, 2u) << "no mid-build collection";
    EXPECT_EQ(gc.root(0), tree);

    std::set<Addr> seen;
    walkTree(gc, tree, kDepth, seen);
    EXPECT_EQ(seen.size(), (1u << kDepth) - 1);

    // The root slot alone keeps the finished tree.
    gc.fullCollect();
    seen.clear();
    walkTree(gc, tree, kDepth, seen);
    EXPECT_EQ(seen.size(), (1u << kDepth) - 1);
}

TEST(GcWorkloads, ArrayTestFaultsOnOldArrayPages)
{
    BootedKernel bk(osMachineConfig(true));
    UserEnv env(bk.kernel, DeliveryMode::FastSoftware);
    env.install(kAllExcMask);
    GcWorkloadParams params;
    params.arrayWords = 32 * 1024;
    params.arrayReplacements = 12000;
    params.arrayYoungBudgetBytes = 32 * 1024;
    GcRunResult r = runArrayTest(env, BarrierKind::PageProtection,
                                 params);
    EXPECT_GT(r.gc.barrierFaults, 100u);
    EXPECT_GT(r.gc.collections, 0u);

    expectPinned(
        {
            {kUltrix, kPage, 938901, 161, 4, 465, 36, 255, 0},
            {kFastSw, kPage, 570618, 161, 4, 465, 36, 255, 0},
            {kFastHw, kPage, 521887, 404, 4, 465, 36, 255, 0},
            {kUltrix, kSoft, 679812, 0, 4, 465, 36, 0, 5},
            {kFastSw, kSoft, 679812, 0, 4, 465, 36, 0, 5},
            {kFastHw, kSoft, 679812, 0, 4, 465, 36, 0, 5},
        },
        [&](UserEnv &e, BarrierKind barrier) {
            return runArrayTest(e, barrier, params);
        });
}

TEST(GcWorkloads, FastExceptionsBeatUltrixOnArrayTest)
{
    GcWorkloadParams params;
    params.arrayWords = 32 * 1024;
    params.arrayReplacements = 6000;
    params.arrayYoungBudgetBytes = 24 * 1024;

    auto run = [&](DeliveryMode mode) {
        BootedKernel bk(osMachineConfig(true));
        UserEnv env(bk.kernel, mode);
        env.install(kAllExcMask);
        return runArrayTest(env, BarrierKind::PageProtection, params);
    };
    GcRunResult ultrix = run(DeliveryMode::UltrixSignal);
    GcRunResult fast = run(DeliveryMode::FastSoftware);
    // same work, same faults, less time: Table 4's claim
    EXPECT_NEAR(static_cast<double>(ultrix.gc.barrierFaults),
                static_cast<double>(fast.gc.barrierFaults),
                ultrix.gc.barrierFaults * 0.05 + 5.0);
    EXPECT_LT(fast.cycles, ultrix.cycles);
}

} // namespace
} // namespace uexc::apps
