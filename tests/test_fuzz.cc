/**
 * @file
 * Differential (shadow-model) randomized tests:
 *
 *  - the generational collector against a host-side reference heap:
 *    after arbitrary interleavings of allocation, mutation and
 *    collection, every object reachable in the reference model must
 *    survive with identical contents;
 *  - the DSM cluster against a flat shadow memory: sequential
 *    consistency of random reads/writes across nodes;
 *  - the object store: all three swizzling strategies must return
 *    identical data for an identical random workload.
 */

#include <gtest/gtest.h>

#include <random>
#include <unordered_map>
#include <unordered_set>

#include "apps/dsm/dsm.h"
#include "apps/gc/gc.h"
#include "apps/swizzle/swizzler.h"
#include "os_test_util.h"

namespace uexc::apps {
namespace {

using namespace os::testutil;
using rt::DeliveryMode;
using rt::UserEnv;

// -- GC vs reference heap ----------------------------------------------------

struct ShadowHeap
{
    struct Obj
    {
        std::vector<Word> words;
    };
    std::unordered_map<Addr, Obj> objects;
    std::vector<Addr> roots = std::vector<Addr>(8, 0);

    std::unordered_set<Addr>
    reachable() const
    {
        std::unordered_set<Addr> seen;
        std::vector<Addr> stack;
        for (Addr r : roots) {
            if (objects.count(r) && seen.insert(r).second)
                stack.push_back(r);
        }
        while (!stack.empty()) {
            Addr p = stack.back();
            stack.pop_back();
            for (Word w : objects.at(p).words) {
                if (objects.count(w) && seen.insert(w).second)
                    stack.push_back(w);
            }
        }
        return seen;
    }
};

/** (seed, delivery mode, fast interpreter) */
class GcFuzz : public ::testing::TestWithParam<
                   std::tuple<unsigned, DeliveryMode, bool>> {};

TEST_P(GcFuzz, CollectorAgreesWithReferenceModel)
{
    sim::MachineConfig mcfg = osMachineConfig(true);
    mcfg.cpu.fastInterpreter = std::get<2>(GetParam());
    BootedKernel bk(mcfg);
    UserEnv env(bk.kernel, std::get<1>(GetParam()));
    env.install(kAllExcMask);
    Collector::Config cfg;
    cfg.youngBudgetBytes = 8 * 1024;   // frequent collections
    cfg.numRoots = 8;
    Collector gc(env, cfg);

    ShadowHeap shadow;
    std::vector<Addr> live;   // candidates for mutation
    std::mt19937 rng(std::get<0>(GetParam()));

    for (unsigned op = 0; op < 1500; op++) {
        unsigned kind = rng() % 100;
        if (kind < 45 || live.empty()) {
            // allocate and root it somewhere (or leak it as garbage)
            unsigned words = 1 + rng() % 4;
            Addr obj = gc.alloc(words);
            shadow.objects[obj].words.assign(words, 0);
            live.push_back(obj);
            if (rng() % 3 != 0) {
                unsigned slot = rng() % shadow.roots.size();
                gc.setRoot(slot, obj);
                shadow.roots[slot] = obj;
            }
        } else if (kind < 85) {
            // mutate: store a pointer or a datum into a live object
            Addr dst = live[rng() % live.size()];
            auto it = shadow.objects.find(dst);
            if (it == shadow.objects.end())
                continue;
            unsigned index = rng() % it->second.words.size();
            Word value;
            if (rng() % 2 && !live.empty()) {
                value = live[rng() % live.size()];
                if (!shadow.objects.count(value))
                    value = 0x1000 + (rng() % 1000) * 4;
            } else {
                value = 0x1000 + (rng() % 1000) * 4;  // plain datum
            }
            if (gc.isObject(dst)) {
                gc.writeWord(dst, index, value);
                it->second.words[index] = value;
            }
        } else if (kind < 92) {
            // drop a root
            unsigned slot = rng() % shadow.roots.size();
            gc.setRoot(slot, 0);
            shadow.roots[slot] = 0;
        } else {
            gc.collect();
            // prune the shadow and the candidate list to the
            // reference-reachable set (the collector may keep more
            // via conservative block promotion, never less)
            auto keep = shadow.reachable();
            for (auto it = shadow.objects.begin();
                 it != shadow.objects.end();) {
                if (!keep.count(it->first))
                    it = shadow.objects.erase(it);
                else
                    ++it;
            }
            live.assign(keep.begin(), keep.end());
        }
    }

    gc.collect();
    auto keep = shadow.reachable();
    for (Addr p : keep) {
        ASSERT_TRUE(gc.isObject(p))
            << "reachable object 0x" << std::hex << p << " was lost";
        const auto &words = shadow.objects.at(p).words;
        for (unsigned i = 0; i < words.size(); i++) {
            EXPECT_EQ(gc.readWord(p, i), words[i])
                << "content diverged at 0x" << std::hex << p << "+"
                << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, GcFuzz,
    ::testing::Values(
        std::make_tuple(7u, DeliveryMode::FastSoftware, false),
        std::make_tuple(42u, DeliveryMode::FastSoftware, false),
        std::make_tuple(1999u, DeliveryMode::UltrixSignal, false),
        std::make_tuple(31337u, DeliveryMode::FastHardwareVector, false),
        std::make_tuple(64738u, DeliveryMode::UltrixSignal, false),
        std::make_tuple(8128u, DeliveryMode::FastHardwareVector, false),
        // same workloads again on the predecoded fast interpreter
        std::make_tuple(7u, DeliveryMode::FastSoftware, true),
        std::make_tuple(1999u, DeliveryMode::UltrixSignal, true),
        std::make_tuple(31337u, DeliveryMode::FastHardwareVector, true)));

// -- DSM vs flat shadow memory --------------------------------------------------

/** (seed, fast interpreter) */
class DsmFuzz : public ::testing::TestWithParam<
                    std::pair<unsigned, bool>> {};

TEST_P(DsmFuzz, SequentiallyConsistentUnderRandomTraffic)
{
    constexpr Addr kBase = 0x40000000;
    DsmCluster::Config cfg;
    cfg.nodes = 3;
    cfg.bytes = 4 * os::kPageBytes;
    cfg.network.latencyCycles = 500;
    cfg.fastInterpreter = GetParam().second;
    DsmCluster dsm(cfg);

    std::unordered_map<Addr, Word> shadow;
    std::mt19937 rng(GetParam().first);

    for (unsigned op = 0; op < 600; op++) {
        unsigned node = rng() % cfg.nodes;
        Addr addr = kBase + 4 * (rng() % (cfg.bytes / 4));
        if (rng() % 2) {
            Word value = rng();
            dsm.write(node, addr, value);
            shadow[addr] = value;
        } else {
            Word expect = shadow.count(addr) ? shadow[addr] : 0;
            ASSERT_EQ(dsm.read(node, addr), expect)
                << "node " << node << " addr 0x" << std::hex << addr;
        }
    }
    // final sweep: every node sees the final state everywhere
    for (unsigned node = 0; node < cfg.nodes; node++) {
        for (const auto &[addr, value] : shadow)
            ASSERT_EQ(dsm.read(node, addr), value);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DsmFuzz,
                         ::testing::Values(std::make_pair(11u, false),
                                           std::make_pair(222u, false),
                                           std::make_pair(3333u, false),
                                           std::make_pair(11u, true),
                                           std::make_pair(3333u, true)));

// -- swizzling strategy equivalence ------------------------------------------------

/** (seed, fast interpreter) */
class SwizzleFuzz : public ::testing::TestWithParam<
                        std::pair<unsigned, bool>> {};

TEST_P(SwizzleFuzz, AllStrategiesReturnIdenticalData)
{
    std::mt19937 graph_rng(GetParam().first);
    const unsigned n = 40;
    // a fixed random object graph description
    struct Desc
    {
        std::vector<PField> fields;
    };
    std::vector<Desc> descs(n);
    for (unsigned i = 0; i < n; i++) {
        for (unsigned d = 0; d < 3; d++)
            descs[i].fields.push_back(PField{false, graph_rng()});
        for (unsigned p = 0; p < 4; p++)
            descs[i].fields.push_back(
                PField{true, graph_rng() % n});
    }

    auto run = [&](SwizzleMode mode) {
        sim::MachineConfig mcfg = osMachineConfig(true);
        mcfg.cpu.fastInterpreter = GetParam().second;
        BootedKernel bk(mcfg);
        UserEnv env(bk.kernel, DeliveryMode::FastSoftware);
        env.install(kAllExcMask);
        ObjectStore::Config cfg;
        cfg.mode = mode;
        ObjectStore store(env, cfg);
        for (const Desc &d : descs)
            store.createObject(d.fields);

        // a deterministic random walk reading data along the way
        std::mt19937 walk_rng(GetParam().first ^ 0x5555);
        std::vector<Word> observed;
        Addr obj = store.pin(0);
        for (unsigned step = 0; step < 200; step++) {
            unsigned field = walk_rng() % 3;
            observed.push_back(store.readData(obj, field));
            obj = store.deref(obj, 3 + walk_rng() % 4);
        }
        return observed;
    };

    auto lazy_exc = run(SwizzleMode::LazyExceptions);
    auto lazy_chk = run(SwizzleMode::LazyChecks);
    auto eager = run(SwizzleMode::Eager);
    EXPECT_EQ(lazy_exc, lazy_chk);
    EXPECT_EQ(lazy_chk, eager);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwizzleFuzz,
                         ::testing::Values(std::make_pair(5u, false),
                                           std::make_pair(77u, false),
                                           std::make_pair(901u, false),
                                           std::make_pair(5u, true),
                                           std::make_pair(901u, true)));

} // namespace
} // namespace uexc::apps
