#include "apps/gc/workloads.h"

#include <random>

namespace uexc::apps {

namespace {

/** Root slot assignments. */
constexpr unsigned kRootTree = 0;
constexpr unsigned kRootPersistent = 1;
constexpr unsigned kRootArray = 2;
/** buildTree's pending left subtree of depth d lives in slot
 *  kRootPending + d. */
constexpr unsigned kRootPending = 3;

/** cons: a fresh 2-word cell (car, cdr) through the write barrier. */
Addr
cons(Collector &gc, Addr car, Addr cdr)
{
    Addr cell = gc.alloc(2);
    gc.writeWord(cell, 0, car);
    gc.writeWord(cell, 1, cdr);
    return cell;
}

GcRunResult
finish(rt::UserEnv &env, Collector &gc, Cycles start_cycles,
       std::uint64_t start_faults)
{
    GcRunResult r;
    r.cycles = env.cycles() - start_cycles;
    r.cpuSeconds = env.cpu().config().cost.toMicros(r.cycles) / 1e6;
    r.gc = gc.stats();
    r.faultsDelivered = env.stats().faultsDelivered - start_faults;
    return r;
}

} // namespace

Addr
buildTree(Collector &gc, unsigned depth)
{
    if (depth == 0)
        return 0;
    // The tree slot alone is not enough: building the right subtree
    // overwrites it, so the left subtree also holds a slot of its own
    // until its parent cell links it.
    Addr left = buildTree(gc, depth - 1);
    gc.setRoot(kRootTree, left);
    gc.setRoot(kRootPending + depth, left);
    Addr right = buildTree(gc, depth - 1);
    Addr node = gc.alloc(2);
    gc.writeWord(node, 0, left);
    gc.writeWord(node, 1, right);
    gc.setRoot(kRootTree, node);
    gc.setRoot(kRootPending + depth, 0);
    return node;
}

GcRunResult
runLispOps(rt::UserEnv &env, BarrierKind barrier,
           const GcWorkloadParams &params)
{
    Collector::Config cfg;
    cfg.barrier = barrier;
    if (params.youngBudgetBytes)
        cfg.youngBudgetBytes = params.youngBudgetBytes;
    Collector gc(env, cfg);

    Cycles start = env.cycles();
    std::uint64_t faults0 = env.stats().faultsDelivered;

    // A persistent list accumulates one cell per round (it tenures
    // quickly), and each round stores fresh pointers into reachable
    // *old* cells — the older-to-younger stores of section 4.1.
    Addr persistent = 0;
    std::mt19937 rng(params.rngSeed);

    for (unsigned round = 0; round < params.lispIterations; round++) {
        // car/cdr-style traffic: build a tree, walk parts of it
        Addr tree = buildTree(gc, params.lispTreeDepth);
        gc.setRoot(kRootTree, tree);

        // walk: car-chain to a leaf a few times (read traffic)
        for (int walk = 0; walk < 8; walk++) {
            Addr p = tree;
            while (p != 0)
                p = gc.readWord(p, rng() & 1);
        }

        // grow the persistent structure and mutate old cells: store
        // freshly allocated cells into randomly chosen persistent
        // (old) cells, creating old-to-young pointers
        persistent = cons(gc, tree, persistent);
        gc.setRoot(kRootPersistent, persistent);

        for (unsigned m = 0; m < params.lispMutationsPerRound; m++) {
            Addr p = persistent;
            unsigned hops = rng() % 28;
            for (unsigned i = 0; i < hops && p != 0; i++) {
                Addr next = gc.readWord(p, 1);
                if (next == 0)
                    break;
                p = next;
            }
            if (p != 0 && gc.isOld(p)) {
                Addr fresh = cons(gc, 0, 0);
                gc.writeWord(p, 0, fresh);
            }
        }
        // drop the tree: next round's collection reclaims it
        gc.setRoot(kRootTree, 0);
    }
    return finish(env, gc, start, faults0);
}

GcRunResult
runArrayTest(rt::UserEnv &env, BarrierKind barrier,
             const GcWorkloadParams &params)
{
    Collector::Config cfg;
    cfg.barrier = barrier;
    cfg.heapBytes = 12 * 1024 * 1024;
    if (params.arrayYoungBudgetBytes)
        cfg.youngBudgetBytes = params.arrayYoungBudgetBytes;
    else if (params.youngBudgetBytes)
        cfg.youngBudgetBytes = params.youngBudgetBytes;
    Collector gc(env, cfg);

    Cycles start = env.cycles();
    std::uint64_t faults0 = env.stats().faultsDelivered;

    Addr array = gc.allocOld(params.arrayWords);
    gc.setRoot(kRootArray, array);

    std::mt19937 rng(params.rngSeed);
    for (unsigned i = 0; i < params.arrayReplacements; i++) {
        unsigned index = rng() % params.arrayWords;
        // each replacement creates garbage: the old element becomes
        // unreachable, the new cell is young
        Addr cell = cons(gc, i, 0);
        gc.writeWord(array, index, cell);
        // mutator read traffic
        if ((i & 7) == 0) {
            Addr v = gc.readWord(array, rng() % params.arrayWords);
            if (gc.isObject(v))
                gc.readWord(v, 0);
        }
    }
    return finish(env, gc, start, faults0);
}

} // namespace uexc::apps
