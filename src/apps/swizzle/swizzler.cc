#include "apps/swizzle/swizzler.h"

#include <deque>
#include <random>
#include <unordered_set>

namespace uexc::apps {

namespace {

/** Non-pointer words at the front of each object. */
constexpr unsigned kDataWordsPerObject = 6;

} // namespace

TraversalResult
runTraversal(rt::UserEnv &env, SwizzleMode mode,
             const TraversalParams &params)
{
    ObjectStore::Config cfg = params.store;
    cfg.mode = mode;
    ObjectStore store(env, cfg);

    // build the graph on disk: each object points at
    // pointersPerObject random successors (skewed toward nearby ids,
    // as real object graphs cluster)
    std::mt19937 rng(params.rngSeed);
    std::vector<Oid> oids;
    for (unsigned i = 0; i < params.numObjects; i++) {
        std::vector<PField> fields;
        for (unsigned d = 0; d < kDataWordsPerObject; d++)
            fields.push_back(PField{false, (i << 8) | d});
        for (unsigned p = 0; p < params.pointersPerObject; p++) {
            unsigned target =
                (i + 1 + rng() % (params.numObjects / 4 + 1)) %
                params.numObjects;
            fields.push_back(PField{true, target});
        }
        oids.push_back(store.createObject(fields));
    }

    TraversalResult result;
    Cycles start = env.cycles();

    Addr root = store.pin(oids[0]);
    unsigned used_per_obj = static_cast<unsigned>(
        params.useFraction * params.pointersPerObject + 0.5);

    std::deque<Addr> frontier{root};
    std::unordered_set<Addr> visited{root};
    while (!frontier.empty()) {
        Addr obj = frontier.front();
        frontier.pop_front();
        // touch the data fields
        for (unsigned d = 0; d < kDataWordsPerObject; d++)
            store.readData(obj, d);
        // dereference a subset of the pointers, u times each
        for (unsigned p = 0; p < used_per_obj; p++) {
            unsigned field = kDataWordsPerObject + p;
            Addr target = 0;
            for (unsigned u = 0; u < params.usesPerPointer; u++) {
                target = store.deref(obj, field);
                result.derefs++;
            }
            if (visited.insert(target).second)
                frontier.push_back(target);
        }
    }

    result.cycles = env.cycles() - start;
    result.millis =
        env.cpu().config().cost.toMicros(result.cycles) / 1e3;
    result.store = store.stats();
    return result;
}

} // namespace uexc::apps
