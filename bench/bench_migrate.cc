/**
 * @file
 * Iterative pre-copy vs. stop-and-copy migration on a dirty-heavy
 * guest: the downtime/bytes trade the self-healing fleet rides on.
 *
 * The guest is a chaos rig mid-campaign — the protection-fault churn
 * rewrites its working region continuously, so pages keep dirtying
 * while pre-copy rounds ship them. For pre-copy rounds 0 (classic
 * stop-and-copy), 1, 2, and 4 the bench migrates the same guest
 * under the same seeded transport weather and reports, per mode:
 *
 *   - stop-and-copy downtime (simulated cycles the guest is paused),
 *   - total bytes moved (pre-copy rounds + residual + control image),
 *   - convergence rate (dirty set under the threshold before the
 *     round budget ran out).
 *
 * Gate (nonzero exit on failure): every pre-copy mode must show
 * strictly lower mean downtime than single-shot stop-and-copy —
 * pre-copy that does not shrink the pause is a regression, since the
 * residual set is bounded by the convergence threshold while the
 * full image is not.
 *
 * Results are emitted into BENCH_migrate.json; the fleet soak's
 * downtime percentiles stay in uexc-fleet's BENCH_fleet.json.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/chaos.h"
#include "core/migrate.h"

using namespace uexc;
using uexc::bench::banner;
using uexc::bench::noteLine;
using uexc::bench::section;

namespace {

struct ModeResult
{
    unsigned rounds = 0;
    double meanDowntime = 0;
    double meanBytes = 0;
    double convergenceRate = 0; ///< 1.0 for stop-and-copy
    unsigned migrations = 0;
};

ModeResult
runMode(unsigned rounds, unsigned iters, std::uint64_t seed_base)
{
    ModeResult mode;
    mode.rounds = rounds;

    double downtime_sum = 0, bytes_sum = 0;
    unsigned converged = 0;

    for (unsigned i = 0; i < iters; i++) {
        // Fresh source each iteration, run to mid-campaign so the
        // churn is hot; same weather seed per iteration across modes.
        rt::chaos::Rig src;
        src.runTo(rt::chaos::kChaosOps / 2);
        rt::chaos::Rig dst;

        rt::migrate::MigrationConfig mc;
        std::uint64_t chain = seed_base + i;
        mc.transport.seed = splitmix64(chain);
        mc.transport.lossPercent = 4;
        mc.transport.corruptPercent = 2;
        mc.transport.delayPercent = 8;

        rt::migrate::MigrationResult result;
        if (rounds == 0) {
            result = rt::migrate::migrateRig(src, dst, mc);
            if (result.succeeded)
                converged++; // stop-and-copy trivially "converges"
        } else {
            rt::migrate::PreCopyConfig pc;
            pc.maxRounds = rounds;
            pc.convergePages = 8;
            result =
                rt::migrate::migrateRigPreCopy(src, dst, mc, pc, 4);
            if (result.succeeded && result.precopy.converged)
                converged++;
        }
        if (!result.succeeded) {
            std::fprintf(stderr,
                         "bench_migrate: migration failed (%s)\n",
                         result.error.c_str());
            continue;
        }
        mode.migrations++;
        downtime_sum += double(result.downtimeCycles);
        bytes_sum += double(result.bytesMoved);
    }

    if (mode.migrations != 0) {
        mode.meanDowntime = downtime_sum / mode.migrations;
        mode.meanBytes = bytes_sum / mode.migrations;
        mode.convergenceRate = double(converged) / mode.migrations;
    }
    return mode;
}

} // namespace

int
main()
{
    banner("Live migration: iterative pre-copy vs. stop-and-copy on "
           "a dirty-heavy guest");
    bench::JsonResults json("migrate");
    setLoggingEnabled(false);

    unsigned iters = 6;
    if (const char *env = std::getenv("UEXC_BENCH_ITERS"))
        iters = static_cast<unsigned>(std::atoi(env));
    if (iters == 0)
        iters = 1;
    json.config("iterations", double(iters));
    json.config("converge_pages", 8.0);
    json.config("ops_per_slice", 4.0);

    const unsigned kModes[] = {0, 1, 2, 4};
    std::vector<ModeResult> results;

    section("downtime / bytes moved / convergence by pre-copy rounds");
    std::printf("  %-18s %14s %14s %12s\n", "mode",
                "downtime (cyc)", "bytes moved", "converged");
    for (unsigned rounds : kModes) {
        ModeResult mode = runMode(rounds, iters, 0xB16B00 + rounds);
        results.push_back(mode);
        std::string label =
            rounds == 0 ? std::string("stop-and-copy")
                        : "pre-copy x" + std::to_string(rounds);
        std::printf("  %-18s %14.0f %14.0f %11.0f%%\n", label.c_str(),
                    mode.meanDowntime, mode.meanBytes,
                    mode.convergenceRate * 100);
        json.metric("downtime (" + label + ")", mode.meanDowntime,
                    "cycles");
        json.metric("bytes moved (" + label + ")", mode.meanBytes,
                    "bytes");
        json.metric("convergence (" + label + ")",
                    mode.convergenceRate * 100, "%");
    }

    noteLine("pre-copy trades total bytes (every round re-ships the "
             "dirty set) for a residual-only pause");

    // Gate: every pre-copy mode must pause the guest strictly less
    // than single-shot stop-and-copy does.
    const ModeResult &stopcopy = results[0];
    bool ok = stopcopy.migrations != 0;
    for (size_t i = 1; i < results.size(); i++) {
        const ModeResult &m = results[i];
        if (m.migrations == 0 ||
            m.meanDowntime >= stopcopy.meanDowntime) {
            std::fprintf(stderr,
                         "bench_migrate: GATE FAILED: pre-copy x%u "
                         "downtime %.0f !< stop-and-copy %.0f\n",
                         m.rounds, m.meanDowntime,
                         stopcopy.meanDowntime);
            ok = false;
        }
    }
    json.metric("downtime gate", ok ? 1 : 0, "pass");
    if (!ok)
        return 1;
    std::printf("\n  gate: every pre-copy mode beats stop-and-copy "
                "downtime\n");
    return 0;
}
