/**
 * @file
 * Ablation A7: distributed shared memory (Li & Hudak, cited by the
 * paper as a primary consumer of memory-protection exceptions). A
 * two-node write ping-pong over one shared page, sweeping the
 * network latency: the faster the interconnect, the larger the
 * fraction of a page miss spent in exception dispatch — and the more
 * the fast mechanism buys.
 */

#include <cstdio>

#include "apps/dsm/dsm.h"
#include "bench_util.h"

using namespace uexc;
using namespace uexc::apps;
using uexc::bench::banner;
using uexc::bench::noteLine;
using uexc::bench::section;

namespace {

constexpr Addr kBase = 0x40000000;

Cycles
pingpong(rt::DeliveryMode mode, Cycles latency, unsigned rounds)
{
    DsmCluster::Config cfg;
    cfg.mode = mode;
    cfg.bytes = 4 * os::kPageBytes;
    cfg.network.latencyCycles = latency;
    DsmCluster dsm(cfg);
    dsm.write(0, kBase, 0);
    Cycles before = dsm.totalCycles();
    for (Word i = 0; i < rounds; i++)
        dsm.write(i % 2, kBase, i);
    return dsm.totalCycles() - before;
}

} // namespace

int
main()
{
    banner("Ablation A7: DSM page ping-pong vs network latency");
    bench::JsonResults json("dsm");
    constexpr unsigned kRounds = 20;
    sim::CostModel cost;

    std::printf("  %-26s %14s %14s %10s\n",
                "one-way latency", "Ultrix (us/miss)",
                "fast (us/miss)", "speedup");
    for (Cycles latency : {Cycles{250}, Cycles{1000}, Cycles{5000},
                           Cycles{25000}, Cycles{100000}}) {
        Cycles u = pingpong(rt::DeliveryMode::UltrixSignal, latency,
                            kRounds);
        Cycles f = pingpong(rt::DeliveryMode::FastSoftware, latency,
                            kRounds);
        std::printf("  %8llu cycles (%6.0f us) %14.1f %14.1f %9.2fx\n",
                    static_cast<unsigned long long>(latency),
                    cost.toMicros(latency),
                    cost.toMicros(u) / kRounds,
                    cost.toMicros(f) / kRounds,
                    static_cast<double>(u) / f);
        std::string suffix =
            " (latency=" +
            std::to_string(static_cast<unsigned long long>(latency)) +
            ")";
        json.metric("ultrix miss" + suffix,
                    cost.toMicros(u) / kRounds, "us");
        json.metric("fast miss" + suffix, cost.toMicros(f) / kRounds,
                    "us");
    }

    section("placement: machine-per-node vs harts of one machine");
    {
        auto run_placed = [&](bool shared) {
            DsmCluster::Config cfg;
            cfg.mode = rt::DeliveryMode::FastSoftware;
            cfg.bytes = 4 * os::kPageBytes;
            cfg.network.latencyCycles = 1000;
            cfg.sharedMachine = shared;
            DsmCluster dsm(cfg);
            dsm.write(0, kBase, 0);
            Cycles before = dsm.totalCycles();
            for (Word i = 0; i < kRounds; i++)
                dsm.write(i % 2, kBase, i);
            return dsm.totalCycles() - before;
        };
        Cycles separate = run_placed(false);
        Cycles shared = run_placed(true);
        std::printf("  separate machines %10llu cyc, shared machine "
                    "(2 harts) %10llu cyc\n",
                    static_cast<unsigned long long>(separate),
                    static_cast<unsigned long long>(shared));
        json.metric("pingpong separate machines",
                    static_cast<double>(separate), "cycles");
        json.metric("pingpong shared machine",
                    static_cast<double>(shared), "cycles");
    }

    section("notes");
    noteLine("at 1994 Ethernet latencies (~1 ms) the dispatch path is "
             "a few percent of a miss; on fast fabrics the exception "
             "mechanism dominates and the fast scheme's advantage "
             "approaches its microbenchmark ratio");
    noteLine("this is the situation the paper anticipates: 'as "
             "operating system structures evolve ... the situation "
             "will even worsen'");
    return 0;
}
