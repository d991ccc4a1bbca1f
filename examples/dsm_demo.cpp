/**
 * @file
 * Distributed shared memory across two complete simulated machines
 * (Li & Hudak-style write-invalidate coherence, driven entirely by
 * memory-protection faults — the paper's "distributed virtual
 * memory" use case).
 *
 *   $ ./examples/dsm_demo
 */

#include <cstdio>

#include "apps/dsm/dsm.h"

using namespace uexc;
using namespace uexc::apps;

int
main()
{
    constexpr Addr kBase = 0x40000000;

    DsmCluster::Config cfg;
    cfg.nodes = 2;
    cfg.bytes = 4 * os::kPageBytes;
    cfg.mode = rt::DeliveryMode::FastSoftware;
    cfg.network.latencyCycles = 2500;  // a 100 us fabric at 25 MHz
    DsmCluster dsm(cfg);

    std::printf("two nodes, one coherent region; every state "
                "transition below is a protection fault\n\n");

    std::printf("node 0 writes 1000 at 0x%08x (initial owner: no "
                "fault)\n", kBase);
    dsm.write(0, kBase, 1000);

    std::printf("node 1 reads  -> %u  (read miss: page fetched, both "
                "nodes now read-shared)\n", dsm.read(1, kBase));

    std::printf("node 1 writes 2000      (write miss: node 0's copy "
                "invalidated, ownership moves)\n");
    dsm.write(1, kBase, 2000);
    std::printf("  owner is now node %u; node 0 state %s\n",
                dsm.ownerOf(kBase),
                dsm.state(0, kBase) == DsmPageState::Invalid
                    ? "Invalid" : "?");

    std::printf("node 0 reads  -> %u  (misses, refetches from node "
                "1)\n\n", dsm.read(0, kBase));

    // a short ping-pong
    for (Word i = 0; i < 6; i++)
        dsm.write(i % 2, kBase + 8, i);

    const DsmStats &s = dsm.stats();
    std::printf("statistics: %llu read faults, %llu write faults, "
                "%llu page transfers, %llu invalidations, %llu "
                "messages\n",
                static_cast<unsigned long long>(s.readFaults),
                static_cast<unsigned long long>(s.writeFaults),
                static_cast<unsigned long long>(s.pageTransfers),
                static_cast<unsigned long long>(s.invalidations),
                static_cast<unsigned long long>(s.messages));
    std::printf("\nrun bench_dsm for the network-latency sweep "
                "(where exception dispatch cost starts to matter)\n");
    return 0;
}
