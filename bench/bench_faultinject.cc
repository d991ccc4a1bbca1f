/**
 * @file
 * Recovery-cost benchmark: what the robustness machinery costs when
 * it is idle, and what each recovery path costs when it engages.
 *
 *  - baseline vs idle-injector delivery cost (must be identical:
 *    the zero-overhead gate keeps the fast interpreter path),
 *  - fast-mode delivery vs demoted (kernel-mediated) delivery: the
 *    price a process pays after the watchdog or canary trips,
 *  - the cost of recovering from one injected spurious TLB refill,
 *  - DSM miss cost under increasing message-loss rates (timeouts,
 *    backoff, and retransmissions, all in simulated cycles),
 *  - a seeded chaos campaign sweep whose first diagnosing seed is
 *    shrunk to a minimal repro window and saved as a repro file, so
 *    the printed `uexc-snap replay` line reproduces the failure
 *    without rerunning the campaign from boot.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/dsm/dsm.h"
#include "bench_util.h"
#include "common/logging.h"
#include "core/chaos.h"
#include "core/env.h"
#include "os/kernel.h"
#include "sim/faultinject.h"
#include "sim/machine.h"

using namespace uexc;
using uexc::bench::banner;
using uexc::bench::noteLine;
using uexc::bench::section;

namespace {

constexpr Addr kHeap = 0x10000000;

struct Env
{
    explicit Env(rt::DeliveryMode mode,
                 sim::FaultInjector *injector = nullptr)
    {
        sim::MachineConfig cfg;
        cfg.cpu.userVectorHw = true;
        cfg.cpu.tlbmpHw = true;
        cfg.cpu.faultInjector = injector;
        machine = std::make_unique<sim::Machine>(cfg);
        kernel = std::make_unique<os::Kernel>(*machine);
        kernel->boot();
        env = std::make_unique<rt::UserEnv>(*kernel, mode);
        env->install(0xffff);
        env->allocate(kHeap, os::kPageBytes);
        env->setHandler([this](rt::Fault &) {
            env->protect(kHeap, os::kPageBytes,
                         os::kProtRead | os::kProtWrite);
        });
    }

    /** Average delivery cost of one write-protection fault. */
    double faultCost(unsigned rounds)
    {
        Cycles total = 0;
        for (unsigned i = 0; i < rounds; i++) {
            env->protect(kHeap, os::kPageBytes, os::kProtRead);
            Cycles before = env->cycles();
            env->store(kHeap + 0x40, i);
            total += env->cycles() - before;
        }
        return static_cast<double>(total) / rounds;
    }

    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<os::Kernel> kernel;
    std::unique_ptr<rt::UserEnv> env;
};

double
dsmMissCost(unsigned loss, unsigned rounds)
{
    apps::DsmCluster::Config cfg;
    cfg.bytes = 4 * os::kPageBytes;
    cfg.network.latencyCycles = 1000;
    cfg.network.seed = 99;
    cfg.network.lossPercent = loss;
    apps::DsmCluster dsm(cfg);
    constexpr Addr kBase = 0x40000000;
    dsm.write(0, kBase, 0);
    Cycles before = dsm.totalCycles();
    for (Word i = 0; i < rounds; i++)
        dsm.write(i % 2, kBase, i);
    return static_cast<double>(dsm.totalCycles() - before) / rounds;
}

} // namespace

int
main()
{
    banner("Recovery cost: fault injection and hardening overhead");
    bench::JsonResults json("faultinject");

    unsigned rounds = 50;
    if (const char *iters = std::getenv("UEXC_BENCH_ITERS"))
        rounds = static_cast<unsigned>(std::atoi(iters));
    json.config("rounds", static_cast<double>(rounds));

    section("idle injector: zero-overhead gate");
    {
        Env plain(rt::DeliveryMode::FastSoftware);
        sim::FaultInjector idle;
        Env hooked(rt::DeliveryMode::FastSoftware, &idle);
        double base = plain.faultCost(rounds);
        double gated = hooked.faultCost(rounds);
        std::printf("  no injector:   %8.1f cycles/fault\n", base);
        std::printf("  idle injector: %8.1f cycles/fault\n", gated);
        noteLine(base == gated
                     ? "bit-identical: the gate holds"
                     : "MISMATCH: idle injector perturbs execution");
        json.metric("delivery_baseline", base, "cycles/fault");
        json.metric("delivery_idle_injector", gated, "cycles/fault");
    }

    section("demotion: fast-mode vs kernel-mediated delivery");
    {
        Env fast(rt::DeliveryMode::FastSoftware);
        double clean = fast.faultCost(rounds);

        // Trip the watchdog once, then measure the demoted cost.
        sim::FaultInjector inj;
        Env victim(rt::DeliveryMode::FastSoftware, &inj);
        Addr stub = victim.env->stubAddr();
        Addr stub_pa =
            victim.env->process().as().physOf(stub &
                                              ~(os::kPageBytes - 1)) +
            (stub & (os::kPageBytes - 1));
        victim.env->setHandlerBudget(20000);
        inj.addEvent({sim::FaultKind::HandlerRunaway, 0, 0, stub_pa,
                      0, 0});
        victim.env->protect(kHeap, os::kPageBytes, os::kProtRead);
        victim.env->store(kHeap, 1);   // runaway -> demoted
        double demoted = victim.faultCost(rounds);

        std::printf("  fast delivery:    %8.1f cycles/fault\n", clean);
        std::printf("  demoted delivery: %8.1f cycles/fault "
                    "(x%.2f)\n", demoted, demoted / clean);
        json.metric("delivery_fast", clean, "cycles/fault");
        json.metric("delivery_demoted", demoted, "cycles/fault");
    }

    section("spurious TLB refill: recovery cost");
    {
        // Measure around a null guest syscall, the shortest guest run
        // with user-mode instructions the injector can interrupt.
        Env quiet(rt::DeliveryMode::FastSoftware);
        quiet.env->store(kHeap, 1);
        Cycles before = quiet.env->cycles();
        (void)quiet.env->guestSyscall(os::sys::Getpid);
        Cycles clean = quiet.env->cycles() - before;

        sim::FaultInjector inj;
        Env noisy(rt::DeliveryMode::FastSoftware, &inj);
        noisy.env->store(kHeap, 1);
        inj.addEvent({sim::FaultKind::SpuriousException, 0,
                      noisy.env->cpu().instret(), kHeap, 0, 0});
        before = noisy.env->cycles();
        (void)noisy.env->guestSyscall(os::sys::Getpid);
        Cycles repaired = noisy.env->cycles() - before;

        std::printf("  null syscall:                 %6llu cycles\n",
                    static_cast<unsigned long long>(clean));
        std::printf("  null syscall + injected miss: %6llu cycles\n",
                    static_cast<unsigned long long>(repaired));
        json.metric("spurious_refill_recovery",
                    static_cast<double>(repaired - clean), "cycles");
    }

    section("DSM page miss vs message-loss rate");
    std::printf("  %-10s %16s\n", "loss", "cycles/miss");
    for (unsigned loss : {0u, 5u, 10u, 20u}) {
        double cost = dsmMissCost(loss, rounds);
        std::printf("  %6u%%   %16.0f\n", loss, cost);
        char name[48];
        std::snprintf(name, sizeof name, "dsm_miss_loss_%u", loss);
        json.metric(name, cost, "cycles/miss");
    }
    noteLine("loss costs timeouts (50k cycles, doubling per retry) "
             "plus retransmissions");

    section("chaos campaign: minimal repro emission");
    {
        setLoggingEnabled(false);
        rt::chaos::Reference ref = rt::chaos::makeReference();
        unsigned scanned = 0, diagnosed = 0;
        bool emitted = false;
        for (std::uint64_t seed = 0x7001; seed <= 0x7190; seed++) {
            scanned++;
            rt::chaos::CampaignOutcome out =
                rt::chaos::runCampaign(seed, ref.window, ref.words);
            if (!out.diagnosed || emitted)
                continue;
            diagnosed++;
            rt::chaos::ReproWindow repro =
                rt::chaos::shrinkCampaign(seed, ref.window, ref.words);
            if (!repro.found)
                continue;
            std::string dir = ".";
            if (const char *d = std::getenv("UEXC_REPRO_DIR"))
                dir = d;
            std::string path = dir + "/bench_chaos_repro.uxsn";
            rt::chaos::writeReproFile(repro, path);
            std::printf("  seed 0x%llx diagnosed at op %u; shrunk to "
                        "ops [%u, %u) of %u\n",
                        static_cast<unsigned long long>(seed),
                        out.failOp, repro.startOp, repro.endOp,
                        rt::chaos::kTotalOps);
            std::printf("  %s\n",
                        rt::chaos::reproCommandLine(path).c_str());
            json.metric("repro_window_ops",
                        static_cast<double>(repro.endOp -
                                            repro.startOp),
                        "ops");
            json.metric("repro_file_bytes",
                        static_cast<double>(repro.snapshot.size()),
                        "bytes");
            emitted = true;
        }
        if (!emitted)
            noteLine("no diagnosing seed in the scanned range");
        std::printf("  scanned %u seeds\n", scanned);
        setLoggingEnabled(true);
    }

    return 0;
}
