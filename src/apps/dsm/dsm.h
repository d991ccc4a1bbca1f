/**
 * @file
 * Page-based distributed shared memory in the style of Li & Hudak's
 * IVY — the "distributed virtual memory" use of exceptions the paper
 * cites. Each node is a complete simulated machine (its own CPU,
 * TLB, kernel, and exception runtime); a shared region is kept
 * coherent with a single-manager write-invalidate protocol driven
 * entirely by memory-protection faults:
 *
 *   - a read of an Invalid page faults; the handler fetches the page
 *     from its owner (network latency + per-word copy charged), maps
 *     it read-only, and joins the copyset;
 *   - a write to a non-exclusive page faults; the handler invalidates
 *     every other copy, takes ownership, and maps read-write.
 *
 * The DSM fault handler is where exception-delivery cost matters: on
 * a slow 1994 network it is noise, but the faster the interconnect,
 * the larger the fraction of a page miss the dispatch path becomes —
 * bench_dsm sweeps exactly that.
 */

#ifndef UEXC_APPS_DSM_DSM_H
#define UEXC_APPS_DSM_DSM_H

#include <memory>
#include <vector>

#include "core/env.h"
#include "core/link.h"
#include "os/kernel.h"

namespace uexc::apps {

/** Per-node page state. */
enum class DsmPageState
{
    Invalid,
    ReadShared,
    Writable,
};

/** Cluster statistics. */
struct DsmStats
{
    std::uint64_t readFaults = 0;
    std::uint64_t writeFaults = 0;
    std::uint64_t pageTransfers = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t messages = 0;
    // lossy network only:
    std::uint64_t retries = 0;              ///< retransmissions sent
    std::uint64_t timeouts = 0;             ///< timeouts awaited
    std::uint64_t duplicatesSuppressed = 0; ///< dups dropped by seqno
    /** The effective retransmit-timeout ceiling (config echo), so a
     *  harness asserting tail-latency bounds reads the bound and the
     *  observations from one place. */
    Cycles timeoutCapCycles = 0;
    /** Largest single timeout actually charged; never exceeds
     *  timeoutCapCycles. */
    Cycles maxTimeoutCharged = 0;
    /** Retransmissions per ordered (from,to) link, indexed
     *  from * nodes + to — the per-link retry histogram a fleet soak
     *  uses to spot one systematically lossy path. */
    std::vector<std::uint64_t> perLinkRetries;
};

/**
 * A cluster of simulated nodes sharing one coherent region.
 */
class DsmCluster
{
  public:
    struct Config
    {
        unsigned nodes = 2;
        Addr base = 0x40000000;
        Word bytes = 16 * os::kPageBytes;
        rt::DeliveryMode mode = rt::DeliveryMode::FastSoftware;
        bool hardwareExtensions = true;
        /** Run every node on the predecoded fast interpreter. */
        bool fastInterpreter = false;
        /** Per-machine physical memory; 0 = the paper-machine
         *  default. The fleet harness shrinks this so several
         *  clusters fit in host RAM alongside dozens of guests. */
        std::size_t memBytes = 0;
        /**
         * Place all nodes on the harts of ONE machine (one kernel,
         * one physical memory) instead of a machine per node. Page
         * transfers then copy between the nodes' frames within the
         * same physical memory, and each node's dispatch runs in its
         * own hart's per-context state over the shared kernel.
         */
        bool sharedMachine = false;
        /** Host scheduler for the shared machine (sharedMachine mode
         *  only; per-node machines are single-hart and always serial).
         *  Barrier keeps the cluster bit-identical to Serial. */
        sim::SchedulerMode scheduler = sim::SchedulerMode::Auto;
        /**
         * The message network: one-way latency and, when any of its
         * percentages is nonzero, seeded loss, delay and duplication.
         * A lost message costs a timeout (doubling per retry, up to
         * the cap) and a retransmission; duplicates are suppressed by
         * per-link sequence numbers. Protocol state only ever changes
         * after a send succeeds, so a lossy run converges to the same
         * memory contents as a lossless one. Messages are unframed,
         * so corruptPercent must stay 0.
         */
        rt::LinkConfig network;
    };

    explicit DsmCluster(const Config &config);
    ~DsmCluster();

    unsigned nodes() const { return static_cast<unsigned>(
        nodes_.size()); }

    /** Coherent word read on a node. */
    Word read(unsigned node, Addr va);
    /** Coherent word write on a node. */
    void write(unsigned node, Addr va, Word value);

    /** Page state as seen by a node (for tests). */
    DsmPageState state(unsigned node, Addr va) const;
    /** Current owner of the page containing @p va. */
    unsigned ownerOf(Addr va) const;

    const DsmStats &stats() const { return stats_; }
    /** Total simulated cycles across all nodes. */
    Cycles totalCycles() const;

    /**
     * Serialize the whole cluster: directory (owner + per-node page
     * states), protocol statistics, per-link sequence numbers, the
     * network RNG, and a nested machine snapshot per simulated
     * machine (each carrying its kernel and UserEnv sections, which
     * boot()/install() registered during construction). restore()
     * targets a cluster built with an identical Config — the config
     * echo in the image is validated field by field, and any mismatch
     * or corruption raises sim::SnapshotError before cluster state is
     * touched. Only meaningful between read()/write() operations
     * (never from inside a fault handler).
     */
    std::vector<Byte> checkpoint() const;
    void restore(const std::vector<Byte> &image);

  private:
    struct Node
    {
        /** Null on every node in shared-machine mode (see shared_). */
        std::unique_ptr<sim::Machine> machine;
        std::unique_ptr<os::Kernel> kernel;
        std::unique_ptr<rt::UserEnv> env;
    };

    struct PageInfo
    {
        unsigned owner = 0;
        std::vector<DsmPageState> states;   // per node
    };

    unsigned pageIndex(Addr va) const;
    void onFault(unsigned node, rt::Fault &fault);
    void fetchPage(unsigned to_node, Addr page);
    void setProtection(unsigned node, Addr page, DsmPageState state,
                       bool in_handler);
    /** One protocol message from @p from to @p to across the network
     *  link, charged to @p node's clock. */
    void sendMessage(unsigned node, unsigned from, unsigned to);
    unsigned pairIndex(unsigned from, unsigned to) const;
    sim::Machine &machineOf(unsigned node);

    Config config_;
    /** The one machine/kernel in shared-machine mode. */
    std::unique_ptr<sim::Machine> sharedMachine_;
    std::unique_ptr<os::Kernel> sharedKernel_;
    std::vector<Node> nodes_;
    std::vector<PageInfo> pages_;
    DsmStats stats_;
    /** Per ordered (from,to) link: next seqno to send / expect. */
    std::vector<std::uint64_t> sendSeq_, recvSeq_;
    rt::Link link_;
};

} // namespace uexc::apps

#endif // UEXC_APPS_DSM_DSM_H
