#include "apps/dsm/dsm.h"

#include <algorithm>

#include "common/bits.h"
#include "common/guesterror.h"
#include "common/logging.h"
#include "core/microbench.h"
#include "sim/snapshot.h"

namespace uexc::apps {

using namespace os;

namespace {

/** Per-word page copy cost (DMA/wire time). */
constexpr Cycles kCopyPerWordCycles = 1;

// Cluster-image section tags (the nested machine blobs carry the
// machine-level tags inside their own images).
constexpr Word kTagDsmConfig = sim::snapshotTag('D', 'C', 'F', 'G');
constexpr Word kTagDsmPages = sim::snapshotTag('D', 'P', 'G', 'S');
constexpr Word kTagDsmStats = sim::snapshotTag('D', 'S', 'T', 'A');
constexpr Word kTagDsmNet = sim::snapshotTag('D', 'N', 'E', 'T');

Word
dsmMachineTag(unsigned node)
{
    return sim::snapshotTag('M', 'C', 'H', '\0') | (Word(node) << 24);
}

} // namespace

DsmCluster::DsmCluster(const Config &config)
    : config_(config), link_(config.network)
{
    if (!isAligned(config.base, kPageBytes) ||
        !isAligned(config.bytes, kPageBytes) || config.nodes < 2) {
        UEXC_FATAL("dsm: bad cluster configuration");
    }
    if (config.network.corruptPercent != 0)
        UEXC_FATAL("dsm: protocol messages are unframed and cannot be "
                   "corrupted; network.corruptPercent must be 0");

    unsigned npages = config.bytes / kPageBytes;
    pages_.resize(npages);
    sendSeq_.assign(std::size_t(config.nodes) * config.nodes, 0);
    recvSeq_.assign(std::size_t(config.nodes) * config.nodes, 0);
    stats_.perLinkRetries.assign(
        std::size_t(config.nodes) * config.nodes, 0);
    stats_.timeoutCapCycles = config.network.timeoutCapCycles;
    for (PageInfo &p : pages_)
        p.states.assign(config.nodes, DsmPageState::Invalid);

    sim::MachineConfig mcfg = rt::micro::paperMachineConfig();
    if (config.memBytes != 0)
        mcfg.memBytes = config.memBytes;
    mcfg.cpu.userVectorHw = config.hardwareExtensions;
    mcfg.cpu.tlbmpHw = config.hardwareExtensions;
    mcfg.cpu.fastInterpreter = config.fastInterpreter;

    if (config.sharedMachine) {
        // One machine with a hart per node over one kernel. Each node
        // gets its own process (own ASID, own frames) on its own hart.
        mcfg.harts = config.nodes;
        mcfg.scheduler = config.scheduler;
        sharedMachine_ = std::make_unique<sim::Machine>(mcfg);
        sharedKernel_ = std::make_unique<os::Kernel>(*sharedMachine_);
        sharedKernel_->boot();
        for (unsigned n = 0; n < config.nodes; n++) {
            Node node;
            node.env = std::make_unique<rt::UserEnv>(
                *sharedKernel_, config.mode,
                rt::SavePolicy::UltrixEquivalent, n);
            node.env->install(0xffff);
            node.env->allocate(config.base, config.bytes);
            nodes_.push_back(std::move(node));
        }
    } else {
        for (unsigned n = 0; n < config.nodes; n++) {
            Node node;
            node.machine = std::make_unique<sim::Machine>(mcfg);
            node.kernel = std::make_unique<os::Kernel>(*node.machine);
            node.kernel->boot();
            node.env = std::make_unique<rt::UserEnv>(*node.kernel,
                                                     config.mode);
            node.env->install(0xffff);
            node.env->allocate(config.base, config.bytes);
            nodes_.push_back(std::move(node));
        }
    }

    // initial ownership: node 0 holds every page writable; all other
    // nodes start Invalid
    for (unsigned i = 0; i < npages; i++) {
        Addr page = config.base + i * kPageBytes;
        pages_[i].owner = 0;
        pages_[i].states[0] = DsmPageState::Writable;
        for (unsigned n = 1; n < config.nodes; n++)
            setProtection(n, page, DsmPageState::Invalid, false);
    }

    for (unsigned n = 0; n < config.nodes; n++) {
        nodes_[n].env->setHandler(
            [this, n](rt::Fault &f) { onFault(n, f); });
    }
}

DsmCluster::~DsmCluster() = default;

sim::Machine &
DsmCluster::machineOf(unsigned node)
{
    return sharedMachine_ ? *sharedMachine_ : *nodes_[node].machine;
}

unsigned
DsmCluster::pageIndex(Addr va) const
{
    if (va < config_.base || va >= config_.base + config_.bytes)
        UEXC_FATAL("dsm: address 0x%08x outside the shared region", va);
    return (va - config_.base) / kPageBytes;
}

void
DsmCluster::setProtection(unsigned node, Addr page, DsmPageState state,
                          bool in_handler)
{
    rt::UserEnv &env = *nodes_[node].env;
    Word prot = 0;
    switch (state) {
      case DsmPageState::Invalid: prot = 0; break;
      case DsmPageState::ReadShared: prot = kProtRead; break;
      case DsmPageState::Writable: prot = kProtRead | kProtWrite; break;
    }
    // Protection changes on remote nodes are performed by their
    // kernels on message receipt; the message cost is accounted by
    // the caller, the VM work is applied directly here.
    (void)in_handler;
    env.process().as().protect(page, kPageBytes, prot);
    pages_[pageIndex(page)].states[node] = state;
}

unsigned
DsmCluster::pairIndex(unsigned from, unsigned to) const
{
    return from * config_.nodes + to;
}

void
DsmCluster::sendMessage(unsigned node, unsigned from, unsigned to)
{
    unsigned link = pairIndex(from, to);
    std::uint64_t seq = sendSeq_[link]++;
    // The receiver accepts the first copy with this sequence number
    // and drops any duplicate that follows.
    rt::Delivery d = link_.send(config_.network.latencyCycles, 0,
                                [this, link, seq](std::size_t) {
                                    if (seq >= recvSeq_[link])
                                        recvSeq_[link] = seq + 1;
                                    return true;
                                });
    rt::UserEnv &env = *nodes_[node].env;
    env.cpu().charge(d.cycles);
    stats_.messages += d.sends;
    stats_.retries += d.retries;
    stats_.timeouts += d.retries;
    stats_.perLinkRetries[link] += d.retries;
    stats_.maxTimeoutCharged =
        std::max(stats_.maxTimeoutCharged, d.maxTimeout);
    if (d.duplicated)
        stats_.duplicatesSuppressed++;
    if (!d.delivered) {
        UEXC_GUEST_ERROR(env.hartId(), env.cpu().pc(), 0,
                         "dsm: message %u->%u lost %u times "
                         "(network partition?)",
                         from, to, d.retries + 1);
    }
}

void
DsmCluster::fetchPage(unsigned to_node, Addr page)
{
    unsigned from_node = pages_[pageIndex(page)].owner;
    // In shared-machine mode src and dst are the same physical
    // memory; the nodes' frames are still disjoint, so the copy is
    // the same operation.
    sim::Machine &src = machineOf(from_node);
    sim::Machine &dst = machineOf(to_node);
    Addr src_pa = nodes_[from_node].env->process().as().physOf(page);
    Addr dst_pa = nodes_[to_node].env->process().as().physOf(page);
    std::vector<Byte> buf(kPageBytes);
    src.mem().readBlock(src_pa, buf.data(), kPageBytes);
    dst.mem().writeBlock(dst_pa, buf.data(), kPageBytes);
    nodes_[to_node].env->cpu().charge(
        kCopyPerWordCycles * (kPageBytes / 4));
    stats_.pageTransfers++;
}

void
DsmCluster::onFault(unsigned node, rt::Fault &fault)
{
    Addr page = roundDown(fault.badVaddr(), kPageBytes);
    PageInfo &info = pages_[pageIndex(page)];
    bool is_write = fault.code() == sim::ExcCode::TlbS ||
                    fault.code() == sim::ExcCode::Mod;

    if (!is_write) {
        // read miss: request the page from the owner
        stats_.readFaults++;
        sendMessage(node, node, info.owner);    // request
        sendMessage(node, info.owner, node);    // reply header
        fetchPage(node, page);
        // the owner drops to read-shared
        if (info.states[info.owner] == DsmPageState::Writable) {
            setProtection(info.owner, page, DsmPageState::ReadShared,
                          true);
        }
        setProtection(node, page, DsmPageState::ReadShared, true);
        return;
    }

    // write miss: invalidate every other copy, take ownership
    stats_.writeFaults++;
    sendMessage(node, node, info.owner);    // ownership request
    if (info.states[node] == DsmPageState::Invalid)
        fetchPage(node, page);
    for (unsigned n = 0; n < nodes(); n++) {
        if (n == node)
            continue;
        if (info.states[n] != DsmPageState::Invalid) {
            sendMessage(node, node, n); // invalidation message
            setProtection(n, page, DsmPageState::Invalid, true);
            stats_.invalidations++;
        }
    }
    info.owner = node;
    setProtection(node, page, DsmPageState::Writable, true);
}

Word
DsmCluster::read(unsigned node, Addr va)
{
    return nodes_[node].env->load(va);
}

void
DsmCluster::write(unsigned node, Addr va, Word value)
{
    nodes_[node].env->store(va, value);
}

DsmPageState
DsmCluster::state(unsigned node, Addr va) const
{
    return pages_[pageIndex(va)].states[node];
}

unsigned
DsmCluster::ownerOf(Addr va) const
{
    return pages_[pageIndex(va)].owner;
}

std::vector<Byte>
DsmCluster::checkpoint() const
{
    sim::SnapshotWriter w;

    w.beginSection(kTagDsmConfig);
    w.u32(config_.nodes);
    w.u32(config_.base);
    w.u32(config_.bytes);
    w.u32(static_cast<Word>(config_.mode));
    w.boolean(config_.sharedMachine);
    w.boolean(config_.fastInterpreter);
    w.boolean(config_.hardwareExtensions);
    w.boolean(!config_.network.reliable());
    w.u64(config_.memBytes);
    w.endSection();

    w.beginSection(kTagDsmPages);
    w.u32(static_cast<Word>(pages_.size()));
    for (const PageInfo &p : pages_) {
        w.u32(p.owner);
        for (DsmPageState s : p.states)
            w.u8(static_cast<std::uint8_t>(s));
    }
    w.endSection();

    w.beginSection(kTagDsmStats);
    w.u64(stats_.readFaults);
    w.u64(stats_.writeFaults);
    w.u64(stats_.pageTransfers);
    w.u64(stats_.invalidations);
    w.u64(stats_.messages);
    w.u64(stats_.retries);
    w.u64(stats_.timeouts);
    w.u64(stats_.duplicatesSuppressed);
    w.u64(stats_.timeoutCapCycles);
    w.u64(stats_.maxTimeoutCharged);
    w.u32(static_cast<Word>(stats_.perLinkRetries.size()));
    for (std::uint64_t r : stats_.perLinkRetries)
        w.u64(r);
    w.endSection();

    w.beginSection(kTagDsmNet);
    w.u32(static_cast<Word>(sendSeq_.size()));
    for (std::uint64_t s : sendSeq_)
        w.u64(s);
    for (std::uint64_t s : recvSeq_)
        w.u64(s);
    w.u64(link_.rngState());
    w.endSection();

    unsigned machines = sharedMachine_ ? 1 : nodes();
    for (unsigned m = 0; m < machines; m++) {
        const sim::Machine &mach =
            sharedMachine_ ? *sharedMachine_ : *nodes_[m].machine;
        std::vector<Byte> blob = mach.checkpoint();
        w.beginSection(dsmMachineTag(m));
        w.u64(blob.size());
        w.bytes(blob.data(), blob.size());
        w.endSection();
    }

    return w.finish();
}

void
DsmCluster::restore(const std::vector<Byte> &image)
{
    sim::SnapshotImage img(image);

    sim::SnapshotReader cfg = img.section(kTagDsmConfig);
    auto check = [&cfg](const char *field, std::uint64_t image_v,
                        std::uint64_t live_v) {
        if (image_v != live_v) {
            cfg.fail(std::string("dsm config mismatch: ") + field +
                     " is " + std::to_string(image_v) +
                     " in the image but " + std::to_string(live_v) +
                     " in this cluster");
        }
    };
    check("nodes", cfg.u32(), config_.nodes);
    check("base", cfg.u32(), config_.base);
    check("bytes", cfg.u32(), config_.bytes);
    check("mode", cfg.u32(), static_cast<Word>(config_.mode));
    check("sharedMachine", cfg.boolean(), config_.sharedMachine);
    check("fastInterpreter", cfg.boolean(), config_.fastInterpreter);
    check("hardwareExtensions", cfg.boolean(),
          config_.hardwareExtensions);
    check("lossy network", cfg.boolean(),
          !config_.network.reliable());
    check("memBytes", cfg.u64(), config_.memBytes);
    cfg.expectEnd();

    // Parse and validate every cluster-level payload into locals
    // before mutating anything.
    sim::SnapshotReader pr = img.section(kTagDsmPages);
    Word npages = pr.u32();
    if (npages != pages_.size())
        pr.fail("page count mismatch");
    std::vector<PageInfo> pages(npages);
    for (PageInfo &p : pages) {
        p.owner = pr.u32();
        if (p.owner >= config_.nodes)
            pr.fail("page owner out of range");
        p.states.resize(config_.nodes);
        for (DsmPageState &s : p.states) {
            std::uint8_t raw = pr.u8();
            if (raw > static_cast<std::uint8_t>(DsmPageState::Writable))
                pr.fail("bad page state");
            s = static_cast<DsmPageState>(raw);
        }
    }
    pr.expectEnd();

    sim::SnapshotReader sr = img.section(kTagDsmStats);
    DsmStats stats;
    stats.readFaults = sr.u64();
    stats.writeFaults = sr.u64();
    stats.pageTransfers = sr.u64();
    stats.invalidations = sr.u64();
    stats.messages = sr.u64();
    stats.retries = sr.u64();
    stats.timeouts = sr.u64();
    stats.duplicatesSuppressed = sr.u64();
    stats.timeoutCapCycles = sr.u64();
    stats.maxTimeoutCharged = sr.u64();
    Word nlinkstats = sr.u32();
    if (nlinkstats != stats_.perLinkRetries.size())
        sr.fail("per-link retry counter count mismatch");
    stats.perLinkRetries.resize(nlinkstats);
    for (std::uint64_t &r : stats.perLinkRetries)
        r = sr.u64();
    sr.expectEnd();

    sim::SnapshotReader nr = img.section(kTagDsmNet);
    Word nlinks = nr.u32();
    if (nlinks != sendSeq_.size())
        nr.fail("link count mismatch");
    std::vector<std::uint64_t> send(nlinks), recv(nlinks);
    for (std::uint64_t &s : send)
        s = nr.u64();
    for (std::uint64_t &s : recv)
        s = nr.u64();
    std::uint64_t rng = nr.u64();
    nr.expectEnd();

    unsigned machines = sharedMachine_ ? 1u : nodes();
    for (const sim::SnapshotSection &sec : img.sections()) {
        if (sec.tag == kTagDsmConfig || sec.tag == kTagDsmPages ||
            sec.tag == kTagDsmStats || sec.tag == kTagDsmNet) {
            continue;
        }
        bool known = false;
        for (unsigned m = 0; m < machines && !known; m++)
            known = sec.tag == dsmMachineTag(m);
        if (!known) {
            throw sim::SnapshotError(
                "dsm image carries section '" +
                sim::snapshotTagName(sec.tag) +
                "' this cluster has no consumer for");
        }
    }

    // Machine restores validate their own images in full before
    // mutating; the directory/state commit below happens only after
    // every machine accepted its blob.
    for (unsigned m = 0; m < machines; m++) {
        sim::SnapshotReader mr = img.section(dsmMachineTag(m));
        std::uint64_t len = mr.u64();
        if (len != mr.remaining())
            mr.fail("machine blob length mismatch");
        std::vector<Byte> blob(len);
        mr.bytes(blob.data(), blob.size());
        mr.expectEnd();
        sim::Machine &mach =
            sharedMachine_ ? *sharedMachine_ : *nodes_[m].machine;
        mach.restore(blob);
    }

    pages_ = std::move(pages);
    stats_ = stats;
    sendSeq_ = std::move(send);
    recvSeq_ = std::move(recv);
    link_.setRngState(rng);
}

Cycles
DsmCluster::totalCycles() const
{
    Cycles total = 0;
    if (sharedMachine_) {
        for (unsigned i = 0; i < sharedMachine_->numHarts(); i++)
            total += sharedMachine_->hart(i).cycles();
    } else {
        for (const Node &n : nodes_)
            total += n.machine->cpu().cycles();
    }
    return total;
}

} // namespace uexc::apps
