#include "apps/fleet/fleet.h"

#include <algorithm>
#include <map>

#include "apps/dsm/dsm.h"
#include "common/guesterror.h"
#include "common/logging.h"
#include "common/rng.h"
#include "sim/faultinject.h"
#include "sim/snapshot.h"

namespace uexc::apps::fleet {

using rt::chaos::Rig;
using rt::migrate::MigrateErrorKind;

namespace {

constexpr std::size_t kMaxFailureNotes = 32;
/** Contract-violation checkpoints written to FleetConfig::reproDir. */
constexpr std::size_t kMaxRepros = 8;
/** Per-guest physical memory. Small, because dozens of machines are
 *  live at once — but it must clear os::kUserFrameBase (10 MB) with
 *  room for user frames above it. */
constexpr std::size_t kGuestMemBytes = 12 * 1024 * 1024;
/** Simulated cycles one scheduler tick represents; the MTTR cycle
 *  samples are multiples of this (no wall clock). */
constexpr Cycles kTickCycles = 100000;
/** Extra recovery-only ticks appended after the soak so every
 *  recoverable guest is back up before the convergence sweep. */
constexpr unsigned kMaxDrainTicks = 64;
/** Campaign ops the source runs per pre-copy round. */
constexpr unsigned kPreCopyOpsPerSlice = 4;

std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t s = a * 0x9E3779B97F4A7C15ull + b;
    return splitmix64(s);
}

} // namespace

/** One generation of a guest's last-good checkpoint: the image plus
 *  the fleet-side state that does not travel inside it (campaign
 *  bookkeeping, the DSM expected-contents oracle). An empty image for
 *  a chaos guest means "between campaigns": restart boots a fresh
 *  campaign at the saved index. */
struct CheckpointGen
{
    bool valid = false;
    std::vector<Byte> image;
    unsigned campaignIndex = 0;
    bool mayDiagnose = false;
    std::map<Addr, Word> expected;
};

/** One guest slot: a chaos rig mid-campaign, or a DSM pair. */
struct Fleet::Guest
{
    unsigned id = 0;
    unsigned host = 0;
    bool isDsm = false;
    bool fastInterpreter = false;

    // chaos guests
    unsigned campaignIndex = 0;
    bool mayDiagnose = false;
    std::unique_ptr<sim::FaultInjector> injector;
    std::unique_ptr<Rig> rig;

    // DSM guests
    DsmCluster::Config dsmConfig;
    std::unique_ptr<DsmCluster> dsm;
    /** Host-side oracle: last value written to each shared word. */
    std::map<Addr, Word> expected;

    // supervision state
    bool wedged = false;  ///< drill: stops executing until restarted
    bool down = false;    ///< failed, awaiting a recovery decision
    rt::supervise::Action pendingAction =
        rt::supervise::Action::Restart;
    std::uint64_t opsRun = 0; ///< monotone heartbeat progress
    /** Newest checkpoint at [0], previous at [1]. */
    CheckpointGen good[2];
};

Cycles
FleetStats::downtimePercentile(double p) const
{
    if (downtimeCycles.empty())
        return 0;
    std::vector<Cycles> sorted = downtimeCycles;
    std::sort(sorted.begin(), sorted.end());
    double rank = p * double(sorted.size() - 1);
    return sorted[std::size_t(rank + 0.5)];
}

Fleet::Fleet(const FleetConfig &config)
    : config_(config)
{
    rng_ = mix(config.seed, 0x666C6565746E6Full /* "fleetn" */);
    stats_.perHostArrivals.assign(std::max(config.hosts, 1u), 0);
    if (config.supervise) {
        rt::supervise::SupervisorConfig sc = config.supervisor;
        if (sc.seed == 1)
            sc.seed = mix(config.seed, 0x73757076ull /* "supv" */);
        supervisor_ =
            std::make_unique<rt::supervise::Supervisor>(sc);
        for (unsigned i = 0; i < config.guests; i++)
            supervisor_->track(i);
    }

    unsigned dsm_count = std::min(config.dsmGuests, config.guests);
    for (unsigned i = 0; i < config.guests; i++) {
        auto g = std::make_unique<Guest>();
        g->id = i;
        g->host = config.hosts != 0 ? i % config.hosts : 0;
        // DSM pairs are spread through the id space, not clustered
        // at the front, so migrations hit both kinds early.
        g->isDsm = dsm_count != 0 &&
                   (std::uint64_t(i) * dsm_count) % config.guests <
                       dsm_count;
        g->fastInterpreter = i % 2 == 1;
        if (g->isDsm) {
            DsmCluster::Config dc;
            dc.nodes = 2;
            dc.bytes = 4 * os::kPageBytes;
            dc.memBytes = kGuestMemBytes;
            dc.fastInterpreter = g->fastInterpreter;
            dc.network.seed = mix(config.seed, 0xD500 + i);
            dc.network.lossPercent = 5;
            dc.network.dupPercent = 5;
            dc.network.delayPercent = 10;
            g->dsmConfig = dc;
            g->dsm = std::make_unique<DsmCluster>(dc);
        }
        guests_.push_back(std::move(g));
    }
}

Fleet::~Fleet() = default;

std::uint64_t
Fleet::rng()
{
    return splitmix64(rng_);
}

chaos::RigConfig
Fleet::rigConfigFor(const Guest &guest) const
{
    chaos::RigConfig rc;
    rc.fastInterpreter = guest.fastInterpreter;
    rc.scheduler = config_.scheduler;
    rc.memBytes = kGuestMemBytes;
    return rc;
}

const chaos::Reference &
Fleet::referenceFor(bool fast_interpreter)
{
    unsigned i = fast_interpreter ? 1 : 0;
    if (!references_[i]) {
        chaos::RigConfig rc;
        rc.fastInterpreter = fast_interpreter;
        rc.scheduler = config_.scheduler;
        rc.memBytes = kGuestMemBytes;
        references_[i] = std::make_unique<chaos::Reference>(
            chaos::makeReference(rc));
    }
    return *references_[i];
}

void
Fleet::recordFailure(Guest &guest, const std::string &what)
{
    stats_.hostFailures++;
    if (stats_.failureNotes.size() < kMaxFailureNotes) {
        stats_.failureNotes.push_back(
            "guest " + std::to_string(guest.id) + " (host " +
            std::to_string(guest.host) + "): " + what);
    }
    if (config_.reproDir.empty() ||
        stats_.reprosWritten.size() >= kMaxRepros) {
        return;
    }
    if (guest.isDsm ? !guest.dsm : !guest.rig)
        return; // no live state to dump (crashed/lost guest)
    try {
        std::vector<Byte> image = guest.isDsm
                                      ? guest.dsm->checkpoint()
                                      : guest.rig->checkpoint();
        std::string path = config_.reproDir + "/fleet-guest" +
                           std::to_string(guest.id) + "-f" +
                           std::to_string(stats_.hostFailures) +
                           ".uxsn";
        sim::writeSnapshotFile(path, image);
        stats_.reprosWritten.push_back(path);
    } catch (const std::exception &e) {
        UEXC_WARN("fleet: repro dump failed: %s", e.what());
    }
}

void
Fleet::startCampaign(Guest &guest)
{
    guest.injector = std::make_unique<sim::FaultInjector>();
    guest.rig = std::make_unique<Rig>(guest.injector.get(),
                                      rigConfigFor(guest));
    const chaos::Reference &ref = referenceFor(guest.fastInterpreter);
    std::uint64_t seed =
        mix(mix(config_.seed, guest.id), guest.campaignIndex);
    bool may = false;
    for (const sim::FaultEvent &e :
         chaos::planEvents(seed, ref.window, *guest.rig, &may)) {
        guest.injector->addEvent(e);
    }
    guest.mayDiagnose = may;
    stats_.campaignsStarted++;
}

void
Fleet::finishCampaign(Guest &guest)
{
    const chaos::Reference &ref = referenceFor(guest.fastInterpreter);
    if (guest.rig->words() == ref.words) {
        stats_.campaignsConverged++;
    } else {
        recordFailure(guest,
                      "campaign " +
                          std::to_string(guest.campaignIndex) +
                          " diverged from the fault-free reference");
    }
    guest.campaignIndex++;
    guest.rig.reset();
    guest.injector.reset();
}

void
Fleet::stepChaosGuest(Guest &guest, unsigned ops)
{
    if (!guest.rig)
        startCampaign(guest);
    unsigned before = guest.rig->cursor();
    unsigned target =
        std::min(before + ops, unsigned(chaos::kTotalOps));
    try {
        guest.rig->runTo(target);
        stats_.chaosOpsRun += guest.rig->cursor() - before;
        guest.opsRun += guest.rig->cursor() - before;
    } catch (const GuestError &e) {
        stats_.chaosOpsRun += guest.rig->cursor() - before;
        guest.opsRun += guest.rig->cursor() - before;
        if (guest.mayDiagnose) {
            stats_.campaignsDiagnosed++;
        } else {
            recordFailure(guest,
                          std::string("unplanned diagnosis: ") +
                              e.what());
        }
        guest.campaignIndex++;
        guest.rig.reset();
        guest.injector.reset();
        return;
    }
    if (guest.rig->done())
        finishCampaign(guest);
}

void
Fleet::stepDsmGuest(Guest &guest, unsigned ops)
{
    const DsmCluster::Config &dc = guest.dsmConfig;
    Word words = dc.bytes / 4;
    for (unsigned i = 0; i < ops; i++) {
        unsigned node = unsigned(rng() % dc.nodes);
        Addr va = dc.base + Addr(rng() % words) * 4;
        if (rng() % 2 == 0) {
            Word value = Word(rng());
            guest.dsm->write(node, va, value);
            guest.expected[va] = value;
        } else {
            Word got = guest.dsm->read(node, va);
            auto it = guest.expected.find(va);
            if (it != guest.expected.end()) {
                if (got != it->second) {
                    recordFailure(
                        guest,
                        "dsm oracle mismatch at " +
                            std::to_string(va) + ": read " +
                            std::to_string(got) + ", expected " +
                            std::to_string(it->second));
                    return;
                }
                stats_.dsmReadsVerified++;
            }
        }
        stats_.dsmOpsRun++;
        guest.opsRun++;
    }
}

void
Fleet::verifyDsmGuest(Guest &guest)
{
    for (const auto &[va, expect] : guest.expected) {
        for (unsigned node = 0; node < guest.dsmConfig.nodes;
             node++) {
            Word got = guest.dsm->read(node, va);
            if (got != expect) {
                recordFailure(guest,
                              "end-of-soak dsm mismatch at " +
                                  std::to_string(va) + " on node " +
                                  std::to_string(node));
                return;
            }
            stats_.dsmReadsVerified++;
        }
    }
}

void
Fleet::migrateGuest(Guest &guest, unsigned migration_index)
{
    rt::migrate::MigrationConfig mc;
    mc.transport = config_.transport;
    mc.transport.seed = rng();
    bool partition = config_.partitionEvery != 0 &&
                     (migration_index + 1) % config_.partitionEvery ==
                         0;
    if (partition) {
        // deliberate partition: graceful-degradation drill
        mc.transport.lossPercent = 100;
        mc.transport.maxRetries =
            std::min(mc.transport.maxRetries, 4u);
        stats_.partitionsInjected++;
    } else {
        mc.transport.lossPercent = unsigned(rng() % 12);
        mc.transport.corruptPercent = unsigned(rng() % 10);
        mc.transport.dupPercent = unsigned(rng() % 8);
        mc.transport.delayPercent = unsigned(rng() % 15);
    }

    unsigned dst_host = config_.hosts != 0
                            ? unsigned(rng() % config_.hosts)
                            : 0;
    if (dst_host == guest.host && config_.hosts > 1)
        dst_host = (dst_host + 1) % config_.hosts;

    rt::migrate::MigrationResult result;
    std::unique_ptr<sim::FaultInjector> dst_injector;
    std::unique_ptr<Rig> dst_rig;
    std::unique_ptr<DsmCluster> dst_dsm;
    if (guest.isDsm) {
        dst_dsm = std::make_unique<DsmCluster>(guest.dsmConfig);
        result = rt::migrate::migrateImage(
            guest.dsm->checkpoint(),
            [&dst_dsm](const std::vector<Byte> &image) {
                dst_dsm->restore(image);
            },
            mc);
    } else {
        if (!guest.rig)
            startCampaign(guest);
        dst_injector = std::make_unique<sim::FaultInjector>();
        dst_rig = std::make_unique<Rig>(dst_injector.get(),
                                        rigConfigFor(guest));
        if (config_.precopyRounds != 0 && !partition) {
            // Iterative pre-copy: the source keeps running its
            // campaign while dirty pages ship; only the residual set
            // moves during the pause. A GuestError thrown by a
            // pre-copy slice is the campaign's outcome, not the
            // migration's — handle it exactly like stepChaosGuest.
            rt::migrate::PreCopyConfig pc;
            pc.maxRounds = config_.precopyRounds;
            unsigned before = guest.rig->cursor();
            try {
                result = rt::migrate::migrateRigPreCopy(
                    *guest.rig, *dst_rig, mc, pc,
                    kPreCopyOpsPerSlice);
            } catch (const GuestError &e) {
                stats_.chaosOpsRun += guest.rig->cursor() - before;
                guest.opsRun += guest.rig->cursor() - before;
                if (guest.mayDiagnose) {
                    stats_.campaignsDiagnosed++;
                } else {
                    recordFailure(
                        guest,
                        std::string(
                            "unplanned diagnosis in pre-copy slice: ") +
                            e.what());
                }
                guest.campaignIndex++;
                guest.rig.reset();
                guest.injector.reset();
                return;
            }
            stats_.chaosOpsRun += guest.rig->cursor() - before;
            guest.opsRun += guest.rig->cursor() - before;
            stats_.precopyMigrations++;
            if (result.precopy.converged)
                stats_.precopyConverged++;
            stats_.precopyPagesSent += result.precopy.pagesSentPreCopy;
            stats_.precopyResidualPages += result.precopy.residualPages;
            stats_.precopyBytesMoved +=
                result.precopy.bytesMovedPreCopy;
            stats_.precopyStopCopyBytes +=
                result.precopy.bytesMovedStopCopy;
        } else {
            result = rt::migrate::migrateRig(*guest.rig, *dst_rig, mc);
        }
    }

    stats_.migrationsAttempted++;
    stats_.framesSent += result.transport.framesSent;
    stats_.transportRetries += result.transport.retries;
    stats_.corruptDropped += result.transport.corruptDropped;
    stats_.duplicatesSuppressed +=
        result.transport.duplicatesSuppressed;
    stats_.maxTimeoutCharged = std::max(
        stats_.maxTimeoutCharged, result.transport.maxTimeoutCharged);

    if (result.succeeded) {
        stats_.migrationsSucceeded++;
        stats_.downtimeCycles.push_back(result.downtimeCycles);
        stats_.perHostArrivals[dst_host]++;
        guest.host = dst_host;
        if (guest.isDsm) {
            guest.dsm = std::move(dst_dsm);
        } else {
            guest.rig = std::move(dst_rig);
            guest.injector = std::move(dst_injector);
        }
    } else {
        // Graceful degradation: the source copy never stopped being
        // authoritative; the twin is discarded and the guest runs on.
        stats_.migrationsFailedByKind[unsigned(result.errorKind)]++;
        std::string detail = result.error;
        if (result.errorChunk != ~0u) {
            detail += " (chunk " + std::to_string(result.errorChunk) +
                      ", " + std::to_string(result.errorRetries) +
                      " retries, last timeout " +
                      std::to_string(result.errorTimeoutCharged) +
                      " cycles)";
        }
        stats_.lastMigrateErrorDetail[unsigned(result.errorKind)] =
            detail;
    }
}

// -- supervision machinery -------------------------------------------------

bool
Fleet::guestHealthy(const Guest &guest) const
{
    return !guest.down && !guest.wedged &&
           !(supervisor_ && supervisor_->quarantined(guest.id));
}

Fleet::Guest *
Fleet::pickHealthyGuest(bool chaos_only, bool need_checkpoint)
{
    if (guests_.empty())
        return nullptr;
    for (unsigned attempt = 0; attempt < 16; attempt++) {
        Guest &g = *guests_[rng() % guests_.size()];
        if (!guestHealthy(g))
            continue;
        if (chaos_only && g.isDsm)
            continue;
        if (need_checkpoint &&
            !(g.good[0].valid && !g.good[0].image.empty()))
            continue;
        return &g;
    }
    return nullptr;
}

void
Fleet::takeCheckpoint(Guest &guest)
{
    CheckpointGen gen;
    gen.valid = true;
    gen.campaignIndex = guest.campaignIndex;
    gen.mayDiagnose = guest.mayDiagnose;
    if (guest.isDsm) {
        gen.image = guest.dsm->checkpoint();
        gen.expected = guest.expected;
    } else if (guest.rig) {
        gen.image = guest.rig->checkpoint();
    } // else: between campaigns; an empty image restarts one fresh
    guest.good[1] = std::move(guest.good[0]);
    guest.good[0] = std::move(gen);
}

void
Fleet::heartbeatGuest(Guest &guest, std::uint64_t tick)
{
    // Progress is monotone simulated work; the echo proves the
    // exception path still responds (a guest can spin retiring
    // instructions while its handlers are dead).
    std::uint64_t echo = 0;
    if (!guest.isDsm && guest.rig) {
        const sim::CpuStats &cs =
            guest.rig->machine().hart(0).stats();
        echo = cs.exceptionsTaken + cs.userVectoredExceptions;
    }
    if (supervisor_->heartbeat(guest.id, tick, guest.opsRun, echo)) {
        failGuest(guest, tick, rt::supervise::FailureKind::Wedged,
                  "no progress and no handler-budget echo");
    }
}

void
Fleet::failGuest(Guest &guest, std::uint64_t tick,
                 rt::supervise::FailureKind kind,
                 const std::string &note)
{
    rt::supervise::Decision d =
        supervisor_->onFailure(guest.id, tick, simNow_, kind, note);
    guest.down = true;
    guest.pendingAction = d.action;
    if (d.action == rt::supervise::Action::Quarantine)
        stats_.guestsQuarantined++;
}

void
Fleet::runDrill(std::uint64_t tick)
{
    switch (rng() % 5) {
      case 0: { // host crash: every guest on the host dies
        Guest *seed_guest = pickHealthyGuest(false, false);
        if (!seed_guest)
            return;
        unsigned host = seed_guest->host;
        stats_.drillsHostCrash++;
        for (std::unique_ptr<Guest> &g : guests_) {
            if (g->host != host || !guestHealthy(*g))
                continue;
            g->rig.reset();
            g->injector.reset();
            g->dsm.reset();
            failGuest(*g, tick, rt::supervise::FailureKind::HostDown,
                      "host " + std::to_string(host) + " crashed");
        }
        break;
      }
      case 1: { // wedge: the guest stops making progress
        Guest *g = pickHealthyGuest(true, false);
        if (!g)
            return;
        stats_.drillsWedge++;
        g->wedged = true;
        break;
      }
      case 2: { // guest crash: its live state is gone mid-run
        Guest *g = pickHealthyGuest(true, false);
        if (!g)
            return;
        stats_.drillsGuestCrash++;
        g->rig.reset();
        g->injector.reset();
        failGuest(*g, tick, rt::supervise::FailureKind::Crashed,
                  "guest process crashed mid-campaign");
        break;
      }
      case 3: { // corrupt the newest checkpoint, then crash: the
                // recovery path must reject the torn image and fall
                // back to the previous generation
        Guest *g = pickHealthyGuest(true, true);
        if (!g)
            return;
        stats_.drillsCorruptImage++;
        std::vector<Byte> &image = g->good[0].image;
        for (std::size_t off = image.size() / 3; off < image.size();
             off += image.size() / 3 + 1) {
            image[off] ^= 0x5A;
        }
        g->rig.reset();
        g->injector.reset();
        failGuest(*g, tick, rt::supervise::FailureKind::Crashed,
                  "guest crashed (newest checkpoint silently torn)");
        break;
      }
      case 4: { // source host dies mid-transfer: the destination
                // holds a partial image (never restored), the guest
                // is lost with it
        Guest *g = pickHealthyGuest(false, false);
        if (!g)
            return;
        stats_.drillsSourceCrash++;
        std::vector<Byte> image = g->isDsm
                                      ? g->dsm->checkpoint()
                                      : (g->rig ? g->rig->checkpoint()
                                                : std::vector<Byte>());
        unsigned delivered = 0, total = 0;
        if (!image.empty()) {
            rt::migrate::TransportConfig weather = config_.transport;
            weather.seed = rng();
            rt::migrate::TransferSession session(std::move(image),
                                                 weather);
            total = session.chunksTotal();
            try {
                delivered = session.runSome(
                    total * (10 + unsigned(rng() % 81)) / 100);
            } catch (const rt::migrate::MigrateError &) {
                delivered = session.chunksDelivered();
            }
            // the half-staged image is dropped with the session
        }
        g->rig.reset();
        g->injector.reset();
        g->dsm.reset();
        failGuest(*g, tick, rt::supervise::FailureKind::HostDown,
                  "source host crashed mid-migration (" +
                      std::to_string(delivered) + "/" +
                      std::to_string(total) + " chunks delivered)");
        break;
      }
    }
}

bool
Fleet::restoreFromCheckpoint(Guest &guest, std::uint64_t tick,
                             bool remigrate)
{
    CheckpointGen &gen = guest.good[0].valid ? guest.good[0]
                                             : guest.good[1];
    if (!gen.valid) {
        // Never checkpointed: reboot from scratch (campaign 0 for
        // chaos; a DSM guest additionally clears its oracle).
        gen.valid = true;
        gen.campaignIndex = 0;
        gen.mayDiagnose = false;
    }

    std::vector<Byte> image = gen.image;
    if (remigrate && !image.empty()) {
        // Re-homing ships the checkpoint to the new host over the
        // same lossy transport migrations use; a partition here is
        // itself a failure the supervisor escalates on.
        rt::migrate::TransportConfig weather = config_.transport;
        weather.seed = rng();
        weather.lossPercent = unsigned(rng() % 20);
        weather.corruptPercent = unsigned(rng() % 10);
        try {
            image = rt::migrate::transferImage(image, weather);
        } catch (const rt::migrate::MigrateError &e) {
            failGuest(guest, tick,
                      rt::supervise::FailureKind::Partitioned,
                      std::string("re-migration transfer failed: ") +
                          e.what());
            return false;
        }
    }

    try {
        if (guest.isDsm) {
            auto dsm = std::make_unique<DsmCluster>(guest.dsmConfig);
            if (!image.empty())
                dsm->restore(image);
            guest.dsm = std::move(dsm);
            guest.expected =
                image.empty() ? std::map<Addr, Word>() : gen.expected;
        } else {
            guest.campaignIndex = gen.campaignIndex;
            guest.mayDiagnose = gen.mayDiagnose;
            if (image.empty()) {
                // between campaigns at the checkpoint: boot fresh
                guest.rig.reset();
                guest.injector.reset();
            } else {
                auto injector = std::make_unique<sim::FaultInjector>();
                auto rig = std::make_unique<Rig>(injector.get(),
                                                 rigConfigFor(guest));
                rig->restore(image);
                guest.injector = std::move(injector);
                guest.rig = std::move(rig);
            }
        }
    } catch (const sim::SnapshotError &e) {
        // Torn image refused before touching any state: drop the bad
        // generation so the next attempt uses the previous one.
        stats_.corruptImagesRejected++;
        if (&gen == &guest.good[0]) {
            guest.good[0] = std::move(guest.good[1]);
            guest.good[1] = CheckpointGen();
        } else {
            gen = CheckpointGen();
        }
        failGuest(guest, tick,
                  rt::supervise::FailureKind::CorruptedImage,
                  std::string("checkpoint failed validation: ") +
                      e.what());
        return false;
    }

    if (remigrate) {
        unsigned dst = config_.hosts > 1
                           ? unsigned(rng() % config_.hosts)
                           : guest.host;
        if (dst == guest.host && config_.hosts > 1)
            dst = (dst + 1) % config_.hosts;
        guest.host = dst;
        stats_.recoveriesRemigrate++;
    } else {
        stats_.recoveriesRestart++;
    }
    return true;
}

void
Fleet::attemptRecovery(Guest &guest, std::uint64_t tick)
{
    if (supervisor_->quarantined(guest.id))
        return;
    if (tick < supervisor_->retryAtTick(guest.id))
        return; // still backing off
    bool remigrate =
        guest.pendingAction == rt::supervise::Action::Remigrate;
    if (!restoreFromCheckpoint(guest, tick, remigrate))
        return; // escalated inside
    guest.down = false;
    guest.wedged = false;
    supervisor_->onRecovered(guest.id, tick, simNow_);
}

const FleetStats &
Fleet::run()
{
    std::uint64_t ticks =
        config_.maxTicks != 0
            ? config_.maxTicks
            : config_.targetMigrations + config_.cooldownTicks;
    std::uint64_t tick = 0;
    for (; tick < ticks; tick++) {
        if (config_.stopRequested && config_.stopRequested()) {
            stats_.stoppedEarly = true;
            break;
        }
        if (supervisor_) {
            for (std::unique_ptr<Guest> &g : guests_) {
                if (g->down)
                    attemptRecovery(*g, tick);
            }
        }
        for (std::unique_ptr<Guest> &g : guests_) {
            if (!guestHealthy(*g))
                continue;
            if (g->isDsm)
                stepDsmGuest(*g, config_.opsPerTick);
            else
                stepChaosGuest(*g, config_.opsPerTick);
        }
        if (supervisor_) {
            for (std::unique_ptr<Guest> &g : guests_) {
                if (!g->down &&
                    !supervisor_->quarantined(g->id)) {
                    heartbeatGuest(*g, tick);
                }
            }
            if (config_.failEvery != 0 &&
                tick % config_.failEvery == config_.failEvery - 1) {
                runDrill(tick);
            }
        }
        bool migrate_tick =
            config_.maxTicks != 0 || tick < config_.targetMigrations;
        if (migrate_tick) {
            Guest *victim = pickHealthyGuest(false, false);
            if (victim)
                migrateGuest(*victim, unsigned(tick));
        }
        if (supervisor_ && config_.checkpointEveryTicks != 0 &&
            tick % config_.checkpointEveryTicks ==
                config_.checkpointEveryTicks - 1) {
            for (std::unique_ptr<Guest> &g : guests_) {
                if (guestHealthy(*g))
                    takeCheckpoint(*g);
            }
        }
        stats_.ticks++;
        simNow_ += kTickCycles;
    }

    // Recovery drain: no new drills or migrations; every recoverable
    // guest must be back up (or quarantined) before the sweep.
    if (supervisor_) {
        for (unsigned drain = 0; drain < kMaxDrainTicks;
             drain++, tick++) {
            bool any_down = false;
            for (std::unique_ptr<Guest> &g : guests_) {
                if (g->down && !supervisor_->quarantined(g->id)) {
                    attemptRecovery(*g, tick);
                    any_down |= g->down;
                }
            }
            if (!any_down)
                break;
            stats_.drainTicks++;
            simNow_ += kTickCycles;
        }
    }

    // End-of-soak convergence sweep: every chaos guest finishes its
    // campaign and is judged; every DSM word is read back everywhere.
    // Quarantined guests are excluded (that is what quarantine means);
    // a still-down guest after the drain is a contract violation.
    for (std::unique_ptr<Guest> &g : guests_) {
        if (supervisor_ && supervisor_->quarantined(g->id))
            continue;
        if (g->down) {
            recordFailure(*g, "still down after the recovery drain");
            continue;
        }
        g->wedged = false;
        if (g->isDsm) {
            verifyDsmGuest(*g);
        } else if (g->rig) {
            while (g->rig && !g->rig->done())
                stepChaosGuest(*g, chaos::kTotalOps);
        }
    }
    return stats_;
}

} // namespace uexc::apps::fleet
