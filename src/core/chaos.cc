#include "core/chaos.h"

#include <algorithm>

#include "common/guesterror.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/migrate.h"
#include "sim/snapshot.h"

namespace uexc::rt::chaos {

namespace {

/** Repro-file sections: metadata plus the nested rig snapshot. */
constexpr Word kTagRepro = sim::snapshotTag('R', 'P', 'R', 'O');
constexpr Word kTagReproSnap = sim::snapshotTag('R', 'S', 'N', 'P');

/**
 * Execute one planned migration/host-crash op against the running
 * campaign. On a successful migration @p rig is swapped onto the
 * destination twin (its injector joins @p injectors so event streams
 * outlive every machine that references them); graceful failures
 * leave the source running; guest-lost outcomes throw a
 * deterministic GuestError whose message the shrinker matches on.
 */
void
performMigrateOp(const MigrateOp &op, std::unique_ptr<Rig> &rig,
                 std::vector<std::unique_ptr<sim::FaultInjector>>
                     &injectors,
                 const RigConfig &config)
{
    if (op.kind == MigrateOp::Kind::HostCrash) {
        throw GuestError(0, 0, 0,
                         "guest lost: host crashed under the campaign "
                         "at op " + std::to_string(op.atOp));
    }

    auto inj = std::make_unique<sim::FaultInjector>();
    auto dst = std::make_unique<Rig>(inj.get(), config);

    if (op.crash == MigrateOp::Crash::None) {
        migrate::MigrationConfig mc;
        mc.transport = op.weather;
        migrate::MigrationResult res =
            migrate::migrateRig(*rig, *dst, mc);
        if (res.succeeded) {
            injectors.push_back(std::move(inj));
            rig = std::move(dst);
        }
        // Typed failure: the source never stopped; the campaign
        // continues where it is.
        return;
    }

    // Endpoint crash mid-transfer: deliver a deterministic fraction
    // of the chunks, then the planned host dies.
    migrate::TransferSession session(rig->checkpoint(), op.weather);
    unsigned target = unsigned(
        std::uint64_t(session.chunksTotal()) *
        std::min(op.crashAfterPercent, 100u) / 100);
    try {
        session.runSome(target);
    } catch (const migrate::MigrateError &) {
        // The network partitioned before the crash point; the crash
        // below still happens (it was never contingent on progress).
    }
    if (op.crash == MigrateOp::Crash::Dest) {
        // The destination died holding a partial image: nothing was
        // ever restored, the source never stopped. Graceful.
        return;
    }
    const char *who = op.crash == MigrateOp::Crash::Both
                          ? "both hosts"
                          : "source host";
    throw GuestError(
        0, 0, 0,
        std::string("guest lost: ") + who +
            " crashed mid-migration at op " + std::to_string(op.atOp) +
            " (" + std::to_string(session.chunksDelivered()) + "/" +
            std::to_string(session.chunksTotal()) +
            " chunks delivered)");
}

/** Pointers to the plan's ops, stably sorted by atOp. */
std::vector<const MigrateOp *>
sortedPlan(const MigrationPlan *migrations)
{
    std::vector<const MigrateOp *> plan;
    if (migrations != nullptr)
        for (const MigrateOp &op : *migrations)
            plan.push_back(&op);
    std::stable_sort(plan.begin(), plan.end(),
                     [](const MigrateOp *a, const MigrateOp *b) {
                         return a->atOp < b->atOp;
                     });
    return plan;
}

/**
 * The state runCampaign and replayRepro share: the campaign rig, every
 * injector a rig of this campaign has referenced (injectors must
 * outlive every machine that used them, and a migration op swaps the
 * campaign onto a fresh rig with its own), and the migration plan.
 */
struct CampaignRun
{
    CampaignRun(const RigConfig &config, const MigrationPlan *migrations)
        : config(config), plan(sortedPlan(migrations))
    {
    }

    const RigConfig &config;
    std::vector<const MigrateOp *> plan;
    std::vector<std::unique_ptr<sim::FaultInjector>> injectors;
    std::unique_ptr<Rig> rig;
    std::size_t nextOp = 0;

    /** Perform the ops planned at the rig's cursor, skipping any
     *  before @p first_op, and return the op the rig may run to — at
     *  most @p limit — before the plan needs it again. */
    unsigned performDueOps(unsigned first_op, unsigned limit)
    {
        unsigned cursor = rig->cursor();
        for (; nextOp < plan.size() && plan[nextOp]->atOp <= cursor;
             nextOp++) {
            if (plan[nextOp]->atOp == cursor && cursor >= first_op)
                performMigrateOp(*plan[nextOp], rig, injectors, config);
        }
        return nextOp < plan.size() ? std::min(limit, plan[nextOp]->atOp)
                                    : limit;
    }
};

/**
 * Run a campaign on a fresh rig. @p body drives it and returns whether
 * it ran to the end, in which case the final contents must match
 * @p reference. What the body throws is classified: a GuestError is a
 * diagnosis, anything else a host failure, both at the op after the
 * rig's cursor.
 */
template <class Body>
CampaignOutcome
driveCampaign(const RigConfig &config, const MigrationPlan *migrations,
              const std::vector<Word> &reference, Body body)
{
    CampaignOutcome out;
    CampaignRun run(config, migrations);
    try {
        run.injectors.push_back(std::make_unique<sim::FaultInjector>());
        run.rig =
            std::make_unique<Rig>(run.injectors.front().get(), config);
        if (body(run, out)) {
            out.words = run.rig->words();
            if (out.words != reference) {
                out.hostFailure = true;
                out.failOp = kTotalOps;
                out.what = "final contents diverged from reference";
            }
        }
    } catch (const GuestError &e) {
        out.diagnosed = true;
        out.what = e.what();
        out.failOp = run.rig ? run.rig->cursor() + 1 : 0;
    } catch (const std::exception &e) {
        out.hostFailure = true;
        out.what = e.what();
        out.failOp = run.rig ? run.rig->cursor() + 1 : 0;
    } catch (...) {
        out.hostFailure = true;
        out.what = "unknown exception";
        out.failOp = run.rig ? run.rig->cursor() + 1 : 0;
    }
    return out;
}

} // namespace

MigrationPlan
planMigrationOps(std::uint64_t seed, unsigned count)
{
    MigrationPlan plan;
    std::uint64_t rng = seed ^ 0x6d69677261746500ull; // "migrate\0"
    for (unsigned i = 0; i < count; i++) {
        MigrateOp op;
        op.atOp = 1 + unsigned(splitmix64(rng) % (kTotalOps - 1));
        op.weather.seed = splitmix64(rng);
        op.weather.lossPercent = unsigned(splitmix64(rng) % 10);
        op.weather.corruptPercent = unsigned(splitmix64(rng) % 8);
        op.weather.dupPercent = unsigned(splitmix64(rng) % 6);
        op.weather.delayPercent = unsigned(splitmix64(rng) % 10);
        unsigned kind = unsigned(splitmix64(rng) % 10);
        if (kind == 8) {
            op.kind = MigrateOp::Kind::HostCrash;
        } else if (kind == 9) {
            unsigned crash = unsigned(splitmix64(rng) % 3);
            op.crash = crash == 0   ? MigrateOp::Crash::Source
                       : crash == 1 ? MigrateOp::Crash::Dest
                                    : MigrateOp::Crash::Both;
            op.crashAfterPercent = 10 + unsigned(splitmix64(rng) % 81);
        }
        plan.push_back(op);
    }
    std::stable_sort(plan.begin(), plan.end(),
                     [](const MigrateOp &a, const MigrateOp &b) {
                         return a.atOp < b.atOp;
                     });
    return plan;
}

// -- Rig --------------------------------------------------------------------

Rig::Rig(sim::FaultInjector *injector, const RigConfig &config)
    : config_(config), injector_(injector)
{
    sim::MachineConfig mcfg;
    if (config.memBytes != 0)
        mcfg.memBytes = config.memBytes;
    mcfg.cpu.userVectorHw = config.hardwareExtensions;
    mcfg.cpu.tlbmpHw = config.hardwareExtensions;
    mcfg.cpu.fastInterpreter = config.fastInterpreter;
    mcfg.cpu.faultInjector = injector;
    mcfg.scheduler = config.scheduler;
    machine_ = std::make_unique<sim::Machine>(mcfg);
    kernel_ = std::make_unique<os::Kernel>(*machine_);
    kernel_->boot();
    env_ = std::make_unique<UserEnv>(*kernel_,
                                     DeliveryMode::FastSoftware);
    env_->install(0xffff);
    env_->allocate(kRegion, kRegionBytes);
    env_->allocate(kScratch, os::kPageBytes);
    env_->setHandler([this](Fault &) {
        // Idempotent recovery: make the whole region writable.
        env_->protect(kRegion, kRegionBytes,
                      os::kProtRead | os::kProtWrite);
    });
    env_->store(kScratch, 0x5c5c5c5cu); // map it for good
    env_->setHandlerBudget(config.handlerBudget);

    if (injector_) {
        machine_->registerSnapshotSection(
            sim::snapshotTag('F', 'I', 'N', 'J'),
            [this](sim::SnapshotWriter &w) {
                injector_->snapshotSave(w);
            },
            [this](sim::SnapshotReader &r) {
                injector_->snapshotLoad(r);
            });
    }
    machine_->registerSnapshotSection(
        sim::snapshotTag('C', 'R', 'I', 'G'),
        [this](sim::SnapshotWriter &w) {
            w.u32(cursor_);
            w.u32(static_cast<Word>(words_.size()));
            for (Word word : words_)
                w.u32(word);
        },
        [this](sim::SnapshotReader &r) {
            Word cursor = r.u32();
            if (cursor > kTotalOps)
                r.fail("rig op cursor out of range");
            Word nwords = r.u32();
            unsigned reads_done =
                cursor > kChaosOps + kFinalWords
                    ? cursor - (kChaosOps + kFinalWords)
                    : 0;
            if (nwords != reads_done)
                r.fail("rig word count inconsistent with op cursor");
            std::vector<Word> words(nwords);
            for (Word &word : words)
                word = r.u32();
            cursor_ = cursor;
            words_ = std::move(words);
        });
}

void
Rig::restore(const std::vector<Byte> &image)
{
    machine_->restore(image);
}

void
Rig::runTo(unsigned op)
{
    if (op > kTotalOps)
        UEXC_FATAL("chaos: op %u past the end of the campaign", op);
    while (cursor_ < op) {
        runOp(cursor_);
        cursor_++;
    }
}

void
Rig::runOp(unsigned op)
{
    if (op < kChaosOps) {
        // Protection-fault churn: the window injections land in.
        unsigned round = op / kOpsPerRound;
        unsigned step = op % kOpsPerRound;
        if (step == 0) {
            env_->protect(kRegion, kRegionBytes, os::kProtRead);
        } else if (step <= 8) {
            unsigned i = step - 1;
            Addr va = kRegion + ((round * 8 + i) * 132u) % kRegionBytes;
            env_->store(va & ~3u, round * 100 + i);
        } else if (step <= 12) {
            unsigned i = step - 9;
            (void)env_->load(kRegion + (i * 292u) % kRegionBytes);
        } else {
            (void)env_->load(kScratch);
        }
        return;
    }

    unsigned f = op - kChaosOps;
    if (f == 0 && injector_ != nullptr) {
        // Close the injection window before recovery rewrites the
        // region; still-pending events never fired.
        injector_->clear();
    }
    if (f < kFinalWords) {
        Word off = f * kCheckStride;
        env_->store(kRegion + off, 0xabcd0000u + off);
    } else {
        Word off = (f - kFinalWords) * kCheckStride;
        words_.push_back(env_->load(kRegion + off));
    }
}

// -- campaigns --------------------------------------------------------------

std::vector<sim::FaultEvent>
planEvents(std::uint64_t seed, InstCount window, Rig &rig,
           bool *may_diagnose)
{
    using sim::FaultKind;

    std::vector<sim::FaultEvent> events;
    bool may = false;
    std::uint64_t rng = seed;
    unsigned nevents = 1 + splitmix64(rng) % 3;
    for (unsigned i = 0; i < nevents; i++) {
        sim::FaultEvent e;
        e.kind = static_cast<FaultKind>(splitmix64(rng) % 5);
        e.hart = 0;
        e.atInst = rig.env().cpu().instret() + splitmix64(rng) % window;
        switch (e.kind) {
          case FaultKind::MemBitFlip: {
            // Confined to the workload region: the recovery contract
            // (final rewrite) covers exactly this memory.
            Word off =
                static_cast<Word>(splitmix64(rng) % kRegionBytes) & ~3u;
            e.addr =
                rig.physOf(kRegion + (off & ~(os::kPageBytes - 1))) +
                (off & (os::kPageBytes - 1));
            e.bit = splitmix64(rng) % 32;
            break;
          }
          case FaultKind::TlbCorrupt:
          case FaultKind::TlbSpuriousMiss:
            e.tlbIndex = static_cast<unsigned>(splitmix64(rng));
            // Only in-place corruption may end in a diagnosis (the
            // pmap consistency check); an eviction always recovers.
            may |= e.kind == FaultKind::TlbCorrupt;
            break;
          case FaultKind::SpuriousException:
            // Always transparent since the injector masks the stub's
            // K0 resume window (the PR 4 hazard): the refill lands
            // one instruction later, where k0 is dead.
            e.addr = kScratch;
            break;
          case FaultKind::HandlerRunaway: {
            Addr page = rig.env().stubAddr() & ~(os::kPageBytes - 1);
            e.addr = rig.physOf(page) +
                     (rig.env().stubAddr() & (os::kPageBytes - 1));
            break;
          }
        }
        events.push_back(e);
    }
    if (may_diagnose != nullptr)
        *may_diagnose = may;
    return events;
}

Reference
makeReference(const RigConfig &config)
{
    Reference ref;
    Rig rig(nullptr, config);
    rig.runTo(kChaosOps);
    ref.window = rig.env().cpu().instret();
    rig.run();
    ref.words = rig.words();
    return ref;
}

CampaignOutcome
runCampaign(std::uint64_t seed, InstCount window,
            const std::vector<Word> &reference, const RigConfig &config,
            unsigned checkpoint_every_ops,
            std::vector<CampaignCheckpoint> *checkpoints,
            const MigrationPlan *migrations)
{
    return driveCampaign(
        config, migrations, reference,
        [&](CampaignRun &run, CampaignOutcome &out) {
            bool may = false;
            for (const sim::FaultEvent &e :
                 planEvents(seed, window, *run.rig, &may)) {
                run.injectors.front()->addEvent(e);
            }
            out.mayDiagnose = may;

            unsigned last_checkpoint_op = ~0u;
            while (!run.rig->done()) {
                unsigned cursor = run.rig->cursor();
                // Checkpoint before any migration planned at the same
                // op, so a replay from this checkpoint re-performs it.
                if (checkpoint_every_ops != 0 && checkpoints != nullptr &&
                    cursor % checkpoint_every_ops == 0 &&
                    last_checkpoint_op != cursor) {
                    checkpoints->push_back(
                        {cursor, run.rig->env().cpu().instret(),
                         run.rig->checkpoint()});
                    last_checkpoint_op = cursor;
                }
                unsigned next = kTotalOps;
                if (checkpoint_every_ops != 0)
                    next = std::min(next,
                                    cursor + checkpoint_every_ops -
                                        cursor % checkpoint_every_ops);
                // performDueOps may swap the rig, so it runs first
                next = run.performDueOps(0, next);
                run.rig->runTo(next);
            }
            return true;
        });
}

// -- minimal repro windows ---------------------------------------------------

CampaignOutcome
replayRepro(const ReproWindow &repro,
            const std::vector<Word> &reference)
{
    return driveCampaign(
        repro.config, &repro.migrations, reference,
        [&repro](CampaignRun &run, CampaignOutcome &) {
            run.rig->restore(repro.snapshot);
            if (run.rig->cursor() != repro.startOp) {
                throw sim::SnapshotError(
                    "repro snapshot op cursor does not match startOp");
            }
            // Ops before the window need no replay: a completed
            // migration left the guest bit-identical and a graceful
            // failure touched nothing — their effect (or lack of it)
            // is already inside the snapshot.
            while (run.rig->cursor() < repro.endOp) {
                unsigned next =
                    run.performDueOps(repro.startOp, repro.endOp);
                run.rig->runTo(next);
            }
            return repro.endOp == kTotalOps;
        });
}

ReproWindow
shrinkCampaign(std::uint64_t seed, InstCount window,
               const std::vector<Word> &reference,
               const RigConfig &config, unsigned checkpoint_every_ops,
               const MigrationPlan *migrations)
{
    ReproWindow repro;
    repro.seed = seed;
    repro.window = window;
    repro.config = config;
    repro.campaignOps = kTotalOps;
    if (migrations != nullptr)
        repro.migrations = *migrations;

    std::vector<CampaignCheckpoint> cps;
    CampaignOutcome full = runCampaign(seed, window, reference, config,
                                       checkpoint_every_ops, &cps,
                                       migrations);
    if (!outcomeFailed(full))
        return repro;
    unsigned end_op = full.failOp != 0 ? full.failOp : kTotalOps;
    while (!cps.empty() && cps.back().op >= end_op)
        cps.pop_back();
    if (cps.empty())
        return repro;

    auto reproduces = [&](const CampaignCheckpoint &cp) {
        ReproWindow cand;
        cand.config = config;
        cand.startOp = cp.op;
        cand.endOp = end_op;
        cand.snapshot = cp.image;
        cand.migrations = repro.migrations;
        CampaignOutcome out = replayRepro(cand, reference);
        return out.diagnosed == full.diagnosed &&
               out.hostFailure == full.hostFailure &&
               out.what == full.what;
    };

    // Binary-search the latest checkpoint that still reproduces. The
    // op-0 checkpoint always does (the campaign is deterministic), so
    // the search is anchored; the final verification guards against a
    // non-monotone surprise.
    std::size_t lo = 0, hi = cps.size() - 1;
    while (lo < hi) {
        std::size_t mid = lo + (hi - lo + 1) / 2;
        if (reproduces(cps[mid]))
            lo = mid;
        else
            hi = mid - 1;
    }
    if (!reproduces(cps[lo]))
        return repro;

    repro.found = true;
    repro.startOp = cps[lo].op;
    repro.endOp = end_op;
    repro.startInst = cps[lo].instret;
    repro.snapshot = std::move(cps[lo].image);
    repro.failure = full.what;
    return repro;
}

void
writeReproFile(const ReproWindow &repro, const std::string &path)
{
    sim::SnapshotWriter w;
    w.beginSection(kTagRepro);
    w.u64(repro.seed);
    w.u64(repro.window);
    w.boolean(repro.config.hardwareExtensions);
    w.boolean(repro.config.fastInterpreter);
    w.u64(repro.config.handlerBudget);
    w.u64(repro.config.memBytes);
    w.u32(repro.startOp);
    w.u32(repro.endOp);
    w.u64(repro.startInst);
    w.u32(repro.campaignOps);
    w.str(repro.failure);
    // Migration plan (appended in PR 10; absent in older files, which
    // readReproFile still accepts as a plan-free repro).
    w.u32(std::uint32_t(repro.migrations.size()));
    for (const MigrateOp &op : repro.migrations) {
        w.u8(std::uint8_t(op.kind));
        w.u32(op.atOp);
        w.u8(std::uint8_t(op.crash));
        w.u32(op.crashAfterPercent);
        w.u64(op.weather.seed);
        w.u64(op.weather.chunkBytes);
        w.u32(op.weather.lossPercent);
        w.u32(op.weather.corruptPercent);
        w.u32(op.weather.dupPercent);
        w.u32(op.weather.delayPercent);
        w.u64(op.weather.latencyCycles);
        w.u64(op.weather.delayCycles);
        w.u64(op.weather.perWordCycles);
        w.u64(op.weather.timeoutCycles);
        w.u64(op.weather.timeoutCapCycles);
        w.u32(op.weather.maxRetries);
    }
    w.endSection();
    w.beginSection(kTagReproSnap);
    w.u64(repro.snapshot.size());
    w.bytes(repro.snapshot.data(), repro.snapshot.size());
    w.endSection();
    sim::writeSnapshotFile(path, w.finish());
}

ReproWindow
readReproFile(const std::string &path)
{
    std::vector<Byte> bytes = sim::readSnapshotFile(path);
    sim::SnapshotImage img(bytes);

    ReproWindow repro;
    sim::SnapshotReader r = img.section(kTagRepro);
    repro.seed = r.u64();
    repro.window = r.u64();
    repro.config.hardwareExtensions = r.boolean();
    repro.config.fastInterpreter = r.boolean();
    repro.config.handlerBudget = r.u64();
    repro.config.memBytes = std::size_t(r.u64());
    repro.startOp = r.u32();
    repro.endOp = r.u32();
    repro.startInst = r.u64();
    repro.campaignOps = r.u32();
    repro.failure = r.str();
    if (repro.campaignOps != kTotalOps)
        r.fail("repro was recorded against a different campaign shape");
    if (repro.startOp >= repro.endOp || repro.endOp > kTotalOps)
        r.fail("repro op range out of bounds");
    if (r.remaining() != 0) {
        std::uint32_t nops = r.u32();
        for (std::uint32_t i = 0; i < nops; i++) {
            MigrateOp op;
            std::uint8_t kind = r.u8();
            if (kind > std::uint8_t(MigrateOp::Kind::HostCrash))
                r.fail("repro migration op kind out of range");
            op.kind = MigrateOp::Kind(kind);
            op.atOp = r.u32();
            std::uint8_t crash = r.u8();
            if (crash > std::uint8_t(MigrateOp::Crash::Both))
                r.fail("repro migration crash kind out of range");
            op.crash = MigrateOp::Crash(crash);
            op.crashAfterPercent = r.u32();
            op.weather.seed = r.u64();
            op.weather.chunkBytes = std::size_t(r.u64());
            if (op.weather.chunkBytes == 0)
                r.fail("repro migration chunk size is zero");
            op.weather.lossPercent = r.u32();
            op.weather.corruptPercent = r.u32();
            op.weather.dupPercent = r.u32();
            op.weather.delayPercent = r.u32();
            op.weather.latencyCycles = r.u64();
            op.weather.delayCycles = r.u64();
            op.weather.perWordCycles = r.u64();
            op.weather.timeoutCycles = r.u64();
            op.weather.timeoutCapCycles = r.u64();
            op.weather.maxRetries = r.u32();
            if (op.atOp >= kTotalOps)
                r.fail("repro migration op index out of range");
            repro.migrations.push_back(op);
        }
    }
    r.expectEnd();

    sim::SnapshotReader s = img.section(kTagReproSnap);
    std::uint64_t len = s.u64();
    if (len != s.remaining())
        s.fail("nested snapshot length mismatch");
    repro.snapshot.resize(len);
    s.bytes(repro.snapshot.data(), repro.snapshot.size());
    s.expectEnd();

    repro.found = true;
    return repro;
}

std::string
reproCommandLine(const std::string &path)
{
    return "uexc-snap replay " + path;
}

} // namespace uexc::rt::chaos
