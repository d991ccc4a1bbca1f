/**
 * @file
 * Fleet soak harness: N simulated hosts running M guests under
 * sustained exception load, with periodic live migrations over the
 * seeded-lossy transport and convergence oracles at the end.
 *
 * Guests come in two kinds:
 *
 *  - chaos guests: one chaos::Rig each, running back-to-back seeded
 *    injection campaigns (protection-fault churn with a live fault
 *    injector). A finished campaign is checked against the cached
 *    fault-free reference; anything other than convergence or a
 *    legitimately-diagnosed planned fault is a contract violation.
 *  - DSM guests: a 2-node DsmCluster on an unreliable network,
 *    driven by seeded coherent reads/writes. The harness keeps a
 *    host-side expected-contents map; every read is an oracle.
 *
 * Hosts are placement bookkeeping: a migration checkpoints a guest,
 * pushes the image through a migrate::TransferSession whose weather
 * (loss/corrupt/dup/delay) is drawn per-migration from the fleet
 * seed — including deliberately partitioned transfers — and restores
 * into a freshly built twin on the destination host. A failed
 * migration must degrade gracefully: the source guest keeps running,
 * the failure lands in the per-kind MigrateError ledger, and nothing
 * else in the fleet notices.
 *
 * The whole soak is seeded-deterministic: same FleetConfig, same
 * ledger, bit for bit. There is no wall-clock anywhere; downtime
 * percentiles are simulated cycles from MigrationResult.
 */

#ifndef UEXC_APPS_FLEET_FLEET_H
#define UEXC_APPS_FLEET_FLEET_H

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/migrate.h"
#include "core/supervise.h"

namespace uexc::apps::fleet {

namespace chaos = rt::chaos;

/** Soak shape and weather. */
struct FleetConfig
{
    std::uint64_t seed = 1;
    unsigned hosts = 8;
    unsigned guests = 32;      ///< total, including dsmGuests
    unsigned dsmGuests = 4;    ///< of which: 2-node DSM clusters
    unsigned targetMigrations = 50;
    /** Ops each guest runs per tick (chaos ops / DSM accesses).
     *  CI time-bounds the soak through this knob (UEXC_SOAK_OPS). */
    unsigned opsPerTick = 8;
    /** Extra ticks after the migration budget is spent, so guests
     *  keep soaking under load; 0 = stop once migrations are done. */
    unsigned cooldownTicks = 8;
    /** Every Nth migration is launched into a fully partitioned
     *  link (loss=100) to exercise graceful degradation; 0 = never. */
    unsigned partitionEvery = 5;
    /** Host scheduler for multi-hart guests (chaos rigs are
     *  single-hart; kept for config parity with CI's barrier runs). */
    sim::SchedulerMode scheduler = sim::SchedulerMode::Auto;
    /** Baseline transport; per-migration weather perturbs the loss /
     *  corrupt / dup / delay percentages around this. */
    rt::migrate::TransportConfig transport;
    /** When non-empty, contract violations dump the guest's .uxsn
     *  checkpoint here for offline uexc-snap triage (at most 8). */
    std::string reproDir;

    // -- self-healing supervision --------------------------------------

    /** Run the supervisor: per-guest heartbeats, seeded failure
     *  drills, and checkpoint-based recovery with backoff. */
    bool supervise = false;
    rt::supervise::SupervisorConfig supervisor;
    /** Every Nth tick one seeded failure drill fires: a host crash
     *  (killing every guest on it), a wedge, a guest crash, a
     *  corrupted newest checkpoint, or a source-host crash
     *  mid-transfer. 0 = supervise without injecting failures. */
    unsigned failEvery = 7;
    /** Snapshot every healthy guest's last-good checkpoint every N
     *  ticks; the newest two generations are kept, so a corrupted
     *  newest image falls back to the older one. */
    unsigned checkpointEveryTicks = 4;

    // -- iterative pre-copy migration ----------------------------------

    /** Pre-copy rounds for chaos-guest migrations (dirty pages ship
     *  while the guest runs); 0 = classic stop-and-copy. */
    unsigned precopyRounds = 0;

    /** Overrides the tick count when nonzero (wall-clock-bounded
     *  soaks); migrations then keep firing on every tick instead of
     *  stopping at targetMigrations. */
    std::uint64_t maxTicks = 0;
    /** Polled once per tick; returning true ends the soak after the
     *  current tick. Wall-clock bounds (UEXC_SOAK_SECONDS) live in
     *  this caller-supplied hook — never in guest semantics, so a
     *  soak's ledger depends on the clock only through its length. */
    std::function<bool()> stopRequested;
};

/** End-of-soak ledger. Everything a CI gate needs is in here. */
struct FleetStats
{
    std::uint64_t ticks = 0;
    std::uint64_t chaosOpsRun = 0;
    std::uint64_t dsmOpsRun = 0;

    std::uint64_t campaignsStarted = 0;
    std::uint64_t campaignsConverged = 0;
    /** Campaigns that ended in a planned, legitimate diagnosis. */
    std::uint64_t campaignsDiagnosed = 0;
    std::uint64_t dsmReadsVerified = 0;

    std::uint64_t migrationsAttempted = 0;
    std::uint64_t migrationsSucceeded = 0;
    /** Failed migrations by MigrateErrorKind (Partition,
     *  ImageRejected, RestoreRefused) — every failure is diagnosed
     *  into exactly one bucket, so the sum equals
     *  migrationsAttempted - migrationsSucceeded. */
    std::array<std::uint64_t, 3> migrationsFailedByKind{};
    /** Deliberately partitioned transfers (expected failures). */
    std::uint64_t partitionsInjected = 0;

    /** Per successful migration: simulated stop-and-copy downtime. */
    std::vector<Cycles> downtimeCycles;
    /** Aggregated transport counters across every attempt. */
    std::uint64_t framesSent = 0;
    std::uint64_t transportRetries = 0;
    std::uint64_t corruptDropped = 0;
    std::uint64_t duplicatesSuppressed = 0;
    Cycles maxTimeoutCharged = 0;

    /** Migrations landed per host (in-bound). */
    std::vector<std::uint64_t> perHostArrivals;

    /** Convergence / contract failures: divergence from reference,
     *  unplanned diagnosis, DSM oracle mismatch, or a non-GuestError
     *  escape. MUST be zero for a healthy soak. */
    std::uint64_t hostFailures = 0;
    std::vector<std::string> failureNotes; ///< bounded detail
    std::vector<std::string> reprosWritten;

    /** Most recent failed-migration diagnostics per MigrateErrorKind
     *  (chunk index, retries, charged timeout) for the ledger. */
    std::array<std::string, 3> lastMigrateErrorDetail{};

    // -- supervision (populated when FleetConfig::supervise) -----------
    std::uint64_t drillsHostCrash = 0;
    std::uint64_t drillsWedge = 0;
    std::uint64_t drillsGuestCrash = 0;
    std::uint64_t drillsCorruptImage = 0;
    std::uint64_t drillsSourceCrash = 0;
    std::uint64_t recoveriesRestart = 0;
    std::uint64_t recoveriesRemigrate = 0;
    /** Corrupted/torn checkpoint images refused by restore-side
     *  validation before touching any guest state. */
    std::uint64_t corruptImagesRejected = 0;
    std::uint64_t guestsQuarantined = 0;
    /** Ticks spent in the post-soak recovery drain. */
    std::uint64_t drainTicks = 0;
    bool stoppedEarly = false; ///< the stopRequested hook fired

    // -- pre-copy ------------------------------------------------------
    std::uint64_t precopyMigrations = 0;
    std::uint64_t precopyConverged = 0;
    std::uint64_t precopyPagesSent = 0;
    std::uint64_t precopyResidualPages = 0;
    std::uint64_t precopyBytesMoved = 0;
    /** Bytes moved while paused under pre-copy (residual+control). */
    std::uint64_t precopyStopCopyBytes = 0;

    std::uint64_t migrationsFailed() const
    {
        return migrationsFailedByKind[0] + migrationsFailedByKind[1] +
               migrationsFailedByKind[2];
    }
    Cycles downtimePercentile(double p) const;
    Cycles downtimeP50() const { return downtimePercentile(0.50); }
    Cycles downtimeP99() const { return downtimePercentile(0.99); }
};

/**
 * One soak run. Construction boots every guest; run() executes the
 * tick loop (guest ops + seeded migrations), then the end-of-soak
 * convergence sweep: every chaos guest finishes its campaign and is
 * checked against the reference, every DSM guest's expected-contents
 * map is read back on every node.
 */
class Fleet
{
  public:
    explicit Fleet(const FleetConfig &config);
    ~Fleet();

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    /** Run the whole soak; returns the final ledger. */
    const FleetStats &run();

    const FleetStats &stats() const { return stats_; }
    const FleetConfig &config() const { return config_; }
    /** Non-null when FleetConfig::supervise was set. */
    const rt::supervise::Supervisor *supervisor() const
    {
        return supervisor_.get();
    }

  private:
    struct Guest;

    std::uint64_t rng();
    const chaos::Reference &referenceFor(bool fast_interpreter);
    chaos::RigConfig rigConfigFor(const Guest &guest) const;
    void startCampaign(Guest &guest);
    void stepChaosGuest(Guest &guest, unsigned ops);
    void finishCampaign(Guest &guest);
    void stepDsmGuest(Guest &guest, unsigned ops);
    void verifyDsmGuest(Guest &guest);
    void migrateGuest(Guest &guest, unsigned migration_index);
    void recordFailure(Guest &guest, const std::string &what);

    // -- supervision machinery --
    bool guestHealthy(const Guest &guest) const;
    Guest *pickHealthyGuest(bool chaos_only, bool need_checkpoint);
    void takeCheckpoint(Guest &guest);
    void heartbeatGuest(Guest &guest, std::uint64_t tick);
    void failGuest(Guest &guest, std::uint64_t tick,
                   rt::supervise::FailureKind kind,
                   const std::string &note);
    void runDrill(std::uint64_t tick);
    bool restoreFromCheckpoint(Guest &guest, std::uint64_t tick,
                               bool remigrate);
    void attemptRecovery(Guest &guest, std::uint64_t tick);

    FleetConfig config_;
    FleetStats stats_;
    std::vector<std::unique_ptr<Guest>> guests_;
    /** Fault-free chaos references, one per interpreter flavour. */
    std::unique_ptr<chaos::Reference> references_[2];
    std::uint64_t rng_ = 0;
    std::unique_ptr<rt::supervise::Supervisor> supervisor_;
    Cycles simNow_ = 0; ///< fleet-level simulated clock (MTTR)
};

} // namespace uexc::apps::fleet

#endif // UEXC_APPS_FLEET_FLEET_H
