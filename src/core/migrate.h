/**
 * @file
 * Live migration of running guests: checkpoint → chunked lossy
 * transfer → receive-side verification → restore → resume.
 *
 * The engine moves a crash-consistent .uxsn image (a Machine, a chaos
 * rig, or a whole DSM cluster) between hosts across the same lossy
 * rt::Link that carries DSM protocol messages: every chunk frame
 * carries its own CRC32, a lost or corrupted chunk costs a retransmit
 * timeout that doubles per retry up to a hard cap, and a chunk that
 * exhausts its retry budget raises a structured MigrateError *without*
 * destroying either end — the source keeps running (stop-and-copy
 * releases nothing until the destination has accepted the image) and
 * the TransferSession remembers every chunk the receiver already
 * acknowledged, so a later resume retransmits only the missing ones.
 *
 * The receive side never trusts reassembly: before any restore, the
 * reassembled bytes go through full SnapshotImage validation — the
 * same header/section-CRC/footer checks `uexc-snap verify` runs — so
 * a partial or torn image is rejected as a typed error, never applied
 * as partial state. Restore-window safety falls out of the snapshot
 * layer's construction-vs-state split: the destination rig re-registers
 * the fast stub's K0 resume-window masks at construction, and the
 * pending injector events travel inside the image, so a fault planned
 * to land in the first instructions after resume defers exactly the
 * way it would have on the source (the PR 5 K0-hazard discipline,
 * extended across a migration).
 *
 * Downtime accounting is simulated cycles, not host time: the guest
 * is paused from checkpoint to resume, and every latency, wire word,
 * and timeout the transfer charges accumulates into
 * MigrationResult::downtimeCycles — the number the fleet harness
 * turns into p50/p99 migration downtime.
 */

#ifndef UEXC_CORE_MIGRATE_H
#define UEXC_CORE_MIGRATE_H

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/chaos.h"
#include "core/transport.h"

namespace uexc::rt::migrate {

/** Failure classes of one migration attempt. */
enum class MigrateErrorKind
{
    /** A chunk exhausted its retry budget (network partition). The
     *  session is resumable: already-delivered chunks stay
     *  acknowledged. */
    Partition,
    /** The reassembled image failed snapshot validation (truncation,
     *  CRC mismatch, version skew) — rejected before any restore. */
    ImageRejected,
    /** The destination machine refused the validated image (shape
     *  mismatch: hart count, config echo, missing consumer). */
    RestoreRefused,
};

const char *migrateErrorKindName(MigrateErrorKind kind);

/**
 * Structured failure of a migration step. Catching code switches on
 * kind(): Partition → keep the source running and optionally resume
 * the transfer later; ImageRejected/RestoreRefused → the destination
 * was never touched (or was left freshly constructed), discard it.
 */
class MigrateError : public std::runtime_error
{
  public:
    MigrateError(MigrateErrorKind kind, unsigned chunk,
                 const std::string &what)
        : MigrateError(kind, chunk, 0, 0, what)
    {
    }

    MigrateError(MigrateErrorKind kind, unsigned chunk,
                 unsigned retries, Cycles charged_timeout,
                 const std::string &what)
        : std::runtime_error(std::string("migrate [") +
                             migrateErrorKindName(kind) + "]: " + what),
          kind_(kind), chunk_(chunk), retries_(retries),
          chargedTimeout_(charged_timeout)
    {
    }

    MigrateErrorKind kind() const { return kind_; }
    /** Chunk index the failure occurred on (~0u when not per-chunk). */
    unsigned chunk() const { return chunk_; }
    /** Retransmit timeouts waited on that chunk before giving up. */
    unsigned retries() const { return retries_; }
    /** Last retransmit timeout charged before the failure (cycles;
     *  0 when the retry budget was exhausted before any wait). */
    Cycles chargedTimeout() const { return chargedTimeout_; }

  private:
    MigrateErrorKind kind_;
    unsigned chunk_;
    unsigned retries_;
    Cycles chargedTimeout_;
};

/**
 * A resumable transfer of one snapshot image. run() pushes every
 * not-yet-acknowledged chunk through the lossy link; on Partition the
 * delivered-chunk set survives, so run() after the network heals
 * (reconfigure()) finishes the remainder. receivedImage() reassembles
 * and *validates* — the receive-side `uexc-snap verify` — before
 * handing bytes to any restore path.
 */
class TransferSession
{
  public:
    TransferSession(std::vector<Byte> image,
                    const TransportConfig &config);

    /** Transfer all missing chunks; throws MigrateError(Partition)
     *  when a chunk exhausts its retries. Safe to call again. */
    void run();

    /**
     * Transfer at most @p max_chunks of the missing chunks, then
     * return how many were delivered. The partial-progress primitive
     * behind crash-mid-transfer chaos ops: a host that dies with a
     * session half run leaves exactly this many chunks on the far
     * side, and the abandoned session is simply dropped (the receive
     * side never saw a complete image, so nothing was restored).
     * Throws the same Partition error as run().
     */
    unsigned runSome(unsigned max_chunks);

    bool complete() const { return deliveredCount_ == chunks_; }
    unsigned chunksTotal() const { return chunks_; }
    unsigned chunksDelivered() const { return deliveredCount_; }

    /**
     * Reassemble and validate the received image. Throws
     * MigrateError(ImageRejected) if chunks are missing or the
     * reassembled bytes fail SnapshotImage validation (section CRCs,
     * footer) — a partial image is never observable as success.
     */
    std::vector<Byte> receivedImage() const;

    /** Swap transport knobs mid-session (a healed or degraded
     *  network); the delivered-chunk set and RNG stream persist. */
    void reconfigure(const TransportConfig &config);

    const TransportStats &stats() const { return stats_; }

  private:
    void sendChunk(unsigned index);

    TransportConfig config_;
    std::vector<Byte> source_;
    unsigned chunks_ = 0;
    /** Receiver-side chunk store plus delivered flags (a chunk may
     *  legitimately be empty, so presence is tracked explicitly). */
    std::vector<std::vector<Byte>> delivered_;
    std::vector<bool> have_;
    unsigned deliveredCount_ = 0;
    TransportStats stats_;
    Link link_;
};

/** One-shot convenience: transfer @p image over a fresh session and
 *  return the validated received copy. */
std::vector<Byte> transferImage(const std::vector<Byte> &image,
                                const TransportConfig &config,
                                TransportStats *stats = nullptr);

/** Knobs of the iterative pre-copy loop. */
struct PreCopyConfig
{
    /** Pre-copy rounds to attempt before giving up and doing
     *  stop-and-copy on whatever residual remains (>= 1). Each round
     *  runs the guest one slice, then ships the pages dirtied since
     *  the previous send. */
    unsigned maxRounds = 4;
    /** Convergence threshold: once a round's dirty set is at most
     *  this many pages, pre-copy stops and the residual is moved
     *  during the downtime window. */
    unsigned convergePages = 8;
};

/** What the pre-copy loop did (embedded in MigrationResult). */
struct PreCopyStats
{
    unsigned roundsRun = 0;      ///< guest slices executed
    bool converged = false;      ///< dirty set shrank under threshold
    std::uint64_t pagesSentPreCopy = 0;
    std::uint64_t residualPages = 0;  ///< moved during downtime
    std::uint64_t bytesMovedPreCopy = 0;
    /** Bytes moved while the guest was paused (residual pages plus
     *  the control image). */
    std::uint64_t bytesMovedStopCopy = 0;
    /** Simulated cycles charged while the guest kept running — the
     *  price of pre-copy that is *not* downtime. */
    Cycles precopyCycles = 0;
};

/** Everything a migration attempt reports. On failure the error
 *  taxonomy is populated and the source is guaranteed untouched. */
struct MigrationResult
{
    bool succeeded = false;
    MigrateErrorKind errorKind = MigrateErrorKind::Partition;
    std::string error;
    /** Per-chunk failure diagnostics (valid when !succeeded and the
     *  failure was chunk-level; errorChunk == ~0u otherwise). */
    unsigned errorChunk = ~0u;
    unsigned errorRetries = 0;
    Cycles errorTimeoutCharged = 0;
    /** Simulated guest-paused cycles: checkpoint + transfer +
     *  restore (stop-and-copy downtime). Under pre-copy this covers
     *  only the residual + control-image window. */
    Cycles downtimeCycles = 0;
    /** Bytes shipped across all transfers of this attempt (every
     *  pre-copy round plus the stop-and-copy window). */
    std::uint64_t bytesMoved = 0;
    bool usedPreCopy = false;
    PreCopyStats precopy;
    TransportStats transport;
};

/** How a migration ships its image. The checkpoint and restore
 *  halves of the downtime window cost one cycle per image word each
 *  (serialization is charged like a page copy). */
struct MigrationConfig
{
    TransportConfig transport;
};

/**
 * Migrate a live chaos rig into @p dst (a freshly constructed rig of
 * the same shape, injector attached). On success @p dst holds the
 * guest, bit-identical to @p src at the cut, and @p src should be
 * discarded by the caller; on failure @p src is untouched and keeps
 * running — graceful degradation is the caller keeping the source.
 * Never throws for transfer/restore failures (they land in the
 * result); programming errors still panic.
 */
MigrationResult migrateRig(chaos::Rig &src, chaos::Rig &dst,
                           const MigrationConfig &config);

/** Same contract for a bare Machine (twin-shaped destination). */
MigrationResult migrateMachine(sim::Machine &src, sim::Machine &dst,
                               const MigrationConfig &config);

/** Migrate an already-serialized image into a restore callable; the
 *  shared core of the two helpers above (and of DSM-cluster moves,
 *  whose restore target is a cluster, not a machine). */
MigrationResult
migrateImage(const std::vector<Byte> &image,
             const std::function<void(const std::vector<Byte> &)>
                 &restore_fn,
             const MigrationConfig &config);

/**
 * Everything the iterative pre-copy engine needs from a source guest.
 * The callbacks view the guest's physical memory at snapshot-page
 * granularity (sim::kSnapshotPageBytes), expose the PhysMemory
 * write-version counters as the dirty-tracking oracle, pause-free
 * advance the guest one slice, and produce a full paused checkpoint
 * for the final cut.
 */
struct PreCopySource
{
    std::uint64_t memBytes = 0;
    std::function<void(std::uint32_t page, Byte *dst, std::size_t len)>
        readPage;
    /** Current write-version of a page (PhysMemory::pageVersion). */
    std::function<std::uint32_t(std::uint32_t page)> pageVersion;
    /** Whether a page is all zero (PhysMemory::blockIsZero). */
    std::function<bool(std::uint32_t page, std::size_t len)> pageIsZero;
    /** Run the guest while a round's pages are "in flight". */
    std::function<void()> runSlice;
    /** Full checkpoint of the (now paused) guest. */
    std::function<std::vector<Byte>()> checkpoint;
};

/**
 * Iterative pre-copy migration: ship all live pages while the guest
 * keeps running, re-ship whatever it dirties per round until the
 * dirty set converges (or maxRounds is spent), then pause only for
 * the residual pages plus a memory-less control image. The receiver
 * reassembles the final image from its page store and the control
 * image through the *same* serializer Machine::checkpoint uses, and
 * accepts it only when the reconstructed memory payload matches the
 * length and CRC recorded in the control image; every other section
 * carries its own CRC across the link. So a successful pre-copy
 * migration restores bytes identical to what a stop-and-copy of the
 * paused source would have shipped, with downtimeCycles covering only
 * the residual window. A source checkpoint that fails validation is
 * rejected (ImageRejected) before the control image is shipped.
 *
 * On any failure the destination is untouched and the source keeps
 * running (it may have advanced by the slices already run — exactly
 * what live migration means).
 */
MigrationResult
migrateImagePreCopy(const PreCopySource &source,
                    const std::function<void(const std::vector<Byte> &)>
                        &restore_fn,
                    const MigrationConfig &config,
                    const PreCopyConfig &precopy);

/** Pre-copy a live Machine into a twin-shaped destination; @p
 *  run_slice advances the source between rounds (e.g. run(N)). */
MigrationResult
migrateMachinePreCopy(sim::Machine &src, sim::Machine &dst,
                      const MigrationConfig &config,
                      const PreCopyConfig &precopy,
                      const std::function<void()> &run_slice);

/** Pre-copy a live chaos rig, advancing its campaign by
 *  @p ops_per_slice ops per round (clamped to the campaign end). */
MigrationResult
migrateRigPreCopy(chaos::Rig &src, chaos::Rig &dst,
                  const MigrationConfig &config,
                  const PreCopyConfig &precopy,
                  unsigned ops_per_slice);

} // namespace uexc::rt::migrate

#endif // UEXC_CORE_MIGRATE_H
