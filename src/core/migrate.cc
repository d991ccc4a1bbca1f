#include "core/migrate.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/rng.h"
#include "sim/snapshot.h"

namespace uexc::rt::migrate {

namespace {

/** Per-word cycle costs of the checkpoint and restore halves of the
 *  downtime window. */
constexpr Cycles kCheckpointPerWordCycles = 1;
constexpr Cycles kRestorePerWordCycles = 1;

/** Frame header: chunk index, total chunks, payload length — all
 *  covered (with the payload) by the frame CRC, so a bit flip
 *  anywhere in the frame is detected at the receiver. */
constexpr std::size_t kFrameHeaderBytes = 12;

std::uint32_t
frameCrc(unsigned index, unsigned total, const Byte *payload,
         std::size_t len)
{
    Byte header[kFrameHeaderBytes];
    for (unsigned i = 0; i < 4; i++) {
        header[i] = Byte(index >> (8 * i));
        header[4 + i] = Byte(total >> (8 * i));
        header[8 + i] = Byte(std::uint32_t(len) >> (8 * i));
    }
    std::uint32_t crc = sim::snapshotCrc32(header, sizeof header);
    // chain the payload CRC into the header CRC (simple concatenation
    // is fine for a simulated wire; this is detection, not security)
    return crc ^ sim::snapshotCrc32(payload, len);
}

/** Parse and fully validate @p image — what `uexc-snap verify` runs:
 *  header, version, every section CRC, total CRC, footer. A failure
 *  is MigrateError(ImageRejected), its message prefixed by @p what. */
sim::SnapshotImage
parseOrReject(const std::vector<Byte> &image, const char *what)
{
    try {
        return sim::SnapshotImage(image);
    } catch (const sim::SnapshotError &e) {
        throw MigrateError(MigrateErrorKind::ImageRejected, ~0u,
                           std::string(what) + e.what());
    }
}

} // namespace

const char *
migrateErrorKindName(MigrateErrorKind kind)
{
    switch (kind) {
      case MigrateErrorKind::Partition: return "partition";
      case MigrateErrorKind::ImageRejected: return "image-rejected";
      case MigrateErrorKind::RestoreRefused: return "restore-refused";
    }
    return "?";
}

// -- TransferSession -----------------------------------------------------

TransferSession::TransferSession(std::vector<Byte> image,
                                 const TransportConfig &config)
    : config_(config), source_(std::move(image)), link_(config)
{
    if (config_.chunkBytes == 0)
        UEXC_FATAL("migrate: zero transport chunk size");
    chunks_ = unsigned((source_.size() + config_.chunkBytes - 1) /
                       config_.chunkBytes);
    if (chunks_ == 0)
        chunks_ = 1; // an empty image still takes one (empty) frame
    delivered_.resize(chunks_);
    have_.assign(chunks_, false);
    stats_.chunksTotal = chunks_;
}

void
TransferSession::reconfigure(const TransportConfig &config)
{
    std::size_t chunk_bytes = config_.chunkBytes;
    config_ = config;
    // The chunk grid is fixed at session construction; changing it
    // mid-flight would orphan the delivered set.
    config_.chunkBytes = chunk_bytes;
    link_.reconfigure(config_);
}

void
TransferSession::sendChunk(unsigned index)
{
    std::size_t begin = std::size_t(index) * config_.chunkBytes;
    std::size_t len =
        std::min(config_.chunkBytes,
                 source_.size() - std::min(begin, source_.size()));
    const Byte *payload = source_.data() + begin;
    std::uint32_t good_crc = frameCrc(index, chunks_, payload, len);
    Cycles wire = config_.latencyCycles +
                  config_.perWordCycles * ((len + 3) / 4);

    // A frame is the payload plus its CRC word. A corruption flips one
    // bit of either, so the receiver's check fails and the chunk is
    // dropped, costing a timeout.
    Delivery d = link_.send(wire, 8 * (len + 4), [&](std::size_t bit) {
        std::vector<Byte> frame(payload, payload + len);
        std::uint32_t crc = good_crc;
        if (bit < 8 * len)
            frame[bit / 8] ^= Byte(1u << (bit % 8));
        else if (bit != Link::kIntact)
            crc ^= 1u << (bit - 8 * len);
        if (frameCrc(index, chunks_, frame.data(), frame.size()) != crc)
            return false;
        delivered_[index] = std::move(frame);
        return true;
    });

    stats_.framesSent += d.sends;
    stats_.retries += d.retries;
    stats_.lostInFlight += d.lost;
    stats_.corruptDropped += d.corruptDropped;
    stats_.cyclesCharged += d.cycles;
    stats_.maxTimeoutCharged =
        std::max(stats_.maxTimeoutCharged, d.maxTimeout);
    if (!d.delivered) {
        throw MigrateError(
            MigrateErrorKind::Partition, index, d.retries,
            d.lastTimeout,
            "chunk " + std::to_string(index) + "/" +
                std::to_string(chunks_) + " undelivered after " +
                std::to_string(d.retries + 1) +
                " attempts (network partition?)");
    }
    have_[index] = true;
    deliveredCount_++;
    if (d.duplicated) {
        stats_.cyclesCharged += wire;
        stats_.duplicatesSuppressed++;
    }
    std::size_t bucket = std::min<std::size_t>(
        d.retries, stats_.retryHistogram.size() - 1);
    stats_.retryHistogram[bucket]++;
    stats_.chunksDelivered++;
}

void
TransferSession::run()
{
    for (unsigned i = 0; i < chunks_; i++) {
        if (have_[i])
            continue;
        sendChunk(i);
    }
}

unsigned
TransferSession::runSome(unsigned max_chunks)
{
    unsigned sent = 0;
    for (unsigned i = 0; i < chunks_ && sent < max_chunks; i++) {
        if (have_[i])
            continue;
        sendChunk(i);
        sent++;
    }
    return sent;
}

std::vector<Byte>
TransferSession::receivedImage() const
{
    if (!complete()) {
        throw MigrateError(
            MigrateErrorKind::ImageRejected, ~0u,
            "image incomplete: " + std::to_string(deliveredCount_) +
                "/" + std::to_string(chunks_) + " chunks delivered");
    }
    std::vector<Byte> image;
    image.reserve(source_.size());
    for (const std::vector<Byte> &c : delivered_)
        image.insert(image.end(), c.begin(), c.end());
    parseOrReject(image, "reassembled image rejected: ");
    return image;
}

std::vector<Byte>
transferImage(const std::vector<Byte> &image,
              const TransportConfig &config, TransportStats *stats)
{
    TransferSession session(image, config);
    try {
        session.run();
        std::vector<Byte> out = session.receivedImage();
        if (stats != nullptr)
            *stats = session.stats();
        return out;
    } catch (...) {
        if (stats != nullptr)
            *stats = session.stats();
        throw;
    }
}

// -- migrations ----------------------------------------------------------

MigrationResult
migrateImage(const std::vector<Byte> &image,
             const std::function<void(const std::vector<Byte> &)>
                 &restore_fn,
             const MigrationConfig &config)
{
    MigrationResult result;
    Cycles words = (image.size() + 3) / 4;
    result.downtimeCycles = kCheckpointPerWordCycles * words;
    TransferSession session(image, config.transport);
    try {
        session.run();
        std::vector<Byte> received = session.receivedImage();
        try {
            restore_fn(received);
        } catch (const sim::SnapshotError &e) {
            throw MigrateError(MigrateErrorKind::RestoreRefused, ~0u,
                               e.what());
        }
        result.succeeded = true;
        result.downtimeCycles += kRestorePerWordCycles * words;
    } catch (const MigrateError &e) {
        result.succeeded = false;
        result.errorKind = e.kind();
        result.error = e.what();
        result.errorChunk = e.chunk();
        result.errorRetries = e.retries();
        result.errorTimeoutCharged = e.chargedTimeout();
    }
    result.transport = session.stats();
    result.downtimeCycles += result.transport.cyclesCharged;
    result.bytesMoved =
        result.succeeded
            ? image.size()
            : std::min<std::uint64_t>(
                  image.size(), std::uint64_t(config.transport.chunkBytes) *
                                    session.chunksDelivered());
    return result;
}

// -- iterative pre-copy --------------------------------------------------

namespace {

/** A pre-copy round batch: one section holding explicit pages (a
 *  page that became all-zero still travels, to overwrite the
 *  receiver's stale copy). Serialized as a complete snapshot image so
 *  TransferSession::receivedImage() validates it like any other. */
constexpr Word kTagPreCopyPages = sim::snapshotTag('P', 'C', 'P', 'G');

/** Control-image stand-in for the MEM section: the receiver splices
 *  its reassembled memory payload where this marker sits, and that
 *  payload must match the length and CRC recorded here before
 *  anything is restored. */
constexpr Word kTagMemoryRef = sim::snapshotTag('P', 'M', 'R', 'F');

std::size_t
pageLen(std::uint64_t mem_bytes, std::uint32_t page)
{
    std::size_t base = std::size_t(page) * sim::kSnapshotPageBytes;
    return std::min(sim::kSnapshotPageBytes,
                    std::size_t(mem_bytes) - base);
}

std::vector<Byte>
buildPageBatch(const PreCopySource &source,
               const std::vector<std::uint32_t> &pages)
{
    sim::SnapshotWriter w;
    w.beginSection(kTagPreCopyPages);
    w.u64(source.memBytes);
    w.u32(std::uint32_t(pages.size()));
    std::vector<Byte> page(sim::kSnapshotPageBytes);
    for (std::uint32_t p : pages) {
        std::size_t len = pageLen(source.memBytes, p);
        source.readPage(p, page.data(), len);
        w.u32(p);
        w.bytes(page.data(), len);
    }
    w.endSection();
    return w.finish();
}

/** The receiver's copy of the source's memory: one buffer per page
 *  that some batch delivered. A page no batch delivered was zero at
 *  the initial pass and never dirtied, so it is still zero. */
struct PageStore
{
    std::uint64_t memBytes;
    std::vector<std::vector<Byte>> pages;
};

void
applyPageBatch(const std::vector<Byte> &batch, PageStore &store)
{
    sim::SnapshotImage img(batch);
    sim::SnapshotReader r = img.section(kTagPreCopyPages);
    std::uint64_t mem_bytes = r.u64();
    if (mem_bytes != store.memBytes)
        r.fail("pre-copy batch memory size mismatch");
    std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; i++) {
        std::uint32_t p = r.u32();
        if (p >= store.pages.size())
            r.fail("pre-copy page index out of range");
        std::vector<Byte> &page = store.pages[p];
        page.resize(pageLen(mem_bytes, p));
        r.bytes(page.data(), page.size());
    }
    r.expectEnd();
}

/** Re-serialize @p full with the MEM section replaced by a PMRF
 *  marker carrying the MEM payload length and CRC. */
std::vector<Byte>
buildControlImage(const std::vector<Byte> &full)
{
    sim::SnapshotImage img =
        parseOrReject(full, "source checkpoint rejected: ");
    sim::SnapshotWriter w;
    for (const sim::SnapshotSection &s : img.sections()) {
        if (s.tag == sim::kSnapshotMemoryTag) {
            w.beginSection(kTagMemoryRef);
            w.u64(s.length);
            w.u32(sim::snapshotCrc32(img.sectionData(s), s.length));
            w.endSection();
        } else {
            w.beginSection(s.tag);
            w.bytes(img.sectionData(s), s.length);
            w.endSection();
        }
    }
    return w.finish();
}

/** Reassemble the final image: the control image's sections in
 *  order, with the receiver's page store serialized through the
 *  shared snapshot serializer where the PMRF marker sits. Throws
 *  MigrateError(ImageRejected) unless the reconstructed memory
 *  payload matches the length and CRC the source recorded. Every
 *  other section was checked against its own CRC when the control
 *  image was received, and the splice writes the framing itself, so
 *  the payload check is the bit-identity guarantee of the pre-copy
 *  path. */
std::vector<Byte>
spliceControlImage(const std::vector<Byte> &control,
                   const PageStore &store)
{
    sim::SnapshotImage img(control);
    sim::SnapshotReader ref = img.section(kTagMemoryRef);
    std::uint64_t mem_payload_len = ref.u64();
    std::uint32_t mem_payload_crc = ref.u32();
    ref.expectEnd();

    sim::SnapshotWriter w;
    sim::SnapshotFrame mem;
    for (const sim::SnapshotSection &s : img.sections()) {
        if (s.tag == kTagMemoryRef) {
            // only delivered pages are read or scanned, so the
            // splice costs what the batches carried, not memBytes
            mem = sim::writeMemorySection(
                w, sim::kSnapshotMemoryTag, store.memBytes,
                [&store](std::uint32_t p, Byte *dst, std::size_t len) {
                    std::memcpy(dst, store.pages[p].data(), len);
                },
                [&store](std::uint32_t p, std::size_t) {
                    const std::vector<Byte> &page = store.pages[p];
                    return std::all_of(page.begin(), page.end(),
                                       [](Byte b) { return b == 0; });
                });
        } else {
            w.beginSection(s.tag);
            w.bytes(img.sectionData(s), s.length);
            w.endSection();
        }
    }
    if (mem.length != mem_payload_len || mem.crc != mem_payload_crc) {
        throw MigrateError(MigrateErrorKind::ImageRejected, ~0u,
                           "pre-copy memory reconstruction diverged "
                           "from the source (payload CRC mismatch)");
    }
    return w.finish();
}

void
accumulateStats(TransportStats &into, const TransportStats &s)
{
    into.chunksTotal += s.chunksTotal;
    into.chunksDelivered += s.chunksDelivered;
    into.framesSent += s.framesSent;
    into.retries += s.retries;
    into.lostInFlight += s.lostInFlight;
    into.corruptDropped += s.corruptDropped;
    into.duplicatesSuppressed += s.duplicatesSuppressed;
    into.maxTimeoutCharged =
        std::max(into.maxTimeoutCharged, s.maxTimeoutCharged);
    into.cyclesCharged += s.cyclesCharged;
    for (std::size_t i = 0; i < into.retryHistogram.size() &&
                            i < s.retryHistogram.size();
         i++)
        into.retryHistogram[i] += s.retryHistogram[i];
}

/** Pre-copy @p src (a Machine or a Rig) into @p dst, reading pages
 *  and write versions straight from the source's memory @p mem. */
template <class Guest>
MigrationResult
preCopyGuest(Guest &src, Guest &dst, sim::PhysMemory &mem,
             std::function<void()> run_slice,
             const MigrationConfig &config, const PreCopyConfig &precopy)
{
    auto base = [](std::uint32_t p) {
        return Addr(std::size_t(p) * sim::kSnapshotPageBytes);
    };
    PreCopySource source;
    source.memBytes = mem.size();
    source.readPage = [&mem, base](std::uint32_t p, Byte *dst_buf,
                                   std::size_t len) {
        mem.readBlock(base(p), dst_buf, len);
    };
    source.pageVersion = [&mem, base](std::uint32_t p) {
        return mem.pageVersion(base(p));
    };
    source.pageIsZero = [&mem, base](std::uint32_t p, std::size_t len) {
        return mem.blockIsZero(base(p), len);
    };
    source.runSlice = std::move(run_slice);
    source.checkpoint = [&src] { return src.checkpoint(); };
    return migrateImagePreCopy(
        source,
        [&dst](const std::vector<Byte> &image) { dst.restore(image); },
        config, precopy);
}

} // namespace

MigrationResult
migrateImagePreCopy(const PreCopySource &source,
                    const std::function<void(const std::vector<Byte> &)>
                        &restore_fn,
                    const MigrationConfig &config,
                    const PreCopyConfig &precopy)
{
    MigrationResult result;
    result.usedPreCopy = true;

    std::size_t total_pages =
        (std::size_t(source.memBytes) + sim::kSnapshotPageBytes - 1) /
        sim::kSnapshotPageBytes;
    std::vector<std::uint32_t> sent_version(total_pages, 0);
    PageStore store{source.memBytes,
                    std::vector<std::vector<Byte>>(total_pages)};

    // Each transfer (round batches, residual, control image) is its
    // own session over a seed derived from the configured stream, so
    // the weather across rounds is deterministic but decorrelated.
    std::uint64_t seed_chain = config.transport.seed;
    auto ship = [&](const std::vector<Byte> &image,
                    bool downtime) -> std::vector<Byte> {
        TransportConfig t = config.transport;
        t.seed = splitmix64(seed_chain);
        TransferSession session(image, t);
        Cycles serialize =
            kCheckpointPerWordCycles * ((image.size() + 3) / 4);
        try {
            session.run();
            std::vector<Byte> got = session.receivedImage();
            accumulateStats(result.transport, session.stats());
            Cycles cost = serialize + session.stats().cyclesCharged;
            if (downtime) {
                result.downtimeCycles += cost;
                result.precopy.bytesMovedStopCopy += image.size();
            } else {
                result.precopy.precopyCycles += cost;
                result.precopy.bytesMovedPreCopy += image.size();
            }
            return got;
        } catch (const MigrateError &) {
            accumulateStats(result.transport, session.stats());
            if (downtime)
                result.downtimeCycles +=
                    serialize + session.stats().cyclesCharged;
            else
                result.precopy.precopyCycles +=
                    serialize + session.stats().cyclesCharged;
            throw;
        }
    };

    auto dirtyPages = [&]() {
        std::vector<std::uint32_t> dirty;
        for (std::size_t p = 0; p < total_pages; p++)
            if (source.pageVersion(std::uint32_t(p)) !=
                sent_version[p])
                dirty.push_back(std::uint32_t(p));
        return dirty;
    };

    try {
        // Initial live pass: every nonzero page, with the write
        // version of *every* page recorded so a zero page that gets
        // dirtied later (even back to zero) is caught.
        std::vector<std::uint32_t> live;
        for (std::size_t p = 0; p < total_pages; p++) {
            sent_version[p] = source.pageVersion(std::uint32_t(p));
            if (!source.pageIsZero(std::uint32_t(p),
                                   pageLen(source.memBytes,
                                           std::uint32_t(p))))
                live.push_back(std::uint32_t(p));
        }
        applyPageBatch(ship(buildPageBatch(source, live), false),
                       store);
        result.precopy.pagesSentPreCopy += live.size();

        // Dirty rounds: run the guest one slice per round, re-ship
        // what it touched, stop early once the set is small enough to
        // move inside the downtime window.
        std::vector<std::uint32_t> dirty;
        while (result.precopy.roundsRun < precopy.maxRounds) {
            source.runSlice();
            result.precopy.roundsRun++;
            dirty = dirtyPages();
            if (dirty.size() <= precopy.convergePages) {
                result.precopy.converged = true;
                break;
            }
            for (std::uint32_t p : dirty)
                sent_version[p] = source.pageVersion(p);
            applyPageBatch(ship(buildPageBatch(source, dirty), false),
                           store);
            result.precopy.pagesSentPreCopy += dirty.size();
        }

        // Stop-and-copy: the guest pauses here. Residual pages plus
        // the memory-less control image are all that moves while it
        // is down.
        std::vector<std::uint32_t> residual = dirtyPages();
        result.precopy.residualPages = residual.size();
        if (!residual.empty())
            applyPageBatch(
                ship(buildPageBatch(source, residual), true), store);

        std::vector<Byte> full = source.checkpoint();
        std::vector<Byte> final_image =
            spliceControlImage(ship(buildControlImage(full), true),
                               store);

        try {
            restore_fn(final_image);
        } catch (const sim::SnapshotError &e) {
            throw MigrateError(MigrateErrorKind::RestoreRefused, ~0u,
                               e.what());
        }
        // Apply cost of the state the receiver could not have staged
        // while the guest ran: the non-memory sections and the
        // residual pages.
        result.downtimeCycles +=
            kRestorePerWordCycles *
            ((result.precopy.bytesMovedStopCopy + 3) / 4);
        result.succeeded = true;
    } catch (const MigrateError &e) {
        result.succeeded = false;
        result.errorKind = e.kind();
        result.error = e.what();
        result.errorChunk = e.chunk();
        result.errorRetries = e.retries();
        result.errorTimeoutCharged = e.chargedTimeout();
    }
    result.bytesMoved = result.precopy.bytesMovedPreCopy +
                        result.precopy.bytesMovedStopCopy;
    return result;
}

MigrationResult
migrateMachinePreCopy(sim::Machine &src, sim::Machine &dst,
                      const MigrationConfig &config,
                      const PreCopyConfig &precopy,
                      const std::function<void()> &run_slice)
{
    return preCopyGuest(src, dst, src.mem(), run_slice, config, precopy);
}

MigrationResult
migrateRigPreCopy(chaos::Rig &src, chaos::Rig &dst,
                  const MigrationConfig &config,
                  const PreCopyConfig &precopy,
                  unsigned ops_per_slice)
{
    return preCopyGuest(
        src, dst, src.machine().mem(),
        [&src, ops_per_slice] {
            src.runTo(std::min(chaos::kTotalOps,
                               src.cursor() + ops_per_slice));
        },
        config, precopy);
}

MigrationResult
migrateRig(chaos::Rig &src, chaos::Rig &dst,
           const MigrationConfig &config)
{
    return migrateImage(
        src.checkpoint(),
        [&dst](const std::vector<Byte> &image) { dst.restore(image); },
        config);
}

MigrationResult
migrateMachine(sim::Machine &src, sim::Machine &dst,
               const MigrationConfig &config)
{
    return migrateImage(
        src.checkpoint(),
        [&dst](const std::vector<Byte> &image) { dst.restore(image); },
        config);
}

} // namespace uexc::rt::migrate
