/**
 * @file
 * Versioned, CRC-checked machine snapshots.
 *
 * A snapshot is a little-endian byte image: a fixed header (magic,
 * format version, section count), a sequence of tagged sections (tag,
 * payload length, payload, payload CRC32), and a footer (magic, CRC32
 * of everything before it). The double CRC makes both truncation and
 * bit rot detectable: a torn write fails the footer check, a flipped
 * bit fails either a section CRC or the total CRC.
 *
 * The writer/reader pair below is deliberately dumb — fixed-width
 * little-endian integers only, no varints, no alignment, no pointers —
 * so an image is bit-reproducible for identical machine state and a
 * loader never has to trust anything it reads: every primitive is
 * bounds-checked and every structural inconsistency raises a
 * SnapshotError (never UB, never a partial mutation of the target
 * machine before validation is complete).
 *
 * Section producers are the machine core (config echo, physical
 * memory with zero-page elision, scheduler position, one section per
 * hart) plus whatever the embedding layers register through
 * Machine::registerSnapshotSection — the fault injector's event
 * queues, the kernel's allocation cursors, a UserEnv's delivery
 * state, a DSM node's directory. Restore is strict in both
 * directions: a registered consumer whose section is missing and a
 * section nobody consumes are both errors, because either one means
 * the image and the machine disagree about what state exists.
 */

#ifndef UEXC_SIM_SNAPSHOT_H
#define UEXC_SIM_SNAPSHOT_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.h"

namespace uexc::sim {

/**
 * Structured rejection of an untrusted or inconsistent snapshot
 * image. Everything the loader can dislike — bad magic, version skew,
 * CRC mismatch, truncated payload, out-of-range field — lands here;
 * a SnapshotError from Machine::restore leaves the machine in an
 * unspecified but memory-safe state (callers restore into a freshly
 * constructed machine).
 */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &what)
        : std::runtime_error(what) {}
};

/** "UXSN" little-endian: first word of every snapshot image. */
constexpr std::uint32_t kSnapshotMagic = 0x4e535855u;
/** "UXEN" little-endian: first word of the footer. */
constexpr std::uint32_t kSnapshotFooterMagic = 0x4e455855u;
/** Format version; bumped on any incompatible layout change.
 *  v2: KERN section gained VFS contents, console output, and
 *  per-process fork/descriptor state.
 *  v3: DSTA (DSM stats) section gained the retransmit-timeout cap
 *  echo, the per-link retry counters, and the maximum charged
 *  timeout. */
constexpr std::uint32_t kSnapshotVersion = 3;

/** Section tag from four printable characters ("CFG " style). */
constexpr Word
snapshotTag(char a, char b, char c, char d)
{
    return Word(std::uint8_t(a)) | Word(std::uint8_t(b)) << 8 |
           Word(std::uint8_t(c)) << 16 | Word(std::uint8_t(d)) << 24;
}

/** Render a tag for error messages ("CFG " or hex if unprintable). */
std::string snapshotTagName(Word tag);

/** Tag of the machine core's physical-memory section ("MEM "). */
constexpr Word kSnapshotMemoryTag = snapshotTag('M', 'E', 'M', ' ');

/** Page granularity of the MEM section's zero-page elision. Must
 *  match PhysMemory::PageBytes (machine.cc asserts it) so page
 *  indices in an image and write-version indices in a live machine
 *  talk about the same pages — that identity is what lets the
 *  migration layer's dirty tracking reuse the snapshot format. */
constexpr std::size_t kSnapshotPageBytes = 4096;

/** What SnapshotWriter::endSection framed: payload length and CRC. */
struct SnapshotFrame
{
    std::size_t length = 0;
    std::uint32_t crc = 0;
};

/**
 * Byte layout of a serialized memory section, shared by
 * Machine::checkpoint and the pre-copy migration receiver:
 *
 *   u64 memBytes, u32 liveCount,
 *   liveCount x { u32 pageIndex, pageBytes payload }
 *
 * with zero pages elided, strictly increasing page indices, and the
 * last page tail-truncated to memBytes. Pulling the serializer out of
 * Machine::checkpoint means a receiver that reassembles memory from
 * individually transferred pages produces a payload *byte-identical*
 * to what the source's checkpoint would contain — the property the
 * pre-copy control image's CRC check rests on.
 *
 * @p readPage copies page @p page (exactly @p len bytes, tail page
 * may be short) into @p dst; it is called for live pages only.
 * @p pageIsZero is the elision predicate (PhysMemory::blockIsZero on
 * the source side), so the caller decides what a zero test costs.
 * Returns the section's frame.
 */
SnapshotFrame writeMemorySection(
    class SnapshotWriter &w, Word tag, std::uint64_t memBytes,
    const std::function<void(std::uint32_t page, Byte *dst,
                             std::size_t len)> &readPage,
    const std::function<bool(std::uint32_t page, std::size_t len)>
        &pageIsZero);

/** CRC-32 (IEEE 802.3, reflected 0xEDB88320) of a byte range, the
 *  same values as zlib's crc32(); computed slicing-by-8. */
std::uint32_t snapshotCrc32(const Byte *data, std::size_t len);

/**
 * Serializer. Usage: beginSection / primitive writes / endSection,
 * repeated per section, then finish() to obtain the complete image.
 */
class SnapshotWriter
{
  public:
    SnapshotWriter();

    void u8(std::uint8_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void boolean(bool v) { u8(v ? 1 : 0); }
    void bytes(const void *src, std::size_t len);
    /** Length-prefixed string (u32 length + raw bytes). */
    void str(const std::string &s);

    void beginSection(Word tag);
    SnapshotFrame endSection();

    /** Patch the header and footer and return the finished image. */
    std::vector<Byte> finish();

  private:
    std::vector<Byte> buf_;
    std::size_t payloadStart_ = 0;
    std::uint32_t sectionCount_ = 0;
    bool inSection_ = false;
    bool finished_ = false;
};

/**
 * Bounds-checked cursor over one section payload. Every read that
 * would run past the end throws SnapshotError; expectEnd() lets a
 * consumer assert it drained its section exactly.
 */
class SnapshotReader
{
  public:
    SnapshotReader(const Byte *data, std::size_t len,
                   std::string context);

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    /** u8 that must be exactly 0 or 1. */
    bool boolean();
    void bytes(void *dst, std::size_t len);
    std::string str();

    std::size_t remaining() const { return len_ - pos_; }
    /** Throw unless the payload has been consumed exactly. */
    void expectEnd() const;

    /** Raise a SnapshotError annotated with this reader's context. */
    [[noreturn]] void fail(const std::string &what) const;

  private:
    void need(std::size_t n) const;

    const Byte *data_;
    std::size_t len_;
    std::size_t pos_ = 0;
    std::string context_;
};

/** Directory entry for one parsed section. */
struct SnapshotSection
{
    Word tag = 0;
    std::size_t offset = 0;   ///< payload offset within the image
    std::size_t length = 0;   ///< payload length in bytes
};

/**
 * A parsed, fully validated snapshot image. Construction verifies the
 * header, the version, every section CRC, the total CRC, and the
 * footer; after it succeeds the section payloads may be read without
 * re-validation. Borrows the byte buffer — the caller keeps it alive
 * for the lifetime of the image.
 */
class SnapshotImage
{
  public:
    explicit SnapshotImage(const std::vector<Byte> &bytes);

    bool has(Word tag) const;
    /** Reader over the payload of @p tag; throws if absent. */
    SnapshotReader section(Word tag) const;
    const std::vector<SnapshotSection> &sections() const
    {
        return sections_;
    }
    /** Raw payload bytes of a parsed section (for diffing). */
    const Byte *sectionData(const SnapshotSection &s) const
    {
        return data_ + s.offset;
    }

  private:
    const Byte *data_;
    std::vector<SnapshotSection> sections_;
};

/**
 * One divergence between two validated images, at section
 * granularity with the first differing payload byte located — the
 * unit of migration triage ("which section went wrong, and where"),
 * as opposed to the old binary same/different verdict.
 */
struct SnapshotSectionDiff
{
    Word tag = 0;
    bool inA = false;           ///< section present in image A
    bool inB = false;           ///< section present in image B
    std::size_t lengthA = 0;
    std::size_t lengthB = 0;
    /** Payload offset of the first differing byte when the section
     *  exists in both images (== min(lengthA, lengthB) when one
     *  payload is a strict prefix of the other). */
    std::size_t firstDiffOffset = 0;
};

/**
 * Section-by-section comparison of two *validated* images. Empty
 * result means byte-identical payloads in both directions (section
 * order is ignored: images are compared by tag). Both `uexc-snap
 * diff` and the migration convergence oracles report through this,
 * so a failed bit-identity check names the diverging section and
 * byte offset instead of "images differ".
 */
std::vector<SnapshotSectionDiff>
diffSnapshotImages(const SnapshotImage &a, const SnapshotImage &b);

/** Render one diff entry ("section \"HRT0\": first divergence at
 *  payload byte 132 (1024 vs 1024 bytes)" style). */
std::string snapshotDiffLine(const SnapshotSectionDiff &d);

/**
 * Crash-consistent file write: the image goes to "<path>.tmp", is
 * fsync'd, and is renamed over @p path, then the containing
 * directory is fsync'd so the rename itself is durable. A crash at
 * any point leaves either the old file or the complete new one —
 * never a torn image (and a torn tmp file fails the footer check
 * anyway), and never a rename that silently evaporates with the
 * directory's dirty metadata.
 */
void writeSnapshotFile(const std::string &path,
                       const std::vector<Byte> &image);

/** Read a whole snapshot file; throws SnapshotError on I/O failure. */
std::vector<Byte> readSnapshotFile(const std::string &path);

} // namespace uexc::sim

#endif // UEXC_SIM_SNAPSHOT_H
