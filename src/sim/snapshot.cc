#include "sim/snapshot.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <cstring>

#include "common/logging.h"

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace uexc::sim {

namespace {

/** Header: magic, version, section count. */
constexpr std::size_t kHeaderBytes = 12;
/** Footer: footer magic, total CRC. */
constexpr std::size_t kFooterBytes = 8;
/** Per-section framing: tag, length (before payload), CRC (after). */
constexpr std::size_t kSectionFrameBytes = 12;

/** Slicing-by-8 tables: t[0] is the classic byte-at-a-time table
 *  for the reflected polynomial, and t[k][b] is t[0][b] carried
 *  through k more zero bytes, so eight lookups fold eight input
 *  bytes at once. */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; i++) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; k++)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; i++)
        for (unsigned k = 1; k < 8; k++)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    return t;
}

void
putLe32(std::vector<Byte> &buf, std::size_t at, std::uint32_t v)
{
    buf[at + 0] = Byte(v);
    buf[at + 1] = Byte(v >> 8);
    buf[at + 2] = Byte(v >> 16);
    buf[at + 3] = Byte(v >> 24);
}

std::uint32_t
getLe32(const Byte *p)
{
    return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
           std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
}

} // namespace

std::uint32_t
snapshotCrc32(const Byte *data, std::size_t len)
{
    static const CrcTables t = makeCrcTables();
    std::uint32_t crc = 0xffffffffu;
    for (; len >= 8; data += 8, len -= 8) {
        std::uint32_t lo = crc ^ getLe32(data);
        std::uint32_t hi = getLe32(data + 4);
        crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
              t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
              t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; len > 0; data++, len--)
        crc = t[0][(crc ^ *data) & 0xffu] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

std::string
snapshotTagName(Word tag)
{
    char text[5];
    bool printable = true;
    for (unsigned i = 0; i < 4; i++) {
        text[i] = char((tag >> (8 * i)) & 0xffu);
        if (!std::isprint(static_cast<unsigned char>(text[i])))
            printable = false;
    }
    text[4] = '\0';
    if (printable)
        return std::string("\"") + text + "\"";
    char hex[16];
    std::snprintf(hex, sizeof hex, "0x%08x", tag);
    return hex;
}

// -- memory-section serializer -------------------------------------------

SnapshotFrame
writeMemorySection(
    SnapshotWriter &w, Word tag, std::uint64_t memBytes,
    const std::function<void(std::uint32_t page, Byte *dst,
                             std::size_t len)> &readPage,
    const std::function<bool(std::uint32_t page, std::size_t len)>
        &pageIsZero)
{
    std::size_t pages = (std::size_t(memBytes) + kSnapshotPageBytes - 1) /
                        kSnapshotPageBytes;
    std::vector<Byte> page(kSnapshotPageBytes);
    std::vector<std::uint32_t> live;
    for (std::size_t p = 0; p < pages; p++) {
        std::size_t base = p * kSnapshotPageBytes;
        std::size_t len = std::min(kSnapshotPageBytes,
                                   std::size_t(memBytes) - base);
        if (!pageIsZero(std::uint32_t(p), len))
            live.push_back(std::uint32_t(p));
    }
    w.beginSection(tag);
    w.u64(memBytes);
    w.u32(std::uint32_t(live.size()));
    for (std::uint32_t p : live) {
        std::size_t base = std::size_t(p) * kSnapshotPageBytes;
        std::size_t len = std::min(kSnapshotPageBytes,
                                   std::size_t(memBytes) - base);
        readPage(p, page.data(), len);
        w.u32(p);
        w.bytes(page.data(), len);
    }
    return w.endSection();
}

// -- SnapshotWriter ------------------------------------------------------

SnapshotWriter::SnapshotWriter()
{
    buf_.resize(kHeaderBytes, 0);
    putLe32(buf_, 0, kSnapshotMagic);
    putLe32(buf_, 4, kSnapshotVersion);
}

void
SnapshotWriter::u8(std::uint8_t v)
{
    buf_.push_back(v);
}

void
SnapshotWriter::u32(std::uint32_t v)
{
    buf_.push_back(Byte(v));
    buf_.push_back(Byte(v >> 8));
    buf_.push_back(Byte(v >> 16));
    buf_.push_back(Byte(v >> 24));
}

void
SnapshotWriter::u64(std::uint64_t v)
{
    u32(std::uint32_t(v));
    u32(std::uint32_t(v >> 32));
}

void
SnapshotWriter::bytes(const void *src, std::size_t len)
{
    const Byte *p = static_cast<const Byte *>(src);
    buf_.insert(buf_.end(), p, p + len);
}

void
SnapshotWriter::str(const std::string &s)
{
    u32(std::uint32_t(s.size()));
    bytes(s.data(), s.size());
}

void
SnapshotWriter::beginSection(Word tag)
{
    if (inSection_ || finished_)
        UEXC_PANIC("snapshot writer: nested or post-finish section");
    inSection_ = true;
    u32(tag);
    u32(0);  // length, patched by endSection
    payloadStart_ = buf_.size();
}

SnapshotFrame
SnapshotWriter::endSection()
{
    if (!inSection_)
        UEXC_PANIC("snapshot writer: endSection outside a section");
    inSection_ = false;
    SnapshotFrame frame;
    frame.length = buf_.size() - payloadStart_;
    frame.crc = snapshotCrc32(buf_.data() + payloadStart_, frame.length);
    putLe32(buf_, payloadStart_ - 4, std::uint32_t(frame.length));
    u32(frame.crc);
    sectionCount_++;
    return frame;
}

std::vector<Byte>
SnapshotWriter::finish()
{
    if (inSection_ || finished_)
        UEXC_PANIC("snapshot writer: finish inside a section");
    finished_ = true;
    putLe32(buf_, 8, sectionCount_);
    u32(kSnapshotFooterMagic);
    // the total CRC covers everything written so far, footer magic
    // included; only the CRC word itself is outside it
    std::uint32_t total = snapshotCrc32(buf_.data(), buf_.size());
    u32(total);
    return std::move(buf_);
}

// -- SnapshotReader ------------------------------------------------------

SnapshotReader::SnapshotReader(const Byte *data, std::size_t len,
                               std::string context)
    : data_(data), len_(len), context_(std::move(context))
{
}

void
SnapshotReader::fail(const std::string &what) const
{
    throw SnapshotError("snapshot " + context_ + ": " + what);
}

void
SnapshotReader::need(std::size_t n) const
{
    if (len_ - pos_ < n)
        fail("truncated payload (need " + std::to_string(n) +
             " bytes at offset " + std::to_string(pos_) + " of " +
             std::to_string(len_) + ")");
}

std::uint8_t
SnapshotReader::u8()
{
    need(1);
    return data_[pos_++];
}

std::uint32_t
SnapshotReader::u32()
{
    need(4);
    std::uint32_t v = getLe32(data_ + pos_);
    pos_ += 4;
    return v;
}

std::uint64_t
SnapshotReader::u64()
{
    std::uint64_t lo = u32();
    std::uint64_t hi = u32();
    return lo | hi << 32;
}

bool
SnapshotReader::boolean()
{
    std::uint8_t v = u8();
    if (v > 1)
        fail("boolean field holds " + std::to_string(v));
    return v != 0;
}

void
SnapshotReader::bytes(void *dst, std::size_t len)
{
    need(len);
    std::memcpy(dst, data_ + pos_, len);
    pos_ += len;
}

std::string
SnapshotReader::str()
{
    std::uint32_t len = u32();
    need(len);
    std::string s(reinterpret_cast<const char *>(data_ + pos_), len);
    pos_ += len;
    return s;
}

void
SnapshotReader::expectEnd() const
{
    if (pos_ != len_)
        fail(std::to_string(len_ - pos_) +
             " unconsumed payload bytes");
}

// -- SnapshotImage -------------------------------------------------------

SnapshotImage::SnapshotImage(const std::vector<Byte> &bytes)
    : data_(bytes.data())
{
    std::size_t len = bytes.size();
    if (len < kHeaderBytes + kFooterBytes)
        throw SnapshotError("snapshot image: " + std::to_string(len) +
                            " bytes is shorter than header + footer");
    if (getLe32(data_) != kSnapshotMagic)
        throw SnapshotError("snapshot image: bad magic");
    std::uint32_t version = getLe32(data_ + 4);
    if (version != kSnapshotVersion)
        throw SnapshotError(
            "snapshot image: format version " + std::to_string(version) +
            ", this build reads version " +
            std::to_string(kSnapshotVersion));
    if (getLe32(data_ + len - 8) != kSnapshotFooterMagic)
        throw SnapshotError("snapshot image: bad footer magic "
                            "(truncated image?)");
    std::uint32_t total_crc = getLe32(data_ + len - 4);
    if (snapshotCrc32(data_, len - 4) != total_crc)
        throw SnapshotError("snapshot image: total CRC mismatch");

    std::uint32_t count = getLe32(data_ + 8);
    std::size_t pos = kHeaderBytes;
    std::size_t body_end = len - kFooterBytes;
    for (std::uint32_t i = 0; i < count; i++) {
        if (body_end - pos < kSectionFrameBytes)
            throw SnapshotError("snapshot image: section " +
                                std::to_string(i) + " frame truncated");
        Word tag = getLe32(data_ + pos);
        std::size_t payload = getLe32(data_ + pos + 4);
        if (payload > body_end - pos - kSectionFrameBytes)
            throw SnapshotError(
                "snapshot image: section " + snapshotTagName(tag) +
                " length " + std::to_string(payload) +
                " overruns the image");
        std::size_t offset = pos + 8;
        std::uint32_t crc = getLe32(data_ + offset + payload);
        if (snapshotCrc32(data_ + offset, payload) != crc)
            throw SnapshotError("snapshot image: section " +
                                snapshotTagName(tag) + " CRC mismatch");
        if (has(tag))
            throw SnapshotError("snapshot image: duplicate section " +
                                snapshotTagName(tag));
        sections_.push_back({tag, offset, payload});
        pos = offset + payload + 4;
    }
    if (pos != body_end)
        throw SnapshotError("snapshot image: " +
                            std::to_string(body_end - pos) +
                            " stray bytes after the last section");
}

bool
SnapshotImage::has(Word tag) const
{
    for (const SnapshotSection &s : sections_)
        if (s.tag == tag)
            return true;
    return false;
}

SnapshotReader
SnapshotImage::section(Word tag) const
{
    for (const SnapshotSection &s : sections_)
        if (s.tag == tag)
            return SnapshotReader(data_ + s.offset, s.length,
                                  "section " + snapshotTagName(tag));
    throw SnapshotError("snapshot image: required section " +
                        snapshotTagName(tag) + " is missing");
}

// -- diffing -------------------------------------------------------------

std::vector<SnapshotSectionDiff>
diffSnapshotImages(const SnapshotImage &a, const SnapshotImage &b)
{
    std::vector<SnapshotSectionDiff> out;
    for (const SnapshotSection &sa : a.sections()) {
        SnapshotSectionDiff d;
        d.tag = sa.tag;
        d.inA = true;
        d.lengthA = sa.length;
        if (!b.has(sa.tag)) {
            out.push_back(d);
            continue;
        }
        const SnapshotSection *sb = nullptr;
        for (const SnapshotSection &s : b.sections())
            if (s.tag == sa.tag)
                sb = &s;
        d.inB = true;
        d.lengthB = sb->length;
        const Byte *pa = a.sectionData(sa);
        const Byte *pb = b.sectionData(*sb);
        std::size_t common = std::min(sa.length, sb->length);
        std::size_t i = 0;
        while (i < common && pa[i] == pb[i])
            i++;
        if (i == common && sa.length == sb->length)
            continue; // identical payloads
        d.firstDiffOffset = i;
        out.push_back(d);
    }
    for (const SnapshotSection &sb : b.sections()) {
        if (a.has(sb.tag))
            continue;
        SnapshotSectionDiff d;
        d.tag = sb.tag;
        d.inB = true;
        d.lengthB = sb.length;
        out.push_back(d);
    }
    return out;
}

std::string
snapshotDiffLine(const SnapshotSectionDiff &d)
{
    std::string name = snapshotTagName(d.tag);
    if (!d.inA)
        return "section " + name + ": only in the second image (" +
               std::to_string(d.lengthB) + " bytes)";
    if (!d.inB)
        return "section " + name + ": only in the first image (" +
               std::to_string(d.lengthA) + " bytes)";
    return "section " + name + ": first divergence at payload byte " +
           std::to_string(d.firstDiffOffset) + " (" +
           std::to_string(d.lengthA) + " vs " +
           std::to_string(d.lengthB) + " bytes)";
}

// -- file I/O ------------------------------------------------------------

namespace {

/** fsync the directory holding @p path so a just-renamed entry is
 *  durable; a crash after rename but before the directory flush could
 *  otherwise resurrect the pre-rename state (a half-migrated target
 *  would reappear as its stale predecessor). Best effort on
 *  filesystems that refuse directory fsync. */
void
syncContainingDir(const std::string &path)
{
#ifndef _WIN32
    std::size_t slash = path.find_last_of('/');
    std::string dir = slash == std::string::npos
                          ? std::string(".")
                          : path.substr(0, slash == 0 ? 1 : slash);
    int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return;
    (void)fsync(fd);
    (void)close(fd);
#else
    (void)path;
#endif
}

} // namespace

void
writeSnapshotFile(const std::string &path,
                  const std::vector<Byte> &image)
{
    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        throw SnapshotError("snapshot write: cannot open " + tmp);
    bool ok = image.empty() ||
              std::fwrite(image.data(), 1, image.size(), f) ==
                  image.size();
    ok = std::fflush(f) == 0 && ok;
#ifndef _WIN32
    ok = fsync(fileno(f)) == 0 && ok;
#endif
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        std::remove(tmp.c_str());
        throw SnapshotError("snapshot write: short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw SnapshotError("snapshot write: rename to " + path +
                            " failed");
    }
    syncContainingDir(path);
}

std::vector<Byte>
readSnapshotFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw SnapshotError("snapshot read: cannot open " + path);
    std::vector<Byte> image;
    Byte chunk[65536];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0)
        image.insert(image.end(), chunk, chunk + got);
    bool err = std::ferror(f) != 0;
    std::fclose(f);
    if (err)
        throw SnapshotError("snapshot read: I/O error on " + path);
    return image;
}

} // namespace uexc::sim
