/**
 * @file
 * Unit tests for PhysMemory.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "sim/memory.h"

namespace uexc::sim {
namespace {

class QuietMemory : public ::testing::Test
{
  protected:
    void SetUp() override { setLoggingEnabled(false); }
    void TearDown() override { setLoggingEnabled(true); }
};

TEST(PhysMemory, StartsZeroed)
{
    PhysMemory mem(4096);
    for (Addr a = 0; a < 4096; a += 4)
        EXPECT_EQ(mem.readWord(a), 0u);
}

TEST(PhysMemory, WordRoundTrip)
{
    PhysMemory mem(4096);
    mem.writeWord(0x100, 0xdeadbeefu);
    EXPECT_EQ(mem.readWord(0x100), 0xdeadbeefu);
}

TEST(PhysMemory, SubWordAccess)
{
    PhysMemory mem(4096);
    mem.writeWord(0x10, 0x11223344u);
    // little-endian host layout (simulated machine is little-endian)
    EXPECT_EQ(mem.readByte(0x10), 0x44u);
    EXPECT_EQ(mem.readByte(0x13), 0x11u);
    EXPECT_EQ(mem.readHalf(0x10), 0x3344u);
    EXPECT_EQ(mem.readHalf(0x12), 0x1122u);

    mem.writeByte(0x10, 0xffu);
    EXPECT_EQ(mem.readWord(0x10), 0x112233ffu);
    mem.writeHalf(0x12, 0xaabbu);
    EXPECT_EQ(mem.readWord(0x10), 0xaabb33ffu);
}

TEST(PhysMemory, BlockCopy)
{
    PhysMemory mem(4096);
    Word data[3] = {1, 2, 3};
    mem.writeBlock(0x40, data, sizeof(data));
    EXPECT_EQ(mem.readWord(0x40), 1u);
    EXPECT_EQ(mem.readWord(0x48), 3u);

    Word out[3] = {};
    mem.readBlock(0x40, out, sizeof(out));
    EXPECT_EQ(out[1], 2u);
}

TEST(PhysMemory, ClearRange)
{
    PhysMemory mem(4096);
    mem.writeWord(0x20, 0xffffffffu);
    mem.writeWord(0x24, 0xffffffffu);
    mem.clearRange(0x20, 8);
    EXPECT_EQ(mem.readWord(0x20), 0u);
    EXPECT_EQ(mem.readWord(0x24), 0u);
}

// -- known-zero pages ------------------------------------------------------

constexpr std::size_t kPage = PhysMemory::PageBytes;

TEST(PhysMemoryKnownZero, FreshPageIsKnownZero)
{
    PhysMemory mem(3 * kPage);
    for (Addr pa = 0; pa < mem.size(); pa += kPage) {
        EXPECT_TRUE(mem.pageKnownZero(pa));
        EXPECT_TRUE(mem.blockIsZero(pa, kPage));
    }
    EXPECT_TRUE(mem.blockIsZero(0, mem.size()));
}

TEST(PhysMemoryKnownZero, WrittenPageIsScanned)
{
    PhysMemory mem(3 * kPage);
    mem.writeByte(Addr(kPage + 7), 1);
    EXPECT_TRUE(mem.pageKnownZero(0));
    EXPECT_FALSE(mem.pageKnownZero(Addr(kPage)));
    EXPECT_TRUE(mem.pageKnownZero(Addr(2 * kPage)));
    EXPECT_FALSE(mem.blockIsZero(Addr(kPage), kPage));
    EXPECT_FALSE(mem.blockIsZero(0, mem.size()));
    // the scan reads the bytes of the range, not a page-wide flag
    EXPECT_TRUE(mem.blockIsZero(Addr(kPage), 7));
    EXPECT_TRUE(mem.blockIsZero(Addr(kPage + 8), kPage - 8));
    EXPECT_FALSE(mem.blockIsZero(Addr(kPage - 4), 12));
}

TEST(PhysMemoryKnownZero, PageWrittenBackToZeroIsFoundByTheScan)
{
    PhysMemory mem(3 * kPage);
    mem.writeWord(Addr(kPage + 16), 0xdeadbeefu);
    mem.writeWord(Addr(kPage + 16), 0);
    EXPECT_FALSE(mem.pageKnownZero(Addr(kPage)));
    EXPECT_TRUE(mem.blockIsZero(Addr(kPage), kPage));
    EXPECT_TRUE(mem.blockIsZero(0, mem.size()));
}

TEST(PhysMemoryKnownZero, WholePageClearMakesItKnownZeroAndBumpsItsVersion)
{
    PhysMemory mem(3 * kPage);
    mem.writeWord(Addr(kPage + 16), 0xdeadbeefu);
    std::uint32_t v = mem.pageVersion(Addr(kPage));
    mem.clearRange(Addr(kPage), kPage);
    EXPECT_TRUE(mem.pageKnownZero(Addr(kPage)));
    EXPECT_NE(mem.pageVersion(Addr(kPage)), v);
    EXPECT_EQ(mem.readWord(Addr(kPage + 16)), 0u);

    // clearing a known-zero page again writes nothing, but the bump
    // still invalidates predecoded copies of the page
    v = mem.pageVersion(Addr(kPage));
    mem.clearRange(Addr(kPage), kPage);
    EXPECT_TRUE(mem.pageKnownZero(Addr(kPage)));
    EXPECT_NE(mem.pageVersion(Addr(kPage)), v);

    // a clear across pages covers the inner page whole and its
    // neighbours in part
    for (Addr pa : {Addr(0x10), Addr(kPage + 4), Addr(2 * kPage + 4)})
        mem.writeWord(pa, 1);
    mem.clearRange(8, 2 * kPage);
    EXPECT_FALSE(mem.pageKnownZero(0));
    EXPECT_TRUE(mem.pageKnownZero(Addr(kPage)));
    EXPECT_FALSE(mem.pageKnownZero(Addr(2 * kPage)));
    EXPECT_TRUE(mem.blockIsZero(0, mem.size()));
}

TEST(PhysMemoryKnownZero, PartialClearDoesNotMakeThePageKnownZero)
{
    PhysMemory mem(3 * kPage);
    mem.writeWord(Addr(kPage + 16), 0xdeadbeefu);
    std::uint32_t v = mem.pageVersion(Addr(kPage));
    mem.clearRange(Addr(kPage), kPage - 4); // all but the last word
    EXPECT_FALSE(mem.pageKnownZero(Addr(kPage)));
    EXPECT_NE(mem.pageVersion(Addr(kPage)), v);
    EXPECT_TRUE(mem.blockIsZero(Addr(kPage), kPage));

    mem.writeWord(Addr(2 * kPage - 4), 7);
    mem.clearRange(Addr(kPage + 4), kPage - 4); // all but the first
    EXPECT_FALSE(mem.pageKnownZero(Addr(kPage)));
    EXPECT_EQ(mem.readWord(Addr(2 * kPage - 4)), 0u);
}

TEST(PhysMemoryKnownZero, ShortTailPageBehavesTheSame)
{
    // a memory size that is not a page multiple ends in a 64-byte page
    constexpr std::size_t kTail = 64;
    PhysMemory mem(kPage + kTail);
    const Addr tail = Addr(kPage);
    EXPECT_TRUE(mem.pageKnownZero(tail));
    EXPECT_TRUE(mem.blockIsZero(tail, kTail));

    mem.writeWord(tail + 60, 5);
    EXPECT_FALSE(mem.pageKnownZero(tail));
    EXPECT_FALSE(mem.blockIsZero(tail, kTail));
    mem.writeWord(tail + 60, 0);
    EXPECT_FALSE(mem.pageKnownZero(tail));
    EXPECT_TRUE(mem.blockIsZero(tail, kTail));

    mem.writeWord(tail + 60, 5);
    mem.clearRange(tail, kTail - 4);
    EXPECT_FALSE(mem.pageKnownZero(tail));
    EXPECT_EQ(mem.readWord(tail + 60), 5u);

    std::uint32_t v = mem.pageVersion(tail);
    mem.clearRange(tail, kTail); // the whole of the short page
    EXPECT_TRUE(mem.pageKnownZero(tail));
    EXPECT_NE(mem.pageVersion(tail), v);
    EXPECT_EQ(mem.readWord(tail + 60), 0u);
    EXPECT_TRUE(mem.blockIsZero(0, mem.size()));
}

TEST_F(QuietMemory, OutOfRangeIsPanic)
{
    PhysMemory mem(4096);
    EXPECT_THROW(mem.readWord(4096), PanicError);
    EXPECT_THROW(mem.writeWord(4096, 0), PanicError);
    EXPECT_THROW(mem.readWord(0xfffffffcu), PanicError);
}

TEST_F(QuietMemory, UnalignedPhysicalAccessIsPanic)
{
    // unaligned accesses must be caught by the CPU as guest
    // exceptions before reaching physical memory
    PhysMemory mem(4096);
    EXPECT_THROW(mem.readWord(2), PanicError);
    EXPECT_THROW(mem.readHalf(1), PanicError);
    EXPECT_THROW(mem.writeWord(6, 0), PanicError);
}

TEST_F(QuietMemory, ZeroOrOddSizeIsFatal)
{
    EXPECT_THROW(PhysMemory(0), FatalError);
    EXPECT_THROW(PhysMemory(4095), FatalError);
}

// -- the arena's contract ----------------------------------------------------

/** Lines in /proc/self/maps (host mappings); -1 if unreadable. */
int
hostMappings()
{
    std::ifstream maps("/proc/self/maps");
    if (!maps)
        return -1;
    int lines = 0;
    for (std::string line; std::getline(maps, line);)
        lines++;
    return lines;
}

/** Host address space in kB (VmSize); -1 if unreadable. */
long
hostVmKb()
{
    std::ifstream status("/proc/self/status");
    for (std::string key; status >> key;) {
        long kb = 0;
        if (key == "VmSize:" && status >> kb)
            return kb;
    }
    return -1;
}

TEST(PhysMemoryArena, FreshMemoryReadsZeroAtEveryWordIncludingTheTail)
{
    constexpr std::size_t kSize = 3 * kPage + 64;  // short tail page
    PhysMemory mem(kSize);
    EXPECT_EQ(mem.size(), kSize);
    for (Addr a = 0; a < kSize; a += 4)
        ASSERT_EQ(mem.readWord(a), 0u) << "paddr " << a;
    std::vector<Byte> all(kSize, 0xff);
    mem.readBlock(0, all.data(), kSize);
    EXPECT_EQ(all, std::vector<Byte>(kSize, 0));
}

TEST_F(QuietMemory, BadSizeIsFatalBeforeAnythingIsMapped)
{
    // Sixteen refused 64 MiB + 2 memories would leave 1 GiB of address
    // space mapped if the size were checked after the mmap: far past
    // any allocator noise, where a refused 4095 would leave one page.
    long before = hostVmKb();
    if (before < 0)
        GTEST_SKIP() << "no /proc/self/status on this host";
    for (unsigned i = 0; i < 16; i++)
        EXPECT_THROW(PhysMemory((std::size_t(64) << 20) + 2), FatalError);
    EXPECT_LT(hostVmKb() - before, 256 * 1024);
}

TEST_F(QuietMemory, OutOfRangeBlockAndSubWordAccessesPanic)
{
    constexpr std::size_t kSize = kPage + 64;
    PhysMemory mem(kSize);
    const Addr end = Addr(kSize);
    Byte buf[8] = {};
    EXPECT_THROW(mem.readHalf(end), PanicError);
    EXPECT_THROW(mem.writeByte(end, 1), PanicError);
    EXPECT_THROW(mem.readBlock(end - 4, buf, 8), PanicError);
    EXPECT_THROW(mem.writeBlock(end - 4, buf, 8), PanicError);
    EXPECT_THROW(mem.clearRange(end - 4, 8), PanicError);
    EXPECT_THROW(mem.blockIsZero(end - 4, 8), PanicError);
    // the last word is still in range
    mem.writeWord(end - 4, 9);
    EXPECT_EQ(mem.readWord(end - 4), 9u);
}

TEST(PhysMemoryArena, DestroyingMemoriesReturnsTheirMappings)
{
    if (hostMappings() < 0)
        GTEST_SKIP() << "no /proc/self/maps on this host";
    auto build_and_destroy = [] {
        std::vector<std::unique_ptr<PhysMemory>> mems;
        for (unsigned i = 0; i < 64; i++) {
            mems.push_back(std::make_unique<PhysMemory>(32u << 20));
            // touch one page so each arena is really backed
            mems.back()->writeWord(Addr(i) * Addr(kPage), i + 1);
        }
        for (unsigned i = 0; i < 64; i++)
            EXPECT_EQ(mems[i]->readWord(Addr(i) * Addr(kPage)), i + 1);
    };
    // The first round may grow the host allocator's own regions (a
    // sanitizer's allocator maps a region per size class). The host
    // kernel merges adjacent anonymous mappings, so leaked arenas can
    // add no line to the maps; they would add 2 GiB of address space
    // a round.
    build_and_destroy();
    int before = hostMappings();
    long before_kb = hostVmKb();
    build_and_destroy();
    EXPECT_EQ(hostMappings(), before);
    EXPECT_LT(hostVmKb() - before_kb, 256 * 1024);
}

} // namespace
} // namespace uexc::sim
