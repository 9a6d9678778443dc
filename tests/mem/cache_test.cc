/**
 * @file
 * Cache tests, centred on the DPU's defining property: NO hardware
 * coherence (Section 2.3). Two caches over the same memory genuinely
 * serve stale data until software flushes/invalidates — we pin that
 * behaviour down, along with write-back, LRU eviction, and the
 * flush/invalidate instructions' semantics.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "mem/cache.hh"
#include "mem/main_memory.hh"
#include "sim/zero_pages.hh"

using namespace dpu;
using mem::Cache;
using mem::CacheParams;
using mem::MainMemory;

namespace {

const CacheParams l1Params{16 * 1024, 4, 1};
const CacheParams l2Params{256 * 1024, 8, 6};

/** SRAM for one L2 and two L1-Ds, each from a page boundary. */
std::size_t
sramBytes()
{
    return sim::ZeroPages::pageRound(Cache::sramBytes(l2Params)) +
           2 * sim::ZeroPages::pageRound(Cache::sramBytes(l1Params));
}

struct TwoCoreFixture : ::testing::Test
{
    TwoCoreFixture()
        : mm(mem::ddr3_1600, 1 << 20),
          l2("l2", l2Params, mm, sram.carve(Cache::sramBytes(l2Params))),
          a("a.l1d", l1Params, l2,
            sram.carve(Cache::sramBytes(l1Params))),
          b("b.l1d", l1Params, l2,
            sram.carve(Cache::sramBytes(l1Params)))
    {
    }

    MainMemory mm;
    sim::ZeroPages sram{sramBytes()};
    Cache l2;
    Cache a, b;
};

} // namespace

TEST_F(TwoCoreFixture, ReadMissFillsFromMemory)
{
    mm.store().store<std::uint64_t>(0x100, 0x1122334455667788ull);
    std::uint64_t v = 0;
    a.read(0x100, &v, 8, 0);
    EXPECT_EQ(v, 0x1122334455667788ull);
    EXPECT_TRUE(a.contains(0x100));
    EXPECT_EQ(a.statGroup().get("misses"), 1u);
}

TEST_F(TwoCoreFixture, WriteBackIsDeferred)
{
    std::uint64_t v = 42;
    a.write(0x200, &v, 8, 0);
    // The store is dirty in L1; memory still has the old value.
    EXPECT_TRUE(a.isDirty(0x200));
    EXPECT_EQ(mm.store().load<std::uint64_t>(0x200), 0u);
    a.flushRange(0x200, 8, 0);
    EXPECT_FALSE(a.isDirty(0x200));
    // Flush pushed it to L2 — still not memory.
    EXPECT_TRUE(l2.isDirty(0x200));
    EXPECT_EQ(mm.store().load<std::uint64_t>(0x200), 0u);
    l2.flushRange(0x200, 8, 0);
    EXPECT_EQ(mm.store().load<std::uint64_t>(0x200), 42u);
}

TEST_F(TwoCoreFixture, NonCoherentCachesServeStaleData)
{
    mm.store().store<std::uint32_t>(0x300, 1);
    std::uint32_t v = 0;
    b.read(0x300, &v, 4, 0); // b now caches value 1
    EXPECT_EQ(v, 1u);

    // Core a updates the location and flushes all the way to DDR.
    std::uint32_t nv = 2;
    a.write(0x300, &nv, 4, 0);
    a.flushRange(0x300, 4, 0);
    l2.flushRange(0x300, 4, 0);
    EXPECT_EQ(mm.store().load<std::uint32_t>(0x300), 2u);

    // Without an invalidate, b still sees the stale 1 — exactly the
    // bug class the paper's debugging tools hunt (Section 4).
    b.read(0x300, &v, 4, 0);
    EXPECT_EQ(v, 1u);

    // After invalidating, b re-fetches... from L2. But L2 was also
    // updated by a's flush, so now it sees 2.
    b.invalidateRange(0x300, 4, 0);
    b.read(0x300, &v, 4, 0);
    EXPECT_EQ(v, 2u);
}

TEST_F(TwoCoreFixture, InvalidateDropsDirtyData)
{
    std::uint64_t v = 7;
    a.write(0x400, &v, 8, 0);
    a.invalidateRange(0x400, 8, 0);
    // The dirty line was discarded without writeback.
    std::uint64_t out = 0;
    a.read(0x400, &out, 8, 0);
    EXPECT_EQ(out, 0u);
}

TEST_F(TwoCoreFixture, LruEvictsOldestAndWritesBack)
{
    // Fill one set (4 ways) plus one more conflicting line. Lines
    // mapping to set 0 of the 16 KB/4-way cache repeat every
    // 4 KB * ... : sets = 16384/(64*4) = 64, so stride = 64*64 = 4 KB.
    const std::uint64_t stride = 4096;
    std::uint64_t v = 0xdd;
    for (int i = 0; i < 5; ++i)
        a.write(stride * std::uint64_t(i), &v, 8, 0);
    // First line evicted; its dirty data must have landed in L2.
    EXPECT_FALSE(a.contains(0));
    EXPECT_TRUE(l2.contains(0));
    EXPECT_EQ(a.statGroup().get("writebacks"), 1u);
}

TEST_F(TwoCoreFixture, MissLatencyExceedsHitLatency)
{
    std::uint64_t v;
    sim::Tick t_miss = a.read(0x500, &v, 8, 0);
    sim::Tick t_hit = a.read(0x500, &v, 8, t_miss) - t_miss;
    EXPECT_GT(t_miss, t_hit * 10);
}

TEST_F(TwoCoreFixture, SharedL2VisibleToSiblingAfterL1Flush)
{
    // a writes and flushes its L1 only; b misses its L1 and hits the
    // shared L2, seeing the new value without DDR traffic. This is
    // the intra-macro sharing path.
    std::uint32_t nv = 99;
    a.write(0x600, &nv, 4, 0);
    a.flushRange(0x600, 4, 0);
    std::uint32_t v = 0;
    std::uint64_t ddr_reads = mm.statGroup().get("bytesRead");
    b.read(0x600, &v, 4, 0);
    EXPECT_EQ(v, 99u);
    EXPECT_EQ(mm.statGroup().get("bytesRead"), ddr_reads);
}

TEST_F(TwoCoreFixture, MultiLineReadCrossesBoundary)
{
    for (std::uint32_t i = 0; i < 32; ++i)
        mm.store().store<std::uint32_t>(0x700 + i * 4, i);
    std::uint32_t out[32];
    a.read(0x700, out, sizeof(out), 0);
    for (std::uint32_t i = 0; i < 32; ++i)
        EXPECT_EQ(out[i], i);
}

TEST_F(TwoCoreFixture, PartialWriteMergesWithMemoryContents)
{
    mm.store().store<std::uint64_t>(0x800, 0xaaaaaaaaaaaaaaaaull);
    std::uint8_t byte = 0xbb;
    a.write(0x801, &byte, 1, 0);
    std::uint64_t v;
    a.read(0x800, &v, 8, 0);
    EXPECT_EQ(v, 0xaaaaaaaaaaaabbaaull);
}
