/**
 * @file
 * Two-level heap tests (Section 4): alignment, non-overlap, reuse
 * after free, per-core locality of the fast path, huge allocations,
 * and concurrent allocation from many cores.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "rt/heap.hh"
#include "soc/soc.hh"

using namespace dpu;

TEST(Heap, BlocksAreLineAlignedAndDisjoint)
{
    soc::Soc s;
    rt::Heap heap(1 << 20, 8 << 20, 32);
    std::vector<std::pair<mem::Addr, std::uint64_t>> blocks;
    s.start(0, [&](core::DpCore &c) {
        for (std::uint64_t sz : {16, 24, 64, 100, 1000, 4096, 8192})
            blocks.push_back({heap.alloc(c, sz), sz});
    });
    s.run();
    for (auto &[p, sz] : blocks)
        EXPECT_EQ(p % 64, 0u) << "block at " << p;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        for (std::size_t j = i + 1; j < blocks.size(); ++j) {
            auto [a, sa] = blocks[i];
            auto [b, sb] = blocks[j];
            EXPECT_TRUE(a + sa <= b || b + sb <= a)
                << "overlap " << i << "," << j;
        }
    }
}

TEST(Heap, FreeEnablesReuse)
{
    soc::Soc s;
    rt::Heap heap(1 << 20, 4 << 20, 32);
    s.start(0, [&](core::DpCore &c) {
        mem::Addr a = heap.alloc(c, 256);
        heap.free(c, a);
        mem::Addr b = heap.alloc(c, 256);
        EXPECT_EQ(a, b); // LIFO free list reuses immediately
    });
    s.run();
}

TEST(Heap, LiveBytesTracksAllocations)
{
    soc::Soc s;
    rt::Heap heap(1 << 20, 4 << 20, 32);
    s.start(0, [&](core::DpCore &c) {
        mem::Addr a = heap.alloc(c, 64);
        mem::Addr b = heap.alloc(c, 64);
        EXPECT_EQ(heap.liveBytes(), 128u);
        heap.free(c, a);
        EXPECT_EQ(heap.liveBytes(), 64u);
        heap.free(c, b);
        EXPECT_EQ(heap.liveBytes(), 0u);
    });
    s.run();
}

TEST(Heap, HugeAllocationsComeFromCentralArena)
{
    soc::Soc s;
    rt::Heap heap(1 << 20, 16 << 20, 32);
    s.start(0, [&](core::DpCore &c) {
        mem::Addr a = heap.alloc(c, 1 << 20); // 1 MB
        mem::Addr b = heap.alloc(c, 3 << 20); // 3 MB
        EXPECT_GE(b, a + (1 << 20));
        EXPECT_GE(heap.arenaUsed(), 4u << 20);
    });
    s.run();
}

TEST(Heap, LocalFastPathIsCheaperThanRefill)
{
    soc::Soc s;
    rt::Heap heap(1 << 20, 8 << 20, 32);
    sim::Tick first = 0, second = 0;
    s.start(0, [&](core::DpCore &c) {
        sim::Tick t0 = c.now();
        (void)heap.alloc(c, 128); // triggers superblock refill
        first = c.now() - t0;
        t0 = c.now();
        (void)heap.alloc(c, 128); // local free list
        second = c.now() - t0;
    });
    s.run();
    EXPECT_GT(first, second);
}

TEST(Heap, ManyCoresAllocateDisjointBlocks)
{
    soc::Soc s;
    rt::Heap heap(1 << 20, 24 << 20, 32);
    std::vector<std::vector<mem::Addr>> per_core(32);
    s.startAll([&](core::DpCore &c) {
        for (int i = 0; i < 64; ++i)
            per_core[c.id()].push_back(heap.alloc(c, 512));
    });
    s.run();
    ASSERT_TRUE(s.allFinished());
    std::map<mem::Addr, int> owner;
    for (unsigned id = 0; id < 32; ++id) {
        for (mem::Addr p : per_core[id]) {
            EXPECT_EQ(owner.count(p), 0u)
                << "block " << p << " double-allocated";
            owner[p] = int(id);
        }
    }
    EXPECT_EQ(owner.size(), 32u * 64u);
}

TEST(Heap, TryAllocReportsExhaustionWithoutDying)
{
    soc::Soc s;
    // Four 64 KB superblocks in total.
    rt::Heap heap(1 << 20, 256 * 1024, 32);

    s.start(0, [&](core::DpCore &c) {
        // Drain the arena with huge allocations.
        std::vector<mem::Addr> got;
        for (;;) {
            auto p = heap.tryAlloc(c, 64 * 1024);
            if (!p)
                break;
            got.push_back(*p);
        }
        EXPECT_EQ(got.size(), 4u);
        const std::uint64_t live = heap.liveBytes();

        // Every further path fails cleanly: huge, and small-class
        // (whose refill can't carve a superblock either).
        EXPECT_FALSE(heap.tryAlloc(c, 128 * 1024).has_value());
        EXPECT_FALSE(heap.tryAlloc(c, 32).has_value());
        EXPECT_EQ(heap.liveBytes(), live)
            << "failed allocations must not leak accounting";

        // The failure is recoverable state, not a poisoned heap:
        // freeing keeps working (huge blocks are not recycled, but
        // the free itself must account correctly).
        heap.free(c, got.back());
        EXPECT_EQ(heap.liveBytes(), live - 64 * 1024);
    });
    s.run();
    EXPECT_TRUE(s.allFinished());
}

TEST(Heap, TryAllocMatchesAllocOnTheHappyPath)
{
    soc::Soc s;
    rt::Heap heap(1 << 20, 8 << 20, 32);
    s.start(0, [&](core::DpCore &c) {
        auto p = heap.tryAlloc(c, 256);
        ASSERT_TRUE(p.has_value());
        EXPECT_EQ(*p % 64, 0u);
        mem::Addr q = heap.alloc(c, 256);
        EXPECT_NE(*p, q);
        heap.free(c, *p);
        heap.free(c, q);
        EXPECT_EQ(heap.liveBytes(), 0u);
    });
    s.run();
    EXPECT_TRUE(s.allFinished());
}
