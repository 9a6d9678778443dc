/**
 * @file
 * Hardware partitioning tests (Sections 3.1-3.4, Figures 9/10/13):
 * correctness of hash-radix, raw-radix and range partitioning
 * across all 32 cores, back-pressure under a slow consumer, and
 * pipeline throughput sanity.
 */

#include <gtest/gtest.h>

#include <vector>

#include "rt/partition.hh"
#include "sim/rng.hh"
#include "soc/soc.hh"
#include "util/crc32.hh"

using namespace dpu;
using rt::DmsCtl;
using rt::PartitionJob;
using rt::PartitionScheme;

namespace {

/** Column-major 4-column table; column 0 is the key. */
struct Table
{
    mem::Addr base;
    std::uint32_t rows;
    std::uint32_t colStride;
};

Table
makeTable(soc::Soc &s, std::uint32_t rows, std::uint64_t seed)
{
    Table t{0x100000, rows, rows * 4};
    sim::Rng rng{seed};
    for (std::uint32_t r = 0; r < rows; ++r) {
        std::uint32_t key = std::uint32_t(rng.next());
        s.memory().store().store<std::uint32_t>(t.base + r * 4, key);
        for (unsigned col = 1; col < 4; ++col) {
            s.memory().store().store<std::uint32_t>(
                t.base + col * t.colStride + r * 4, r * 10 + col);
        }
    }
    return t;
}

struct GotRow
{
    std::uint32_t key;
    std::uint32_t c1, c2, c3;
};

/**
 * Run a 32-way partition of @p t under @p scheme; collect per-core
 * received rows. Core 0 issues the chain and also consumes.
 */
std::vector<std::vector<GotRow>>
runPartitionAll(soc::Soc &s, const Table &t,
                const PartitionScheme &scheme,
                std::uint64_t *stalls = nullptr,
                sim::Cycles consumer_delay = 0,
                std::uint16_t buf_bytes = 2048 + 4)
{
    std::vector<std::vector<GotRow>> got(32);
    for (unsigned id = 0; id < 32; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            DmsCtl ctl(c, s.dms());
            if (id == 0) {
                PartitionJob job;
                job.table = t.base;
                job.nRows = t.rows;
                job.nCols = 4;
                job.colWidth = 4;
                job.colStride = t.colStride;
                job.scheme = scheme;
                job.dstBase = 0;
                job.dstBufBytes = buf_bytes;
                job.dstNBufs = 2;
                job.dstFirstEvent = 16;
                rt::runPartition(ctl, job);
            }
            rt::consumePartition(
                ctl, 0, buf_bytes, 2, 16,
                [&](std::uint32_t off, std::uint32_t rows) {
                    for (std::uint32_t r = 0; r < rows; ++r) {
                        GotRow g;
                        g.key = c.dmem().load<std::uint32_t>(
                            off + r * 16);
                        g.c1 = c.dmem().load<std::uint32_t>(
                            off + r * 16 + 4);
                        g.c2 = c.dmem().load<std::uint32_t>(
                            off + r * 16 + 8);
                        g.c3 = c.dmem().load<std::uint32_t>(
                            off + r * 16 + 12);
                        got[id].push_back(g);
                    }
                    c.dualIssue(rows * 4, rows * 4);
                    if (consumer_delay)
                        c.sleepCycles(consumer_delay);
                });
            if (id == 0) {
                ctl.wfe(30); // flush completion
            }
        });
    }
    s.run();
    EXPECT_TRUE(s.allFinished());
    if (stalls)
        *stalls = s.dms().dmac().statGroup().get("partStalls");
    return got;
}

} // namespace

TEST(Partition, HashRadixRoutesEveryRowOnce)
{
    soc::Soc s;
    Table t = makeTable(s, 10000, 42);
    auto got = runPartitionAll(s, t, PartitionScheme{});

    // Every input row must arrive EXACTLY once (not just the right
    // total: a loop re-reading one chunk keeps key->core routing
    // consistent, so we track per-row delivery via column 1, which
    // encodes the row index).
    std::vector<int> delivered(10000, 0);
    std::uint64_t total = 0;
    for (unsigned id = 0; id < 32; ++id) {
        for (const GotRow &g : got[id]) {
            std::uint32_t h = util::crc32Key(g.key);
            EXPECT_EQ(h & 31, id) << "key " << g.key;
            // Payload stayed attached to its key: column values
            // were derived from the row index.
            std::uint32_t r = (g.c1 - 1) / 10;
            ASSERT_LT(r, 10000u);
            ++delivered[r];
            EXPECT_EQ(g.c2, r * 10 + 2);
            EXPECT_EQ(g.c3, r * 10 + 3);
        }
        total += got[id].size();
    }
    EXPECT_EQ(total, 10000u);
    for (std::uint32_t r = 0; r < 10000; ++r)
        EXPECT_EQ(delivered[r], 1) << "row " << r;
}

TEST(Partition, RawRadixUsesKeyBits)
{
    soc::Soc s;
    Table t = makeTable(s, 4000, 7);
    PartitionScheme scheme;
    scheme.kind = PartitionScheme::Kind::RawRadix;
    scheme.radixBits = 5;
    scheme.radixShift = 3;
    auto got = runPartitionAll(s, t, scheme);

    std::uint64_t total = 0;
    for (unsigned id = 0; id < 32; ++id) {
        for (const GotRow &g : got[id])
            EXPECT_EQ((g.key >> 3) & 31, id);
        total += got[id].size();
    }
    EXPECT_EQ(total, 4000u);
}

TEST(Partition, RangeRespectsBoundaries)
{
    soc::Soc s;
    Table t = makeTable(s, 6000, 99);
    PartitionScheme scheme;
    scheme.kind = PartitionScheme::Kind::Range;
    // 32 equal ranges over the 32-bit key space.
    for (unsigned i = 0; i < 32; ++i) {
        scheme.bounds.push_back(i == 31
                                    ? ~0ull
                                    : (std::uint64_t(i + 1) << 27) -
                                          1);
    }
    auto got = runPartitionAll(s, t, scheme);

    std::uint64_t total = 0;
    for (unsigned id = 0; id < 32; ++id) {
        for (const GotRow &g : got[id]) {
            if (id > 0) {
                EXPECT_GT(std::uint64_t(g.key),
                          scheme.bounds[id - 1]);
            }
            EXPECT_LE(std::uint64_t(g.key), scheme.bounds[id]);
        }
        total += got[id].size();
    }
    EXPECT_EQ(total, 6000u);
}

TEST(Partition, SlowConsumerTriggersBackPressure)
{
    soc::Soc s;
    Table t = makeTable(s, 20000, 5);
    std::uint64_t stalls = 0;
    auto got = runPartitionAll(s, t, PartitionScheme{}, &stalls,
                               30000 /* slow consumers */);

    std::uint64_t total = 0;
    for (auto &v : got)
        total += v.size();
    EXPECT_EQ(total, 20000u);
    EXPECT_GT(stalls, 0u);
}

TEST(Partition, ThroughputIsMultipleGBs)
{
    // Figure 13: the DMS partitions at ~9.3 GB/s, comfortably above
    // HARP's published 6 GB/s for 32-way partitioning.
    soc::Soc s;
    Table t = makeTable(s, 60000, 3);
    sim::Tick t0 = s.now();
    auto got = runPartitionAll(s, t, PartitionScheme{}, nullptr, 0,
                               4096 + 4);
    sim::Tick dt = s.now() - t0;

    std::uint64_t total = 0;
    for (auto &v : got)
        total += v.size();
    ASSERT_EQ(total, 60000u);

    double bytes = 60000.0 * 16;
    double gbs = bytes / (double(dt) * 1e-12) / 1e9;
    EXPECT_GT(gbs, 6.0); // beat HARP
    EXPECT_LT(gbs, 12.8);
}
