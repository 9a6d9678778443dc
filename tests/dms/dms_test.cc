/**
 * @file
 * DMS integration tests on a full SoC: single transfers, the
 * Listing 1 double-buffered streaming loop (the "16 MB through a
 * 32 KB DMEM with three descriptors" claim, scaled), write-back
 * streams, gather/scatter with dense and sparse masks, and the
 * first-silicon gather erratum.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "rt/dms_ctl.hh"
#include "sim/rng.hh"
#include "soc/soc.hh"

using namespace dpu;
using rt::DmsCtl;

namespace {

/** Fill DDR with a deterministic pattern of 32-bit words. */
void
fillWords(soc::Soc &s, mem::Addr base, std::uint32_t n,
          std::uint32_t seed = 0)
{
    for (std::uint32_t i = 0; i < n; ++i)
        s.memory().store().store<std::uint32_t>(base + i * 4,
                                                i * 2654435761u + seed);
}

} // namespace

TEST(Dms, SingleTransferMovesDataAndSetsEvent)
{
    soc::Soc s;
    fillWords(s, 0x10000, 256);

    bool ok = false;
    s.start(0, [&](core::DpCore &c) {
        DmsCtl ctl(c, s.dms());
        ctl.ddrToDmem().rows(256).width(4).from(0x10000).to(0)
            .event(0).noAutoInc().push(0);
        ctl.wfe(0);
        ok = true;
        for (std::uint32_t i = 0; i < 256; ++i) {
            EXPECT_EQ(c.dmem().load<std::uint32_t>(i * 4),
                      i * 2654435761u);
        }
        ctl.clearEvent(0);
    });
    s.run();
    EXPECT_TRUE(s.allFinished());
    EXPECT_TRUE(ok);
}

TEST(Dms, TransferTakesPlausibleTime)
{
    soc::Soc s;
    s.start(0, [&](core::DpCore &c) {
        DmsCtl ctl(c, s.dms());
        ctl.ddrToDmem().rows(2048).width(4).from(0).to(0)
            .event(0).noAutoInc().push(0);
        ctl.wfe(0);
    });
    sim::Tick t = s.run();
    // 8 KB at ~10 GB/s is ~800 ns plus overheads; well under 10 us.
    EXPECT_GT(t, 800'000u);
    EXPECT_LT(t, 10'000'000u);
}

TEST(Dms, Listing1StreamsWholeRegionInOrder)
{
    // The Listing 1 program, scaled to 2 MB: two 1 KB buffers, one
    // loop descriptor, consume and checksum every word.
    soc::Soc s;
    const std::uint32_t total_words = (2 << 20) / 4;
    fillWords(s, 0, total_words);

    std::uint64_t expect = 0;
    for (std::uint32_t i = 0; i < total_words; ++i)
        expect += i * 2654435761u;

    std::uint64_t sum = 0;
    std::uint64_t buffers = 0;
    s.start(0, [&](core::DpCore &c) {
        DmsCtl ctl(c, s.dms());
        rt::StreamReader reader(ctl, 0, total_words * 4, 0, 1024, 2,
                                0);
        reader.forEach([&](std::uint32_t off, std::uint32_t bytes) {
            for (std::uint32_t i = 0; i < bytes; i += 4)
                sum += c.dmem().load<std::uint32_t>(off + i);
            c.dualIssue(bytes / 4, bytes / 4);
            ++buffers;
        });
    });
    s.run();
    EXPECT_TRUE(s.allFinished());
    EXPECT_EQ(sum, expect);
    EXPECT_EQ(buffers, 2048u);
}

TEST(Dms, StreamingApproachesLineRate)
{
    // One core streaming with 8 KB buffers should see multiple GB/s
    // even single-handedly (it cannot saturate DDR alone if its
    // consume loop is slow, so consume cheaply).
    soc::Soc s;
    const std::uint64_t bytes = 8 << 20;
    s.start(0, [&](core::DpCore &c) {
        DmsCtl ctl(c, s.dms());
        rt::StreamReader reader(ctl, 0, bytes, 0, 8192, 2, 0);
        reader.forEach([&](std::uint32_t, std::uint32_t) {
            c.cycles(64); // nearly free consumption
        });
    });
    sim::Tick t = s.run();
    double gbs = double(bytes) / (double(t) * 1e-12) / 1e9;
    EXPECT_GT(gbs, 5.0);
    EXPECT_LT(gbs, 12.8);
}

TEST(Dms, StreamWriterRoundTrips)
{
    soc::Soc s;
    const std::uint32_t n = 4096;
    s.start(0, [&](core::DpCore &c) {
        DmsCtl ctl(c, s.dms());
        rt::StreamWriter w(ctl, 0x200000, 0, 1024, 2, 8, 1);
        std::uint32_t written = 0;
        while (written < n) {
            std::uint32_t off = w.acquire();
            for (std::uint32_t i = 0; i < 256; ++i)
                c.dmem().store<std::uint32_t>(off + i * 4,
                                              written + i);
            c.dualIssue(256, 256);
            w.commit(1024);
            written += 256;
        }
        w.finish();
    });
    s.run();
    ASSERT_TRUE(s.allFinished());
    for (std::uint32_t i = 0; i < n; ++i) {
        EXPECT_EQ(s.memory().store().load<std::uint32_t>(
                      0x200000 + i * 4), i)
            << "word " << i;
    }
}

TEST(Dms, GatherPacksSelectedRows)
{
    soc::Soc s;
    const std::uint32_t rows = 1024;
    fillWords(s, 0x40000, rows);

    // Dense mask 0xF7 repeating (Figure 12's dense case).
    std::vector<std::uint8_t> mask(rows / 8);
    for (auto &b : mask)
        b = 0xF7;

    std::vector<std::uint32_t> got;
    s.start(0, [&](core::DpCore &c) {
        DmsCtl ctl(c, s.dms());
        // Load the mask into BV bank 1 from DMEM offset 8192.
        c.dmem().write(8192, mask.data(), mask.size());
        dms::Descriptor bv;
        bv.type = dms::DescType::DmemToDms;
        bv.rows = std::uint32_t(mask.size());
        bv.ibank = 1;
        bv.dmemAddr = 8192;
        bv.notifyEvent = 1;
        ctl.push(ctl.setup(bv));
        ctl.wfe(1);
        ctl.clearEvent(1);

        dms::Descriptor g;
        g.type = dms::DescType::DdrToDmem;
        g.gatherSrc = true;
        g.ibank = 1;
        g.rows = rows;
        g.colWidth = 4;
        g.ddrAddr = 0x40000;
        g.dmemAddr = 0;
        g.notifyEvent = 2;
        ctl.push(ctl.setup(g));
        ctl.wfe(2);

        for (std::uint32_t i = 0; i < rows * 7 / 8; ++i)
            got.push_back(c.dmem().load<std::uint32_t>(i * 4));
    });
    s.run();
    ASSERT_TRUE(s.allFinished());

    std::vector<std::uint32_t> expect;
    for (std::uint32_t i = 0; i < rows; ++i)
        if ((0xF7 >> (i % 8)) & 1)
            expect.push_back(i * 2654435761u);
    ASSERT_EQ(got.size(), expect.size());
    EXPECT_EQ(got, expect);
}

TEST(Dms, SparseGatherIsSlowerThanDense)
{
    auto run_gather = [](std::uint8_t pattern) {
        soc::Soc s;
        const std::uint32_t rows = 32768;
        std::vector<std::uint8_t> mask(rows / 8, pattern);
        s.start(0, [&](core::DpCore &c) {
            DmsCtl ctl(c, s.dms());
            c.dmem().write(8192, mask.data(), mask.size());
            dms::Descriptor bv;
            bv.type = dms::DescType::DmemToDms;
            bv.rows = std::uint32_t(mask.size());
            bv.ibank = 0;
            bv.dmemAddr = 8192;
            bv.notifyEvent = 1;
            ctl.push(ctl.setup(bv));
            ctl.wfe(1);
            ctl.clearEvent(1);

            // Gather in chunks that fit in DMEM.
            const std::uint32_t chunk = 2048; // rows scanned per op
            for (std::uint32_t r = 0; r < rows; r += chunk) {
                dms::Descriptor g;
                g.type = dms::DescType::DdrToDmem;
                g.gatherSrc = true;
                g.ibank = 0;
                g.rows = chunk;
                g.colWidth = 4;
                g.ddrAddr = r * 4;
                g.dmemAddr = 0;
                g.notifyEvent = 2;
                ctl.push(ctl.setup(g));
                ctl.wfe(2);
                ctl.clearEvent(2);
            }
        });
        return s.run();
    };

    sim::Tick dense = run_gather(0xF7);
    sim::Tick sparse = run_gather(0x13);
    // Sparse selects fewer bytes yet must not be proportionally
    // faster: per-run overheads dominate (Figure 12's shape).
    double dense_bytes = 32768.0 * 7 / 8 * 4;
    double sparse_bytes = 32768.0 * 3 / 8 * 4;
    double dense_bw = dense_bytes / double(dense);
    double sparse_bw = sparse_bytes / double(sparse);
    EXPECT_LT(sparse_bw, dense_bw);
}

TEST(Dms, GatherBugWedgesConcurrentGathers)
{
    soc::SocParams p = soc::dpu40nm();
    p.dms.emulateGatherBug = true;
    soc::Soc s(p);

    std::vector<std::uint8_t> mask(512 / 8, 0xFF);
    for (unsigned id = 0; id < 2; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            DmsCtl ctl(c, s.dms());
            c.dmem().write(8192, mask.data(), mask.size());
            dms::Descriptor bv;
            bv.type = dms::DescType::DmemToDms;
            bv.rows = std::uint32_t(mask.size());
            bv.ibank = id; // separate BV banks
            bv.dmemAddr = 8192;
            bv.notifyEvent = 1;
            ctl.push(ctl.setup(bv));
            ctl.wfe(1);
            ctl.clearEvent(1);

            dms::Descriptor g;
            g.type = dms::DescType::DdrToDmem;
            g.gatherSrc = true;
            g.ibank = id;
            g.rows = 512;
            g.colWidth = 4;
            g.ddrAddr = 0x1000;
            g.dmemAddr = 0;
            g.notifyEvent = 2;
            ctl.push(ctl.setup(g));
            ctl.wfe(2); // the second gather never completes
        });
    }
    s.run();
    EXPECT_TRUE(s.dms().dmac().hung());
    EXPECT_FALSE(s.allFinished());
}

TEST(Dms, SingleIssuerWorkaroundAvoidsTheBug)
{
    soc::SocParams p = soc::dpu40nm();
    p.dms.emulateGatherBug = true;
    soc::Soc s(p);
    fillWords(s, 0, 512);

    std::vector<std::uint8_t> mask(512 / 8, 0xFF);
    // Serialize: core 1 gathers only after core 0 finished.
    bool core0_done = false;
    for (unsigned id = 0; id < 2; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            DmsCtl ctl(c, s.dms());
            if (id == 1)
                c.blockUntil([&] { return core0_done; });
            c.dmem().write(8192, mask.data(), mask.size());
            dms::Descriptor bv;
            bv.type = dms::DescType::DmemToDms;
            bv.rows = std::uint32_t(mask.size());
            bv.ibank = id;
            bv.dmemAddr = 8192;
            bv.notifyEvent = 1;
            ctl.push(ctl.setup(bv));
            ctl.wfe(1);
            ctl.clearEvent(1);

            dms::Descriptor g;
            g.type = dms::DescType::DdrToDmem;
            g.gatherSrc = true;
            g.ibank = id;
            g.rows = 512;
            g.colWidth = 4;
            g.ddrAddr = 0;
            g.dmemAddr = 0;
            g.notifyEvent = 2;
            ctl.push(ctl.setup(g));
            ctl.wfe(2);
            if (id == 0) {
                core0_done = true;
                s.core(1).wake(c.now());
            }
        });
    }
    s.run();
    EXPECT_FALSE(s.dms().dmac().hung());
    EXPECT_TRUE(s.allFinished());
}

TEST(Dms, ScatterWritesSelectedRows)
{
    soc::Soc s;
    const std::uint32_t rows = 256;
    std::vector<std::uint8_t> mask(rows / 8, 0);
    for (std::uint32_t i = 0; i < rows; i += 3)
        mask[i / 8] |= std::uint8_t(1) << (i % 8);

    s.start(0, [&](core::DpCore &c) {
        DmsCtl ctl(c, s.dms());
        c.dmem().write(8192, mask.data(), mask.size());
        dms::Descriptor bv;
        bv.type = dms::DescType::DmemToDms;
        bv.rows = std::uint32_t(mask.size());
        bv.ibank = 2;
        bv.dmemAddr = 8192;
        bv.notifyEvent = 1;
        ctl.push(ctl.setup(bv));
        ctl.wfe(1);
        ctl.clearEvent(1);

        // Packed source values in DMEM.
        std::uint32_t k = 0;
        for (std::uint32_t i = 0; i < rows; i += 3, ++k)
            c.dmem().store<std::uint32_t>(k * 4, 1000 + i);

        dms::Descriptor sc;
        sc.type = dms::DescType::DmemToDdr;
        sc.scatterDst = true;
        sc.ibank = 2;
        sc.rows = rows;
        sc.colWidth = 4;
        sc.ddrAddr = 0x80000;
        sc.dmemAddr = 0;
        sc.notifyEvent = 2;
        ctl.push(ctl.setup(sc), 1);
        ctl.wfe(2);
    });
    s.run();
    ASSERT_TRUE(s.allFinished());
    for (std::uint32_t i = 0; i < rows; ++i) {
        std::uint32_t v = s.memory().store().load<std::uint32_t>(
            0x80000 + i * 4);
        if (i % 3 == 0)
            EXPECT_EQ(v, 1000 + i) << "row " << i;
        else
            EXPECT_EQ(v, 0u) << "row " << i;
    }
}

TEST(Dms, ThirtyTwoCoreAggregateReadBandwidth)
{
    // All 32 dpCores streaming: aggregate bandwidth should approach
    // the DDR3 practical ceiling (Figure 11: >9 GB/s at 8 KB tiles).
    soc::Soc s;
    const std::uint64_t per_core = 1 << 20;
    for (unsigned id = 0; id < 32; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            DmsCtl ctl(c, s.dmsFor(id));
            rt::StreamReader reader(ctl, id * per_core, per_core, 0,
                                    8192, 2, 0);
            reader.forEach([&](std::uint32_t, std::uint32_t) {
                c.cycles(64);
            });
        });
    }
    sim::Tick t = s.run();
    ASSERT_TRUE(s.allFinished());
    double gbs = double(32 * per_core) / (double(t) * 1e-12) / 1e9;
    EXPECT_GT(gbs, 8.5);
    EXPECT_LT(gbs, 12.8);
}
