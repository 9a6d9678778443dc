#include "board/board_apps.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <vector>

#include "apps/common.hh"
#include "apps/hll.hh"
#include "rt/dms_ctl.hh"
#include "rt/partition.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "util/crc32.hh"

namespace dpu::board {

namespace {

/** Per-DPU key/value table: a key column, then a value column. */
std::vector<std::uint32_t>
sqlTable(const ShardedSqlConfig &cfg, unsigned dpu)
{
    sim::Rng rng{cfg.seed ^ (0x9e3779b97f4a7c15ull * (dpu + 1))};
    std::vector<std::uint32_t> v(std::size_t(cfg.rowsPerDpu) * 2);
    for (std::uint32_t r = 0; r < cfg.rowsPerDpu; ++r) {
        v[r] = std::uint32_t(rng.next());            // key column
        v[cfg.rowsPerDpu + r] = std::uint32_t(rng.below(1 << 16));
    }
    return v;
}

} // namespace

ShardedSqlResult
runShardedSql(Board &b, const ShardedSqlConfig &cfg)
{
    ShardedSqlResult res;
    const unsigned n = b.nDpus();
    sim_assert(sqlPartitions % n == 0,
               "board size %u must divide the %u-way partition "
               "fan-out (owner cores map 1:1)",
               n, sqlPartitions);
    const std::uint32_t rows = cfg.rowsPerDpu;
    const std::uint32_t stride = rows * 4;
    const std::uint16_t buf_bytes = 1024 + 4;

    // DDR layout, identical on every DPU. Staging slots carry 4x
    // the mean partition share plus slack so a skewed CRC split
    // cannot overrun (P(>4x mean) is negligible at these sizes).
    const mem::Addr table_base = 0x100000;
    const std::uint64_t slot =
        apps::alignUp(std::uint64_t(rows) / sqlPartitions * 8 * 4 +
                          4096,
                      4096);
    const mem::Addr stage_base =
        apps::alignUp(table_base + std::uint64_t(rows) * 8 + 65536,
                      4096);
    const mem::Addr recv_base = stage_base + sqlPartitions * slot;
    const mem::Addr partial_base =
        recv_base + std::uint64_t(n) * sqlPartitions * slot;
    const std::uint64_t ddr_need =
        partial_base + sqlPartitions * std::uint64_t(n) * 16 + 8192;
    sim_assert(ddr_need <= b.dpu(0).params().ddrBytes,
               "sharded SQL layout needs %llu MB of DDR per DPU",
               (unsigned long long)(ddr_need >> 20));

    // ------------------------------------------------------------
    // Stage each DPU's table slice (host-side, functional), and sum
    // the COUNT/SUM every partition must reach: the same CRC32 radix
    // the hash engine applies.
    // ------------------------------------------------------------
    std::vector<std::uint64_t> expCnt(sqlPartitions, 0);
    std::vector<std::uint64_t> expSum(sqlPartitions, 0);
    for (unsigned d = 0; d < n; ++d) {
        const std::vector<std::uint32_t> t = sqlTable(cfg, d);
        for (std::uint32_t r = 0; r < rows; ++r) {
            const unsigned p =
                util::crc32Key(t[r]) & (sqlPartitions - 1);
            ++expCnt[p];
            expSum[p] += t[rows + r];
        }
        apps::stage(b.dpu(d), table_base, t);
    }

    // Host-side control metadata: per (dpu, partition) row counts
    // observed by the consumers, and the counts announced to owners
    // by doorbells.
    std::vector<std::uint64_t> counts(std::size_t(n) * sqlPartitions,
                                      0);
    std::vector<std::uint64_t> recvCounts(
        std::size_t(n) * n * sqlPartitions, 0);
    // One byte per slot, not vector<bool>: the doorbells land on the
    // owning DPU's partition, and bit-packing would let two
    // owners' writes share a byte.
    std::vector<std::uint8_t> recvSeen(
        std::size_t(n) * n * sqlPartitions, 0);

    // ------------------------------------------------------------
    // Phase A: every DPU hash-partitions its slice 32 ways; each
    // consumer core drains its partition ring to a DDR staging slot.
    // ------------------------------------------------------------
    for (unsigned d = 0; d < n; ++d) {
        soc::Soc *s = &b.dpu(d);
        for (unsigned id = 0; id < sqlPartitions; ++id) {
            s->start(id, [&counts, s, d, id, table_base, stride,
                          rows, buf_bytes, stage_base,
                          slot](core::DpCore &c) {
                rt::DmsCtl ctl(c, s->dmsFor(id));
                if (id == 0) {
                    rt::PartitionJob job;
                    job.table = table_base;
                    job.nRows = rows;
                    job.nCols = 2;
                    job.colWidth = 4;
                    job.colStride = stride;
                    job.chunkRows = 128;
                    job.dstBufBytes = buf_bytes;
                    rt::runPartition(ctl, job);
                }
                const mem::Addr dst = stage_base + id * slot;
                std::uint64_t got = 0;
                rt::consumePartition(
                    ctl, 0, buf_bytes, 2, 16,
                    [&](std::uint32_t off, std::uint32_t nrows) {
                        // Stage the sealed buffer's tuples behind
                        // the previous ones, synchronously (the
                        // ring slot is reused after return).
                        ctl.dmemToDdr()
                            .rows(nrows * 2)
                            .width(4)
                            .from(off)
                            .to(dst + got * 8)
                            .event(9)
                            .noAutoInc()
                            .push(1);
                        ctl.wfe(9);
                        ctl.clearEvent(9);
                        got += nrows;
                        c.dualIssue(nrows, nrows);
                    });
                counts[d * sqlPartitions + id] = got;
                if (id == 0) {
                    ctl.wfe(30);
                    ctl.clearEvent(30);
                }
            });
        }
    }
    b.run();
    if (!b.allFinished())
        return res;

    // ------------------------------------------------------------
    // Exchange: ship every non-owned partition to its owner, then
    // announce the row count with a doorbell. The DMA layer retries
    // link drops; a lost doorbell is recovered from the host's
    // control metadata after the exchange drains.
    // ------------------------------------------------------------
    // A doorbell is 8 bytes on the (d, o) link; on arrival the owner
    // records partition p's count from d. Runs on d's partition.
    auto ring = [&b, &recvCounts, &recvSeen, n](unsigned d, unsigned o,
                                                unsigned p,
                                                std::uint64_t cnt) {
        const std::size_t ri =
            (std::uint64_t(o) * n + d) * sqlPartitions + p;
        bool dropped = false;
        b.fabric().send(d, o, 8, sim::Traffic::Workload,
                        [count = &recvCounts[ri], seen = &recvSeen[ri],
                         cnt] {
                            *count = cnt;
                            *seen = 1;
                        },
                        dropped);
    };

    // DMA completions run on the source chip's partition: give each
    // source its own failure tally and sum after the run.
    std::vector<std::uint64_t> dmaFails(n, 0);
    for (unsigned d = 0; d < n; ++d) {
        for (unsigned p = 0; p < sqlPartitions; ++p) {
            const unsigned o = p % n;
            if (o == d)
                continue;
            const std::uint64_t cnt =
                counts[d * sqlPartitions + p];
            const mem::Addr dst =
                recv_base +
                (std::uint64_t(d) * sqlPartitions + p) * slot;
            if (cnt == 0) {
                // Nothing to ship; the doorbell alone announces
                // the empty partition.
                ring(d, o, p, 0);
                continue;
            }
            b.dma(d, stage_base + p * slot, o, dst, cnt * 8,
                  [&ring, fail = &dmaFails[d], d, o, p, cnt](bool ok) {
                      if (!ok) {
                          ++*fail;
                          return;
                      }
                      ring(d, o, p, cnt);
                  });
        }
    }
    b.run();
    for (std::uint64_t f : dmaFails)
        if (f)
            return res; // link gave up past its retry budget

    // Doorbells lost to link.drop: the offload driver falls back to
    // its own dispatch bookkeeping (it staged the transfers).
    for (unsigned o = 0; o < n; ++o) {
        for (unsigned d = 0; d < n; ++d) {
            if (o == d)
                continue;
            for (unsigned p = 0; p < sqlPartitions; ++p) {
                if (p % n != o)
                    continue;
                const std::size_t ri =
                    (std::uint64_t(o) * n + d) * sqlPartitions + p;
                if (!recvSeen[ri]) {
                    ++res.doorbellsLost;
                    recvCounts[ri] = counts[d * sqlPartitions + p];
                }
            }
        }
    }

    // ------------------------------------------------------------
    // Phase B: owners aggregate COUNT/SUM per (partition, source)
    // region — one core per region keeps all 32 cores of every
    // owner busy at any board size.
    // ------------------------------------------------------------
    for (unsigned o = 0; o < n; ++o) {
        soc::Soc *s = &b.dpu(o);
        std::vector<unsigned> owned;
        for (unsigned p = 0; p < sqlPartitions; ++p)
            if (p % n == o)
                owned.push_back(p);
        for (unsigned k = 0; k < unsigned(owned.size()) * n; ++k) {
            const unsigned p = owned[k / n];
            const unsigned src = k % n;
            const std::uint64_t nrows =
                src == o
                    ? counts[o * sqlPartitions + p]
                    : recvCounts[(std::uint64_t(o) * n + src) *
                                     sqlPartitions +
                                 p];
            const mem::Addr region =
                src == o
                    ? stage_base + p * slot
                    : recv_base +
                          (std::uint64_t(src) * sqlPartitions + p) *
                              slot;
            const mem::Addr out =
                partial_base + (std::uint64_t(p) * n + src) * 16;
            s->start(k, [s, nrows, region, out](core::DpCore &c) {
                rt::DmsCtl ctl(c, s->dmsFor(c.id()));
                std::uint64_t cnt = 0, sum = 0;
                if (nrows) {
                    rt::StreamReader in(ctl, region, nrows * 8, 0,
                                        2048, 2, 0, 0);
                    in.forEach([&](std::uint32_t off,
                                   std::uint32_t blen) {
                        for (std::uint32_t i = 0; i < blen; i += 8) {
                            sum += c.dmem().load<std::uint32_t>(
                                off + i + 4);
                            ++cnt;
                        }
                        c.dualIssue(blen / 8 * 2, blen / 8 * 2);
                    });
                }
                c.dmem().store<std::uint64_t>(0x6000, cnt);
                c.dmem().store<std::uint64_t>(0x6008, sum);
                c.dualIssue(4, 4);
                apps::dumpToDdr(ctl, 0x6000, out, 16);
            });
        }
    }
    b.run();
    if (!b.allFinished())
        return res;

    res.rows = std::uint64_t(rows) * n;
    res.seconds = b.seconds();
    res.bytesShipped = b.fabric().bytesCarried();
    res.peakLinkUtilization = b.fabric().peakUtilization();

    // Compare the owners' partial aggregates with the sums taken
    // while staging, bit-exactly.
    for (unsigned p = 0; p < sqlPartitions; ++p) {
        const unsigned o = p % n;
        std::uint64_t cnt = 0, sum = 0;
        for (unsigned src = 0; src < n; ++src) {
            auto part = apps::unstage<std::uint64_t>(
                b.dpu(o),
                partial_base + (std::uint64_t(p) * n + src) * 16, 2);
            cnt += part[0];
            sum += part[1];
        }
        if (cnt != expCnt[p] || sum != expSum[p])
            return res;
    }
    res.valid = true;
    return res;
}

// ----------------------------------------------------------------
// Distributed HLL
// ----------------------------------------------------------------

namespace {

/** Per-DPU element stream (same distinct pool on every DPU). */
apps::HllConfig
hllGen(const DistHllConfig &cfg, unsigned dpu)
{
    apps::HllConfig g;
    g.nElements = cfg.elementsPerDpu;
    g.cardinality = cfg.cardinality;
    g.pBits = cfg.pBits;
    g.seed = cfg.seed ^ (0xd15c0ull * (dpu + 1));
    return g;
}

/** Start the max-merge of @p n_sketches consecutive @p m-byte
 *  sketches at @p src into one sketch at @p dst, on @p s's core 0. */
void
startSketchMerge(soc::Soc &s, mem::Addr src, unsigned n_sketches,
                 std::uint32_t m, mem::Addr dst)
{
    soc::Soc *sp = &s;
    s.start(0, [sp, src, n_sketches, m, dst](core::DpCore &c) {
        rt::DmsCtl ctl(c, sp->dmsFor(c.id()));
        std::vector<std::uint8_t> merged(m, 0);
        std::uint64_t pos = 0;
        rt::StreamReader in(ctl, src, std::uint64_t(n_sketches) * m, 0,
                            2048, 2, 0, 0);
        in.forEach([&](std::uint32_t off, std::uint32_t blen) {
            for (std::uint32_t i = 0; i < blen; ++i) {
                const std::uint8_t r =
                    c.dmem().load<std::uint8_t>(off + i);
                std::uint8_t &cell = merged[(pos + i) % m];
                cell = std::max(cell, r);
            }
            c.dualIssue(blen / 4, blen / 4);
            pos += blen;
        });
        const std::uint32_t out_off = 0x4000;
        c.dmem().write(out_off, merged.data(), m);
        c.dualIssue(m / 8, m / 8);
        apps::dumpToDdr(ctl, std::uint16_t(out_off), dst, m);
    });
}

} // namespace

DistHllResult
runDistributedHll(Board &b, const DistHllConfig &cfg)
{
    DistHllResult res;
    const unsigned n = b.nDpus();
    const std::uint32_t m = 1u << cfg.pBits;
    sim_assert(m <= 4096, "board HLL keeps the sketch in DMEM");
    sim_assert(cfg.nLanes >= 1 && cfg.nLanes <= 32,
               "board HLL lanes must fit one DPU");

    const mem::Addr data_base = 0x100000;
    const mem::Addr lane_regs = apps::alignUp(
        data_base + cfg.elementsPerDpu * 8 + 4096, 4096);
    const mem::Addr dpu_sketch =
        apps::alignUp(lane_regs + std::uint64_t(cfg.nLanes) * m,
                      4096);
    const mem::Addr recv_sketch = dpu_sketch + apps::alignUp(m, 4096);
    const mem::Addr final_sketch =
        recv_sketch + apps::alignUp(std::uint64_t(n) * m, 4096);
    sim_assert(final_sketch + m <= b.dpu(0).params().ddrBytes,
               "board HLL layout overruns DDR");

    // Stage each DPU's stream, replay it host-side through the same
    // CRC composition into the sketch the board must merge, and add
    // its values to the sorted distinct set.
    std::vector<std::uint8_t> expect(m, 0);
    std::vector<std::uint64_t> distinct, merged;
    for (unsigned d = 0; d < n; ++d) {
        std::vector<std::uint64_t> data =
            apps::hlldetail::makeElements(hllGen(cfg, d));
        apps::stage(b.dpu(d), data_base, data);
        for (std::uint64_t e : data)
            apps::hlldetail::update(
                apps::hlldetail::hostHash(e, apps::HllHash::Crc32),
                cfg.pBits, true, expect);
        std::sort(data.begin(), data.end());
        data.erase(std::unique(data.begin(), data.end()), data.end());
        merged.clear();
        std::set_union(distinct.begin(), distinct.end(), data.begin(),
                       data.end(), std::back_inserter(merged));
        distinct.swap(merged);
    }

    // ------------------------------------------------------------
    // Phase 1: per-lane sketches (CRC32 + NTZ, Section 5.4).
    // ------------------------------------------------------------
    for (unsigned d = 0; d < n; ++d) {
        soc::Soc *s = &b.dpu(d);
        for (unsigned lane = 0; lane < cfg.nLanes; ++lane) {
            s->start(lane, [s, lane, cfg, m, data_base,
                            lane_regs](core::DpCore &c) {
                const apps::Slice sl = apps::laneSlice(
                    cfg.elementsPerDpu, cfg.nLanes, lane);
                rt::DmsCtl ctl(c, s->dmsFor(c.id()));
                constexpr std::uint32_t tile = 4096;
                const std::uint32_t reg_off = 2 * tile;
                std::vector<std::uint8_t> regs(m, 0);
                if (sl.count) {
                    rt::StreamReader in(ctl, data_base + sl.begin * 8,
                                        sl.count * 8, 0, tile, 2, 0,
                                        0);
                    in.forEach([&](std::uint32_t off,
                                   std::uint32_t blen) {
                        for (std::uint32_t i = 0; i < blen; i += 8)
                            apps::hlldetail::dpuStep(
                                c, c.dmem().load<std::uint64_t>(off + i),
                                apps::HllHash::Crc32, cfg.pBits, true,
                                regs);
                    });
                }
                c.dmem().write(reg_off, regs.data(), m);
                c.dualIssue(m / 8, m / 8);
                apps::dumpToDdr(ctl, std::uint16_t(reg_off),
                                lane_regs + std::uint64_t(lane) * m, m);
            });
        }
    }
    b.run();
    if (!b.allFinished())
        return res;

    // ------------------------------------------------------------
    // Phase 2: on-chip max-merge of the lane sketches (core 0).
    // ------------------------------------------------------------
    for (unsigned d = 0; d < n; ++d)
        startSketchMerge(b.dpu(d), lane_regs, cfg.nLanes, m, dpu_sketch);
    b.run();
    if (!b.allFinished())
        return res;

    // ------------------------------------------------------------
    // Phase 3: ship every chip sketch to DPU 0 over the fabric
    // (DPU 0's own sketch moves locally, host-side).
    // ------------------------------------------------------------
    std::vector<std::uint64_t> dmaFails(n, 0);
    {
        std::vector<std::uint8_t> own(m);
        b.dpu(0).memory().store().read(dpu_sketch, own.data(), m);
        b.dpu(0).memory().store().write(recv_sketch, own.data(), m);
    }
    for (unsigned d = 1; d < n; ++d)
        b.dma(d, dpu_sketch, 0,
              recv_sketch + std::uint64_t(d) * m, m,
              [fail = &dmaFails[d]](bool ok) { *fail += !ok; });
    b.run();
    for (std::uint64_t f : dmaFails)
        if (f)
            return res;

    // ------------------------------------------------------------
    // Phase 4: DPU 0 merges the board sketch.
    // ------------------------------------------------------------
    startSketchMerge(b.dpu(0), recv_sketch, n, m, final_sketch);
    b.run();
    if (!b.allFinished())
        return res;

    auto got =
        apps::unstage<std::uint8_t>(b.dpu(0), final_sketch, m);
    res.sketchExact = got == expect;
    res.trueDistinct = distinct.size();
    res.estimate = apps::hlldetail::estimate(got);
    res.errorFrac =
        std::abs(res.estimate - double(res.trueDistinct)) /
        double(res.trueDistinct);
    res.seconds = b.seconds();
    res.valid = res.sketchExact && res.errorFrac < 0.15;
    return res;
}

} // namespace dpu::board
