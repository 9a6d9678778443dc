/**
 * @file
 * Figure 13: bandwidth of the DMS partitioning engine for the three
 * schemes (CRC hash-radix, raw radix, range), 32-way partitioning
 * of a four-column table. The paper reports ~9.3 GB/s for every
 * scheme — ahead of HARP's published 6 GB/s — and notes an
 * additional 32-way SOFTWARE partition can ride along at the same
 * rate (the 1024-way point), which the high-NDV group-by phase A
 * measures here.
 */

#include "apps/sql/groupby.hh"
#include "bench/report.hh"
#include "rt/partition.hh"
#include "sim/rng.hh"
#include "soc/soc.hh"

using namespace dpu;

namespace {

double
run(const rt::PartitionScheme &scheme, std::uint32_t rows)
{
    soc::Soc s;

    sim::Rng rng{3};
    for (std::uint32_t r = 0; r < rows; ++r)
        for (unsigned col = 0; col < 4; ++col)
            s.memory().store().store<std::uint32_t>(
                0x100000 + (mem::Addr(col) * rows + r) * 4,
                std::uint32_t(rng.next()));

    for (unsigned id = 0; id < 32; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            rt::DmsCtl ctl(c, s.dms());
            if (id == 0) {
                rt::PartitionJob job;
                job.table = 0x100000;
                job.nRows = rows;
                job.nCols = 4;
                job.colWidth = 4;
                job.colStride = rows * 4;
                job.scheme = scheme;
                job.dstBufBytes = 4096 + 4;
                rt::runPartition(ctl, job);
            }
            rt::consumePartition(
                ctl, 0, 4096 + 4, 2, 16,
                [&](std::uint32_t, std::uint32_t n) {
                    c.dualIssue(n, n); // cheap consumption
                });
            if (id == 0) {
                ctl.wfe(30);
                ctl.clearEvent(30);
            }
        });
    }
    sim::Tick t = s.run();
    return rows * 16.0 / (double(t) * 1e-12) / 1e9;
}

} // namespace

int
main(int argc, char **argv)
{
    sim::setVerbose(false);
    const bool smoke = bench::smokeRun(argc, argv);
    const std::uint32_t rows = smoke ? 50'000 : 200'000;
    bench::header("Figure 13", "DMS partitioning bandwidth, 32-way");

    rt::PartitionScheme hash;
    double gb_hash = run(hash, rows);

    rt::PartitionScheme radix;
    radix.kind = rt::PartitionScheme::Kind::RawRadix;
    radix.radixBits = 5;
    double gb_radix = run(radix, rows);

    rt::PartitionScheme range;
    range.kind = rt::PartitionScheme::Kind::Range;
    for (unsigned i = 0; i < 32; ++i)
        range.bounds.push_back(
            i == 31 ? ~0ull
                    : (std::uint64_t(i + 1) << 59) - 1);
    double gb_range = run(range, rows);

    bench::compare("hash (CRC32) partition", 9.3, gb_hash, "GB/s");
    bench::compare("radix (5 key bits) partition", 9.3, gb_radix,
                   "GB/s");
    bench::compare("range (32 bounds) partition", 9.3, gb_range,
                   "GB/s");
    bench::compare("HARP (prior accelerator, for reference)", 6.0,
                   gb_hash, "GB/s");

    // The 1024-way point: hardware 32-way + concurrent software
    // 32-way (the high-NDV group-by's phase A sustains it).
    apps::sql::GroupByConfig cfg;
    cfg.nRows = smoke ? 1 << 18 : 1 << 20;
    cfg.ndv = smoke ? 16 << 10 : 256 << 10;
    auto r = apps::sql::dpuGroupByHighNdv(soc::dpu40nm(), cfg);
    // Phase A is roughly half the total; report the whole-plan rate
    // as the conservative lower bound on the 1024-way rate.
    bench::row("  1024-way (hw x sw) sustained >= %.2f GB/s over the"
               " full two-phase plan (paper: 9 GB/s in phase A)",
               r.gbPerSec());
    return 0;
}
