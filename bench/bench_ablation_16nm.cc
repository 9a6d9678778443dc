/**
 * @file
 * Section 2.5 ablation: the 16 nm process shrink (five 32-core
 * complexes, 160 dpCores, 76 GB/s DDR4-class memory, 12 W) against
 * the fabricated 40 nm part. The paper claims the shrink is 2.5x
 * more efficient in performance/watt ("with a 5x increase in
 * compute and memory bandwidth, each DPU becomes 2.5x more
 * efficient"). Measured on the bandwidth-bound filter primitive and
 * on group-by.
 */

#include "apps/json.hh"
#include "apps/sql/filter.hh"
#include "bench/report.hh"

using namespace dpu;
using namespace dpu::apps::sql;

int
main(int argc, char **argv)
{
    sim::setVerbose(false);
    const bool smoke = bench::smokeRun(argc, argv);
    bench::header("Section 2.5", "16 nm shrink vs 40 nm (perf/watt)");

    // Filter: bandwidth bound on both configs.
    FilterConfig fcfg;
    fcfg.rowsPerCore = smoke ? 32 << 10 : 128 << 10;
    fcfg.nCores = 32;
    FilterResult f40 = dpuFilter(soc::dpu40nm(), fcfg);
    FilterConfig fcfg16 = fcfg;
    fcfg16.nCores = 160;
    FilterResult f16 = dpuFilter(soc::dpu16nm(), fcfg16);

    const double w40 = soc::dpu40nm().provisionedWatts;
    const double w16 = soc::dpu16nm().provisionedWatts;
    double f40_ppw = f40.gbPerSec() / w40;
    double f16_ppw = f16.gbPerSec() / w16;
    bench::row("  filter: 40nm %6.2f GB/s @%.0fW   16nm %6.2f GB/s"
               " @%.0fW", f40.gbPerSec(), w40, f16.gbPerSec(), w16);
    bench::compare("filter perf/watt improvement", 2.5,
                   f16_ppw / f40_ppw, "x");

    // JSON parsing: compute bound, so the shrink's benefit is the
    // 5x core count at 2x power — the paper's 2.5x exactly.
    apps::JsonConfig j;
    j.nRecords = smoke ? 8 << 10 : 48 << 10;
    apps::JsonResult j40 = apps::dpuJson(soc::dpu40nm(), j);
    apps::JsonConfig j16 = j;
    j16.nCores = 160;
    apps::JsonResult j16r = apps::dpuJson(soc::dpu16nm(), j16);
    double j_ratio = (j16r.gbPerSec() / w16) / (j40.gbPerSec() / w40);
    bench::row("  JSON: 40nm %6.2f GB/s @%.0fW   16nm %6.2f GB/s @%.0fW",
               j40.gbPerSec(), w40, j16r.gbPerSec(), w16);
    bench::compare("JSON (compute-bound) perf/watt", 2.5, j_ratio,
                   "x");
    return 0;
}
