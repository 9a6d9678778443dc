/**
 * @file
 * SQL offload scenario (the paper's headline use case): a host —
 * the A9 complex, standing in for the commercial database the DPU
 * attaches to — posts query descriptors to the dpCores through the
 * MailBox Controller; the chip executes them with hardware
 * partitioning and DMEM-resident operators and reports
 * per-query results and perf/watt against the Xeon baseline. Exits
 * non-zero if any query's result differs from the baseline's.
 *
 *   $ ./sql_offload [scale]
 */

#include <cstdio>
#include <cstdlib>

#include "apps/sql/tpch.hh"

using namespace dpu;
using namespace dpu::apps::sql;

int
main(int argc, char **argv)
{
    sim::setVerbose(false);
    TpchConfig cfg;
    cfg.scale = argc > 1 ? std::atof(argv[1]) : 1.0;

    std::printf("TPCH-like offload, scale %.2f: lineitem=%u rows, "
                "orders=%u, customer=%u, part=%u\n\n",
                cfg.scale, cfg.nLineitem(), cfg.nOrders(),
                cfg.nCustomers(), cfg.nParts());

    const double watt_ratio =
        soc::xeonTdpWatts / soc::dpu40nm().provisionedWatts;
    bool all_ok = true;
    for (const char *q : tpchQueries) {
        QueryResult d = dpuTpch(soc::dpu40nm(), cfg, q);
        QueryResult x = xeonTpch(cfg, q);
        bool ok = d.values == x.values;
        all_ok = all_ok && ok;
        double gain = (x.seconds / d.seconds) * watt_ratio;
        std::printf("%-4s  dpu %8.1f us   results %s   perf/watt "
                    "gain %5.2fx\n", q, d.seconds * 1e6,
                    ok ? "verified" : "MISMATCH", gain);
        int shown = 0;
        for (const auto &[k, v] : d.values) {
            if (shown++ == 3) {
                std::printf("        ...\n");
                break;
            }
            std::printf("        %-16s = %llu\n", k.c_str(),
                        (unsigned long long)v);
        }
    }
    return all_ok ? 0 : 1;
}
