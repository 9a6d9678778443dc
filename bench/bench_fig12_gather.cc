/**
 * @file
 * Figure 12: DMS gather bandwidth with a dense (0xF7) and a sparse
 * (0x13) bit vector. The first-silicon RTL bug forces the software
 * workaround — only ONE dpCore may have a gather outstanding — so
 * the measured aggregate is far below line rate ("hence the low
 * gather bandwidth", Section 3.4). A fixed-RTL run (all 32 cores
 * gathering concurrently) is included as the ablation.
 */

#include <vector>

#include "bench/report.hh"
#include "rt/dms_ctl.hh"
#include "rt/sync.hh"
#include "soc/soc.hh"

using namespace dpu;

namespace {

/**
 * @param pattern     Repeating 8-row selection mask.
 * @param concurrent  Fixed-RTL mode: every core gathers at once.
 *                    Otherwise a global ATE lock serializes issuers
 *                    (the paper's workaround).
 * @return aggregate useful bandwidth in GB/s (selected bytes/time).
 */
double
run(std::uint8_t pattern, bool concurrent)
{
    soc::SocParams p = soc::dpu40nm();
    p.dms.emulateGatherBug = !concurrent;
    soc::Soc s(p);

    const std::uint32_t rows_per_op = 4096; // 16 KB scanned / op
    const unsigned ops_per_core = 24;
    std::vector<std::uint8_t> mask(rows_per_op / 8, pattern);
    const unsigned sel_per_op =
        unsigned(__builtin_popcount(pattern)) * rows_per_op / 8;

    rt::AteMutex gather_lock(0, 26 * 1024);

    for (unsigned id = 0; id < 32; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            rt::DmsCtl ctl(c, s.dms());
            c.dmem().write(20 * 1024, mask.data(), mask.size());

            dms::Descriptor bv;
            bv.type = dms::DescType::DmemToDms;
            bv.rows = std::uint32_t(mask.size());
            bv.ibank = id % dms::nBvBanks;
            bv.dmemAddr = 20 * 1024;
            bv.notifyEvent = 1;

            dms::Descriptor g;
            g.type = dms::DescType::DdrToDmem;
            g.gatherSrc = true;
            g.ibank = id % dms::nBvBanks;
            g.rows = rows_per_op;
            g.colWidth = 4;
            g.dmemAddr = 0;
            g.notifyEvent = 2;

            for (unsigned op = 0; op < ops_per_core; ++op) {
                if (!concurrent)
                    gather_lock.lock(c, s.ate());
                ctl.resetArena();
                ctl.push(ctl.setup(bv));
                ctl.wfe(1);
                ctl.clearEvent(1);
                g.ddrAddr = (mem::Addr(id) * ops_per_core + op) *
                            rows_per_op * 4;
                ctl.push(ctl.setup(g));
                ctl.wfe(2);
                ctl.clearEvent(2);
                if (!concurrent)
                    gather_lock.unlock(c, s.ate());
                c.dualIssue(sel_per_op, sel_per_op / 2);
            }
        });
    }
    sim::Tick t = s.run();
    double useful = 32.0 * ops_per_core * sel_per_op * 4;
    return useful / (double(t) * 1e-12) / 1e9;
}

} // namespace

int
main()
{
    sim::setVerbose(false);
    bench::header("Figure 12", "DMS gather bandwidth (bit vector)");

    double dense_wa = run(0xF7, false);
    double sparse_wa = run(0x13, false);
    bench::row("  %-34s %8.3f GB/s", "dense 0xF7 (bug workaround)",
               dense_wa);
    bench::row("  %-34s %8.3f GB/s", "sparse 0x13 (bug workaround)",
               sparse_wa);

    double dense_fix = run(0xF7, true);
    double sparse_fix = run(0x13, true);
    bench::row("  %-34s %8.3f GB/s", "dense 0xF7 (fixed RTL)",
               dense_fix);
    bench::row("  %-34s %8.3f GB/s", "sparse 0x13 (fixed RTL)",
               sparse_fix);

    bench::row("\n  paper shape: the single-issuer workaround keeps"
               " gather far below line rate; dense > sparse; fixed"
               " RTL recovers several GB/s.");
    return 0;
}
