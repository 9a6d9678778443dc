#include "apps/sql/filter.hh"

#include "apps/entry.hh"

#include <vector>

#include "rt/dms_ctl.hh"
#include "sim/rng.hh"

namespace dpu::apps::sql {

namespace {

/** Generate the column: uniform 0..999 so selectivity = span/1000. */
std::vector<std::uint32_t>
makeColumn(std::uint64_t rows, std::uint64_t seed)
{
    std::vector<std::uint32_t> col(rows);
    sim::Rng rng{seed};
    for (auto &v : col)
        v = std::uint32_t(rng.below(1000));
    return col;
}

} // namespace

FilterResult
dpuFilter(const soc::SocParams &params, const FilterConfig &cfg)
{
    const std::uint64_t total_rows =
        std::uint64_t(cfg.rowsPerCore) * cfg.nCores;
    const std::uint64_t col_bytes = total_rows * 4;
    const mem::Addr col_base = 0;
    const mem::Addr bv_base = alignUp(col_bytes + (64 << 10), 4096);
    soc::Soc s(params);

    auto col = makeColumn(total_rows, cfg.seed);
    stage(s, col_base, col);

    std::vector<std::uint64_t> passed(cfg.nCores, 0);
    for (unsigned id = 0; id < cfg.nCores; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            rt::DmsCtl ctl(c, s.dmsFor(id));
            const std::uint64_t my_bytes =
                std::uint64_t(cfg.rowsPerCore) * 4;
            const mem::Addr my_col = col_base + id * my_bytes;
            const mem::Addr my_bv =
                bv_base + id * (cfg.rowsPerCore / 8);

            // Selection bit vectors accumulate in DMEM behind the
            // input tiles and drain via the write channel.
            const std::uint32_t in_base = 0;
            const std::uint32_t bv_off = 2 * cfg.tileBytes;
            const std::uint32_t bv_buf = cfg.tileBytes / 32;

            rt::StreamWriter writer(ctl, my_bv, std::uint16_t(bv_off),
                                    std::max(bv_buf, 64u), 2, 8, 1);

            rt::StreamReader reader(ctl, my_col, my_bytes,
                                    std::uint16_t(in_base),
                                    cfg.tileBytes, 2, 0);
            std::uint64_t hits = 0;
            reader.forEach([&](std::uint32_t off,
                               std::uint32_t bytes) {
                std::uint32_t n = bytes / 4;
                std::uint32_t out = writer.acquire();
                hits += c.filt(off, n, 4, cfg.lo, cfg.hi, out);
                writer.commit(alignUp(n / 8, 4));
            });
            writer.finish();
            passed[id] = hits;
        });
    }
    sim::Tick t = s.run();

    FilterResult r;
    r.seconds = double(t) * 1e-12;
    r.rows = total_rows;
    for (auto h : passed)
        r.passed += h;
    return r;
}

FilterResult
xeonFilter(const FilterConfig &cfg)
{
    const std::uint64_t total_rows =
        std::uint64_t(cfg.rowsPerCore) * cfg.nCores;
    auto col = makeColumn(total_rows, cfg.seed);

    // Functional AVX2-style loop: 8-lane compare + movemask.
    std::uint64_t passed = 0;
    for (std::uint32_t v : col)
        passed += (v >= cfg.lo && v <= cfg.hi);

    xeon::XeonModel m;
    // Two vector compares + and + movemask per 8 lanes: ~4 element
    // ops per tuple; the stream bound dominates in practice.
    m.simdOps(double(total_rows) * 4);
    m.streamBytes(double(total_rows) * 4);
    m.streamBytes(double(total_rows) / 8 * 2); // RFO + write
    m.endPhase();

    FilterResult r;
    r.seconds = m.seconds();
    r.rows = total_rows;
    r.passed = passed;
    return r;
}

AppResult
filterApp(const FilterConfig &cfg)
{
    FilterResult d = dpuFilter(soc::dpu40nm(), cfg);
    FilterResult x = xeonFilter(cfg);
    AppResult r;
    r.name = "SQL filter";
    r.dpuSeconds = d.seconds;
    r.xeonSeconds = x.seconds;
    r.workUnits = double(d.rows);
    r.unitName = "tuples";
    r.matched = d.passed == x.passed;
    return r;
}

} // namespace dpu::apps::sql
