#include "apps/hll.hh"

#include "apps/entry.hh"

#include <cmath>
#include <vector>

#include "rt/dms_ctl.hh"
#include "rt/sync.hh"
#include "sim/rng.hh"

namespace dpu::apps {

namespace hlldetail {

/** Synthetic multiset with a known number of distinct values. */
std::vector<std::uint64_t>
makeElements(const HllConfig &cfg)
{
    std::vector<std::uint64_t> v(cfg.nElements);
    sim::Rng rng{cfg.seed};
    for (auto &e : v) {
        // Distinct values are a bijective mix of 0..cardinality-1.
        std::uint64_t x = rng.below(cfg.cardinality);
        x = (x + 0x9e3779b97f4a7c15ull) * 0xbf58476d1ce4e5b9ull;
        e = x;
    }
    return v;
}

/** Standard HLL harmonic-mean estimate with small-range correction. */
double
estimate(const std::vector<std::uint8_t> &regs)
{
    const double m = double(regs.size());
    double sum = 0;
    unsigned zeros = 0;
    for (std::uint8_t r : regs) {
        sum += rankTerm(r);
        zeros += r == 0;
    }
    const double alpha = 0.7213 / (1.0 + 1.079 / m);
    double e = alpha * m * m / sum;
    if (e <= 2.5 * m && zeros > 0)
        e = m * std::log(m / zeros);
    return e;
}

} // namespace hlldetail

using hlldetail::dpuStep;
using hlldetail::estimate;
using hlldetail::hostHash;
using hlldetail::makeElements;
using hlldetail::update;

HllResult
dpuHll(const soc::SocParams &params, const HllConfig &cfg)
{
    const std::uint64_t bytes = cfg.nElements * 8;
    const std::uint64_t chunk_bytes = 64 << 10;
    const std::uint64_t n_chunks =
        (bytes + chunk_bytes - 1) / chunk_bytes;
    const std::uint32_t m = 1u << cfg.pBits;
    const mem::Addr data_base = 0;
    const mem::Addr regs_base = alignUp(bytes + 4096, 4096);
    soc::Soc s(params);

    stage(s, data_base, makeElements(cfg));

    // DMEM layout: stream tiles 2 x 8 KB at 0; registers at 16 KB.
    constexpr std::uint32_t tile = 8192;
    constexpr std::uint32_t regOff = 16 * 1024;
    constexpr std::uint32_t syncOff = 26 * 1024;
    sim_assert(m <= 8 * 1024, "register file exceeds DMEM budget");

    s.core(0).dmem().store<std::uint64_t>(syncOff, 0);
    rt::AteCounter stealer(0, syncOff);
    rt::AteBarrier barrier(0, syncOff + 8, cfg.nCores);

    for (unsigned id = 0; id < cfg.nCores; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            rt::DmsCtl ctl(c, s.dmsFor(id));
            ate::Ate &ate = s.ateFor(id);

            c.dmem().zero(regOff, m);
            c.dualIssue(m / 8, m / 8);

            std::vector<std::uint8_t> regs(m, 0);
            // Work stealing over 64 KB chunks (Section 5.4).
            while (true) {
                std::uint64_t j = stealer.next(c, ate);
                if (j >= n_chunks)
                    break;
                ctl.resetArena();
                std::uint64_t off = j * chunk_bytes;
                std::uint64_t len =
                    std::min(chunk_bytes, bytes - off);
                rt::StreamReader in(ctl, data_base + off, len, 0,
                                    tile, 2, 0, 0);
                in.forEach([&](std::uint32_t boff,
                               std::uint32_t blen) {
                    for (std::uint32_t i = 0; i < blen; i += 8)
                        dpuStep(c,
                                c.dmem().load<std::uint64_t>(boff + i),
                                cfg.hash, cfg.pBits, cfg.useNtz, regs);
                });
            }

            // Publish registers (DMEM -> DDR) and merge at core 0.
            c.dmem().write(regOff, regs.data(), m);
            c.dualIssue(m / 8, m / 8);
            ctl.dmemToDdr().rows(m / 4).width(4)
                .from(regOff)
                .to(regs_base + std::uint64_t(id) * m)
                .event(4).noAutoInc().push(1);
            ctl.wfe(4);
            ctl.clearEvent(4);

            barrier.arrive(c, ate);

            if (id == 0) {
                // Max-merge the 32 register files; tiny next to the
                // scan.
                rt::StreamReader tabs(ctl, regs_base,
                                      std::uint64_t(cfg.nCores) * m,
                                      0, tile, 2, 0, 0);
                std::vector<std::uint8_t> merged(m, 0);
                std::uint32_t k = 0;
                tabs.forEach([&](std::uint32_t boff,
                                 std::uint32_t blen) {
                    for (std::uint32_t i = 0; i < blen; ++i) {
                        std::uint8_t r =
                            c.dmem().load<std::uint8_t>(boff + i);
                        if (r > merged[k])
                            merged[k] = r;
                        k = (k + 1) % m;
                    }
                    c.dualIssue(blen, blen);
                });
                c.dmem().write(regOff, merged.data(), m);
                ctl.dmemToDdr().rows(m / 4).width(4)
                    .from(regOff).to(regs_base)
                    .event(5).noAutoInc().push(1);
                ctl.wfe(5);
            }
        });
    }
    sim::Tick t = s.run();
    sim_assert(s.allFinished(), "HLL kernels deadlocked");

    HllResult r;
    r.seconds = double(t) * 1e-12;
    r.elements = cfg.nElements;
    auto merged = unstage<std::uint8_t>(s, regs_base, m);
    r.estimate = estimate(merged);
    return r;
}

HllResult
xeonHll(const HllConfig &cfg)
{
    auto data = makeElements(cfg);
    const std::uint32_t m = 1u << cfg.pBits;
    std::vector<std::uint8_t> regs(m, 0);
    for (std::uint64_t e : data)
        update(hostHash(e, cfg.hash), cfg.pBits, cfg.useNtz, regs);

    xeon::XeonModel model;
    const double n = double(cfg.nElements);
    model.streamBytes(n * 8);
    if (cfg.hash == HllHash::Crc32) {
        // SSE4.2 CRC32 runs at ~1/cycle; a few uops around it.
        model.scalarOps(n * 5);
    } else {
        // Murmur is ~10 fast uops on a full multiplier.
        model.scalarOps(n * 10);
    }
    model.scalarOps(n * 4); // tzcnt + register update
    model.serialOps(double(m) * 36);
    model.endPhase();

    HllResult r;
    r.seconds = model.seconds();
    r.elements = cfg.nElements;
    r.estimate = estimate(regs);
    return r;
}

AppResult
hllApp(const HllConfig &cfg)
{
    HllResult d = dpuHll(soc::dpu40nm(), cfg);
    HllResult x = xeonHll(cfg);
    AppResult r;
    r.name = cfg.hash == HllHash::Crc32 ? "HLL (CRC32)"
                                        : "HLL (Murmur64)";
    r.dpuSeconds = d.seconds;
    r.xeonSeconds = x.seconds;
    r.workUnits = double(cfg.nElements);
    r.unitName = "elements";
    // Same hash + same estimator on both sides: exact agreement,
    // and both must sit near the true cardinality.
    double err = std::abs(d.estimate - double(cfg.cardinality)) /
                 double(cfg.cardinality);
    r.matched = d.estimate == x.estimate && err < 0.05;
    return r;
}

} // namespace dpu::apps
