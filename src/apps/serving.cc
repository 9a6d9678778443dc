#include "apps/serving.hh"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "rt/dms_ctl.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace dpu::apps::serving {

// Every job generates its input once, in stage(), and from that same
// buffer computes the answer its lanes must leave in DDR. The answer
// is all a job keeps while in flight; validate() reads the lanes'
// output back and compares.

namespace {

/** Sum of the one result word each lane dumps at @p base. */
std::uint64_t
sumLaneWords(soc::Soc &s, mem::Addr base, unsigned n_lanes)
{
    std::uint64_t sum = 0;
    for (std::uint64_t w : unstage<std::uint64_t>(s, base, n_lanes))
        sum += w;
    return sum;
}

} // namespace

// ----------------------------------------------------------------
// SQL filter: FILT scan over a uint32 column slice
// ----------------------------------------------------------------

ServingJob
filterJob(const sql::FilterConfig &cfg, const ServingContext &ctx)
{
    const std::uint64_t rows =
        std::uint64_t(cfg.rowsPerCore) * ctx.nLanes;
    const std::uint32_t tile = std::min<std::uint32_t>(
        cfg.tileBytes ? cfg.tileBytes : 8192, 8192);
    sim_assert(tile % 4 == 0, "tile must be element aligned");
    const mem::Addr data_base = ctx.arena;
    const mem::Addr res_base = ctx.arena + alignUp(rows * 4, 64);
    sim_assert(res_base + ctx.nLanes * 8 <=
                   ctx.arena + ctx.arenaBytes,
               "filter job overruns its arena");

    soc::Soc *s = ctx.soc;
    const std::uint64_t seed = ctx.seed ^ cfg.seed;
    auto want = std::make_shared<std::uint64_t>(0); // rows passing

    ServingJob job;
    job.stage = [=] {
        sim::Rng rng{seed};
        std::vector<std::uint32_t> v(rows);
        std::uint64_t passed = 0;
        for (auto &x : v) {
            x = std::uint32_t(rng.below(1000));
            passed += x >= cfg.lo && x <= cfg.hi;
        }
        stage(*s, data_base, v);
        *want = passed;
    };
    job.lane = [=](core::DpCore &c, unsigned lane) {
        Slice sl = laneSlice(rows, ctx.nLanes, lane);
        if (!sl.count)
            return;
        rt::DmsCtl ctl(c, s->dmsFor(c.id()));
        const std::uint32_t bv_off = 2 * tile;
        std::uint64_t passed = 0;
        rt::StreamReader in(ctl, data_base + sl.begin * 4,
                            sl.count * 4, 0, tile, 2, 0, 0);
        in.forEach([&](std::uint32_t off, std::uint32_t blen) {
            passed += c.filt(off, blen / 4, 4, cfg.lo, cfg.hi,
                             bv_off);
        });
        const std::uint32_t out_off = bv_off + tile / 8;
        c.dmem().store<std::uint64_t>(out_off, passed);
        c.dualIssue(2, 2);
        dumpToDdr(ctl, std::uint16_t(out_off), res_base + lane * 8,
                  8);
    };
    job.validate = [=] {
        return sumLaneWords(*s, res_base, ctx.nLanes) == *want;
    };
    return job;
}

// ----------------------------------------------------------------
// Group-by (low NDV): per-lane DMEM sum tables, host merge
// ----------------------------------------------------------------

ServingJob
groupByJob(const sql::GroupByConfig &cfg, const ServingContext &ctx)
{
    sim_assert(cfg.ndv > 0 && cfg.ndv <= 1024,
               "serving group-by needs the table in DMEM (ndv %u)",
               cfg.ndv);
    const std::uint64_t rows = cfg.nRows;
    const std::uint32_t tab_bytes = cfg.ndv * 8;
    const mem::Addr data_base = ctx.arena; // (key,val) uint32 pairs
    const mem::Addr res_base = ctx.arena + alignUp(rows * 8, 64);
    sim_assert(res_base + std::uint64_t(ctx.nLanes) * tab_bytes <=
                   ctx.arena + ctx.arenaBytes,
               "group-by job overruns its arena");

    soc::Soc *s = ctx.soc;
    const std::uint64_t seed = ctx.seed ^ cfg.seed;
    // Per-key sums over every lane.
    auto want = std::make_shared<std::vector<std::uint64_t>>();

    ServingJob job;
    job.stage = [=] {
        sim::Rng rng{seed};
        std::vector<std::uint32_t> v(rows * 2);
        std::vector<std::uint64_t> sums(cfg.ndv, 0);
        for (std::uint64_t r = 0; r < rows; ++r) {
            v[r * 2] = std::uint32_t(rng.below(cfg.ndv));
            v[r * 2 + 1] = std::uint32_t(rng.below(1 << 16));
            sums[v[r * 2]] += v[r * 2 + 1];
        }
        stage(*s, data_base, v);
        *want = std::move(sums);
    };
    job.lane = [=](core::DpCore &c, unsigned lane) {
        Slice sl = laneSlice(rows, ctx.nLanes, lane);
        if (!sl.count)
            return;
        rt::DmsCtl ctl(c, s->dmsFor(c.id()));
        constexpr std::uint32_t tile = 8192;
        const std::uint32_t tab_off = 2 * tile;
        c.dmem().zero(tab_off, tab_bytes);
        c.dualIssue(cfg.ndv / 4 + 1, cfg.ndv / 4 + 1);

        rt::StreamReader in(ctl, data_base + sl.begin * 8,
                            sl.count * 8, 0, tile, 2, 0, 0);
        std::uint8_t *const dmem = c.dmem().raw();
        in.forEach([&](std::uint32_t off, std::uint32_t blen) {
            // The tile is checked once and read as (key, val) pairs;
            // a key's table cell is checked as it is reached.
            sim_assert(off + std::uint64_t(blen + 7) / 8 * 8 <=
                           mem::Dmem::size,
                       "group-by tile out of DMEM: %u bytes at %u",
                       blen, off);
            for (std::uint32_t i = 0; i < blen; i += 8) {
                std::uint32_t pair[2];
                std::memcpy(pair, dmem + off + i, 8);
                const std::uint32_t at = tab_off + pair[0] * 8;
                sim_assert(at <= mem::Dmem::size - 8,
                           "group-by key %u's cell out of DMEM",
                           pair[0]);
                std::uint64_t sum;
                std::memcpy(&sum, dmem + at, 8);
                sum += pair[1];
                std::memcpy(dmem + at, &sum, 8);
                // 2 loads + rmw, paired with index arithmetic.
                c.dualIssue(3, 3);
            }
        });
        dumpToDdr(ctl, std::uint16_t(tab_off),
                  res_base + std::uint64_t(lane) * tab_bytes,
                  tab_bytes);
    };
    job.validate = [=] {
        const auto tables = unstage<std::uint64_t>(
            *s, res_base, std::size_t(ctx.nLanes) * cfg.ndv);
        std::vector<std::uint64_t> got(cfg.ndv, 0);
        for (std::size_t at = 0; at < tables.size(); at += cfg.ndv)
            for (std::uint32_t g = 0; g < cfg.ndv; ++g)
                got[g] += tables[at + g];
        return got == *want;
    };
    return job;
}

// ----------------------------------------------------------------
// HLL: per-lane register files, merged and replayed host-side
// ----------------------------------------------------------------

ServingJob
hllJob(const HllConfig &cfg, const ServingContext &ctx)
{
    const std::uint32_t m = 1u << cfg.pBits;
    sim_assert(m <= 8 * 1024, "register file exceeds DMEM budget");
    const std::uint64_t n = cfg.nElements;
    const mem::Addr data_base = ctx.arena;
    const mem::Addr res_base = ctx.arena + alignUp(n * 8, 64);
    sim_assert(res_base + std::uint64_t(ctx.nLanes) * m <=
                   ctx.arena + ctx.arenaBytes,
               "HLL job overruns its arena");

    soc::Soc *s = ctx.soc;
    HllConfig gen = cfg;
    gen.seed = ctx.seed ^ cfg.seed;
    // Every lane's register file, laid out as the lanes dump them.
    auto want = std::make_shared<std::vector<std::uint8_t>>();

    ServingJob job;
    job.stage = [=] {
        const auto data = hlldetail::makeElements(gen);
        stage(*s, data_base, data);
        want->clear();
        std::vector<std::uint8_t> regs;
        for (unsigned l = 0; l < ctx.nLanes; ++l) {
            Slice sl = laneSlice(n, ctx.nLanes, l);
            regs.assign(m, 0);
            for (std::uint64_t i = 0; i < sl.count; ++i)
                hlldetail::update(
                    hlldetail::hostHash(data[sl.begin + i], cfg.hash),
                    cfg.pBits, cfg.useNtz, regs);
            want->insert(want->end(), regs.begin(), regs.end());
        }
    };
    job.lane = [=](core::DpCore &c, unsigned lane) {
        Slice sl = laneSlice(n, ctx.nLanes, lane);
        if (!sl.count)
            return;
        rt::DmsCtl ctl(c, s->dmsFor(c.id()));
        constexpr std::uint32_t tile = 4096;
        const std::uint32_t reg_off = 2 * tile;
        std::vector<std::uint8_t> regs(m, 0);
        c.dmem().zero(reg_off, m);
        c.dualIssue(m / 8, m / 8);

        rt::StreamReader in(ctl, data_base + sl.begin * 8,
                            sl.count * 8, 0, tile, 2, 0, 0);
        in.forEach([&](std::uint32_t off, std::uint32_t blen) {
            for (std::uint32_t i = 0; i < blen; i += 8)
                hlldetail::dpuStep(c,
                                   c.dmem().load<std::uint64_t>(off + i),
                                   cfg.hash, cfg.pBits, cfg.useNtz,
                                   regs);
        });
        c.dmem().write(reg_off, regs.data(), m);
        c.dualIssue(m / 8, m / 8);
        dumpToDdr(ctl, std::uint16_t(reg_off),
                  res_base + std::uint64_t(lane) * m, m);
    };
    job.validate = [=] {
        if (unstage<std::uint8_t>(*s, res_base, want->size()) != *want)
            return false;
        // The merged sketch must also estimate the true
        // cardinality within the usual HLL error band.
        std::vector<std::uint8_t> merged(m, 0);
        for (std::size_t at = 0; at < want->size(); at += m)
            for (std::uint32_t i = 0; i < m; ++i)
                merged[i] = std::max(merged[i], (*want)[at + i]);
        double err =
            std::abs(hlldetail::estimate(merged) -
                     double(cfg.cardinality)) /
            double(cfg.cardinality);
        return err < 0.1;
    };
    return job;
}

// ----------------------------------------------------------------
// JSON: boundary-exact per-lane parse, summed tallies
// ----------------------------------------------------------------

ServingJob
jsonJob(const JsonConfig &cfg, const ServingContext &ctx)
{
    JsonConfig gen = cfg;
    gen.seed = ctx.seed ^ cfg.seed;
    // Generate once at job-build time: the text's size fixes the
    // chunking and every lane's slice. The answer is the tally the
    // generator wrote, not a parse of the text.
    jsondetail::Records recs = jsondetail::makeRecords(gen);
    const std::uint64_t bytes = recs.text.size();
    const JsonTally want = recs.tally;
    constexpr std::uint32_t pad = 1024; // Section 5.5's padding
    const mem::Addr data_base = ctx.arena;
    const mem::Addr res_base = ctx.arena + alignUp(bytes + pad, 64);
    sim_assert(res_base + ctx.nLanes * 24 <=
                   ctx.arena + ctx.arenaBytes,
               "JSON job overruns its arena");
    const std::uint64_t chunk =
        ((bytes + ctx.nLanes - 1) / ctx.nLanes + 3) & ~3ull;

    soc::Soc *s = ctx.soc;

    ServingJob job;
    // Staging hands the text to DDR and drops the host copy.
    job.stage = [s, data_base, bytes,
                 text = std::move(recs.text)]() mutable {
        sim_assert(text.size() == bytes, "JSON job staged twice");
        s->memory().store().write(data_base, text.data(), bytes);
        std::string().swap(text);
    };
    job.lane = [=](core::DpCore &c, unsigned lane) {
        rt::DmsCtl ctl(c, s->dmsFor(c.id()));
        std::uint64_t begin = std::uint64_t(lane) * chunk;
        JsonTally t;
        if (begin < bytes) {
            unsigned lead = lane > 0 ? 1 : 0;
            begin -= lead;
            std::uint64_t want = std::min<std::uint64_t>(
                chunk + lead + pad, bytes - begin);
            std::vector<char> local;
            local.reserve(want);
            rt::StreamReader in(ctl, data_base + begin, want, 0,
                                8192, 3, 0, 0);
            in.forEach([&](std::uint32_t off, std::uint32_t blen) {
                std::size_t at = local.size();
                local.resize(at + blen);
                c.dmem().read(off, local.data() + at, blen);
            });
            std::uint64_t from = 0;
            if (lane > 0) {
                while (from < local.size() && local[from] != '\n')
                    ++from;
                ++from;
            }
            std::uint64_t to = std::min<std::uint64_t>(
                chunk + lead, local.size());
            while (to < local.size() && local[to - 1] != '\n')
                ++to;
            if (from < to) {
                std::uint64_t span = to - from;
                t = jsondetail::parseSpan(local.data() + from, span);
                // Same cost model as dpuJson (Section 5.5).
                if (cfg.branchyParser)
                    c.cycles(sim::Cycles(span * 33));
                else
                    c.cycles(sim::Cycles(span * 6));
                c.cycles(t.fields * 30);
            }
        }
        const std::uint32_t out_off = 24 * 1024;
        c.dmem().store<std::uint64_t>(out_off, t.records);
        c.dmem().store<std::uint64_t>(out_off + 8, t.fields);
        c.dmem().store<std::uint64_t>(out_off + 16, t.intSum);
        c.dualIssue(6, 6);
        dumpToDdr(ctl, out_off, res_base + lane * 24, 24);
    };
    job.validate = [=] {
        const auto w = unstage<std::uint64_t>(
            *s, res_base, std::size_t(ctx.nLanes) * 3);
        JsonTally got;
        for (std::size_t i = 0; i < w.size(); i += 3) {
            got.records += w[i];
            got.fields += w[i + 1];
            got.intSum += w[i + 2];
        }
        return got == want;
    };
    return job;
}

// ----------------------------------------------------------------
// SVM inference: classify a staged test batch against weights
// ----------------------------------------------------------------

ServingJob
svmJob(const SvmConfig &cfg, const ServingContext &ctx)
{
    const std::uint32_t dims = cfg.dims;
    sim_assert(dims > 0 && dims * 4 <= 2048,
               "weight vector must fit its DMEM slot");
    const std::uint64_t n = cfg.nTest;
    const std::uint32_t row_bytes = dims * 4;
    const mem::Addr w_base = ctx.arena;
    const mem::Addr x_base = ctx.arena + alignUp(row_bytes, 64);
    const mem::Addr res_base = x_base + alignUp(n * row_bytes, 64);
    sim_assert(res_base + ctx.nLanes * 8 <=
                   ctx.arena + ctx.arenaBytes,
               "SVM job overruns its arena");

    soc::Soc *s = ctx.soc;
    const std::uint64_t seed = ctx.seed ^ cfg.seed;
    auto want = std::make_shared<std::uint64_t>(0); // positive count

    ServingJob job;
    job.stage = [=] {
        sim::Rng rng{seed};
        // Weights first, then samples row-major.
        std::vector<std::int32_t> v(dims + n * std::uint64_t(dims));
        for (auto &x : v)
            x = std::int32_t(rng.below(2048)) - 1024;
        s->memory().store().write(w_base, v.data(), row_bytes);
        s->memory().store().write(x_base, v.data() + dims,
                                  n * std::uint64_t(row_bytes));
        std::uint64_t positive = 0;
        for (std::uint64_t r = 0; r < n; ++r) {
            std::int64_t dot = 0;
            for (std::uint32_t d = 0; d < dims; ++d)
                dot += std::int64_t(v[d]) * v[dims + r * dims + d];
            positive += dot > 0;
        }
        *want = positive;
    };
    job.lane = [=](core::DpCore &c, unsigned lane) {
        Slice sl = laneSlice(n, ctx.nLanes, lane);
        if (!sl.count)
            return;
        rt::DmsCtl ctl(c, s->dmsFor(c.id()));
        // Whole samples per tile so no row straddles a buffer.
        const std::uint32_t per_tile =
            std::max<std::uint32_t>(1, 4096 / row_bytes);
        const std::uint32_t tile = per_tile * row_bytes;
        const std::uint32_t w_off = 2 * tile;

        ctl.ddrToDmem().rows(dims).width(4).from(w_base).to(w_off)
            .event(7).noAutoInc().push(0);
        ctl.wfe(7);
        ctl.clearEvent(7);

        std::uint64_t positive = 0;
        rt::StreamReader in(ctl, x_base + sl.begin * row_bytes,
                            sl.count * row_bytes, 0, tile, 2, 0, 0);
        in.forEach([&](std::uint32_t off, std::uint32_t blen) {
            for (std::uint32_t r = 0; r < blen; r += row_bytes) {
                std::int64_t dot = 0;
                for (std::uint32_t d = 0; d < dims; ++d) {
                    std::int32_t w = std::int32_t(
                        c.dmem().load<std::uint32_t>(w_off + d * 4));
                    std::int32_t x =
                        std::int32_t(c.dmem().load<std::uint32_t>(
                            off + r + d * 4));
                    dot += std::int64_t(w) * x;
                    // Q10.22 MAC on the iterative multiplier.
                    c.mul(32);
                }
                positive += dot > 0;
                c.dualIssue(2, 2);
            }
        });
        const std::uint32_t out_off = w_off + 2048;
        c.dmem().store<std::uint64_t>(out_off, positive);
        c.dualIssue(2, 2);
        dumpToDdr(ctl, std::uint16_t(out_off), res_base + lane * 8,
                  8);
    };
    job.validate = [=] {
        return sumLaneWords(*s, res_base, ctx.nLanes) == *want;
    };
    return job;
}

// ----------------------------------------------------------------
// Similarity search: posting-list scan against a dense query table
// ----------------------------------------------------------------

ServingJob
simSearchJob(const SimSearchConfig &cfg, const ServingContext &ctx)
{
    sim_assert(cfg.vocab > 0 && cfg.vocab * 4 <= 8192,
               "serving simsearch needs the query table in DMEM");
    const std::uint64_t n_post =
        std::uint64_t(cfg.nDocs) * cfg.avgTermsPerDoc;
    const std::uint32_t q_bytes = cfg.vocab * 4;
    const mem::Addr q_base = ctx.arena;
    const mem::Addr p_base = ctx.arena + alignUp(q_bytes, 64);
    const mem::Addr res_base = p_base + alignUp(n_post * 8, 64);
    sim_assert(res_base + ctx.nLanes * 8 <=
                   ctx.arena + ctx.arenaBytes,
               "simsearch job overruns its arena");

    soc::Soc *s = ctx.soc;
    const std::uint64_t seed = ctx.seed ^ cfg.seed;
    auto want = std::make_shared<std::int64_t>(0); // summed score

    ServingJob job;
    job.stage = [=] {
        sim::Rng qrng{seed};
        std::vector<std::int32_t> q(cfg.vocab, 0);
        for (std::uint32_t t = 0; t < cfg.termsPerQuery; ++t)
            q[qrng.below(cfg.vocab)] =
                std::int32_t(1 + qrng.below(1 << 10));
        sim::Rng prng{seed + 1};
        std::vector<std::uint32_t> v(n_post * 2);
        std::int64_t score = 0;
        for (std::uint64_t i = 0; i < n_post; ++i) {
            v[i * 2] = std::uint32_t(prng.below(cfg.vocab));
            v[i * 2 + 1] = std::uint32_t(1 + prng.below(1 << 10));
            score += std::int64_t(q[v[i * 2]]) *
                     std::int32_t(v[i * 2 + 1]);
        }
        stage(*s, q_base, q);
        stage(*s, p_base, v);
        *want = score;
    };
    job.lane = [=](core::DpCore &c, unsigned lane) {
        Slice sl = laneSlice(n_post, ctx.nLanes, lane);
        if (!sl.count)
            return;
        rt::DmsCtl ctl(c, s->dmsFor(c.id()));
        constexpr std::uint32_t tile = 8192;
        const std::uint32_t q_off = 2 * tile;

        ctl.ddrToDmem().rows(cfg.vocab).width(4).from(q_base)
            .to(q_off).event(7).noAutoInc().push(0);
        ctl.wfe(7);
        ctl.clearEvent(7);

        std::int64_t score = 0;
        rt::StreamReader in(ctl, p_base + sl.begin * 8,
                            sl.count * 8, 0, tile, 2, 0, 0);
        in.forEach([&](std::uint32_t off, std::uint32_t blen) {
            for (std::uint32_t i = 0; i < blen; i += 8) {
                std::uint32_t term =
                    c.dmem().load<std::uint32_t>(off + i);
                std::int32_t qw = std::int32_t(
                    c.dmem().load<std::uint32_t>(q_off + term * 4));
                c.dualIssue(3, 3);
                if (qw) {
                    std::int32_t w =
                        std::int32_t(c.dmem().load<std::uint32_t>(
                            off + i + 4));
                    score += std::int64_t(qw) * w;
                    c.mul(32); // Q10.22 accumulate
                }
            }
        });
        const std::uint32_t out_off = q_off + q_bytes;
        c.dmem().store<std::uint64_t>(out_off,
                                      std::uint64_t(score));
        c.dualIssue(2, 2);
        dumpToDdr(ctl, std::uint16_t(out_off), res_base + lane * 8,
                  8);
    };
    job.validate = [=] {
        return sumLaneWords(*s, res_base, ctx.nLanes) ==
               std::uint64_t(*want);
    };
    return job;
}

// ----------------------------------------------------------------
// Disparity: row-banded SAD argmin over a shift range
// ----------------------------------------------------------------

namespace {

/** First-minimum SAD argmin shared by the lanes and stage(). */
std::uint8_t
sadArgmin(const std::uint8_t *left, const std::uint8_t *right,
          std::uint32_t width, std::uint32_t x, unsigned max_shift,
          unsigned window)
{
    const int hw = int(window) / 2;
    unsigned best = 0;
    std::int64_t best_sad = std::numeric_limits<std::int64_t>::max();
    for (unsigned sft = 0; sft <= max_shift; ++sft) {
        std::int64_t sad = 0;
        for (int dx = -hw; dx <= hw; ++dx) {
            int lx = int(x) + dx;
            int rx = lx - int(sft);
            if (lx < 0 || lx >= int(width) || rx < 0 ||
                rx >= int(width))
                continue;
            sad += std::abs(int(left[lx]) - int(right[rx]));
        }
        if (sad < best_sad) {
            best_sad = sad;
            best = sft;
        }
    }
    return std::uint8_t(best);
}

} // namespace

ServingJob
disparityJob(const DisparityConfig &cfg, const ServingContext &ctx)
{
    const std::uint32_t w = cfg.width, h = cfg.height;
    sim_assert(w % 4 == 0 && w <= 4096,
               "serving disparity row must fit a DMEM buffer");
    const std::uint64_t wh = std::uint64_t(w) * h;
    const mem::Addr l_base = ctx.arena;
    const mem::Addr r_base = ctx.arena + alignUp(wh, 64);
    const mem::Addr d_base = r_base + alignUp(wh, 64);
    sim_assert(d_base + alignUp(wh, 64) <= ctx.arena + ctx.arenaBytes,
               "disparity job overruns its arena");

    soc::Soc *s = ctx.soc;
    const std::uint64_t seed = ctx.seed ^ cfg.seed;
    auto want = std::make_shared<std::vector<std::uint8_t>>(); // map

    ServingJob job;
    job.stage = [=] {
        sim::Rng rng{seed};
        std::vector<std::uint8_t> v(wh * 2); // left then right
        for (auto &px : v)
            px = std::uint8_t(rng.below(256));
        const std::uint8_t *left = v.data();
        const std::uint8_t *right = v.data() + wh;
        s->memory().store().write(l_base, left, wh);
        s->memory().store().write(r_base, right, wh);
        want->resize(wh);
        for (std::uint64_t r = 0; r < h; ++r)
            for (std::uint32_t x = 0; x < w; ++x)
                (*want)[r * w + x] =
                    sadArgmin(left + r * w, right + r * w, w, x,
                              cfg.maxShift, cfg.window);
    };
    job.lane = [=](core::DpCore &c, unsigned lane) {
        Slice sl = laneSlice(h, ctx.nLanes, lane);
        if (!sl.count)
            return;
        rt::DmsCtl ctl(c, s->dmsFor(c.id()));
        const std::uint32_t l_off = 0, r_off = 4096,
                            o_off = 8192;
        std::vector<std::uint8_t> lrow(w), rrow(w), orow(w);
        for (std::uint64_t r = sl.begin; r < sl.begin + sl.count;
             ++r) {
            ctl.resetArena();
            ctl.ddrToDmem().rows(w / 4).width(4)
                .from(l_base + r * w).to(l_off).event(0)
                .noAutoInc().push(0);
            ctl.ddrToDmem().rows(w / 4).width(4)
                .from(r_base + r * w).to(r_off).event(1)
                .noAutoInc().push(0);
            ctl.wfe(0);
            ctl.clearEvent(0);
            ctl.wfe(1);
            ctl.clearEvent(1);
            c.dmem().read(l_off, lrow.data(), w);
            c.dmem().read(r_off, rrow.data(), w);
            for (std::uint32_t x = 0; x < w; ++x) {
                orow[x] = sadArgmin(lrow.data(), rrow.data(), w, x,
                                    cfg.maxShift, cfg.window);
                // One |a-b| accumulate bundle per (shift, tap).
                c.dualIssue((cfg.maxShift + 1) * cfg.window,
                            (cfg.maxShift + 1) * cfg.window);
            }
            c.dmem().write(o_off, orow.data(), w);
            c.dualIssue(w / 4, w / 4);
            dumpToDdr(ctl, o_off, d_base + r * w, w);
        }
    };
    job.validate = [=] {
        return unstage<std::uint8_t>(*s, d_base, wh) == *want;
    };
    return job;
}

} // namespace dpu::apps::serving
