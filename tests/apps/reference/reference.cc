#include "tests/apps/reference/reference.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "sim/rng.hh"
#include "util/crc32.hh"
#include "util/murmur64.hh"

namespace dpu::apps::refmodel {

namespace {

std::uint64_t
align64(std::uint64_t v)
{
    return (v + 63) & ~std::uint64_t(63);
}

/** Contiguous per-lane share, per the serving contract. */
struct Slice
{
    std::uint64_t begin = 0;
    std::uint64_t count = 0;
};

Slice
laneSlice(std::uint64_t total, unsigned n_lanes, unsigned lane)
{
    const std::uint64_t per = (total + n_lanes - 1) / n_lanes;
    const std::uint64_t b =
        std::min<std::uint64_t>(total, lane * per);
    const std::uint64_t e = std::min<std::uint64_t>(total, b + per);
    return {b, e - b};
}

void
put64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    const std::size_t at = out.size();
    out.resize(at + 8);
    std::memcpy(out.data() + at, &v, 8);
}

} // namespace

// ----------------------------------------------------------------
// SQL filter: one pass-count word per lane
// ----------------------------------------------------------------

std::vector<Region>
filterRef(const sql::FilterConfig &cfg, const Geometry &g)
{
    const std::uint64_t rows =
        std::uint64_t(cfg.rowsPerCore) * g.nLanes;
    sim::Rng rng{g.seed ^ cfg.seed};
    std::vector<std::uint32_t> col(rows);
    for (auto &x : col)
        x = std::uint32_t(rng.below(1000));

    Region out;
    out.base = g.arena + align64(rows * 4);
    for (unsigned l = 0; l < g.nLanes; ++l) {
        const Slice sl = laneSlice(rows, g.nLanes, l);
        std::uint64_t passed = 0;
        for (std::uint64_t i = 0; i < sl.count; ++i) {
            const std::uint32_t x = col[sl.begin + i];
            passed += (x >= cfg.lo && x <= cfg.hi);
        }
        put64(out.bytes, passed);
    }
    return {out};
}

// ----------------------------------------------------------------
// Group-by: one ndv-entry sum table per lane
// ----------------------------------------------------------------

std::vector<Region>
groupByRef(const sql::GroupByConfig &cfg, const Geometry &g)
{
    const std::uint64_t rows = cfg.nRows;
    sim::Rng rng{g.seed ^ cfg.seed};
    std::vector<std::uint32_t> v(rows * 2);
    for (std::uint64_t r = 0; r < rows; ++r) {
        v[r * 2] = std::uint32_t(rng.below(cfg.ndv));
        v[r * 2 + 1] = std::uint32_t(rng.below(1 << 16));
    }

    Region out;
    out.base = g.arena + align64(rows * 8);
    for (unsigned l = 0; l < g.nLanes; ++l) {
        const Slice sl = laneSlice(rows, g.nLanes, l);
        std::vector<std::uint64_t> table(cfg.ndv, 0);
        for (std::uint64_t i = 0; i < sl.count; ++i) {
            const std::uint64_t r = sl.begin + i;
            table[v[r * 2]] += v[r * 2 + 1];
        }
        for (std::uint64_t sum : table)
            put64(out.bytes, sum);
    }
    return {out};
}

// ----------------------------------------------------------------
// HLL: one m-byte register file per lane
// ----------------------------------------------------------------

std::vector<Region>
hllRef(const HllConfig &cfg, const Geometry &g)
{
    const std::uint32_t m = 1u << cfg.pBits;
    const std::uint64_t n = cfg.nElements;
    HllConfig gen = cfg;
    gen.seed = g.seed ^ cfg.seed;
    sim::Rng rng{gen.seed};
    std::vector<std::uint64_t> data(n);
    for (auto &e : data) {
        std::uint64_t x = rng.below(cfg.cardinality);
        e = (x + 0x9e3779b97f4a7c15ull) * 0xbf58476d1ce4e5b9ull;
    }

    Region out;
    out.base = g.arena + align64(n * 8);
    for (unsigned l = 0; l < g.nLanes; ++l) {
        const Slice sl = laneSlice(n, g.nLanes, l);
        std::vector<std::uint8_t> regs(m, 0);
        for (std::uint64_t i = 0; i < sl.count; ++i) {
            const std::uint64_t e = data[sl.begin + i];
            std::uint64_t h;
            if (cfg.hash == HllHash::Crc32) {
                const std::uint32_t lo = util::crc32Key64(e);
                const std::uint32_t hi =
                    util::crc32Key(lo ^ std::uint32_t(e >> 32));
                h = (std::uint64_t(hi) << 32) | lo;
            } else {
                h = util::murmur64Key(e);
            }
            unsigned rank;
            std::uint32_t idx;
            if (cfg.useNtz) {
                idx = std::uint32_t(h) & (m - 1);
                const std::uint64_t w = (h >> cfg.pBits) |
                                        (1ull << (64 - cfg.pBits));
                rank = unsigned(__builtin_ctzll(w)) + 1;
            } else {
                idx = std::uint32_t(h >> (64 - cfg.pBits));
                const std::uint64_t w = (h << cfg.pBits) |
                                        (1ull << (cfg.pBits - 1));
                rank = unsigned(__builtin_clzll(w)) + 1;
            }
            regs[idx] =
                std::max(regs[idx], std::uint8_t(rank));
        }
        out.bytes.insert(out.bytes.end(), regs.begin(),
                         regs.end());
    }
    return {out};
}

// ----------------------------------------------------------------
// JSON: one (records, fields, intSum) triple per lane
// ----------------------------------------------------------------

std::vector<Region>
jsonRef(const JsonConfig &cfg, const Geometry &g)
{
    // The input text comes from the same generator the job stages
    // (its exact draw sequence is an input, not a behaviour under
    // test). Each record is then accounted analytically: the fixed
    // lineitem schema has 6 fields, and the integer sum is
    // orderkey + partkey + quantity + the price integer part — each
    // extracted here by field name, independent of the parser FSM.
    JsonConfig gen = cfg;
    gen.seed = g.seed ^ cfg.seed;
    const std::string text = jsondetail::makeRecords(gen).text;

    const auto fieldInt = [](const std::string &rec,
                             const char *name) {
        const std::size_t at = rec.find(name);
        std::uint64_t v = 0;
        for (std::size_t i = at + std::strlen(name);
             i < rec.size() && rec[i] >= '0' && rec[i] <= '9'; ++i)
            v = v * 10 + std::uint64_t(rec[i] - '0');
        return v;
    };

    struct Rec
    {
        std::uint64_t start = 0; ///< byte offset of the '{'
        std::uint64_t intSum = 0;
    };
    std::vector<Rec> recs;
    recs.reserve(cfg.nRecords);
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t end = text.find('\n', pos);
        const std::string rec = text.substr(pos, end - pos);
        recs.push_back(
            {pos, fieldInt(rec, "\"orderkey\":") +
                      fieldInt(rec, "\"partkey\":") +
                      fieldInt(rec, "\"quantity\":") +
                      fieldInt(rec, "\"price\":")});
        pos = end + 1;
    }

    const std::uint64_t bytes = text.size();
    constexpr std::uint32_t pad = 1024;
    const std::uint64_t chunk =
        ((bytes + g.nLanes - 1) / g.nLanes + 3) & ~3ull;

    // A lane owns every record whose first byte falls inside its
    // chunk (the kernels realign on newlines to the same effect).
    Region out;
    out.base = g.arena + align64(bytes + pad);
    std::vector<std::uint64_t> nrec(g.nLanes, 0), isum(g.nLanes, 0);
    for (const Rec &rec : recs) {
        const unsigned lane = unsigned(rec.start / chunk);
        ++nrec[lane];
        isum[lane] += rec.intSum;
    }
    for (unsigned l = 0; l < g.nLanes; ++l) {
        put64(out.bytes, nrec[l]);
        put64(out.bytes, nrec[l] * 6); // fixed schema: 6 fields
        put64(out.bytes, isum[l]);
    }
    return {out};
}

// ----------------------------------------------------------------
// SVM inference: one positive-count word per lane
// ----------------------------------------------------------------

std::vector<Region>
svmRef(const SvmConfig &cfg, const Geometry &g)
{
    const std::uint32_t dims = cfg.dims;
    const std::uint64_t n = cfg.nTest;
    sim::Rng rng{g.seed ^ cfg.seed};
    std::vector<std::int32_t> v(dims + n * std::uint64_t(dims));
    for (auto &x : v)
        x = std::int32_t(rng.below(2048)) - 1024;

    const mem::Addr x_base = g.arena + align64(dims * 4);
    Region out;
    out.base = x_base + align64(n * std::uint64_t(dims) * 4);
    for (unsigned l = 0; l < g.nLanes; ++l) {
        const Slice sl = laneSlice(n, g.nLanes, l);
        std::uint64_t positive = 0;
        for (std::uint64_t i = 0; i < sl.count; ++i) {
            const std::uint64_t r = sl.begin + i;
            std::int64_t dot = 0;
            for (std::uint32_t d = 0; d < dims; ++d)
                dot += std::int64_t(v[d]) * v[dims + r * dims + d];
            positive += dot > 0;
        }
        put64(out.bytes, positive);
    }
    return {out};
}

// ----------------------------------------------------------------
// Similarity search: one Q10.22 score word per lane
// ----------------------------------------------------------------

std::vector<Region>
simSearchRef(const SimSearchConfig &cfg, const Geometry &g)
{
    const std::uint64_t n_post =
        std::uint64_t(cfg.nDocs) * cfg.avgTermsPerDoc;
    const std::uint64_t seed = g.seed ^ cfg.seed;

    sim::Rng qrng{seed};
    std::vector<std::int32_t> q(cfg.vocab, 0);
    for (std::uint32_t t = 0; t < cfg.termsPerQuery; ++t)
        q[qrng.below(cfg.vocab)] =
            std::int32_t(1 + qrng.below(1 << 10));

    sim::Rng prng{seed + 1};
    std::vector<std::uint32_t> post(n_post * 2);
    for (std::uint64_t i = 0; i < n_post; ++i) {
        post[i * 2] = std::uint32_t(prng.below(cfg.vocab));
        post[i * 2 + 1] = std::uint32_t(1 + prng.below(1 << 10));
    }

    const mem::Addr p_base = g.arena + align64(cfg.vocab * 4);
    Region out;
    out.base = p_base + align64(n_post * 8);
    for (unsigned l = 0; l < g.nLanes; ++l) {
        const Slice sl = laneSlice(n_post, g.nLanes, l);
        std::int64_t score = 0;
        for (std::uint64_t i = 0; i < sl.count; ++i) {
            const std::uint64_t at = sl.begin + i;
            score += std::int64_t(q[post[at * 2]]) *
                     std::int32_t(post[at * 2 + 1]);
        }
        put64(out.bytes, std::uint64_t(score));
    }
    return {out};
}

// ----------------------------------------------------------------
// Disparity: the full first-minimum SAD argmin map
// ----------------------------------------------------------------

std::vector<Region>
disparityRef(const DisparityConfig &cfg, const Geometry &g)
{
    const std::uint32_t w = cfg.width, h = cfg.height;
    const std::uint64_t wh = std::uint64_t(w) * h;
    sim::Rng rng{g.seed ^ cfg.seed};
    std::vector<std::uint8_t> img(wh * 2);
    for (auto &px : img)
        px = std::uint8_t(rng.below(256));
    const std::uint8_t *left = img.data();
    const std::uint8_t *right = img.data() + wh;

    Region out;
    out.base = g.arena + 2 * align64(wh);
    out.bytes.resize(wh);
    const int hw = int(cfg.window) / 2;
    for (std::uint32_t y = 0; y < h; ++y) {
        for (std::uint32_t x = 0; x < w; ++x) {
            unsigned best = 0;
            std::int64_t best_sad =
                std::numeric_limits<std::int64_t>::max();
            for (unsigned sft = 0; sft <= cfg.maxShift; ++sft) {
                std::int64_t sad = 0;
                for (int dx = -hw; dx <= hw; ++dx) {
                    const int lx = int(x) + dx;
                    const int rx = lx - int(sft);
                    if (lx < 0 || lx >= int(w) || rx < 0 ||
                        rx >= int(w))
                        continue;
                    sad += std::abs(int(left[y * w + lx]) -
                                    int(right[y * w + rx]));
                }
                if (sad < best_sad) {
                    best_sad = sad;
                    best = sft;
                }
            }
            out.bytes[y * w + x] = std::uint8_t(best);
        }
    }
    return {out};
}

} // namespace dpu::apps::refmodel
