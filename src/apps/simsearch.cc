#include "apps/simsearch.hh"

#include "apps/entry.hh"

#include <algorithm>
#include <map>

#include "rt/dms_ctl.hh"
#include "rt/sync.hh"
#include "sim/rng.hh"
#include "util/fixed_point.hh"
#include "util/zipf.hh"

namespace dpu::apps {

namespace {

using util::Fx22;

constexpr std::uint32_t tileDocs = 128;

/** One posting: term, local doc id within its tile, tf-idf weight. */
struct Posting
{
    std::uint16_t term;
    std::uint16_t docLocal;
    std::int32_t weight; ///< Q10.22 raw
};
static_assert(sizeof(Posting) == 8);

struct Index
{
    std::uint32_t nDocs = 0, nTiles = 0, vocab = 0;
    /** Postings, tile-major; tileStart[t]..tileStart[t+1]. Within a
     *  tile they are sorted by (term, local doc), so one term's
     *  postings form one range (see termRange). */
    std::vector<Posting> postings;
    std::vector<std::uint32_t> tileStart;
};

/** [first, last) of tile @p t's postings of @p term, as indices into
 *  ix.postings; empty if the tile lacks the term. The naive DMS and
 *  Xeon useful-only access patterns fetch exactly this range. */
std::pair<std::uint32_t, std::uint32_t>
termRange(const Index &ix, std::uint32_t t, std::uint16_t term)
{
    const auto base = ix.postings.begin();
    const auto hit = std::ranges::equal_range(
        base + ix.tileStart[t], base + ix.tileStart[t + 1], term, {},
        &Posting::term);
    return {std::uint32_t(hit.begin() - base),
            std::uint32_t(hit.end() - base)};
}

struct Query
{
    std::vector<std::pair<std::uint16_t, std::int32_t>> terms;
};

Index
makeIndex(const SimSearchConfig &cfg, sim::Rng &rng)
{
    Index ix;
    ix.nDocs = cfg.nDocs;
    ix.nTiles = (cfg.nDocs + tileDocs - 1) / tileDocs;
    ix.vocab = cfg.vocab;
    util::Zipf zipf(cfg.vocab, cfg.zipf);

    // Documents arrive in tile order, so each tile's postings are
    // appended contiguously and then sorted in place.
    ix.postings.reserve(std::size_t(cfg.nDocs) * cfg.avgTermsPerDoc);
    ix.tileStart.push_back(0);
    for (std::uint32_t t = 0; t < ix.nTiles; ++t) {
        const std::uint32_t d_end = std::min(cfg.nDocs, (t + 1) * tileDocs);
        for (std::uint32_t d = t * tileDocs; d < d_end; ++d) {
            unsigned n = cfg.avgTermsPerDoc / 2 +
                         unsigned(rng.below(cfg.avgTermsPerDoc));
            for (unsigned k = 0; k < n; ++k) {
                Posting p;
                p.term = std::uint16_t(zipf.sample(rng));
                p.docLocal = std::uint16_t(d % tileDocs);
                p.weight =
                    Fx22::fromDouble(0.05 + rng.uniform() * 0.9).raw();
                ix.postings.push_back(p);
            }
        }
        std::sort(ix.postings.begin() + ix.tileStart[t],
                  ix.postings.end(),
                  [](const Posting &a, const Posting &b) {
                      return a.term != b.term ? a.term < b.term
                                              : a.docLocal <
                                                    b.docLocal;
                  });
        ix.tileStart.push_back(std::uint32_t(ix.postings.size()));
    }
    return ix;
}

std::vector<Query>
makeQueries(const SimSearchConfig &cfg, sim::Rng &rng)
{
    // Queries are page-title-like: hot topical terms, but distinct
    // topics — a term appears in at most two queries (pure Zipf
    // sampling would put the top terms in EVERY query, which real
    // title queries do not do).
    util::Zipf zipf(cfg.vocab, cfg.zipf);
    std::vector<Query> qs(cfg.nQueries);
    std::map<std::uint16_t, unsigned> uses;
    for (auto &q : qs) {
        unsigned attempts = 0;
        while (q.terms.size() < cfg.termsPerQuery) {
            std::uint16_t t = std::uint16_t(zipf.sample(rng));
            if (++attempts > 10000)
                t = std::uint16_t(rng.below(cfg.vocab));
            bool dup = false;
            for (auto &e : q.terms)
                dup |= e.first == t;
            if (dup || uses[t] >= 2)
                continue;
            ++uses[t];
            q.terms.push_back(
                {t, Fx22::fromDouble(0.2 + rng.uniform()).raw()});
        }
    }
    return qs;
}

/** term -> list of (query id, weight): the batch's lookup table. */
using TermMap =
    std::map<std::uint16_t,
             std::vector<std::pair<std::uint16_t, std::int32_t>>>;

TermMap
buildTermMap(const std::vector<Query> &qs)
{
    TermMap tm;
    for (std::uint16_t qi = 0; qi < qs.size(); ++qi)
        for (auto &e : qs[qi].terms)
            tm[e.first].push_back({qi, e.second});
    return tm;
}

/** Exact shared scoring used for validation and top-k building. */
struct Scores
{
    /** raw Q20.44-ish accumulators, [query][doc]. */
    std::vector<std::vector<std::int64_t>> acc;
};

void
finish(SimSearchResult &r, const SimSearchConfig &cfg,
       const Scores &sc)
{
    r.scoreChecksum = 0;
    r.topDocs.assign(cfg.nQueries, {});
    for (std::uint32_t q = 0; q < cfg.nQueries; ++q) {
        std::vector<std::uint32_t> order(cfg.nDocs);
        for (std::uint32_t d = 0; d < cfg.nDocs; ++d) {
            order[d] = d;
            r.scoreChecksum +=
                std::uint64_t(sc.acc[q][d]) * (d + 1);
        }
        std::partial_sort(
            order.begin(), order.begin() + cfg.topK, order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
                return sc.acc[q][a] != sc.acc[q][b]
                           ? sc.acc[q][a] > sc.acc[q][b]
                           : a < b;
            });
        r.topDocs[q].assign(order.begin(),
                            order.begin() + cfg.topK);
    }
}

/** One run's generated inputs: the index and the query batch's term
 *  map, drawn from one Rng{cfg.seed} in that order. Both the DPU run
 *  and the Xeon model read them; neither holds an answer. */
struct Inputs
{
    Index ix;
    TermMap tm;
};

Inputs
makeInputs(const SimSearchConfig &cfg)
{
    sim::Rng rng{cfg.seed};
    Inputs inputs;
    inputs.ix = makeIndex(cfg, rng);
    inputs.tm = buildTermMap(makeQueries(cfg, rng));
    return inputs;
}

SimSearchResult
runDpu(const soc::SocParams &params, const SimSearchConfig &cfg,
       const Inputs &inputs)
{
    const Index &ix = inputs.ix;
    const TermMap &tm = inputs.tm;
    const std::uint64_t bytes = ix.postings.size() * sizeof(Posting);
    soc::Soc s(params);
    s.memory().store().write(0, ix.postings.data(), bytes);

    Scores sc;
    sc.acc.assign(cfg.nQueries,
                  std::vector<std::int64_t>(cfg.nDocs, 0));

    s.core(0).dmem().store<std::uint64_t>(26 * 1024, 0);
    rt::AteCounter stealer(0, 26 * 1024);

    for (unsigned id = 0; id < cfg.nCores; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            rt::DmsCtl ctl(c, s.dmsFor(id));
            ate::Ate &ate = s.ateFor(id);

            // Work-steal tiles; the whole query batch's accumulator
            // for one tile (32 x 128 x 4 B = 16 KB) lives in DMEM.
            while (true) {
                std::uint64_t t = stealer.next(c, ate);
                if (t >= ix.nTiles)
                    break;
                ctl.resetArena();
                std::uint32_t first = ix.tileStart[t];
                std::uint32_t count = ix.tileStart[t + 1] - first;
                if (count == 0)
                    continue;

                // Zero the tile accumulator.
                c.dualIssue(cfg.nQueries * tileDocs / 2,
                            cfg.nQueries * tileDocs / 2);

                auto consume = [&](const Posting *pp,
                                   std::uint32_t n) {
                    for (std::uint32_t i = 0; i < n; ++i) {
                        const Posting &po = pp[i];
                        // Unpack + term lookup in the query map.
                        c.dualIssue(2, 4);
                        auto it = tm.find(po.term);
                        if (it == tm.end())
                            continue;
                        for (auto &[qi, wq] : it->second) {
                            // Q10.22 multiply-accumulate.
                            c.cycles(core::mulCycles(22) + 2);
                            sc.acc[qi][t * tileDocs + po.docLocal] +=
                                std::int64_t(wq) *
                                std::int64_t(po.weight) >>
                                22;
                        }
                    }
                };

                if (cfg.naiveDms) {
                    // The naive scheme (Section 5.2): every
                    // (query-term, tile) range fetches a FULL 8 KB
                    // DMS buffer, uses the few postings it wanted,
                    // and discards the rest — the 0.26 GB/s case.
                    const std::uint32_t buf_rows = 8192 / 8;
                    const std::uint32_t total =
                        std::uint32_t(ix.postings.size());
                    for (auto &[term, lst] : tm) {
                        auto [a, b] =
                            termRange(ix, std::uint32_t(t), term);
                        if (a == b)
                            continue;
                        std::uint32_t fetch = std::min(
                            buf_rows, total - a);
                        ctl.ddrToDmem()
                            .rows(fetch * 2).width(4)
                            .from(mem::Addr(a) * 8).to(0)
                            .event(0).noAutoInc().push(0);
                        ctl.wfe(0);
                        consume(&ix.postings[a], b - a);
                        ctl.clearEvent(0);
                        ctl.resetArena();
                    }
                } else {
                    // Dynamic tiles: stream the whole block and
                    // consume everything (Section 5.2).
                    rt::StreamReader in(ctl, mem::Addr(first) * 8,
                                        std::uint64_t(count) * 8,
                                        16 * 1024, 4096, 2, 0, 0);
                    std::uint32_t at = first;
                    in.forEach([&](std::uint32_t,
                                   std::uint32_t blen) {
                        consume(&ix.postings[at], blen / 8);
                        at += blen / 8;
                    });
                }

                // Fold the tile's top-k candidates (cheap scan).
                c.dualIssue(cfg.nQueries * tileDocs,
                            cfg.nQueries * tileDocs / 2);
            }
        });
    }
    sim::Tick t = s.run();
    sim_assert(s.allFinished(), "simsearch kernels deadlocked");

    SimSearchResult r;
    r.seconds = double(t) * 1e-12;
    r.indexBytes = bytes;
    finish(r, cfg, sc);
    return r;
}

SimSearchResult
runXeon(const SimSearchConfig &cfg, const Inputs &inputs)
{
    const Index &ix = inputs.ix;
    Scores sc;
    sc.acc.assign(cfg.nQueries,
                  std::vector<std::int64_t>(cfg.nDocs, 0));

    // Tiled CSR SpMM: only the query terms' postings are touched;
    // per-tile accumulators stay resident in the LLC.
    std::uint64_t useful = 0;
    std::uint64_t updates = 0;
    for (std::uint32_t t = 0; t < ix.nTiles; ++t) {
        for (auto &[term, lst] : inputs.tm) {
            auto [a, b] = termRange(ix, t, term);
            useful += std::uint64_t(b - a) * sizeof(Posting);
            for (std::uint32_t i = a; i < b; ++i) {
                const Posting &po = ix.postings[i];
                for (auto &[qi, wq] : lst) {
                    sc.acc[qi][t * tileDocs + po.docLocal] +=
                        std::int64_t(wq) *
                        std::int64_t(po.weight) >>
                        22;
                    ++updates;
                }
            }
        }
    }

    xeon::XeonModel m;
    m.streamBytes(double(useful));
    m.scalarOps(double(updates) * 4 + double(useful) / 8 * 3);
    m.serialOps(double(cfg.nQueries) * cfg.topK * 64);
    m.endPhase();

    SimSearchResult r;
    r.seconds = m.seconds();
    r.indexBytes = ix.postings.size() * sizeof(Posting);
    finish(r, cfg, sc);
    return r;
}

} // namespace

SimSearchResult
dpuSimSearch(const soc::SocParams &params, const SimSearchConfig &cfg)
{
    return runDpu(params, cfg, makeInputs(cfg));
}

SimSearchResult
xeonSimSearch(const SimSearchConfig &cfg)
{
    return runXeon(cfg, makeInputs(cfg));
}

AppResult
simSearchApp(const SimSearchConfig &cfg)
{
    // One index per run: the DPU full scan and the Xeon term-range
    // SpMM score the same generated input independently.
    const Inputs inputs = makeInputs(cfg);
    SimSearchResult d = runDpu(soc::dpu40nm(), cfg, inputs);
    SimSearchResult x = runXeon(cfg, inputs);
    AppResult r;
    r.name = cfg.naiveDms ? "SimSearch (naive DMS)"
                          : "Similarity search";
    r.dpuSeconds = d.seconds;
    r.xeonSeconds = x.seconds;
    r.workUnits = double(d.indexBytes);
    r.unitName = "index bytes";
    r.matched = d.scoreChecksum == x.scoreChecksum &&
                d.topDocs == x.topDocs;
    return r;
}

} // namespace dpu::apps
