/**
 * @file
 * Reference-model validation: every registered app, run through
 * the real serving path on a simulated chip with randomized
 * request seeds, must leave byte-identical output in DDR to the
 * straight-C++ models in reference/. This is an oracle independent
 * of each job's own validate() hook — a kernel bug mirrored into
 * its validator still fails here — and doubles as a layout
 * contract: the models re-derive every arena offset, so a layout
 * drift in serving.cc is a test failure, not a silent co-move. Each
 * run also flips one output bit per region and expects the job's
 * validate() to reject it, so a validator that passes everything
 * fails here.
 */

#include <gtest/gtest.h>

#include <memory>

#include "apps/common.hh"
#include "apps/registry.hh"
#include "reference/reference.hh"
#include "sim/fault.hh"
#include "sim/rng.hh"
#include "soc/soc.hh"

using namespace dpu;
using namespace dpu::apps;
using refmodel::Geometry;
using refmodel::Region;

namespace {

/** Randomized-but-reproducible request seeds per app. */
constexpr unsigned nTrials = 3;

std::uint64_t
trialSeed(std::string_view app, unsigned trial)
{
    sim::Rng rng{0x4ef0000ull + trial * 0x9e37ull};
    std::uint64_t h = rng.next();
    for (char c : app)
        h = (h ^ std::uint8_t(c)) * 0x100000001b3ull;
    return h;
}

/**
 * Run @p app's serving job on a fresh chip with geometry @p g and
 * config mutations @p opts; every region of @p expect must match
 * the resulting DDR bytes exactly. The job's own validator is
 * asserted too, so a reference bug cannot silently pass either.
 */
void
checkApp(std::string_view app,
         std::initializer_list<
             std::pair<std::string_view, std::string_view>>
             opts,
         const Geometry &g,
         std::vector<Region> (*ref)(const ConfigHandle &,
                                    const Geometry &))
{
    const AppSpec *spec = findApp(app);
    ASSERT_NE(spec, nullptr) << app;
    ConfigHandle cfg = spec->makeConfig();
    for (const auto &[k, v] : opts)
        ASSERT_TRUE(spec->set(cfg, k, v)) << app << " " << k;

    sim::faultPlane().reset();
    soc::Soc s;
    ServingContext ctx;
    ctx.soc = &s;
    ctx.baseCore = 0;
    ctx.nLanes = g.nLanes;
    ctx.arena = g.arena;
    ctx.arenaBytes = g.arenaBytes;
    ctx.seed = g.seed;

    ServingJob job = spec->serve(cfg, ctx);
    auto shared = std::make_shared<ServingJob>(std::move(job));
    shared->stage();
    for (unsigned l = 0; l < g.nLanes; ++l)
        s.start(l, [shared, l](core::DpCore &c) {
            shared->lane(c, l);
        });
    s.run();
    ASSERT_TRUE(s.allFinished()) << app;
    EXPECT_TRUE(shared->validate()) << app;

    const std::vector<Region> regions = ref(cfg, g);
    ASSERT_FALSE(regions.empty());

    // The job's own validator must catch a one-bit error in any of
    // its outputs: flip one seed-chosen bit per region, expect a
    // failed check, restore.
    for (const Region &r : regions) {
        ASSERT_FALSE(r.bytes.empty());
        const mem::Addr at = r.base + g.seed % r.bytes.size();
        const std::uint8_t mask = std::uint8_t(1u << (g.seed >> 32) % 8);
        std::uint8_t byte = 0;
        s.memory().store().read(at, &byte, 1);
        const std::uint8_t flipped = byte ^ mask;
        s.memory().store().write(at, &flipped, 1);
        EXPECT_FALSE(shared->validate())
            << app << " missed a flipped bit @" << std::hex << at;
        s.memory().store().write(at, &byte, 1);
    }
    EXPECT_TRUE(shared->validate()) << app;

    for (const Region &r : regions) {
        ASSERT_FALSE(r.bytes.empty());
        const auto got =
            unstage<std::uint8_t>(s, r.base, r.bytes.size());
        EXPECT_EQ(got, r.bytes)
            << app << " output region @" << std::hex << r.base;
    }
}

/** Adapt a typed reference model to the opaque ConfigHandle. */
template <typename Cfg,
          std::vector<Region> (*Fn)(const Cfg &, const Geometry &)>
std::vector<Region>
typedRef(const ConfigHandle &cfg, const Geometry &g)
{
    return Fn(*static_cast<const Cfg *>(cfg.get()), g);
}

Geometry
trialGeometry(std::string_view app, unsigned trial)
{
    Geometry g;
    g.nLanes = 4;
    g.seed = trialSeed(app, trial);
    return g;
}

} // namespace

TEST(ReferenceModel, Filter)
{
    for (unsigned t = 0; t < nTrials; ++t)
        checkApp("filter", {{"rowsPerCore", "8192"}},
                 trialGeometry("filter", t),
                 typedRef<sql::FilterConfig, refmodel::filterRef>);
}

TEST(ReferenceModel, GroupByLow)
{
    for (unsigned t = 0; t < nTrials; ++t)
        checkApp("groupby-low", {{"nRows", "32768"}},
                 trialGeometry("groupby-low", t),
                 typedRef<sql::GroupByConfig,
                          refmodel::groupByRef>);
}

TEST(ReferenceModel, GroupByHigh)
{
    // The serving path needs the sum table in DMEM, so the
    // high-NDV entry serves at its DMEM-bounded operating point.
    for (unsigned t = 0; t < nTrials; ++t)
        checkApp("groupby-high",
                 {{"nRows", "32768"}, {"ndv", "1024"}},
                 trialGeometry("groupby-high", t),
                 typedRef<sql::GroupByConfig,
                          refmodel::groupByRef>);
}

TEST(ReferenceModel, HllCrc)
{
    for (unsigned t = 0; t < nTrials; ++t)
        checkApp("hll-crc",
                 {{"nElements", "16384"}, {"cardinality", "4096"}},
                 trialGeometry("hll-crc", t),
                 typedRef<HllConfig, refmodel::hllRef>);
}

TEST(ReferenceModel, HllMurmur)
{
    for (unsigned t = 0; t < nTrials; ++t)
        checkApp("hll-murmur",
                 {{"nElements", "16384"}, {"cardinality", "4096"}},
                 trialGeometry("hll-murmur", t),
                 typedRef<HllConfig, refmodel::hllRef>);
}

TEST(ReferenceModel, HllEstimateWithinBounds)
{
    // Beyond bit-exact registers: the reference registers must
    // also estimate the true cardinality within the HLL error
    // band, tying the layer back to estimator semantics.
    for (unsigned t = 0; t < nTrials; ++t) {
        Geometry g = trialGeometry("hll-bound", t);
        HllConfig cfg;
        cfg.nElements = 16384;
        cfg.cardinality = 4096;
        const auto regions = refmodel::hllRef(cfg, g);
        ASSERT_EQ(regions.size(), 1u);
        const std::uint32_t m = 1u << cfg.pBits;
        std::vector<std::uint8_t> merged(m, 0);
        for (unsigned l = 0; l < g.nLanes; ++l)
            for (std::uint32_t i = 0; i < m; ++i)
                merged[i] = std::max(
                    merged[i], regions[0].bytes[l * m + i]);
        const double est = hlldetail::estimate(merged);
        EXPECT_NEAR(est / double(cfg.cardinality), 1.0, 0.1);
    }
}

TEST(ReferenceModel, Json)
{
    for (unsigned t = 0; t < nTrials; ++t)
        checkApp("json", {{"nRecords", "1024"}},
                 trialGeometry("json", t),
                 typedRef<JsonConfig, refmodel::jsonRef>);
}

TEST(ReferenceModel, Svm)
{
    for (unsigned t = 0; t < nTrials; ++t)
        checkApp("svm", {{"nTest", "1024"}, {"dims", "28"}},
                 trialGeometry("svm", t),
                 typedRef<SvmConfig, refmodel::svmRef>);
}

TEST(ReferenceModel, SimSearch)
{
    for (unsigned t = 0; t < nTrials; ++t)
        checkApp("simsearch",
                 {{"nDocs", "512"}, {"vocab", "2048"}},
                 trialGeometry("simsearch", t),
                 typedRef<SimSearchConfig,
                          refmodel::simSearchRef>);
}

TEST(ReferenceModel, Disparity)
{
    for (unsigned t = 0; t < nTrials; ++t)
        checkApp("disparity",
                 {{"width", "64"}, {"height", "32"},
                  {"maxShift", "8"}},
                 trialGeometry("disparity", t),
                 typedRef<DisparityConfig, refmodel::disparityRef>);
}

TEST(ReferenceModel, CoversEveryRegisteredApp)
{
    // A new registry entry must come with a reference model: this
    // list is the suite's coverage contract.
    const char *covered[] = {"svm",        "simsearch",
                             "filter",     "groupby-low",
                             "groupby-high", "hll-crc",
                             "hll-murmur", "json",
                             "disparity"};
    for (const AppSpec &spec : registry()) {
        bool found = false;
        for (const char *name : covered)
            found = found || spec.name == name;
        EXPECT_TRUE(found)
            << "app \"" << spec.name
            << "\" has no reference model in tests/apps/reference";
    }
}
