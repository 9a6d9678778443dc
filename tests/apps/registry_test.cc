/**
 * @file
 * App-registry tests: the registry is the single enumerable source
 * of the Section 5 co-design apps, so its invariants (stable
 * Figure 14 row order, total name lookup, string config mutation,
 * serving-job factories) are what bench_fig14, the offload
 * scheduler, and the serving bench all lean on.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "apps/registry.hh"

using namespace dpu;
using namespace dpu::apps;

TEST(AppRegistry, EnumeratesFigure14RowsInOrder)
{
    const std::vector<std::string> expect = {
        "svm",     "simsearch",  "filter",
        "groupby-low", "groupby-high", "hll-crc",
        "hll-murmur",  "json",    "disparity"};
    ASSERT_EQ(registry().size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(registry()[i].name, expect[i]) << "row " << i;
}

TEST(AppRegistry, SpecsAreComplete)
{
    std::set<std::string> names;
    for (const AppSpec &spec : registry()) {
        EXPECT_TRUE(names.insert(spec.name).second)
            << "duplicate " << spec.name;
        EXPECT_FALSE(spec.summary.empty()) << spec.name;
        EXPECT_GT(spec.paperGain, 0.0) << spec.name;
        EXPECT_TRUE(spec.makeConfig != nullptr) << spec.name;
        EXPECT_TRUE(spec.set != nullptr) << spec.name;
        EXPECT_TRUE(spec.run != nullptr) << spec.name;
        EXPECT_TRUE(spec.serve != nullptr) << spec.name;
        EXPECT_TRUE(spec.makeConfig() != nullptr) << spec.name;
    }
}

TEST(AppRegistry, FindAppIsTotalOverRegisteredNames)
{
    for (const AppSpec &spec : registry())
        EXPECT_EQ(findApp(spec.name), &spec);
    EXPECT_EQ(findApp("not-an-app"), nullptr);
    EXPECT_EQ(findApp(""), nullptr);
}

TEST(AppRegistry, SettersAcceptKnownKeysAndRejectJunk)
{
    for (const AppSpec &spec : registry()) {
        ConfigHandle cfg = spec.makeConfig();
        // Every app's config carries a dataset seed.
        EXPECT_TRUE(spec.set(cfg, "seed", "42")) << spec.name;
        EXPECT_FALSE(spec.set(cfg, "noSuchKnob", "1")) << spec.name;
        EXPECT_FALSE(spec.set(cfg, "seed", "not-a-number"))
            << spec.name;
    }

    // The boolean and floating-point setters.
    struct Row
    {
        const char *app, *key;
        std::vector<const char *> good, junk;
    };
    const std::vector<Row> rows = {
        {"hll-crc", "useNtz", {"true", "0"}, {"yes"}},
        {"svm", "c", {"0.5"}, {"0.5x", ""}},
        {"simsearch", "zipf", {"0.5"}, {"0.5x", ""}},
    };
    for (const Row &r : rows) {
        const AppSpec *spec = findApp(r.app);
        ASSERT_NE(spec, nullptr) << r.app;
        ConfigHandle cfg = spec->makeConfig();
        for (const char *v : r.good)
            EXPECT_TRUE(spec->set(cfg, r.key, v)) << r.key << "=" << v;
        for (const char *v : r.junk)
            EXPECT_FALSE(spec->set(cfg, r.key, v))
                << r.key << "=\"" << v << "\"";
    }
}

TEST(AppRegistry, RunAppAppliesOverrides)
{
    // A tiny filter run: overrides must shrink it (fast) and the
    // head-to-head validation must still hold.
    AppResult r = runApp(
        "filter", {{"nCores", "2"}, {"rowsPerCore", "8192"}});
    EXPECT_TRUE(r.matched);
    EXPECT_EQ(r.name, "SQL filter");
}

TEST(AppRegistry, TypedSpecRunAgreesWithStringOverrides)
{
    // The typed spec->run path and the string-override runApp path
    // must produce identical deterministic timings for the same
    // effective config.
    const AppSpec *spec = findApp("hll-crc");
    ASSERT_NE(spec, nullptr);
    ConfigHandle cfg = spec->makeConfig();
    ASSERT_TRUE(spec->set(cfg, "nElements", "65536"));
    ASSERT_TRUE(spec->set(cfg, "cardinality", "8192"));
    AppResult typed = spec->run(cfg);
    AppResult reg = runApp("hll-crc", {{"nElements", "65536"},
                                       {"cardinality", "8192"}});
    EXPECT_EQ(typed.dpuSeconds, reg.dpuSeconds);
    EXPECT_EQ(typed.xeonSeconds, reg.xeonSeconds);
    EXPECT_EQ(typed.matched, reg.matched);
}
