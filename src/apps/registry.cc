#include "apps/registry.hh"

#include "apps/entry.hh"

#include <charconv>

#include "apps/serving.hh"
#include "sim/logging.hh"

namespace dpu::apps {

namespace {

// ----------------------------------------------------------------
// Option-string parsing
// ----------------------------------------------------------------

bool
parseU64(std::string_view v, std::uint64_t &out)
{
    std::uint64_t r{};
    auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), r);
    if (ec != std::errc() || p != v.data() + v.size())
        return false;
    out = r;
    return true;
}

template <typename T>
bool
setInt(T &field, std::string_view v)
{
    std::uint64_t r;
    if (!parseU64(v, r))
        return false;
    field = T(r);
    return true;
}

bool
setDouble(double &field, std::string_view v)
{
    double r{};
    auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), r);
    if (ec != std::errc() || p != v.data() + v.size())
        return false;
    field = r;
    return true;
}

bool
setBool(bool &field, std::string_view v)
{
    if (v == "true" || v == "1") {
        field = true;
        return true;
    }
    if (v == "false" || v == "0") {
        field = false;
        return true;
    }
    return false;
}

template <typename C>
C &
as(const ConfigHandle &h)
{
    return *static_cast<C *>(h.get());
}

/** Build one AppSpec from typed callables. */
template <typename C>
AppSpec
makeSpec(std::string name, std::string summary, double paper_gain,
         C defaults,
         bool (*set_field)(C &, std::string_view, std::string_view),
         AppResult (*run)(const C &),
         ServingJob (*serve)(const C &, const ServingContext &))
{
    AppSpec spec;
    spec.name = std::move(name);
    spec.summary = std::move(summary);
    spec.paperGain = paper_gain;
    spec.makeConfig = [defaults] {
        return ConfigHandle(std::make_shared<C>(defaults));
    };
    spec.set = [set_field](const ConfigHandle &h, std::string_view k,
                           std::string_view v) {
        return set_field(as<C>(h), k, v);
    };
    spec.run = [run](const ConfigHandle &h) { return run(as<C>(h)); };
    spec.serve = [serve](const ConfigHandle &h,
                         const ServingContext &ctx) {
        return serve(as<C>(h), ctx);
    };
    return spec;
}

// ----------------------------------------------------------------
// Per-app field tables
// ----------------------------------------------------------------

bool
svmSet(SvmConfig &c, std::string_view k, std::string_view v)
{
    if (k == "nTrain") return setInt(c.nTrain, v);
    if (k == "nTest") return setInt(c.nTest, v);
    if (k == "dims") return setInt(c.dims, v);
    if (k == "c") return setDouble(c.c, v);
    if (k == "maxIters") return setInt(c.maxIters, v);
    if (k == "seed") return setInt(c.seed, v);
    if (k == "nCores") return setInt(c.nCores, v);
    return false;
}

bool
simSearchSet(SimSearchConfig &c, std::string_view k,
             std::string_view v)
{
    if (k == "nDocs") return setInt(c.nDocs, v);
    if (k == "vocab") return setInt(c.vocab, v);
    if (k == "avgTermsPerDoc") return setInt(c.avgTermsPerDoc, v);
    if (k == "nQueries") return setInt(c.nQueries, v);
    if (k == "termsPerQuery") return setInt(c.termsPerQuery, v);
    if (k == "topK") return setInt(c.topK, v);
    if (k == "zipf") return setDouble(c.zipf, v);
    if (k == "seed") return setInt(c.seed, v);
    if (k == "nCores") return setInt(c.nCores, v);
    if (k == "naiveDms") return setBool(c.naiveDms, v);
    return false;
}

bool
filterSet(sql::FilterConfig &c, std::string_view k,
          std::string_view v)
{
    if (k == "rowsPerCore") return setInt(c.rowsPerCore, v);
    if (k == "tileBytes") return setInt(c.tileBytes, v);
    if (k == "nCores") return setInt(c.nCores, v);
    if (k == "lo") return setInt(c.lo, v);
    if (k == "hi") return setInt(c.hi, v);
    if (k == "seed") return setInt(c.seed, v);
    return false;
}

bool
groupBySet(sql::GroupByConfig &c, std::string_view k,
           std::string_view v)
{
    if (k == "nRows") return setInt(c.nRows, v);
    if (k == "ndv") return setInt(c.ndv, v);
    if (k == "seed") return setInt(c.seed, v);
    if (k == "nCores") return setInt(c.nCores, v);
    return false;
}

bool
hllSet(HllConfig &c, std::string_view k, std::string_view v)
{
    if (k == "nElements") return setInt(c.nElements, v);
    if (k == "cardinality") return setInt(c.cardinality, v);
    if (k == "pBits") return setInt(c.pBits, v);
    if (k == "seed") return setInt(c.seed, v);
    if (k == "nCores") return setInt(c.nCores, v);
    if (k == "useNtz") return setBool(c.useNtz, v);
    if (k == "hash") {
        if (v == "crc32") {
            c.hash = HllHash::Crc32;
            return true;
        }
        if (v == "murmur64") {
            c.hash = HllHash::Murmur64;
            return true;
        }
        return false;
    }
    return false;
}

bool
jsonSet(JsonConfig &c, std::string_view k, std::string_view v)
{
    if (k == "nRecords") return setInt(c.nRecords, v);
    if (k == "seed") return setInt(c.seed, v);
    if (k == "nCores") return setInt(c.nCores, v);
    if (k == "branchyParser") return setBool(c.branchyParser, v);
    return false;
}

bool
disparitySet(DisparityConfig &c, std::string_view k,
             std::string_view v)
{
    if (k == "width") return setInt(c.width, v);
    if (k == "height") return setInt(c.height, v);
    if (k == "maxShift") return setInt(c.maxShift, v);
    if (k == "window") return setInt(c.window, v);
    if (k == "seed") return setInt(c.seed, v);
    if (k == "nCores") return setInt(c.nCores, v);
    return false;
}

std::vector<AppSpec>
buildRegistry()
{
    std::vector<AppSpec> r;

    r.push_back(makeSpec<SvmConfig>(
        "svm", "SMO training / fixed-point inference (Section 5.1)",
        15.0, SvmConfig{}, svmSet, svmApp, serving::svmJob));

    r.push_back(makeSpec<SimSearchConfig>(
        "simsearch", "tf-idf similarity scoring (Section 5.2)", 3.9,
        SimSearchConfig{}, simSearchSet, simSearchApp,
        serving::simSearchJob));

    {
        // Figure 14's operating point (8 MB of column per core).
        sql::FilterConfig f;
        f.rowsPerCore = 256 << 10;
        r.push_back(makeSpec<sql::FilterConfig>(
            "filter", "SQL predicate scan via FILT (Section 5.3)",
            6.7, f, filterSet, sql::filterApp, serving::filterJob));
    }

    {
        sql::GroupByConfig low;
        low.ndv = 256;
        r.push_back(makeSpec<sql::GroupByConfig>(
            "groupby-low", "low-NDV aggregation (Section 5.3)", 6.7,
            low, groupBySet, sql::groupByLowApp, serving::groupByJob));
    }
    {
        sql::GroupByConfig high;
        high.ndv = 256 << 10;
        r.push_back(makeSpec<sql::GroupByConfig>(
            "groupby-high",
            "high-NDV partitioned aggregation (Section 5.3)", 9.7,
            high, groupBySet, sql::groupByHighApp, serving::groupByJob));
    }

    r.push_back(makeSpec<HllConfig>(
        "hll-crc", "HyperLogLog with CRC32 hashing (Section 5.4)",
        9.0, HllConfig{}, hllSet, hllApp, serving::hllJob));

    {
        HllConfig murmur;
        murmur.hash = HllHash::Murmur64;
        r.push_back(makeSpec<HllConfig>(
            "hll-murmur",
            "HyperLogLog with Murmur64 hashing (Section 5.4)", 1.5,
            murmur, hllSet, hllApp, serving::hllJob));
    }

    r.push_back(makeSpec<JsonConfig>(
        "json", "jump-table JSON parsing (Section 5.5)", 8.0,
        JsonConfig{}, jsonSet, jsonApp, serving::jsonJob));

    r.push_back(makeSpec<DisparityConfig>(
        "disparity", "stereo disparity SAD argmin (Section 5.6)",
        8.6, DisparityConfig{}, disparitySet, disparityApp,
        serving::disparityJob));

    return r;
}

} // namespace

const std::vector<AppSpec> &
registry()
{
    static const std::vector<AppSpec> r = buildRegistry();
    return r;
}

const AppSpec *
findApp(std::string_view name)
{
    for (const AppSpec &spec : registry())
        if (spec.name == name)
            return &spec;
    return nullptr;
}

AppResult
runApp(std::string_view name,
       std::initializer_list<
           std::pair<std::string_view, std::string_view>>
           opts)
{
    const AppSpec *spec = findApp(name);
    sim_assert(spec, "unknown app \"%.*s\"", int(name.size()),
               name.data());
    ConfigHandle cfg = spec->makeConfig();
    for (const auto &[k, v] : opts)
        sim_assert(spec->set(cfg, k, v),
                   "app %s rejected option %.*s=%.*s",
                   spec->name.c_str(), int(k.size()), k.data(),
                   int(v.size()), v.data());
    return spec->run(cfg);
}

} // namespace dpu::apps
