/**
 * @file
 * FaultPlane implementation: spec parsing, deterministic firing
 * decisions, and the seeded chaos-spec generator.
 */

#include "sim/fault.hh"

#include <cstdio>
#include <cstdlib>

#include "sim/domain.hh"
#include "sim/logging.hh"

namespace dpu::sim {

namespace {

/** Spec names, indexed by FaultSite. */
const char *const siteNames[nFaultSites] = {
    "dms.wedge",      "dms.descError", "ate.drop",
    "ate.delay",      "mbc.drop",      "core.stall",
    "mem.degrade",    "link.drop",     "link.delay",
    "rack.netDrop",   "rack.netDelay", "rack.boardDown",
    "rack.boardCrash",
};

bool
parseSite(const std::string &name, FaultSite &out)
{
    for (unsigned i = 0; i < nFaultSites; ++i) {
        if (name == siteNames[i]) {
            out = FaultSite(i);
            return true;
        }
    }
    return false;
}

/** Split @p s on @p sep, dropping empty pieces. */
std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t end = s.find(sep, start);
        if (end == std::string::npos)
            end = s.size();
        if (end > start)
            out.push_back(s.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

std::uint64_t
parseU64(const std::string &rule, const std::string &v)
{
    char *end = nullptr;
    // Route through strtod so window keys accept "2e9" notation.
    double d = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0' || d < 0)
        fatal("fault spec '%s': bad numeric value '%s'", rule.c_str(),
              v.c_str());
    return std::uint64_t(d);
}

double
parseF64(const std::string &rule, const std::string &v)
{
    char *end = nullptr;
    double d = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0')
        fatal("fault spec '%s': bad numeric value '%s'", rule.c_str(),
              v.c_str());
    return d;
}

} // namespace

const char *
faultSiteName(FaultSite site)
{
    return siteNames[unsigned(site)];
}

void
FaultPlane::seedDomain(FaultRule &r, unsigned d)
{
    // Domain 0 replays the pre-domain single stream exactly; higher
    // domains split off with a golden-ratio stride so no two chips
    // share a sequence.
    r.dom[d].rng = Rng(d == 0 ? r.ruleSeed
                              : r.ruleSeed +
                                    0x9e3779b97f4a7c15ull * d);
}

void
FaultPlane::ensureDomains(unsigned n)
{
    if (n <= nDomains) {
        return;
    }
    for (auto &r : rules) {
        const unsigned have = unsigned(r.dom.size());
        r.dom.resize(n);
        for (unsigned d = have; d < n; ++d)
            seedDomain(r, d);
    }
    nDomains = n;
    addInjectionRows();
}

void
FaultPlane::addInjectionRows()
{
    if (!stats)
        return;
    while (injections.size() < std::size_t(nDomains) * nFaultSites)
        injections.emplace_back(
            *stats, siteNames[injections.size() % nFaultSites]);
}

void
FaultPlane::reset()
{
    rules.clear();
    memRules = 0;
    specStr.clear();
    // The domain count is sticky (a live Board keeps its sizing);
    // the counts are not.
    stats.reset();
    injections.clear();
}

void
FaultPlane::configure(const std::string &spec, std::uint64_t seed)
{
    reset();
    if (spec.empty())
        return;

    for (const std::string &part : split(spec, ';')) {
        FaultRule r;
        const std::size_t at = part.find('@');
        const std::string siteName = part.substr(0, at);
        if (!parseSite(siteName, r.site))
            fatal("fault spec '%s': unknown site '%s'", part.c_str(),
                  siteName.c_str());

        if (at != std::string::npos) {
            for (const std::string &kv : split(part.substr(at + 1), ',')) {
                const std::size_t eq = kv.find('=');
                if (eq == std::string::npos)
                    fatal("fault spec '%s': key '%s' needs a value",
                          part.c_str(), kv.c_str());
                const std::string k = kv.substr(0, eq);
                const std::string v = kv.substr(eq + 1);
                if (k == "p") {
                    r.p = parseF64(part, v);
                    if (r.p < 0.0 || r.p > 1.0)
                        fatal("fault spec '%s': p=%s out of [0,1]",
                              part.c_str(), v.c_str());
                } else if (k == "nth") {
                    r.nth = parseU64(part, v);
                } else if (k == "from") {
                    r.from = parseU64(part, v);
                } else if (k == "to") {
                    r.to = parseU64(part, v);
                } else if (k == "max") {
                    r.max = parseU64(part, v);
                } else if (k == "mag") {
                    r.mag = parseU64(part, v);
                } else if (k == "unit") {
                    r.unit = int(parseF64(part, v));
                } else {
                    fatal("fault spec '%s': unknown key '%s'",
                          part.c_str(), k.c_str());
                }
            }
        }
        r.ruleSeed = seed ^ (0x6661756c74ull + rules.size());
        r.dom.resize(nDomains);
        for (unsigned d = 0; d < nDomains; ++d)
            seedDomain(r, d);
        if (r.site == FaultSite::MemDegrade) {
            // A degrade window needs a divisor; default to 4x.
            if (r.mag < 2)
                r.mag = 4;
            ++memRules;
        }
        rules.push_back(r);
    }

    specStr = spec;
    stats = std::make_unique<StatGroup>("fault");
    addInjectionRows();
}

bool
FaultPlane::fires(FaultSite site, Tick now, int unit,
                  std::uint64_t *magnitude)
{
    const unsigned d = currentDomain();
    sim_assert(d < nDomains,
               "fault opportunity in unsized domain %u (call "
               "ensureDomains)",
               d);
    for (auto &r : rules) {
        if (r.site != site)
            continue;
        if (r.unit >= 0 && unit >= 0 && r.unit != unit)
            continue;
        if (now < r.from || now >= r.to)
            continue;
        FaultRule::DomainState &ds = r.dom[d];
        ++ds.seen;
        if (ds.fired >= r.max)
            continue;
        bool hit;
        if (r.nth)
            hit = ds.seen % r.nth == 0;
        else
            hit = r.p >= 1.0 || ds.rng.uniform() < r.p;
        if (!hit)
            continue;
        ++ds.fired;
        ++injectionsAt(d, site);
        if (magnitude)
            *magnitude = r.mag;
        return true;
    }
    return false;
}

std::uint64_t
FaultPlane::memBwDivisor(Tick now)
{
    const unsigned d = currentDomain();
    sim_assert(d < nDomains,
               "fault opportunity in unsized domain %u (call "
               "ensureDomains)",
               d);
    std::uint64_t factor = 1;
    for (auto &r : rules) {
        if (r.site != FaultSite::MemDegrade)
            continue;
        if (now < r.from || now >= r.to)
            continue;
        factor *= r.mag;
        // Count degraded bursts; budget caps window length, not
        // bursts, so `max` is ignored here.
        ++r.dom[d].fired;
    }
    if (factor > 1)
        ++injectionsAt(d, FaultSite::MemDegrade);
    return factor;
}

std::uint64_t
FaultPlane::injectedTotal() const
{
    std::uint64_t total = 0;
    for (const Counter &c : injections)
        total += c.value();
    return total;
}

std::string
FaultPlane::randomSpec(std::uint64_t seed)
{
    // Seed-deterministic chaos schedule: pick 1-3 fault rules with
    // bounded rates so a run degrades without flat-lining. Magnitudes
    // and windows come from the same Rng, so the schedule is a pure
    // function of the seed.
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xc4a05ull);
    const unsigned nRules = 1 + unsigned(rng.below(3));
    std::string spec;
    for (unsigned i = 0; i < nRules; ++i) {
        if (!spec.empty())
            spec += ';';
        // Each rule draws its fields into named locals, last field
        // first: that order is part of the schedule, and C++ leaves
        // the order of function arguments unspecified.
        using ull = unsigned long long;
        char buf[128];
        switch (rng.below(7)) {
        case 0: { // rare permanent DMAC wedge
            const ull nth = 20 + rng.below(60);
            std::snprintf(buf, sizeof(buf), "dms.wedge@nth=%llu,max=1",
                          nth);
            break;
        }
        case 1: { // sporadic descriptor error completions
            const ull max = 2 + rng.below(6);
            const ull p = 1 + rng.below(9);
            std::snprintf(buf, sizeof(buf),
                          "dms.descError@p=0.0%llu,max=%llu", p, max);
            break;
        }
        case 2: { // lost RPC requests (recovered by retry)
            const ull max = 2 + rng.below(8);
            const ull p = 1 + rng.below(9);
            std::snprintf(buf, sizeof(buf), "ate.drop@p=0.0%llu,max=%llu",
                          p, max);
            break;
        }
        case 3: { // jittered RPC delivery, 1-4 us extra
            const ull mag = (1 + rng.below(4)) * 1000000ull;
            std::snprintf(buf, sizeof(buf), "ate.delay@p=0.1,mag=%llu",
                          mag);
            break;
        }
        case 4: { // lost mailbox messages (recovered by requeue)
            const ull max = 1 + rng.below(3);
            const ull nth = 15 + rng.below(40);
            std::snprintf(buf, sizeof(buf), "mbc.drop@nth=%llu,max=%llu",
                          nth, max);
            break;
        }
        case 5: { // finite worker stalls, 100-900 us of cycles
            const ull mag = (1 + rng.below(9)) * 80000ull;
            const ull nth = 5 + rng.below(20);
            std::snprintf(buf, sizeof(buf),
                          "core.stall@nth=%llu,max=2,mag=%llu", nth, mag);
            break;
        }
        default: { // degraded DDR bandwidth window
            const ull mag = 2 + rng.below(7);
            const ull to = 2000000000ull + rng.below(4) * 1000000000ull;
            const ull from = rng.below(4) * 500000000ull;
            std::snprintf(buf, sizeof(buf),
                          "mem.degrade@from=%llu,to=%llu,mag=%llu", from,
                          to, mag);
            break;
        }
        }
        spec += buf;
    }
    return spec;
}

} // namespace dpu::sim
