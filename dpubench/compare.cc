/**
 * @file
 * dpubench --compare: per-workload, per-metric verdicts between two
 * result files (the JSON lines dpubench prints), judged against the
 * bounds in BENCHMARK.json.
 *
 * For a metric with a bound, "worse" is the median's relative change
 * in the direction the metric must not move. The verdict is
 *  - unresolved:   the two interquartile ranges overlap by more than
 *                  the bound (the noise hides a change that size);
 *  - regressed:    worse by more than the bound;
 *  - better:       improved by more than the bound, with disjoint
 *                  interquartile ranges;
 *  - within bound: anything else.
 * Simulated ("sim" clock) metrics are deterministic: "identical"
 * when the values match bit for bit, otherwise judged as above (or
 * "changed" when unbounded). Unbounded host metrics (the traced
 * shares) get no verdict. A stats_digest change is flagged on its
 * own line.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dpubench.hh"
#include "sim/json.hh"

namespace dpubench {
namespace {

namespace json = dpu::sim::json;

struct Bound
{
    double bound = 0;
    bool lowerIsBetter = true;
};

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream f(path);
    if (!f)
        return false;
    std::stringstream ss;
    ss << f.rdbuf();
    out = ss.str();
    return true;
}

/** Workload name -> its result object, from a JSON-lines file. */
bool
loadResults(const std::string &path, std::vector<json::Value> &out)
{
    std::string text;
    if (!readFile(path, text)) {
        std::fprintf(stderr, "dpubench: cannot read %s\n",
                     path.c_str());
        return false;
    }
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] != '{')
            continue;
        json::Value v;
        std::string err;
        if (!json::parse(line, v, err)) {
            std::fprintf(stderr, "dpubench: %s: %s\n", path.c_str(),
                         err.c_str());
            return false;
        }
        if (v.find("workload"))
            out.push_back(std::move(v));
    }
    return true;
}

const json::Value *
findWorkload(const std::vector<json::Value> &res, const std::string &w)
{
    for (const json::Value &v : res)
        if (v.find("workload")->s == w)
            return &v;
    return nullptr;
}

double
field(const json::Value &m, const char *k, double fallback)
{
    const json::Value *v = m.find(k);
    return v && v->isNum() ? v->asDouble() : fallback;
}

} // namespace

int
compareMain(const std::string &base_path, const std::string &new_path,
            const std::string &bench_json_path)
{
    std::string text, err;
    json::Value bench;
    if (!readFile(bench_json_path, text) ||
        !json::parse(text, bench, err)) {
        std::fprintf(stderr, "dpubench: cannot read bounds from %s %s\n",
                     bench_json_path.c_str(), err.c_str());
        return 2;
    }
    std::map<std::string, Bound> bounds;
    if (const json::Value *e2e = bench.find("end_to_end"))
        for (const json::Value &m : e2e->arr) {
            const json::Value *name = m.find("name");
            const json::Value *bound = m.find("bound");
            const json::Value *better = m.find("better");
            if (name && bound && better)
                bounds[name->s] = {bound->asDouble(),
                                   better->s == "lower"};
        }

    std::vector<json::Value> base, cand;
    if (!loadResults(base_path, base) || !loadResults(new_path, cand))
        return 2;

    std::printf("%-14s %-28s %-9s %14s %14s %9s %7s  %s\n", "workload",
                "metric", "unit", "base", "new", "delta", "bound",
                "verdict");
    unsigned regressed = 0;
    for (const json::Value &b : base) {
        const std::string w = b.find("workload")->s;
        const json::Value *n = findWorkload(cand, w);
        if (!n) {
            std::printf("%-14s missing from %s\n", w.c_str(),
                        new_path.c_str());
            continue;
        }
        const json::Value *bd = b.find("stats_digest");
        const json::Value *nd = n->find("stats_digest");
        if (bd && nd && bd->s != nd->s)
            std::printf("%-14s FLAG: stats_digest changed %s -> %s\n",
                        w.c_str(), bd->s.c_str(), nd->s.c_str());

        const json::Value *bm = b.find("metrics");
        const json::Value *nm = n->find("metrics");
        if (!bm || !nm)
            continue;
        for (const auto &[name, mb] : bm->obj) {
            const json::Value *mn = nm->find(name);
            if (!mn)
                continue;
            const double vb = field(mb, "value", NAN);
            const double vn = field(*mn, "value", NAN);
            const json::Value *clock = mb.find("clock");
            const bool host = clock && clock->s == "host";
            const auto bit = bounds.find(name);
            const bool bounded = bit != bounds.end();
            if (!bounded && host)
                continue;

            const double delta = vb != 0 ? (vn - vb) / std::fabs(vb)
                                          : (vn == vb ? 0.0 : INFINITY);
            std::string verdict;
            if (!host && vb == vn) {
                verdict = "identical";
            } else if (!bounded) {
                verdict = "changed";
            } else {
                const Bound &bo = bit->second;
                const double worse = bo.lowerIsBetter ? delta : -delta;
                const double b25 = field(mb, "p25", vb);
                const double b75 = field(mb, "p75", vb);
                const double n25 = field(*mn, "p25", vn);
                const double n75 = field(*mn, "p75", vn);
                const double overlap =
                    std::max(0.0, std::min(b75, n75) -
                                      std::max(b25, n25));
                const bool disjoint = b75 < n25 || n75 < b25;
                if (vb != 0 && overlap / std::fabs(vb) > bo.bound)
                    verdict = "unresolved";
                else if (worse > bo.bound)
                    verdict = "regressed";
                else if (-worse > bo.bound && disjoint)
                    verdict = "better";
                else
                    verdict = "within bound";
            }
            if (verdict == "regressed")
                ++regressed;
            const json::Value *unit = mb.find("unit");
            char bound_s[16] = "-";
            if (bounded)
                std::snprintf(bound_s, sizeof bound_s, "%.0f%%",
                              bit->second.bound * 100);
            std::printf("%-14s %-28s %-9s %14.9g %14.9g %+8.2f%% %7s  "
                        "%s\n",
                        w.c_str(), name.c_str(),
                        unit ? unit->s.c_str() : "", vb, vn,
                        delta * 100, bound_s, verdict.c_str());
        }
    }
    std::printf("%u metric(s) regressed\n", regressed);
    return regressed ? 1 : 0;
}

} // namespace dpubench
