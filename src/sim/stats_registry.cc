#include "sim/stats_registry.hh"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "sim/json.hh"
#include "sim/stats.hh"

namespace dpu::sim {

StatsRegistry &
StatsRegistry::instance()
{
    static StatsRegistry r;
    return r;
}

std::size_t
StatsRegistry::groupCount() const
{
    std::lock_guard<std::mutex> hold(lock);
    return count;
}

void
StatsRegistry::add(StatGroup *g)
{
    std::lock_guard<std::mutex> hold(lock);
    g->prev = tail;
    g->next = nullptr;
    (tail ? tail->next : head) = g;
    tail = g;
    ++count;
}

void
StatsRegistry::remove(StatGroup *g)
{
    std::lock_guard<std::mutex> hold(lock);
    (g->prev ? g->prev->next : head) = g->next;
    (g->next ? g->next->prev : tail) = g->prev;
    --count;
}

StatsSnapshot
StatsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> hold(lock);
    StatsSnapshot snap;
    std::map<std::string, unsigned> seen;
    for (const StatGroup *g = head; g; g = g->next) {
        std::string prefix = g->name();
        unsigned repeat = seen[prefix]++;
        if (repeat > 0)
            prefix += "#" + std::to_string(repeat);
        prefix += ".";
        for (const auto &[name, value] : g->counterCells())
            snap.counters[prefix + name] = value;
        for (const auto &[name, value] : g->scalarCells())
            snap.scalars[prefix + name] = value;
    }
    return snap;
}

namespace {

void
writeKey(std::ostream &os, const std::string &key)
{
    os << '"';
    for (char c : key) {
        if (c == '"' || c == '\\')
            os << '\\';
        os << c;
    }
    os << '"';
}

} // namespace

void
StatsSnapshot::writeJson(std::ostream &os) const
{
    os << "{\n  \"counters\": {";
    bool comma = false;
    for (const auto &[key, value] : counters) {
        os << (comma ? ",\n    " : "\n    ");
        comma = true;
        writeKey(os, key);
        os << ": " << value;
    }
    os << (comma ? "\n  " : "") << "},\n  \"scalars\": {";
    comma = false;
    std::ostringstream num;
    num.precision(17);
    for (const auto &[key, value] : scalars) {
        os << (comma ? ",\n    " : "\n    ");
        comma = true;
        writeKey(os, key);
        num.str("");
        num << value;
        // Keep the value a JSON number but make it round-trip as a
        // double: %.17g emits "3" for 3.0, which would reload as an
        // Int — harmless for diffing, so emit it as-is.
        os << ": " << num.str();
    }
    os << (comma ? "\n  " : "") << "}\n}\n";
}

bool
StatsSnapshot::readJson(const std::string &text, StatsSnapshot &out,
                        std::string &err)
{
    json::Value doc;
    if (!json::parse(text, doc, err))
        return false;
    if (doc.kind != json::Value::Kind::Object) {
        err = "snapshot root is not an object";
        return false;
    }
    out = StatsSnapshot{};
    if (const json::Value *c = doc.find("counters")) {
        for (const auto &[key, v] : c->obj) {
            if (v.kind != json::Value::Kind::Int || v.i < 0) {
                err = "counter '" + key + "' is not a non-negative "
                      "integer";
                return false;
            }
            out.counters[key] = v.asU64();
        }
    }
    if (const json::Value *s = doc.find("scalars")) {
        for (const auto &[key, v] : s->obj) {
            if (!v.isNum()) {
                err = "scalar '" + key + "' is not a number";
                return false;
            }
            out.scalars[key] = v.asDouble();
        }
    }
    return true;
}

namespace {

bool
drifts(double golden, double actual, double tol)
{
    return std::fabs(actual - golden) >
           tol * std::max(std::fabs(golden), 1.0);
}

template <typename Map, typename AsDouble>
void
diffMaps(const Map &golden, const Map &actual, double tol,
         AsDouble toDouble, std::vector<StatDiff> &out)
{
    for (const auto &[key, gv] : golden) {
        auto it = actual.find(key);
        if (it == actual.end()) {
            out.push_back({key, toDouble(gv), 0.0, "missing"});
            continue;
        }
        double g = toDouble(gv), a = toDouble(it->second);
        if (drifts(g, a, tol))
            out.push_back({key, g, a, "drift"});
    }
    for (const auto &[key, av] : actual) {
        if (!golden.count(key))
            out.push_back({key, 0.0, toDouble(av), "extra"});
    }
}

} // namespace

std::vector<StatDiff>
diffSnapshots(const StatsSnapshot &golden, const StatsSnapshot &actual,
              double scalar_rel)
{
    std::vector<StatDiff> out;
    diffMaps(golden.counters, actual.counters, 0.0,
             [](std::uint64_t v) { return double(v); }, out);
    diffMaps(golden.scalars, actual.scalars, scalar_rel,
             [](double v) { return v; }, out);
    return out;
}

std::string
formatDiffs(const std::vector<StatDiff> &diffs)
{
    std::ostringstream os;
    os.precision(17);
    for (const StatDiff &d : diffs)
        os << "  " << d.key << " [" << d.kind << "]: " << d.golden
           << " -> " << d.actual << "\n";
    return os.str();
}

} // namespace dpu::sim
