#include "sim/trace.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <tuple>

#include "sim/logging.hh"

namespace dpu::sim {

namespace {

const char *
catName(std::uint8_t pid)
{
    switch (TraceCat(pid)) {
      case TraceCat::Core: return "dpCore";
      case TraceCat::Dms: return "DMS";
      case TraceCat::Ate: return "ATE";
      case TraceCat::Ddr: return "DDR";
      case TraceCat::Soc: return "SoC";
    }
    return "?";
}

/** The exported pid of subsystem @p cat's records in domain @p dom:
 *  the subsystem itself in domain 0, so single-chip traces keep
 *  pids 1..5, and a block of 8 per later domain. */
unsigned
exportPid(unsigned dom, std::uint8_t cat)
{
    return 8 * dom + cat;
}

/** Ticks (ps) -> Chrome trace microseconds, exact to the ps. */
void
writeUs(std::ostream &os, Tick t)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%llu.%06llu",
                  (unsigned long long)(t / 1'000'000),
                  (unsigned long long)(t % 1'000'000));
    os << buf;
}

void
writeEscaped(std::ostream &os, const std::string &s)
{
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            os << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
               << "0123456789abcdef"[c & 0xf];
        else
            os << c;
    }
}

} // namespace

void
Tracer::arm(std::size_t capacity)
{
    sim_assert(capacity > 0, "tracer capacity must be non-zero");
    cap = capacity;
    // An armed window is self-contained, so repeated runs in one
    // process export bit-identical traces.
    clear();
    isArmed = true;
}

void
Tracer::clear()
{
    for (auto &d : doms)
        *d = Domain{};
}

void
Tracer::ensureDomains(unsigned n)
{
    while (doms.size() < n)
        doms.push_back(std::make_unique<Domain>());
}

std::size_t
Tracer::size() const
{
    std::size_t total = 0;
    for (const auto &d : doms)
        total += d->ring.size();
    return total;
}

std::uint64_t
Tracer::dropped() const
{
    std::uint64_t n = 0;
    for (const auto &d : doms)
        n += d->total - d->ring.size();
    return n;
}

void
Tracer::nameTrack(TraceCat cat, std::uint32_t tid, std::string name)
{
    trackNames[{std::uint8_t(cat), tid}] = std::move(name);
}

void
Tracer::exportJson(std::ostream &os) const
{
    // Merge the domain rings: oldest-first per domain, concatenated
    // in domain order, then a stable sort by timestamp — the
    // resulting (ts, domain, local order) total order is a pure
    // function of the simulated execution, independent of how many
    // threads recorded.
    struct Entry
    {
        const TraceRecord *r;
        unsigned dom;
    };
    std::vector<Entry> order;
    order.reserve(size());
    for (unsigned dom = 0; dom < doms.size(); ++dom) {
        const Domain &d = *doms[dom];
        const std::size_t held = d.ring.size();
        const std::uint64_t first = d.total - held;
        for (std::size_t i = 0; i < held; ++i)
            order.push_back({&d.ring[(first + i) % held], dom});
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const Entry &a, const Entry &b) {
                         return a.r->ts < b.r->ts;
                     });

    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool comma = false;

    // Metadata. Domain 0 keeps one process per subsystem, named for
    // every subsystem that records or registered a track, and every
    // registered track name. Domain d > 0 (chip d of a board) gets
    // processes of its own, named after the chip, with the names of
    // the registered tracks it records on.
    std::set<std::pair<unsigned, std::uint8_t>> procs; // (dom, cat)
    std::set<std::tuple<unsigned, std::uint8_t, std::uint32_t>> used;
    for (const Entry &e : order) {
        procs.insert({e.dom, e.r->pid});
        if (e.dom > 0)
            used.insert({e.dom, e.r->pid, e.r->tid});
    }
    for (const auto &[key, _] : trackNames)
        procs.insert({0, key.first});
    for (const auto &[dom, cat] : procs) {
        if (comma)
            os << ",";
        comma = true;
        os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":"
           << exportPid(dom, cat) << ",\"args\":{\"name\":\"";
        if (dom > 0)
            os << "dpu" << dom << " ";
        os << catName(cat) << "\"}}";
    }
    const auto threadName = [&os](unsigned pid, std::uint32_t tid,
                                  const std::string &name) {
        os << ",{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":"
           << pid << ",\"tid\":" << tid << ",\"args\":{\"name\":\"";
        writeEscaped(os, name);
        os << "\"}}";
    };
    for (const auto &[key, name] : trackNames)
        threadName(key.first, key.second, name);
    for (const auto &[dom, cat, tid] : used) {
        const auto it = trackNames.find({cat, tid});
        if (it != trackNames.end())
            threadName(exportPid(dom, cat), tid, it->second);
    }

    for (const Entry &e : order) {
        const TraceRecord &r = *e.r;
        if (comma)
            os << ",";
        comma = true;
        os << "{\"ph\":\"" << r.ph << "\",\"pid\":"
           << exportPid(e.dom, r.pid) << ",\"tid\":" << r.tid
           << ",\"name\":\"" << (r.name ? r.name : "?")
           << "\",\"ts\":";
        writeUs(os, r.ts);
        if (r.ph == 'X') {
            os << ",\"dur\":";
            writeUs(os, r.dur);
        }
        if (r.ph == 'b' || r.ph == 'e') {
            // Async events need a category and an id to pair up.
            os << ",\"cat\":\"" << catName(r.pid) << "\",\"id\":"
               << r.id;
        }
        if (r.ph == 'i')
            os << ",\"s\":\"t\""; // thread-scoped instant
        if (r.k0) {
            os << ",\"args\":{\"" << r.k0 << "\":" << r.a0;
            if (r.k1)
                os << ",\"" << r.k1 << "\":" << r.a1;
            os << "}";
        }
        os << "}";
    }
    os << "]}\n";
}

void
Tracer::armFromEnvOnce()
{
    if (envChecked)
        return;
    envChecked = true;
    const char *path = std::getenv("DPU_TRACE");
    if (!path || !*path)
        return;
    std::size_t cap = defaultCapacity;
    if (const char *c = std::getenv("DPU_TRACE_CAP")) {
        char *end = nullptr;
        unsigned long long v = std::strtoull(c, &end, 10);
        if (end != c && v > 0)
            cap = std::size_t(v);
    }
    outPath = path;
    arm(cap);
    std::atexit([] { tracer().flushToFileIfArmed(); });
}

void
Tracer::flushToFileIfArmed()
{
    if (!isArmed || outPath.empty())
        return;
    std::ofstream os(outPath, std::ios::trunc);
    if (!os) {
        warn("DPU_TRACE: cannot open '%s'", outPath.c_str());
        return;
    }
    exportJson(os);
    inform("trace: wrote %zu events to %s (%llu dropped)", size(),
           outPath.c_str(), (unsigned long long)dropped());
}

} // namespace dpu::sim
