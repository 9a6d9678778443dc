/**
 * @file
 * dpubench command line: runs workloads, folds their repeats into
 * medians, checks that every repeat agrees on the simulated results,
 * and prints one JSON line per workload (the last line of stdout).
 *
 *   dpubench [--workload <name|all>] [--seed <n>] [--repeats <n> |
 *            --seconds <s>] [--trace <file>] [--smoke]
 *   dpubench --compare <base.json> <new.json> [--bench-json <path>]
 *
 * Human-readable progress goes to stderr. --workload all runs each
 * workload in its own process, and every repeat of a workload runs
 * in a forked child of that process.
 */

#include "dpubench.hh"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/event.hh"
#include "sim/logging.hh"

extern char **environ;

namespace dpubench {

// ----------------------------------------------------------------
// Spans
// ----------------------------------------------------------------

SpanLog::Scope::Scope(SpanLog *l, std::string name,
                      std::string bucket)
    : log(l)
{
    if (!log)
        return;
    idx = int(log->all.size());
    log->all.push_back({std::move(name), std::move(bucket), wallNow(),
                        0, log->open.empty() ? -1 : log->open.back(),
                        log->repeat});
    log->open.push_back(idx);
}

SpanLog::Scope::~Scope()
{
    if (!log)
        return;
    log->all[idx].end = wallNow();
    log->open.pop_back();
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const double t0 = all.empty() ? 0 : all.front().start;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(
            f,
            "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":\"%s\","
            "\"repeat\":%u}}",
            i ? "," : "", s.name.c_str(), (s.start - t0) * 1e6,
            (s.end - s.start) * 1e6,
            s.parent < 0 ? "" : all[s.parent].name.c_str(), s.repeat);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

namespace {

// ----------------------------------------------------------------
// Small helpers
// ----------------------------------------------------------------

/** Quartile @p i of 4 of ascending @p v, the same "exclusive"
 *  method as Python's statistics.quantiles(v, n=4). */
double
quartile(const std::vector<double> &v, unsigned i)
{
    const std::size_t n = v.size();
    if (n == 1)
        return v[0];
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = double(i * m) - double(j * 4);
    return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** JSON number: integers exactly, everything else to 9 significant
 *  digits (deterministic metrics must print bit-stably). */
std::string
num(double v)
{
    char buf[64];
    if (!std::isfinite(v))
        return "null";
    if (v == std::floor(v) && std::fabs(v) < 9e15)
        std::snprintf(buf, sizeof buf, "%.0f", v);
    else
        std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out + "\"";
}

/**
 * One "name": {value, unit, clock, ...} member of the metrics
 * object. clock "sim" marks a deterministic simulated value (equal
 * on every run of a seed); clock "host" a measurement of this
 * machine.
 */
class MetricWriter
{
  public:
    void
    add(const std::string &name, double value, const char *unit,
        const char *clock, const std::string &extra = "")
    {
        out += (out.empty() ? "" : ",") + quoted(name) +
               ":{\"value\":" + num(value) + ",\"unit\":" +
               quoted(unit) + ",\"clock\":" + quoted(clock) + extra +
               "}";
    }

    /** A host timing: median, quartiles and sample count. */
    void
    addHost(const std::string &name, std::vector<double> v,
            const char *unit)
    {
        std::sort(v.begin(), v.end());
        add(name, median(v), unit, "host",
            ",\"p25\":" + num(quartile(v, 1)) + ",\"p75\":" +
                num(quartile(v, 3)) + ",\"n\":" + num(double(v.size())));
    }

    const std::string &str() const { return out; }

  private:
    std::string out;
};

/** Unit of a deterministic simulated metric, by naming rule. */
const char *
simUnit(const std::string &k)
{
    auto ends = [&](const char *s) {
        const std::size_t n = std::strlen(s);
        return k.size() >= n && k.compare(k.size() - n, n, s) == 0;
    };
    if (ends("_us"))
        return "sim_us";
    if (ends("_ms"))
        return "sim_ms";
    if (ends("bytes"))
        return "bytes";
    if (k == "users_per_sim_s")
        return "req/sim_s";
    if (ends("_frac") || ends("_ratio") || ends("_util") ||
        ends("_err") || ends(".gain"))
        return "ratio";
    return "count";
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("model name", 0) == 0) {
            const std::size_t c = line.find(':');
            return c == std::string::npos ? line : line.substr(c + 2);
        }
    return "unknown";
}

// ----------------------------------------------------------------
// Options
// ----------------------------------------------------------------

struct Options
{
    std::string workload = "all";
    std::uint64_t seed = 0;
    bool seedGiven = false;
    unsigned repeats = 5;
    bool repeatsGiven = false;
    double seconds = 0; ///< > 0: repeat until this budget is spent
    std::string trace;  ///< Chrome-trace output path ("" = no trace)
    bool smoke = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "dpubench: %s\n"
                 "usage: dpubench [--workload <name|all>] [--seed <n>]"
                 " [--repeats <n> | --seconds <s>] [--trace <file>]"
                 " [--smoke]\n"
                 "       dpubench --compare <base.json> <new.json>"
                 " [--bench-json <path>]\n"
                 "workloads (default seed / held-out seed):\n",
                 msg);
    for (const Workload &w : workloads())
        std::fprintf(stderr, "  %-14s %" PRIu64 " / %" PRIu64 ": %s\n",
                     w.name, w.defaultSeed, w.heldOutSeed, w.why);
    std::exit(2);
}

std::uint64_t
parseU64(const char *s, const char *flag)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || !end || *end || *s == '-' || !*s)
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

// ----------------------------------------------------------------
// One repeat, in a child process
// ----------------------------------------------------------------

/** Send @p r as one "kind key value" item per line; doubles carry
 *  17 significant digits, so they read back bit for bit. */
void
writeRepeat(std::FILE *f, const Repeat &r)
{
    std::fprintf(f, "setup - %.17g\nsetup_cpu - %.17g\n", r.setupS,
                 r.setupCpuS);
    std::fprintf(f, "wall - %.17g\ncpu - %.17g\n", r.wallS, r.cpuS);
    std::fprintf(f, "attempted - %" PRIu64 "\nfailed - %" PRIu64 "\n",
                 r.attempted, r.failed);
    std::fprintf(f, "digest - %" PRIu32 "\n", r.digest);
    for (const auto &[k, v] : r.sim)
        std::fprintf(f, "sim %s %.17g\n", k.c_str(), v);
    for (const auto &[k, v] : r.hostS)
        std::fprintf(f, "host %s %.17g\n", k.c_str(), v);
    for (const std::string &e : r.errors)
        std::fprintf(f, "error - %s\n", e.c_str());
}

Repeat
readRepeat(const std::string &text)
{
    Repeat r;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string kind, key, val;
        ls >> kind >> key;
        std::getline(ls >> std::ws, val);
        const double v = std::strtod(val.c_str(), nullptr);
        if (kind == "setup")
            r.setupS = v;
        else if (kind == "setup_cpu")
            r.setupCpuS = v;
        else if (kind == "wall")
            r.wallS = v;
        else if (kind == "cpu")
            r.cpuS = v;
        else if (kind == "attempted")
            r.attempted = std::strtoull(val.c_str(), nullptr, 10);
        else if (kind == "failed")
            r.failed = std::strtoull(val.c_str(), nullptr, 10);
        else if (kind == "digest")
            r.digest = std::uint32_t(std::strtoul(val.c_str(), nullptr, 10));
        else if (kind == "sim")
            r.sim[key] = v;
        else if (kind == "host")
            r.hostS[key] = v;
        else if (kind == "error")
            r.errors.push_back(val);
    }
    return r;
}

/**
 * Run one repeat of @p w in a forked child, so that it starts from a
 * fresh process: empty heap, empty stats registry, no state left by
 * an earlier repeat. A non-empty @p trace_path turns spans on and
 * has the child write them there as Chrome-trace JSON.
 */
Repeat
runRepeat(const Workload &w, RunConfig cfg, unsigned index,
          const std::string &trace_path)
{
    Repeat failed;
    int fds[2];
    if (pipe(fds) != 0) {
        failed.errors.push_back("cannot create a pipe for a repeat");
        return failed;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        failed.errors.push_back("cannot fork a repeat");
        return failed;
    }
    if (pid == 0) {
        close(fds[0]);
        SpanLog log;
        log.setRepeat(index);
        if (!trace_path.empty())
            cfg.spans = &log;
        Repeat r = w.run(cfg);
        for (const SpanLog::Span &s : log.spans())
            if (!s.bucket.empty())
                r.hostS[s.bucket] += s.end - s.start;
        if (cfg.spans && !log.writeChromeTrace(trace_path))
            r.errors.push_back("could not write trace file " +
                               trace_path);
        std::FILE *f = fdopen(fds[1], "w");
        if (!f)
            _exit(1);
        writeRepeat(f, r);
        _exit(std::fclose(f) == 0 ? 0 : 1);
    }

    close(fds[1]);
    std::string text;
    char buf[1 << 14];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof buf);
        if (n > 0)
            text.append(buf, std::size_t(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    close(fds[0]);
    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    Repeat r = readRepeat(text);
    r.rssMb = double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        r.errors.push_back("repeat " + std::to_string(index) +
                           ": its process ended with status " +
                           std::to_string(status));
    return r;
}

// ----------------------------------------------------------------
// One workload
// ----------------------------------------------------------------

/**
 * CPU seconds the host takes for a fixed reference task: sorting
 * 2^18 pseudo-random 32-bit integers, the fastest of 8 tries (a
 * slower try was interrupted). The task shares no code with the
 * simulator, so its time tracks only how fast the host runs. On a
 * shared host that drifts by up to 30% over minutes with the other
 * tenants' load on caches, memory and physical cores, and CPU time
 * drifts with it.
 */
double
referenceTaskCpuS()
{
    std::vector<std::uint32_t> v(std::size_t(1) << 18);
    double best = INFINITY;
    for (unsigned t = 0; t < 8; ++t) {
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (std::uint32_t &e : v) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            e = std::uint32_t(x >> 32);
        }
        const double t0 = cpuNow();
        std::sort(v.begin(), v.end());
        best = std::min(best, cpuNow() - t0);
        if (!std::is_sorted(v.begin(), v.end()))
            std::abort();
    }
    return best;
}

/** The reference task's CPU time on the reference machine (4 shared
 *  vCPUs of an Intel Xeon at 2.1 GHz) while it was otherwise idle. */
constexpr double kReferenceTaskS = 0.0175;

/** Which bucket of the traced repeat each host share divides by. */
bool
isSetupBucket(const std::string &k)
{
    return k.rfind("setup.", 0) == 0;
}

int
runWorkload(const Workload &w, const Options &o)
{
    RunConfig cfg;
    cfg.seed = o.seedGiven ? o.seed : w.defaultSeed;
    cfg.seedGiven = o.seedGiven;
    cfg.smoke = o.smoke;

    std::fprintf(stderr, "dpubench: %s warm-up\n", w.name);
    const Repeat warm = runRepeat(w, cfg, 0, "");

    // Each repeat is paired with a reference-task time taken just
    // before it, so its CPU times can be scaled to the reference
    // machine's speed.
    std::vector<Repeat> reps;
    std::vector<double> speeds;
    const double t0 = wallNow();
    const unsigned min_repeats = o.smoke ? 2 : 3;
    for (;;) {
        speeds.push_back(kReferenceTaskS / referenceTaskCpuS());
        reps.push_back(runRepeat(w, cfg, unsigned(reps.size()) + 1, ""));
        const double elapsed = wallNow() - t0;
        const Repeat &last = reps.back();
        std::fprintf(stderr,
                     "dpubench: %s repeat %zu: host speed %.3f, setup "
                     "%.3f s cpu / %.3f s wall, run %.3f s cpu / %.3f s "
                     "wall\n",
                     w.name, reps.size(), speeds.back(), last.setupCpuS,
                     last.setupS, last.cpuS, last.wallS);
        if (o.seconds > 0) {
            const double per = elapsed / double(reps.size());
            if (reps.size() >= min_repeats &&
                elapsed + per > o.seconds)
                break;
        } else if (reps.size() >= o.repeats) {
            break;
        }
    }

    // Every repeat, the warm-up included, must reproduce the same
    // simulated run.
    std::vector<std::string> errors = warm.errors;
    std::uint64_t attempted = 0, failed = 0;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        for (const std::string &e : reps[i].errors)
            if (errors.size() < 16)
                errors.push_back(e);
        if (reps[i].digest != warm.digest ||
            reps[i].sim != warm.sim)
            errors.push_back("repeat " + std::to_string(i + 1) +
                             " diverged from the warm-up (stats "
                             "digest differs)");
        attempted += reps[i].attempted;
        failed += reps[i].failed;
    }

    std::vector<double> cpus, setups, raw_cpus, walls, setup_walls, rss;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const Repeat &r = reps[i];
        cpus.push_back(r.cpuS * speeds[i]);
        setups.push_back(r.setupCpuS * speeds[i]);
        raw_cpus.push_back(r.cpuS);
        walls.push_back(r.wallS);
        setup_walls.push_back(r.setupS);
        rss.push_back(r.rssMb);
    }
    const double cpu_med = median(raw_cpus);

    // The bounded times are CPU times at the reference machine's
    // speed: on a shared host, wall time also counts the time other
    // tenants hold the CPUs, and CPU time how much they slow them.
    MetricWriter m;
    m.addHost("cpu_s", cpus, "s");
    m.addHost("setup_s", setups, "s");
    m.addHost("peak_rss_mb", rss, "MB");
    m.addHost("host_speed", speeds, "ratio");
    m.addHost("cpu_raw_s", raw_cpus, "s");
    m.addHost("wall_s", walls, "s");
    m.addHost("setup_wall_s", setup_walls, "s");
    m.add("failed_fraction",
          attempted ? double(failed) / double(attempted) : 0.0,
          "ratio", "sim");
    std::map<std::string, double> sim = warm.sim;
    for (const std::string &k : layerCounts())
        sim.emplace(k, 0.0);
    for (const auto &[k, v] : sim)
        m.add(k, v, simUnit(k), "sim");
    const auto ev = warm.sim.find("sim.events");
    m.add("sim.cpu_ns_per_event",
          ev != warm.sim.end() && ev->second > 0
              ? cpu_med / ev->second * 1e9
              : 0.0,
          "ns/event", "host");

    // The traced repeat: spans and per-tag wall profiling on. Its
    // host shares are reported; its times are not end-to-end
    // numbers.
    if (!o.trace.empty()) {
        std::fprintf(stderr, "dpubench: %s traced repeat\n", w.name);
        const Repeat tr =
            runRepeat(w, cfg, unsigned(reps.size()) + 1, o.trace);
        for (const std::string &e : tr.errors)
            errors.push_back("traced: " + e);
        if (tr.digest != warm.digest || tr.sim != warm.sim)
            errors.push_back("the traced repeat diverged from the "
                             "untraced ones (stats digest differs)");

        std::map<std::string, double> bucket = tr.hostS;
        for (const std::string &k : hostBuckets())
            bucket.emplace(k, 0.0);
        // Time inside the run call but outside every event body:
        // epoch barriers, the stepped balancer loop, fiber entry.
        // Only defined where the benchmark can reach the queues.
        double tags = 0;
        bool reached = false;
        for (unsigned t = 0; t < dpu::sim::nEvTags; ++t) {
            const auto it = tr.hostS.find(
                std::string(dpu::sim::evTagName(dpu::sim::EvTag(t))) +
                ".wall");
            if (it != tr.hostS.end()) {
                tags += it->second;
                reached = true;
            }
        }
        bucket["sim.outside_events"] =
            reached ? bucket["wall.run"] - tags : 0.0;
        for (const auto &[k, v] : bucket) {
            const double denom = isSetupBucket(k) ? tr.setupS : tr.wallS;
            m.add(k + "_pct", denom > 0 ? 100.0 * v / denom : 0.0, "%",
                  "host");
        }
        m.add("trace_overhead", tr.cpuS / cpu_med - 1, "ratio",
              "host");
    }

    std::string checks;
    for (const std::string &e : errors)
        checks += (checks.empty() ? "" : ",") + quoted(e);
    char digest[16];
    std::snprintf(digest, sizeof digest, "%08x", warm.digest);
    const bool correct = errors.empty();
    std::printf(
        "{\"workload\":%s,\"seed\":%s,\"held_out_seed\":%" PRIu64
        ",\"smoke\":%s,\"repeats\":%zu,"
        "\"traced\":%s,\"correct\":%s,\"ops_attempted\":%" PRIu64
        ",\"ops_failed\":%" PRIu64 ",\"stats_digest\":\"%s\","
        "\"chips_start_empty\":true,\"generator_lateness_us\":0,"
        "\"checks\":[%s],\"metrics\":{%s}}\n",
        quoted(w.name).c_str(),
        o.seedGiven || w.defaultSeed ? num(double(cfg.seed)).c_str()
                                     : "\"registry\"",
        w.heldOutSeed, o.smoke ? "true" : "false", reps.size(),
        o.trace.empty() ? "false" : "true", correct ? "true" : "false",
        attempted, failed, digest, checks.c_str(), m.str().c_str());
    std::fflush(stdout);
    for (const std::string &e : errors)
        std::fprintf(stderr, "dpubench: %s: FAIL: %s\n", w.name,
                     e.c_str());
    return correct ? 0 : 1;
}

/** --workload all: one child process per workload. */
int
runAll(int argc, char **argv)
{
    std::printf("{\"dpubench\":\"header\",\"nproc\":%u,\"cpu\":%s}\n",
                std::thread::hardware_concurrency(),
                quoted(cpuModel()).c_str());
    std::fflush(stdout);
    int rc = 0;
    for (const Workload &w : workloads()) {
        std::vector<std::string> args = {argv[0], "--workload", w.name};
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--workload") == 0) {
                ++i;
                continue;
            }
            std::string a = argv[i];
            if (a == "--trace" && i + 1 < argc) {
                // out.json -> out.<workload>.json
                std::string path = argv[++i];
                const std::size_t dot = path.rfind('.');
                path = dot == std::string::npos
                           ? path + "." + w.name
                           : path.substr(0, dot) + "." + w.name +
                                 path.substr(dot);
                args.push_back(a);
                args.push_back(path);
                continue;
            }
            args.push_back(a);
        }
        std::vector<char *> cargs;
        for (std::string &a : args)
            cargs.push_back(a.data());
        cargs.push_back(nullptr);
        pid_t pid = 0;
        if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr,
                        cargs.data(), environ) != 0) {
            std::fprintf(stderr, "dpubench: cannot spawn %s\n",
                         w.name);
            return 1;
        }
        int status = 0;
        while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            rc = 1;
    }
    return rc;
}

} // namespace
} // namespace dpubench

int
main(int argc, char **argv)
{
    using namespace dpubench;
    dpu::sim::setVerbose(false);

    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage((a + " needs a value").c_str());
            return argv[++i];
        };
        if (a == "--compare") {
            if (i + 2 >= argc)
                usage("--compare needs two result files");
            const std::string base = argv[i + 1], cand = argv[i + 2];
            std::string bench_json = "BENCHMARK.json";
            for (int j = i + 3; j + 1 < argc; ++j)
                if (std::strcmp(argv[j], "--bench-json") == 0)
                    bench_json = argv[j + 1];
            return compareMain(base, cand, bench_json);
        } else if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.seed = parseU64(value(), "--seed");
            o.seedGiven = true;
        } else if (a == "--repeats") {
            o.repeats = unsigned(parseU64(value(), "--repeats"));
            o.repeatsGiven = true;
            if (o.repeats == 0)
                usage("--repeats must be at least 1");
        } else if (a == "--seconds") {
            o.seconds = double(parseU64(value(), "--seconds"));
        } else if (a == "--trace") {
            o.trace = value();
        } else if (a == "--smoke") {
            o.smoke = true;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (o.repeatsGiven && o.seconds > 0)
        usage("--repeats and --seconds are exclusive");
    if (o.smoke && !o.repeatsGiven && o.seconds == 0)
        o.repeats = 2;

    if (o.workload == "all")
        return runAll(argc, argv);
    for (const Workload &w : workloads())
        if (o.workload == w.name)
            return runWorkload(w, o);
    usage(("unknown workload " + o.workload).c_str());
}
