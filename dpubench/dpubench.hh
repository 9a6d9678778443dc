/**
 * @file
 * dpubench: the repository benchmark. Four workloads, each timed
 * from the benchmark's side around the simulator's public entry
 * points, reporting host-speed metrics (wall, set-up, memory) next
 * to the simulated serving metrics and per-layer counts.
 *
 * One repeat of a workload is a set-up phase (input generation and
 * topology construction) followed by a measured phase (admission,
 * run, summary). Both phases are timed on two clocks: wall time and
 * the process's CPU time. Every repeat runs in a fresh child
 * process, so chips, DDR and the heap start empty each time and
 * peak memory is per repeat. A repeat returns everything it
 * observed in a Repeat; main.cc folds the repeats into medians and
 * prints one JSON line per workload.
 */

#ifndef DPUBENCH_DPUBENCH_HH
#define DPUBENCH_DPUBENCH_HH

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dpubench {

/** Host wall clock in seconds (steady, arbitrary epoch). */
inline double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * CPU time of this process in seconds, user and system, all threads
 * summed. Time spent waiting for a CPU (in the run queue, or stolen
 * by the hypervisor on a shared host) does not count, so it measures
 * the simulator's work rather than the host's other load.
 */
inline double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/** Times one phase on the wall and the CPU clock at once. */
class PhaseTimer
{
  public:
    PhaseTimer() : wall0(wallNow()), cpu0(cpuNow()) {}

    /** Seconds since construction on each clock. */
    void
    stop(double &wall, double &cpu) const
    {
        wall = wallNow() - wall0;
        cpu = cpuNow() - cpu0;
    }

  private:
    double wall0, cpu0;
};

/**
 * Spans recorded around calls into the simulator during the traced
 * repeat. Kept in memory; written as Chrome-trace JSON at exit.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        /** Host-share bucket the span's time counts toward ("" =
         *  none): "setup.*" buckets divide by the set-up phase, all
         *  others by the measured phase. */
        std::string bucket;
        double start = 0; ///< seconds, wallNow() clock
        double end = 0;
        int parent = -1;  ///< index into spans(), -1 = root
        unsigned repeat = 0;
    };

    /** RAII span; a null log makes it a no-op. */
    class Scope
    {
      public:
        Scope(SpanLog *log, std::string name, std::string bucket = {});
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog *log;
        int idx = -1;
    };

    void setRepeat(unsigned r) { repeat = r; }
    const std::vector<Span> &spans() const { return all; }

    /** Write the spans as Chrome-trace JSON. @return false on I/O
     *  failure. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::vector<Span> all;
    std::vector<int> open;
    unsigned repeat = 0;
};

/** Everything one repeat observed. */
struct Repeat
{
    double setupS = 0;    ///< wall seconds of the set-up phase
    double setupCpuS = 0; ///< CPU seconds of the set-up phase
    double wallS = 0;     ///< wall seconds of the measured phase
    double cpuS = 0;      ///< CPU seconds of the measured phase
    double rssMb = 0; ///< peak resident memory of the repeat's process
    std::uint64_t attempted = 0; ///< operations offered
    std::uint64_t failed = 0;    ///< offered minus valid completions
    /** Simulated metrics and per-layer counts: deterministic for a
     *  seed, so every repeat must agree on them bit for bit. */
    std::map<std::string, double> sim;
    /** CRC32 over the sorted stats snapshot plus summary fields. */
    std::uint32_t digest = 0;
    /** Correctness failures, one sentence each. */
    std::vector<std::string> errors;
    /** Host seconds per share bucket: span buckets and event-queue
     *  tags ("core.wall", ...). Only filled in the traced repeat,
     *  while spans and wall profiling are on. */
    std::map<std::string, double> hostS;
};

/** Per-invocation knobs shared by every workload. */
struct RunConfig
{
    /** --seed, or the workload's default seed. */
    std::uint64_t seed = 0;
    /** False when --seed was not given (fig14_apps then keeps each
     *  app's registry seed). */
    bool seedGiven = false;
    bool smoke = false;
    /** Traced repeat: spans recorded, wall profiling on. */
    SpanLog *spans = nullptr;
};

/** One benchmark workload. */
struct Workload
{
    const char *name;
    const char *why;
    /** Seed without --seed (fig14_apps: 0, the registry seeds). */
    std::uint64_t defaultSeed;
    /** Seed kept out of every tuning run, for claim checks. */
    std::uint64_t heldOutSeed;
    Repeat (*run)(const RunConfig &cfg);
};

/** The four workloads, in report order. */
const std::vector<Workload> &workloads();

/** Every per-layer count (Repeat::sim key) and host-share bucket
 *  any workload can report; absent ones print as 0 so every
 *  workload names the same metrics. */
const std::vector<std::string> &layerCounts();
const std::vector<std::string> &hostBuckets();

/** --compare: diff two result files. @return the exit code. */
int compareMain(const std::string &base_path,
                const std::string &new_path,
                const std::string &bench_json_path);

} // namespace dpubench

#endif // DPUBENCH_DPUBENCH_HH
