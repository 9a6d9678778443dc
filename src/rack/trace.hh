/**
 * @file
 * Open-loop arrival-trace generation: traffic shaped like millions
 * of users hitting a serving cluster.
 *
 * The generator produces a time-sorted event stream from three
 * superimposed effects, all seed-deterministic (sim::Rng, never
 * wall clock):
 *
 *  - a diurnal load curve: the base Poisson rate is modulated by
 *    1 + amp * sin(2*pi * t / period), the classic day/night swing
 *    compressed into simulated time;
 *  - bursts: seed-placed windows during which the instantaneous
 *    rate is multiplied (flash crowds, upstream retries);
 *  - Zipfian keys: request keys are drawn from a Zipf(s)
 *    distribution over the key space, so a handful of hot keys —
 *    and through placement, hot replica groups — carry a large
 *    share of the traffic.
 *
 * Arrivals are drawn by thinning a homogeneous Poisson process at
 * the peak rate, which keeps the stream exact for any rate curve
 * and trivially deterministic. Each event also carries an app
 * index (uniform over the configured mix) and a per-request seed.
 */

#ifndef DPU_RACK_TRACE_HH
#define DPU_RACK_TRACE_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace dpu::rack {

/** Burst length in simulated seconds. */
constexpr double burstLenSec = 0.0005;
/** Rate multiplier inside a burst. */
constexpr double burstMultiplier = 3.0;

/** Arrival-trace shape. */
struct TraceConfig
{
    /** Mean arrival rate at the diurnal midline (requests/sec of
     *  simulated time, cluster-wide). */
    double ratePerSec = 20000;
    /** Trace length in simulated seconds. */
    double durationSec = 0.01;
    /** Diurnal modulation amplitude in [0, 1). */
    double diurnalAmp = 0.5;
    /** Diurnal period in simulated seconds (a "day"). */
    double diurnalPeriodSec = 0.01;
    /** Expected bursts per simulated second. */
    double burstsPerSec = 200;
    /** Key-space size. */
    std::uint64_t nKeys = 1 << 16;
    /** Zipf exponent (0 = uniform; ~0.99 = web-like skew). */
    double zipf = 0.99;
    /** Apps in the mix (events carry an index into it). */
    unsigned nApps = 1;
    std::uint64_t seed = 1;

    // --- skew step (hot-shard workloads) ------------------------
    /** When the hot step begins, in simulated seconds; negative
     *  (or past the duration) disables it. */
    double hotStepAtSec = -1;
    /** Fraction of post-step arrivals redirected onto hotStepKeys,
     *  in [0, 1]. */
    double hotStepFraction = 0;
    /** The keys post-step traffic concentrates on — typically
     *  chosen so their partitions collide on one board (see
     *  board::hashHome). Empty disables the step. */
    std::vector<std::uint64_t> hotStepKeys;
};

/** One arrival. */
struct TraceEvent
{
    sim::Tick at = 0;
    std::uint64_t key = 0;
    unsigned appIdx = 0;
    /** Per-request dataset seed. */
    std::uint64_t seed = 0;
};

/** Deterministic trace for @p cfg, sorted by arrival tick. */
std::vector<TraceEvent> generateTrace(const TraceConfig &cfg);

} // namespace dpu::rack

#endif // DPU_RACK_TRACE_HH
