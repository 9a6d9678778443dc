#include "rack/trace.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "util/zipf.hh"

namespace dpu::rack {

std::vector<TraceEvent>
generateTrace(const TraceConfig &cfg)
{
    sim_assert(cfg.ratePerSec > 0 && cfg.durationSec > 0,
               "trace needs a positive rate and duration");
    sim_assert(cfg.diurnalAmp >= 0 && cfg.diurnalAmp < 1,
               "diurnal amplitude must sit in [0, 1)");
    sim_assert(cfg.nApps >= 1, "trace needs at least one app");
    sim_assert(cfg.hotStepFraction >= 0 && cfg.hotStepFraction <= 1,
               "hot-step fraction must sit in [0, 1]");
    const bool hotStep = cfg.hotStepAtSec >= 0 &&
                         cfg.hotStepAtSec < cfg.durationSec &&
                         cfg.hotStepFraction > 0 &&
                         !cfg.hotStepKeys.empty();

    sim::Rng rng(cfg.seed * 0x9e3779b97f4a7c15ull + 0x7ac3ull);

    // Seed-placed burst windows over the trace, sorted.
    std::vector<std::pair<double, double>> bursts;
    const double expected = cfg.burstsPerSec * cfg.durationSec;
    const std::uint64_t nBursts = std::uint64_t(expected + 0.5);
    for (std::uint64_t i = 0; i < nBursts; ++i) {
        const double start = rng.uniform() * cfg.durationSec;
        bursts.emplace_back(start, start + burstLenSec);
    }
    std::sort(bursts.begin(), bursts.end());
    auto inBurst = [&](double t) {
        // Bursts are few; linear probe from a binary-search start.
        auto it = std::upper_bound(
            bursts.begin(), bursts.end(),
            std::make_pair(t, std::numeric_limits<double>::max()));
        while (it != bursts.begin()) {
            --it;
            if (t < it->second)
                return true;
            if (it->first + burstLenSec < t)
                break;
        }
        return false;
    };

    // Instantaneous rate and its peak, for Poisson thinning. With
    // no diurnal swing the factor is exactly 1.0, so it is skipped
    // along with its sine.
    auto rateAt = [&](double t) {
        double r = cfg.ratePerSec;
        if (cfg.diurnalAmp != 0)
            r *= 1.0 + cfg.diurnalAmp *
                           std::sin(2.0 * M_PI * t /
                                    cfg.diurnalPeriodSec);
        if (inBurst(t))
            r *= burstMultiplier;
        return r;
    };
    const double peak = cfg.ratePerSec * (1.0 + cfg.diurnalAmp) *
                        burstMultiplier;

    const util::Zipf keys(cfg.nKeys, cfg.zipf);

    std::vector<TraceEvent> out;
    out.reserve(std::size_t(cfg.ratePerSec * cfg.durationSec));
    double t = 0;
    while (true) {
        // Exponential gap at the peak rate...
        double u = rng.uniform();
        if (u <= 0)
            u = 1e-18;
        t += -std::log(u) / peak;
        if (t >= cfg.durationSec)
            break;
        // ...thinned down to the instantaneous rate.
        if (rng.uniform() * peak > rateAt(t))
            continue;
        TraceEvent ev;
        ev.at = sim::Tick(t * 1e12);
        ev.key = keys.sample(rng);
        // Skew step: past the step time, a fixed fraction of
        // traffic collapses onto the hot key set. The extra draws
        // happen only post-step, so the trace prefix is
        // bit-identical with and without the step configured.
        if (hotStep && t >= cfg.hotStepAtSec &&
            rng.uniform() < cfg.hotStepFraction)
            ev.key = cfg.hotStepKeys[rng.below(
                unsigned(cfg.hotStepKeys.size()))];
        ev.appIdx = unsigned(rng.below(cfg.nApps));
        ev.seed = rng.next();
        out.push_back(ev);
    }
    return out;
}

} // namespace dpu::rack
