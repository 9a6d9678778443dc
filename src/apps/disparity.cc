#include "apps/disparity.hh"

#include "apps/entry.hh"

#include <algorithm>
#include <cmath>

#include "rt/dms_ctl.hh"
#include "rt/sync.hh"
#include "sim/rng.hh"

namespace dpu::apps {

namespace {

struct Stereo
{
    std::uint32_t w, h;
    std::vector<std::uint8_t> left, right;
    std::vector<std::uint8_t> truth; ///< per-pixel true shift
};

/** Left image = smooth texture; right = left shifted by a
 *  piecewise-constant disparity field plus noise. */
Stereo
makeStereo(const DisparityConfig &cfg)
{
    Stereo st;
    st.w = cfg.width;
    st.h = cfg.height;
    st.left.resize(std::size_t(st.w) * st.h);
    st.right.resize(st.left.size());
    st.truth.resize(st.left.size());
    sim::Rng rng{cfg.seed};

    // Texture: sum of a few sinusoid-ish gradients + noise.
    for (std::uint32_t y = 0; y < st.h; ++y) {
        for (std::uint32_t x = 0; x < st.w; ++x) {
            int v = int(128 + 60 * std::sin(x * 0.21) +
                        40 * std::sin(y * 0.13 + x * 0.07));
            v += int(rng.below(17)) - 8;
            st.left[y * st.w + x] =
                std::uint8_t(std::clamp(v, 0, 255));
        }
    }
    // Disparity field: blocks of constant shift.
    const unsigned block = 64;
    std::vector<std::uint8_t> field(
        (st.w / block + 1) * (st.h / block + 1));
    for (auto &f : field)
        f = std::uint8_t(2 + rng.below(cfg.maxShift - 3));
    for (std::uint32_t y = 0; y < st.h; ++y) {
        for (std::uint32_t x = 0; x < st.w; ++x) {
            std::uint8_t d =
                field[(y / block) * (st.w / block + 1) + x / block];
            st.truth[y * st.w + x] = d;
            std::uint32_t sx = x + d < st.w ? x + d : st.w - 1;
            int v = st.left[y * st.w + sx] + int(rng.below(7)) - 3;
            st.right[y * st.w + x] =
                std::uint8_t(std::clamp(v, 0, 255));
        }
    }
    return st;
}

/** Shared functional kernel: box-filtered SAD argmin over shifts,
 *  row band [y0, y1). Window taps clamp to the image edges. The
 *  (2r+1)^2 window sums separably: a prefix sum over each row's
 *  |L[min(x+shift, w-1)] - R[x]| gives every pixel's clamped
 *  horizontal window, and 2r+1 clamped rows of those give its box. */
void
disparityBand(const Stereo &st, const DisparityConfig &cfg,
              std::uint32_t y0, std::uint32_t y1,
              std::vector<std::uint32_t> &best_cost,
              std::vector<std::uint8_t> &best_shift, unsigned shift)
{
    if (y0 >= y1)
        return;
    const int r = int(cfg.window) / 2;
    const int w = int(st.w);
    const int h = int(st.h);
    // Horizontal window sums of every row the band's boxes reach.
    const int ya = std::max(int(y0) - r, 0);
    const int yb = std::min(int(y1) - 1 + r, h - 1);
    std::vector<std::uint32_t> hsum(std::size_t(yb - ya + 1) * w);
    std::vector<std::uint32_t> prefix(w + 1, 0);
    for (int yy = ya; yy <= yb; ++yy) {
        const std::uint8_t *lrow = &st.left[std::size_t(yy) * w];
        const std::uint8_t *rrow = &st.right[std::size_t(yy) * w];
        for (int x = 0; x < w; ++x) {
            int d = int(lrow[std::min(x + int(shift), w - 1)]) -
                    int(rrow[x]);
            prefix[x + 1] = prefix[x] + std::uint32_t(d < 0 ? -d : d);
        }
        // Taps left of column 0 repeat column 0; right of w-1, w-1.
        const std::uint32_t first = prefix[1];
        const std::uint32_t last = prefix[w] - prefix[w - 1];
        std::uint32_t *row = &hsum[std::size_t(yy - ya) * w];
        for (int x = 0; x < w; ++x) {
            const int lo = x - r;
            const int hi = x + r;
            row[x] = prefix[std::min(hi, w - 1) + 1] -
                     prefix[std::max(lo, 0)] +
                     std::uint32_t(std::max(-lo, 0)) * first +
                     std::uint32_t(std::max(hi - (w - 1), 0)) * last;
        }
    }
    std::vector<std::uint32_t> cost(w);
    for (int y = int(y0); y < int(y1); ++y) {
        std::fill(cost.begin(), cost.end(), 0);
        for (int dy = -r; dy <= r; ++dy) {
            const std::uint32_t *row =
                &hsum[std::size_t(std::clamp(y + dy, 0, h - 1) - ya) * w];
            for (int x = 0; x < w; ++x)
                cost[x] += row[x];
        }
        for (int x = 0; x < w; ++x) {
            std::size_t i = std::size_t(y) * w + x;
            if (cost[x] < best_cost[i]) {
                best_cost[i] = cost[x];
                best_shift[i] = std::uint8_t(shift);
            }
        }
    }
}

double
hitRate(const Stereo &st, const DisparityConfig &cfg,
        const std::vector<std::uint8_t> &got)
{
    std::uint64_t ok = 0, total = 0;
    for (std::uint32_t y = 0; y < st.h; ++y) {
        for (std::uint32_t x = 0; x + cfg.maxShift + cfg.window <
                                  st.w;
             ++x) {
            ++total;
            std::size_t i = y * st.w + x;
            int diff = int(got[i]) - int(st.truth[i]);
            ok += diff >= -1 && diff <= 1;
        }
    }
    return double(ok) / double(total);
}

} // namespace

DisparityResult
dpuDisparity(const soc::SocParams &params, const DisparityConfig &cfg)
{
    Stereo st = makeStereo(cfg);
    const std::uint64_t px = std::uint64_t(st.w) * st.h;
    // Layout: left, right, cost map (4 B), shift map (1 B).
    const mem::Addr l_base = 0;
    const mem::Addr r_base = alignUp(px, 4096);
    const mem::Addr cost_base = alignUp(2 * r_base, 4096);
    const mem::Addr out_base = alignUp(cost_base + px * 4, 4096);
    soc::Soc s(params);
    stage(s, l_base, st.left);
    stage(s, r_base, st.right);

    std::vector<std::uint32_t> best_cost(px, ~0u);
    std::vector<std::uint8_t> best_shift(px, 0);

    rt::AteBarrier barrier(0, 26 * 1024, cfg.nCores);
    const std::uint32_t band = st.h / cfg.nCores;

    for (unsigned id = 0; id < cfg.nCores; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            rt::DmsCtl ctl(c, s.dmsFor(id));
            ate::Ate &ate = s.ateFor(id);
            std::uint32_t y0 = id * band;
            std::uint32_t y1 =
                id + 1 == cfg.nCores ? st.h : y0 + band;

            for (unsigned shift = 0; shift < cfg.maxShift; ++shift) {
                ctl.resetArena();
                // Stream the band's left+right rows (with halo) in;
                // stream the cost/argmin maps through DMEM and back.
                std::uint64_t band_px =
                    std::uint64_t(y1 - y0 + cfg.window) * st.w;
                rt::StreamReader inl(ctl,
                                     l_base + y0 * st.w,
                                     std::min<std::uint64_t>(
                                         band_px, px - y0 * st.w),
                                     0, 4096, 2, 0, 0);
                inl.forEach([&](std::uint32_t, std::uint32_t blen) {
                    c.cycles(blen / 16); // prefetch bookkeeping
                });
                rt::StreamReader inr(ctl,
                                     r_base + y0 * st.w,
                                     std::min<std::uint64_t>(
                                         band_px, px - y0 * st.w),
                                     0, 4096, 2, 0, 0);
                inr.forEach([&](std::uint32_t, std::uint32_t blen) {
                    c.cycles(blen / 16);
                });

                // The running min-cost map cannot stay resident:
                // DMEM holds the double-buffered image rows, halo
                // and argmin band, so the 4 B/px cost map streams
                // in and back out every shift.
                std::uint64_t n = std::uint64_t(y1 - y0) * st.w;
                rt::StreamReader inc(ctl, cost_base + y0 * st.w * 4,
                                     n * 4, 0, 4096, 2, 0, 0);
                inc.forEach([&](std::uint32_t, std::uint32_t blen) {
                    c.cycles(blen / 16);
                });

                disparityBand(st, cfg, y0, y1, best_cost, best_shift,
                              shift);

                // Cost model: separable box SAD via running sums —
                // abs-diff + 2 incremental adds + compare/update,
                // dual-issued with the row loads/stores.
                c.dualIssue(4 * n, 3 * n);

                // Write back the updated min-cost / argmin rows.
                rt::StreamWriter outw(ctl,
                                      cost_base + y0 * st.w * 4,
                                      8192, 4096, 2, 8, 1);
                for (std::uint64_t done = 0; done < n * 4;
                     done += 4096) {
                    (void)outw.acquire();
                    outw.commit(std::uint32_t(
                        std::min<std::uint64_t>(4096, n * 4 - done)));
                }
                outw.finish();

                // Lockstep between vision kernels (Section 5.6).
                barrier.arrive(c, ate);
            }

            // Final argmin map out (1 B/px).
            std::uint64_t n = std::uint64_t(y1 - y0) * st.w;
            c.dmem().write(0, best_shift.data() + y0 * st.w,
                           std::min<std::uint64_t>(n, 8192));
            rt::StreamWriter outd(ctl, out_base + y0 * st.w, 8192,
                                  4096, 2, 8, 1);
            for (std::uint64_t done = 0; done < n; done += 4096) {
                (void)outd.acquire();
                outd.commit(std::uint32_t(alignUp(
                    std::min<std::uint64_t>(4096, n - done), 4)));
            }
            outd.finish();
        });
    }
    sim::Tick t = s.run();
    sim_assert(s.allFinished(), "disparity kernels deadlocked");

    DisparityResult r;
    r.seconds = double(t) * 1e-12;
    r.disparity = best_shift;
    r.groundTruthHitRate = hitRate(st, cfg, best_shift);
    return r;
}

DisparityResult
xeonDisparity(const DisparityConfig &cfg)
{
    Stereo st = makeStereo(cfg);
    const std::uint64_t px = std::uint64_t(st.w) * st.h;
    std::vector<std::uint32_t> best_cost(px, ~0u);
    std::vector<std::uint8_t> best_shift(px, 0);

    xeon::XeonModel m;
    for (unsigned shift = 0; shift < cfg.maxShift; ++shift) {
        disparityBand(st, cfg, 0, st.h, best_cost, best_shift, shift);
        // SD-VBS-style full-image passes per shift: read both
        // images, read+write the 4 B cost map and 1 B argmin map;
        // AVX2 integer abs-diff + running sums.
        m.streamBytes(double(px) * (1 + 1 + 8 + 2));
        m.simdOps(double(px) * 6);
        m.endPhase();
    }

    DisparityResult r;
    r.seconds = m.seconds();
    r.disparity = best_shift;
    r.groundTruthHitRate = hitRate(st, cfg, best_shift);
    return r;
}

AppResult
disparityApp(const DisparityConfig &cfg)
{
    DisparityResult d = dpuDisparity(soc::dpu40nm(), cfg);
    DisparityResult x = xeonDisparity(cfg);
    AppResult r;
    r.name = "Disparity";
    r.dpuSeconds = d.seconds;
    r.xeonSeconds = x.seconds;
    r.workUnits =
        double(cfg.width) * cfg.height * cfg.maxShift;
    r.unitName = "pixel-shifts";
    r.matched = d.disparity == x.disparity &&
                d.groundTruthHitRate > 0.80;
    return r;
}

} // namespace dpu::apps
