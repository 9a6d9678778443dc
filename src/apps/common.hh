/**
 * @file
 * Shared scaffolding for the co-design applications (Section 5):
 * the DPU-vs-Xeon result record with the paper's performance/watt
 * metric, helpers for staging workload data in simulated DDR, and
 * the lane split and DMEM dump the multi-core kernels share.
 */

#ifndef DPU_APPS_COMMON_HH
#define DPU_APPS_COMMON_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "rt/dms_ctl.hh"
#include "soc/soc.hh"
#include "soc/soc_params.hh"
#include "xeon/xeon_model.hh"

namespace dpu::apps {

/** One application's head-to-head outcome. */
struct AppResult
{
    std::string name;
    double dpuSeconds = 0;
    double xeonSeconds = 0;
    /** Work-per-run for throughput reporting (e.g. bytes, tuples). */
    double workUnits = 0;
    const char *unitName = "bytes";
    /** Functional agreement between DPU and baseline outputs. */
    bool matched = false;

    /** Performance/watt gain, the Figure 14/16 metric: the 40 nm
     *  DPU's provisioned power against the Xeon's TDP. */
    double
    gain() const
    {
        return (xeonSeconds / dpuSeconds) *
               (soc::xeonTdpWatts / soc::dpu40nm().provisionedWatts);
    }
};

/** Copy a host vector into simulated DDR at @p addr. */
template <typename T>
inline void
stage(soc::Soc &s, mem::Addr addr, const std::vector<T> &v)
{
    s.memory().store().write(addr, v.data(), v.size() * sizeof(T));
}

/** Read a host vector back out of simulated DDR. */
template <typename T>
inline std::vector<T>
unstage(soc::Soc &s, mem::Addr addr, std::size_t n)
{
    std::vector<T> v(n);
    s.memory().store().read(addr, v.data(), n * sizeof(T));
    return v;
}

/** Round @p x up to a multiple of @p align. */
constexpr std::uint64_t
alignUp(std::uint64_t x, std::uint64_t align)
{
    return (x + align - 1) / align * align;
}

/** Contiguous [begin, begin+count) share of @p total for @p lane. */
struct Slice
{
    std::uint64_t begin = 0;
    std::uint64_t count = 0;
};

inline Slice
laneSlice(std::uint64_t total, unsigned n_lanes, unsigned lane)
{
    const std::uint64_t per = (total + n_lanes - 1) / n_lanes;
    const std::uint64_t b = std::min<std::uint64_t>(total, lane * per);
    const std::uint64_t e = std::min<std::uint64_t>(total, b + per);
    return {b, e - b};
}

/** Dump @p bytes of DMEM at @p src_off to DDR @p dst, synchronous. */
inline void
dumpToDdr(rt::DmsCtl &ctl, std::uint16_t src_off, mem::Addr dst,
          std::uint32_t bytes)
{
    ctl.dmemToDdr().rows(bytes / 4).width(4).from(src_off).to(dst)
        .event(6).noAutoInc().push(1);
    ctl.wfe(6);
    ctl.clearEvent(6);
}

} // namespace dpu::apps

#endif // DPU_APPS_COMMON_HH
