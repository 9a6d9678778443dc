#include "xeon/xeon_model.hh"

#include <algorithm>

namespace dpu::xeon {

double
XeonModel::phaseSeconds() const
{
    const double core_rate = freqGHz * 1e9 * ipc;
    const double scalar_s =
        phaseScalar / (core_rate * threads);
    const double simd_s =
        phaseSimd / (core_rate * threads * simdLanes);
    const double compute_s = scalar_s + simd_s;

    const double mem_s = phaseStream / (effStreamBwGBs * 1e9) +
                         phaseRandom / (effRandomBwGBs * 1e9);

    const double serial_s = phaseSerial / core_rate;

    return std::max(compute_s, mem_s) + serial_s;
}

void
XeonModel::endPhase()
{
    elapsed += phaseSeconds();
    phaseScalar = 0;
    phaseSimd = 0;
    phaseStream = 0;
    phaseRandom = 0;
    phaseSerial = 0;
}

double
XeonModel::seconds() const
{
    return elapsed + phaseSeconds();
}

} // namespace dpu::xeon
