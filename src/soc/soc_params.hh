/**
 * @file
 * Chip-level configurations.
 *
 * Two configurations from the paper:
 *  - the fabricated 40 nm DPU: 32 dpCores in 4 macros, one DMS, one
 *    DDR3-1600 channel, 5.8 W provisioned (Section 2.5, Figure 5);
 *  - the 16 nm shrink: five replicated 32-core complexes (160
 *    dpCores), DDR4-3200-class memory at 76 GB/s, 12 W TDP, quoted
 *    as 2.5x better performance/watt (Section 2.5).
 */

#ifndef DPU_SOC_SOC_PARAMS_HH
#define DPU_SOC_SOC_PARAMS_HH

#include <cstddef>

#include "dms/dms_params.hh"
#include "mem/addr.hh"
#include "mem/ddr.hh"

namespace dpu::soc {

/** dpCores per complex (fixed by the dpCore-complex design). */
constexpr unsigned coresPerComplex = 32;

/**
 * What a chip or workload sets differently when instantiating a DPU.
 * Everything the two chips share is a constant beside the code that
 * charges it (core/isa.hh, ate/ate.hh, dms/dms_params.hh).
 */
struct SocParams
{
    /** 32-core complexes on the die (1 at 40 nm, 5 at 16 nm). */
    unsigned nComplexes = 1;

    /** DDR channel feeding the die. */
    mem::DdrParams ddr = mem::ddr3_1600;

    /** Simulated DRAM capacity: the whole DDR window of the address
     *  map, below the DMEM apertures (mem/addr.hh). The image is
     *  demand-zero (mem::BackingStore), so this is address space:
     *  host RAM follows the bytes a run writes. No app, bench or
     *  example sizes it; only dpubench's rack workloads still do. */
    std::size_t ddrBytes = mem::dmemBase;

    /** Provisioned SoC power, the denominator of perf/watt.
     *  Section 5: "we assume a TDP of ... 6W for the DPU". */
    double provisionedWatts = 6.0;

    /** Fabricated-power detail for the Figure 5 breakdown. */
    double designWatts = 5.8;

    /** Dynamic power per dpCore (51 mW at 40 nm, Section 2.5; the
     *  16 nm process shrink lowers it so five complexes fit in
     *  12 W). */
    double coreDynamicW = 0.051;

    dms::DmsParams dms{};

    unsigned nCores() const { return nComplexes * coresPerComplex; }
};

/** The fabricated 40 nm chip. */
inline SocParams
dpu40nm()
{
    return SocParams{};
}

/** The 16 nm process shrink (Section 2.5). */
inline SocParams
dpu16nm()
{
    SocParams p;
    p.nComplexes = 5;
    p.ddr = mem::ddr4_3200x3;
    p.provisionedWatts = 12.0;
    p.designWatts = 12.0;
    p.coreDynamicW = 0.020;
    return p;
}

/** Xeon E5-2699 v3 TDP used for every perf/watt comparison. */
constexpr double xeonTdpWatts = 145.0;

} // namespace dpu::soc

#endif // DPU_SOC_SOC_PARAMS_HH
