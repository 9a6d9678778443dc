/**
 * @file
 * Fundamental simulation types: ticks, cycles, and clock domains.
 *
 * The simulator follows the gem5 convention of a global integer time
 * base ("ticks") fine enough to express every clock in the system
 * exactly. One tick is one picosecond; the 800 MHz dpCore clock has a
 * period of 1250 ticks and the DDR3-1600 data bus a period of 1250 ps
 * per 128-bit beat equivalent (see mem/ddr.hh for the memory timing).
 */

#ifndef DPU_SIM_TYPES_HH
#define DPU_SIM_TYPES_HH

#include <cstdint>

namespace dpu::sim {

/** Simulation time in picoseconds. */
using Tick = std::uint64_t;

/** A count of clock cycles in some clock domain. */
using Cycles = std::uint64_t;

/** One nanosecond expressed in ticks. */
constexpr Tick tickPerNs = 1000;

/** Largest representable tick; used as an "infinite" deadline. */
constexpr Tick maxTick = ~Tick(0);

/**
 * A fixed-frequency clock domain that converts between cycles and
 * ticks. All conversions round up to whole cycle boundaries so that
 * events never fire earlier than the hardware could have produced
 * them.
 */
class Clock
{
  public:
    /**
     * @param period_ps Clock period in picoseconds (e.g. 1250 for
     *                  the 800 MHz dpCore clock).
     */
    explicit constexpr Clock(Tick period_ps) : period(period_ps) {}

    /** Convert a cycle count to a tick duration. */
    constexpr Tick cyclesToTicks(Cycles c) const { return c * period; }

    /** Convert a tick duration to cycles, rounding up. */
    constexpr Cycles
    ticksToCycles(Tick t) const
    {
        return (t + period - 1) / period;
    }

    /** Next tick at or after @p t that lies on a cycle boundary. */
    constexpr Tick
    alignUp(Tick t) const
    {
        return ((t + period - 1) / period) * period;
    }

  private:
    Tick period;
};

/** The 800 MHz dpCore clock (Section 2.5: 51 mW at 800 MHz). */
constexpr Clock dpCoreClock{1250};

} // namespace dpu::sim

#endif // DPU_SIM_TYPES_HH
