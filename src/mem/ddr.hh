/**
 * @file
 * DDR channel timing model.
 *
 * A bank-aware, row-buffer-aware transaction-level model of the
 * single DDR channel that feeds the DPU. The paper's design point is
 * DDR3-1600 (12.8 GB/s peak, ~10 GB/s practical per Section 2); the
 * 16 nm variant uses DDR4-3200 at 76 GB/s per DPU (Section 2.5),
 * modelled here as a wider/faster channel.
 *
 * The model serialises 64 B bursts on the data bus, charges
 * activate/precharge on row-buffer misses (overlappable across
 * banks), a read/write turnaround penalty, and a refresh duty-cycle
 * derating. Streaming accesses sustain ~94% of peak; random 64 B
 * accesses fall to row-miss latency, which is what makes the
 * cache-unfriendly workloads in Section 5 memory-latency-bound on a
 * conventional machine and bandwidth-bound with the DMS.
 */

#ifndef DPU_MEM_DDR_HH
#define DPU_MEM_DDR_HH

#include <algorithm>
#include <array>
#include <cstdint>

#include "mem/addr.hh"
#include "sim/fault.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace dpu::mem {

/** Static timing/geometry parameters of a DDR channel. */
struct DdrParams
{
    const char *name;
    std::uint32_t nBanks;       ///< banks per rank
    std::uint32_t rowBytes;     ///< row-buffer size per bank
    sim::Tick tBurst;           ///< data-bus time per 64 B burst
    sim::Tick tRcd;             ///< activate-to-read
    sim::Tick tRp;              ///< precharge
    sim::Tick tCl;              ///< CAS latency
    /** Effective read<->write switch penalty. Physically tWTR-ish
     *  is ~7.5 ns, but the controller batches same-direction
     *  requests; our arrival-order model switches far more often
     *  than a real scheduler would, so this carries the AMORTIZED
     *  per-switch cost. */
    sim::Tick tTurnaround;
    /** Fraction of channel time lost to refresh, command-bus
     *  contention and controller scheduling inefficiency. DDR3
     *  systems sustain 75-85% of pin bandwidth on mixed streams;
     *  the paper's own peak measurement (9.6 of 12.8 GB/s) sits at
     *  75%, which this knob reproduces. */
    double refreshDerate;

    /** Peak bandwidth in bytes per second. */
    double
    peakBytesPerSec() const
    {
        return 64.0 / (double(tBurst) * 1e-12);
    }
};

/** DDR3-1600, 64-bit bus: 12.8 GB/s peak (the 40 nm DPU). */
constexpr DdrParams ddr3_1600{
    "DDR3-1600",
    8,          // banks
    2048,       // 2 KB row
    5000,       // 64 B / 12.8 GB/s = 5 ns
    13750,      // tRCD 13.75 ns
    13750,      // tRP
    13750,      // tCL
    2500,       // amortized turnaround (see above)
    0.21,       // refresh + controller inefficiency (see above)
};

/** DDR4-3200-class channel feeding the 16 nm DPU (76 GB/s). */
constexpr DdrParams ddr4_3200x3{
    "DDR4-3200x3",
    16,
    1024,
    842,        // 64 B / 76 GB/s
    13750,
    13750,
    13750,
    2000,
    0.12,
};

/** Timing model for one DDR channel. */
class DdrChannel
{
  public:
    DdrChannel(const DdrParams &params, sim::StatGroup &stats)
        : p(params), st(stats),
          derated(sim::Tick(double(p.tBurst) / (1.0 - p.refreshDerate)))
    {
        banks.fill(Bank{});
    }

    /**
     * Issue one memory transaction of up to any length; the model
     * splits it into 64 B bursts internally.
     *
     * Each row run (the bursts of one transaction that fall in one
     * row) is charged in closed form: its first burst takes the
     * bank and bus logic of burst(), and every later burst is a row
     * hit that queues on the bus right behind it, adding one
     * derated burst time. While the fault plane holds a mem.degrade
     * rule, whose divisor depends on each burst's own start tick,
     * every burst takes the per-burst path.
     *
     * @param addr     Start address.
     * @param bytes    Transfer length.
     * @param write    True for a write.
     * @param earliest The tick at which the request reaches the
     *                 controller.
     * @return the tick at which the last data beat completes.
     */
    sim::Tick
    access(Addr addr, std::uint32_t bytes, bool write,
           sim::Tick earliest)
    {
        sim::Tick done = earliest;
        Addr a = addr & ~Addr(63);
        const Addr end = addr + bytes;
        sim::FaultPlane &fp = sim::faultPlane();
        if (fp.hasMemFault()) {
            for (; a < end; a += 64)
                done = burst(a, write, earliest, &fp);
        } else {
            while (a < end) {
                done = burst(a, write, earliest, nullptr);
                const Addr row_end = (a / p.rowBytes + 1) * p.rowBytes;
                a += 64;
                const Addr run_end = std::min(end, row_end);
                if (a >= run_end)
                    continue;
                // The run's other bursts: row hits whose CAS is
                // already covered, each starting as the bus frees.
                const std::uint64_t hits = (run_end - a + 63) / 64;
                const sim::Tick ticks = hits * derated;
                busFree += ticks;
                busyTicks += ticks;
                bursts += hits;
                rowHits += hits;
                done = busFree;
                a += hits * 64;
            }
        }
        (write ? bytesWritten : bytesRead) += bytes;
        if (DPU_TRACE_ARMED) {
            DPU_TRACE_COMPLETE(sim::TraceCat::Ddr, 0,
                               write ? "write" : "read", earliest,
                               done - earliest, "bytes", bytes,
                               nullptr, 0);
            // Sampled row-buffer counters: cheap to plot in
            // Perfetto without one event per burst.
            if (++tracedAccesses % 64 == 0) {
                DPU_TRACE_COUNTER(sim::TraceCat::Ddr, 0, "rowBuffer",
                                  done, "hits",
                                  rowHits.value(), "misses",
                                  rowMisses.value());
            }
        }
        return done;
    }

    const DdrParams &params() const { return p; }

  private:
    struct Bank
    {
        std::int64_t openRow = -1;
        /** Earliest tick the open row can move data. */
        sim::Tick dataReadyAt = 0;
    };

    /** Schedule a single 64 B burst; returns its completion tick.
     *  @p degrade is the fault plane when it holds a mem rule. */
    sim::Tick
    burst(Addr addr, bool write, sim::Tick earliest,
          sim::FaultPlane *degrade)
    {
        // Address map: row : bank : column. Consecutive rows of the
        // stream land in consecutive banks so activations overlap.
        const std::uint64_t rowId = addr / p.rowBytes;
        const std::uint32_t bank = rowId % p.nBanks;
        const std::int64_t row = std::int64_t(rowId / p.nBanks);

        Bank &b = banks[bank];

        if (b.openRow != row) {
            // Precharge the old row (if any), activate the new one,
            // then CAS. Activation can start as soon as the request
            // arrives, overlapping with other banks' transfers.
            sim::Tick t = std::max(earliest, b.dataReadyAt);
            if (b.openRow >= 0)
                t += p.tRp;
            t += p.tRcd + p.tCl;
            b.dataReadyAt = t;
            b.openRow = row;
            ++rowMisses;
        } else {
            // Row hit: the column command pipelines behind earlier
            // bursts; only the CAS latency of this request bounds it.
            b.dataReadyAt = std::max(b.dataReadyAt, earliest + p.tCl);
            ++rowHits;
        }

        sim::Tick data_start = std::max(b.dataReadyAt, busFree);
        if (write != lastWasWrite && busFree > 0)
            data_start += p.tTurnaround;
        lastWasWrite = write;

        // Fault plane: a mem.degrade window divides the channel's
        // effective bandwidth by stretching each burst (thermal
        // throttling / a misbehaving rank).
        sim::Tick t_burst = derated;
        if (degrade)
            t_burst *= degrade->memBwDivisor(data_start);

        busFree = data_start + t_burst;
        busyTicks += t_burst;
        ++bursts;
        return busFree;
    }

    DdrParams p;
    sim::StatGroup &st;
    /** Refresh/controller derating: the effective burst time. */
    const sim::Tick derated;
    /** Per-burst counters (see sim/stats.hh). */
    sim::Counter rowMisses{st, "rowMisses"};
    sim::Counter rowHits{st, "rowHits"};
    sim::Counter busyTicks{st, "busyTicks"};
    sim::Counter bursts{st, "bursts"};
    sim::Counter bytesRead{st, "bytesRead"};
    sim::Counter bytesWritten{st, "bytesWritten"};
    std::array<Bank, 64> banks;
    sim::Tick busFree = 0;
    bool lastWasWrite = false;
    /** Accesses seen while tracing (row-buffer counter cadence). */
    std::uint64_t tracedAccesses = 0;
};

} // namespace dpu::mem

#endif // DPU_MEM_DDR_HH
