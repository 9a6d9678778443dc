/**
 * @file
 * The DPU System-on-Chip, assembled (Section 2.4, Figure 3).
 *
 * Wires together: N 32-core complexes (each with 4 macros of 8
 * dpCores, per-macro shared L2s, and a DMS), the ATE crossbars, the
 * MBC, and the single DDR channel. At 40 nm there is one complex;
 * the 16 nm configuration replicates five.
 *
 * A chip maps two demand-zero regions (sim::ZeroPages): its DDR
 * image and one block that every SRAM on it is carved from, its
 * DMEMs and the lines of its L1-Ds and L2s. Every block, each cache
 * included, is built with the chip. A cache owns no stat group: a
 * core's L1-D counts into the core's group, and a macro's L2 into a
 * "macro<m>.l2" group the chip builds beside it, right after "ddr".
 *
 * The A9 host complex and M0 power manager are modelled thinly: the
 * A9 is the chip's dispatch endpoint on the MBC (a9(), see HostA9),
 * whose program runs on the same fiber protocol as the dpCores'
 * kernels (sim::Agent); the M0 is the gating interface of
 * soc::PowerModel, which the Figure 5 bench builds on its own. Their
 * Linux/network stack is out of evaluation scope (all paper
 * experiments are on-die).
 */

#ifndef DPU_SOC_SOC_HH
#define DPU_SOC_SOC_HH

#include <deque>
#include <memory>
#include <ostream>
#include <vector>

#include "ate/ate.hh"
#include "core/dp_core.hh"
#include "dms/dms.hh"
#include "mbc/mbc.hh"
#include "mem/cache.hh"
#include "mem/main_memory.hh"
#include "sim/event_queue.hh"
#include "sim/zero_pages.hh"
#include "soc/host_a9.hh"
#include "soc/soc_params.hh"

namespace dpu::soc {

/** One simulated DPU. */
class Soc
{
  public:
    explicit Soc(const SocParams &params = dpu40nm());

    /**
     * Build the chip on an externally owned event queue. This is
     * how a multi-DPU Board (board/board.hh) composes chips: every
     * Soc gets its OWN queue partition, owned and driven by the
     * Board's epoch runner (sim/parallel.hh), which advances the
     * partitions in conservative epochs bounded by the link
     * latency. All of this chip's events — cores, DMS, ATE, MBC,
     * DDR — stay on its one partition, so inside the chip the
     * single-kernel execution model is unchanged; only the Board
     * (never the Soc) should drive the queue it handed in.
     */
    Soc(sim::EventQueue &shared, const SocParams &params = dpu40nm());

    const SocParams &params() const { return p; }
    unsigned nCores() const { return p.nCores(); }

    // ------------------------------------------------------------
    // Program control
    // ------------------------------------------------------------

    /** Start @p kernel on core @p id at the current tick. */
    void start(unsigned id, core::Kernel kernel);

    /**
     * Start the same kernel image on every dpCore — the chip's
     * execution model (Section 4: "Each dpCore executes the same
     * binary executable image").
     */
    void startAll(core::Kernel kernel);

    /** Run the event queue until it drains; @return end tick. */
    sim::Tick run();

    /** Run with a simulated-time limit (deadlock detection). */
    sim::Tick runFor(sim::Tick limit);

    /** True when every started kernel has returned. */
    bool allFinished() const;

    /** Ids of started cores whose kernels have not returned (the
     *  first thing to look at when a run deadlocks). */
    std::vector<unsigned> unfinishedCores() const;

    sim::Tick now() const { return eq.now(); }

    /** Seconds of simulated time elapsed. */
    double seconds() const { return double(eq.now()) * 1e-12; }

    // ------------------------------------------------------------
    // Blocks
    // ------------------------------------------------------------

    sim::EventQueue &eventQueue() { return eq; }
    mem::MainMemory &memory() { return *mm; }
    core::DpCore &core(unsigned id) { return *cores[id]; }
    dms::Dms &dms(unsigned complex = 0) { return *dmsUnits[complex]; }
    ate::Ate &ate(unsigned complex = 0) { return *ateUnits[complex]; }
    mbc::Mbc &mbc() { return *mbcUnit; }
    /** The A9 host complex (the chip's offload endpoint). */
    HostA9 &a9() { return *a9Unit; }

    /** The DMS complex serving core @p id. */
    dms::Dms &
    dmsFor(unsigned id)
    {
        return *dmsUnits[id / coresPerComplex];
    }

    /** The ATE complex serving core @p id. */
    ate::Ate &
    ateFor(unsigned id)
    {
        return *ateUnits[id / coresPerComplex];
    }

    /** Dump all stat groups. */
    void dumpStats(std::ostream &os);

  private:
    /** Delegation target of both public constructors. */
    Soc(sim::EventQueue *shared, const SocParams &params);

    SocParams p;
    /** Null when the queue is shared (Board-owned). */
    std::unique_ptr<sim::EventQueue> ownedEq;
    sim::EventQueue &eq;
    std::unique_ptr<mem::MainMemory> mm;
    /** The chip's SRAMs in one demand-zero region: each macro's L2
     *  lines, then each core's DMEM and L1-D lines, page-aligned. */
    sim::ZeroPages sram;
    /** Each macro's L2 and the group it counts into. */
    std::deque<sim::StatGroup> l2Stats;
    std::deque<mem::Cache> l2s;
    std::vector<std::unique_ptr<core::DpCore>> cores;
    std::vector<core::DpCore *> corePtrs;
    std::vector<std::unique_ptr<dms::Dms>> dmsUnits;
    std::vector<std::unique_ptr<ate::Ate>> ateUnits;
    std::unique_ptr<mbc::Mbc> mbcUnit;
    std::unique_ptr<HostA9> a9Unit;
    std::vector<bool> started;
};

} // namespace dpu::soc

#endif // DPU_SOC_SOC_HH
