/**
 * @file
 * Shared state handed to the DMS sub-blocks (DMAD, DMAX, DMAC):
 * the event queue, main memory, every core's DMEM, the per-core
 * event files, and the chip's DMS settings.
 */

#ifndef DPU_DMS_DMS_CONTEXT_HH
#define DPU_DMS_DMS_CONTEXT_HH

#include <vector>

#include "dms/dms_params.hh"
#include "dms/event_file.hh"
#include "mem/dmem.hh"
#include "mem/main_memory.hh"
#include "sim/event_queue.hh"
#include "sim/trace.hh"

namespace dpu::dms {

/** Plumbing shared by the DMS blocks. */
struct DmsContext
{
    DmsContext(sim::EventQueue &eq_, mem::MainMemory &mm_,
               unsigned n_cores, const DmsParams &p)
        : eq(eq_), mm(mm_), params(p), dmems(n_cores, nullptr),
          events(n_cores)
    {
    }

    sim::EventQueue &eq;
    mem::MainMemory &mm;
    DmsParams params;

    /** Global id of this complex's core 0 (trace track numbering). */
    unsigned baseCore = 0;

    /** Per-core scratchpads, registered by the SoC at build time. */
    std::vector<mem::Dmem *> dmems;

    /** Per-core 32-event files. */
    std::vector<EventFile> events;

    unsigned nCores() const { return unsigned(dmems.size()); }

    /** Set event @p ev of core @p core at tick @p when. */
    void
    scheduleSet(unsigned core, unsigned ev, sim::Tick when)
    {
        eq.schedule(std::max(when, eq.now()),
                    [this, core, ev] {
                        DPU_TRACE_INSTANT(sim::TraceCat::Dms,
                                          baseCore + core, "evSet",
                                          eq.now(), "event", ev);
                        events[core].set(ev);
                    },
                    sim::EvTag::Dms);
    }
};

} // namespace dpu::dms

#endif // DPU_DMS_DMS_CONTEXT_HH
