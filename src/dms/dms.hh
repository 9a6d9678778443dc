/**
 * @file
 * The Data Movement System, assembled (Figure 6): per-core DMADs,
 * the shared DMAC, and the per-core event files, plus the three
 * core-facing primitives software uses — push, wfe and clear_event
 * (Section 3.1, "DMS Interface and Execution Model").
 */

#ifndef DPU_DMS_DMS_HH
#define DPU_DMS_DMS_HH

#include <memory>
#include <vector>

#include "core/dp_core.hh"
#include "dms/dmac.hh"
#include "dms/dmad.hh"
#include "dms/dms_context.hh"

namespace dpu::dms {

/** The whole DMS block of one DPU. */
class Dms
{
  public:
    /**
     * @param base_core Global id of the complex's first core (0 on
     *                  the 40 nm die; 32*k for the 16 nm complexes).
     */
    Dms(sim::EventQueue &eq, mem::MainMemory &mm, unsigned n_cores,
        const DmsParams &params = DmsParams{},
        unsigned base_core = 0);

    /** Bind core @p id's DMEM (done by the SoC during construction). */
    void attachCore(unsigned id, mem::Dmem *dmem);

    // ------------------------------------------------------------
    // Core-side instructions (call from inside a core's kernel)
    // ------------------------------------------------------------

    /**
     * The push instruction: identify a descriptor by its DMEM
     * offset and one of the two channels (Section 3.1).
     */
    void push(core::DpCore &c, unsigned channel,
              std::uint16_t desc_addr);

    /** Wait-For-Event: block until event @p ev of this core is set. */
    void wfe(core::DpCore &c, unsigned ev);

    /** Outcome of a bounded wait (see wfeFor). */
    enum class WfeResult : std::uint8_t
    {
        Ok,      ///< event set, completion was clean
        Error,   ///< event set, descriptor completed with error
        Timeout, ///< deadline reached before the event set
    };

    /**
     * Bounded wait-for-event: like wfe() but gives up after
     * @p timeout ticks and reports descriptor error completions
     * (injected or real) instead of handing back a poisoned buffer.
     */
    WfeResult wfeFor(core::DpCore &c, unsigned ev, sim::Tick timeout);

    /** Clear event @p ev (consumer hands the buffer back). */
    void clearEvent(core::DpCore &c, unsigned ev);

    /** Non-blocking event test (poll form of wfe). */
    bool
    eventSet(unsigned core_id, unsigned ev) const
    {
        return ctx.events[core_id].isSet(ev);
    }

    /** True when @p ev of @p core_id completed with error status. */
    bool
    eventError(unsigned core_id, unsigned ev) const
    {
        return ctx.events[core_id].errorSet(ev);
    }

    // ------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------

    EventFile &events(unsigned core_id) { return ctx.events[core_id]; }
    Dmac &dmac() { return *dmacUnit; }
    Dmad &dmad(unsigned core_id) { return *dmads[core_id]; }
    DmsContext &context() { return ctx; }

  private:
    /** Map a core to its id local to this complex. */
    unsigned localId(const core::DpCore &c) const;

    /** Block @p c until its event @p ev is set or @p deadline
     *  passes. @return whether the event is set. */
    bool waitSet(core::DpCore &c, unsigned ev, sim::Tick deadline);

    DmsContext ctx;
    unsigned baseCore;
    std::unique_ptr<Dmac> dmacUnit;
    std::vector<std::unique_ptr<Dmad>> dmads;
};

} // namespace dpu::dms

#endif // DPU_DMS_DMS_HH
