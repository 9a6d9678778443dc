#include "dms/dms.hh"

namespace dpu::dms {

Dms::Dms(sim::EventQueue &eq, mem::MainMemory &mm, unsigned n_cores,
         const DmsParams &params, unsigned base_core)
    : ctx(eq, mm, n_cores, params), baseCore(base_core)
{
    ctx.baseCore = base_core;
    dmacUnit = std::make_unique<Dmac>(ctx);
    dmads.reserve(n_cores);
    for (unsigned i = 0; i < n_cores; ++i)
        dmads.push_back(std::make_unique<Dmad>(ctx, *dmacUnit, i));
}

unsigned
Dms::localId(const core::DpCore &c) const
{
    unsigned id = c.id();
    sim_assert(id >= baseCore && id - baseCore < ctx.nCores(),
               "core %u is not served by this DMS complex", id);
    return id - baseCore;
}

void
Dms::attachCore(unsigned id, mem::Dmem *dmem)
{
    ctx.dmems[id] = dmem;
}

void
Dms::push(core::DpCore &c, unsigned channel, std::uint16_t desc_addr)
{
    // The push instruction itself plus the DMAD descriptor fetch.
    c.cycles(4);
    c.sync();
    dmads[localId(c)]->push(channel, desc_addr);
}

bool
Dms::waitSet(core::DpCore &c, unsigned ev, sim::Tick deadline)
{
    EventFile &ef = ctx.events[localId(c)];
    core::DpCore *cp = &c;
    return c.blockUntil(
        [cp, &ef, ev] {
            if (ef.isSet(ev))
                return true;
            // The waker outlives a wait that times out: it may end
            // only this wait, not whatever the core waits on next.
            ef.whenSet(ev, [cp, wait = cp->waitId()] {
                cp->wake(cp->eventQueue().now(), wait);
            });
            return false;
        },
        deadline);
}

void
Dms::wfe(core::DpCore &c, unsigned ev)
{
    c.cycles(1);
    waitSet(c, ev, sim::maxTick);
}

Dms::WfeResult
Dms::wfeFor(core::DpCore &c, unsigned ev, sim::Tick timeout)
{
    c.cycles(1);
    c.sync();
    if (!waitSet(c, ev, ctx.eq.now() + timeout))
        return WfeResult::Timeout;
    return ctx.events[localId(c)].errorSet(ev) ? WfeResult::Error
                                                : WfeResult::Ok;
}

void
Dms::clearEvent(core::DpCore &c, unsigned ev)
{
    c.cycles(1);
    c.sync();
    DPU_TRACE_INSTANT(sim::TraceCat::Dms, c.id(), "evClear",
                      ctx.eq.now(), "event", ev);
    ctx.events[localId(c)].clear(ev);
}

} // namespace dpu::dms
