#include "dms/dmad.hh"

#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace dpu::dms {

Dmad::Dmad(DmsContext &ctx_, Dmac &dmac_, unsigned core_id)
    : ctx(ctx_), dmac(dmac_), coreId(core_id),
      channels(channelsPerCore)
{
}

void
Dmad::push(unsigned ch, std::uint16_t desc_addr)
{
    sim_assert(ch < channelsPerCore, "bad DMS channel %u", ch);

    // A push onto an idle channel starts a fresh chain: retire the
    // completed active list and re-arm the auto-increment registers.
    Channel &chan = channels[ch];
    if (!chan.waiting && chan.pc >= chan.list.size() &&
        chan.inflight == 0) {
        chan.list.clear();
        chan.pc = 0;
        chan.srcArmed = false;
        chan.dstArmed = false;
    }

    EncodedDesc e;
    ctx.dmems[coreId]->read(desc_addr, e.w.data(), sizeof(e.w));
    Entry entry;
    entry.d = decode(e);
    entry.dmemAddr = desc_addr;
    entry.remaining = entry.d.iterations;

    DPU_TRACE_INSTANT(sim::TraceCat::Dms, ctx.baseCore + coreId,
                      "push", ctx.eq.now(), "ch", ch);
    channels[ch].list.push_back(entry);
    process(ch);
}

std::size_t
Dmad::findEntry(const Channel &c, std::uint16_t link_addr) const
{
    for (std::size_t i = 0; i < c.list.size(); ++i) {
        if (c.list[i].dmemAddr == link_addr)
            return i;
    }
    panic("loop target %#x not on active list (core %u)", link_addr,
          coreId);
}

void
Dmad::parkOnClear(unsigned ch, unsigned ev)
{
    Channel &c = channels[ch];
    c.waiting = true;
    ctx.events[coreId].whenClear(ev, [this, ch] {
        channels[ch].waiting = false;
        ctx.eq.scheduleIn(0, [this, ch] { process(ch); },
                          sim::EvTag::Dms);
    });
}

void
Dmad::parkOnSet(unsigned ch, unsigned ev)
{
    Channel &c = channels[ch];
    c.waiting = true;
    ctx.events[coreId].whenSet(ev, [this, ch] {
        channels[ch].waiting = false;
        ctx.eq.scheduleIn(0, [this, ch] { process(ch); },
                          sim::EvTag::Dms);
    });
}

void
Dmad::completeAt(sim::Tick t, unsigned ch, int notify,
                 std::uint64_t span_id, const char *desc_name,
                 bool error)
{
    ctx.eq.schedule(
        std::max(t, ctx.eq.now()),
        [this, ch, notify, span_id, desc_name, error] {
            if (span_id) {
                DPU_TRACE_SPAN_END(sim::TraceCat::Dms,
                                   ctx.baseCore + coreId, desc_name,
                                   span_id, ctx.eq.now());
            }
            Channel &chan = channels[ch];
            if (notify >= 0) {
                chan.pendingSet &= ~(1u << unsigned(notify));
                if (error)
                    ctx.events[coreId].markError(unsigned(notify));
                ctx.events[coreId].set(unsigned(notify));
            }
            --chan.inflight;
            process(ch);
        },
        sim::EvTag::Dms);
}

void
Dmad::process(unsigned ch)
{
    Channel &c = channels[ch];
    if (c.waiting)
        return;

    while (c.pc < c.list.size()) {
        Entry &e = c.list[c.pc];
        Descriptor &d = e.d;

        switch (d.type) {
          case DescType::Loop:
            if (e.remaining > 0) {
                --e.remaining;
                c.pc = findEntry(c, d.linkAddr);
            } else {
                e.remaining = d.iterations; // rearm for reuse
                ++c.pc;
            }
            continue;

          case DescType::EventCtl: {
            EventFile &ef = ctx.events[coreId];
            if (d.eventOp == EventOp::Set) {
                for (unsigned i = 0; i < eventsPerCore; ++i)
                    if (d.eventMask & (1u << i))
                        ef.set(i);
                ++c.pc;
                continue;
            }
            if (d.eventOp == EventOp::Clear) {
                for (unsigned i = 0; i < eventsPerCore; ++i)
                    if (d.eventMask & (1u << i))
                        ef.clear(i);
                ++c.pc;
                continue;
            }
            if (d.eventOp == EventOp::WaitClear) {
                std::uint32_t busy =
                    (ef.word() | c.pendingSet) & d.eventMask;
                if (busy) {
                    unsigned ev = unsigned(__builtin_ctz(busy));
                    if (ef.isSet(ev))
                        parkOnClear(ch, ev);
                    // else: a pending set will re-run process().
                    return;
                }
                ++c.pc;
                continue;
            }
            // WaitSet
            {
                std::uint32_t missing = ~ef.word() & d.eventMask;
                if (missing) {
                    parkOnSet(ch,
                              unsigned(__builtin_ctz(missing)));
                    return;
                }
                ++c.pc;
                continue;
            }
          }

          case DescType::HashProg:
            dmac.programHash(d);
            ++c.pc;
            continue;

          case DescType::RangeProg:
            dmac.programRange(coreId, d);
            ++c.pc;
            continue;

          case DescType::PartDstCfg:
            dmac.configPartDst(coreId, d);
            ++c.pc;
            continue;

          default:
            break; // a data descriptor, handled below
        }

        // ---- data descriptor ----------------------------------
        if (c.inflight >= outstandingDescs)
            return; // a completion will resume us

        EventFile &ef = ctx.events[coreId];

        // Listing-1 semantics: the notify event doubles as the
        // buffer-ownership flag; execution waits until it is clear.
        if (d.notifyEvent >= 0) {
            unsigned ev = unsigned(d.notifyEvent);
            if (ef.isSet(ev)) {
                parkOnClear(ch, ev);
                return;
            }
            if (c.pendingSet & (1u << ev))
                return; // completion handler will re-run process()
        }
        if (d.waitEvent >= 0) {
            unsigned ev = unsigned(d.waitEvent);
            if (ef.isSet(ev)) {
                parkOnClear(ch, ev);
                return;
            }
            if (c.pendingSet & (1u << ev))
                return;
        }

        const std::uint32_t bytes = d.rows * d.colWidth;
        mem::Addr eff_ddr = d.ddrAddr;
        std::uint32_t eff_dmem = d.dmemAddr;
        if (d.srcAddrInc) {
            if (!c.srcArmed) {
                c.srcArmed = true;
                c.srcReg = d.ddrAddr;
            }
            eff_ddr = c.srcReg;
            c.srcReg += bytes;
        }
        if (d.dstAddrInc) {
            if (!c.dstArmed) {
                c.dstArmed = true;
                c.dstReg = d.dmemAddr;
            }
            eff_dmem = c.dstReg;
            c.dstReg += bytes;
        }

        ++c.inflight;
        if (d.notifyEvent >= 0)
            c.pendingSet |= 1u << unsigned(d.notifyEvent);

        // Descriptor lifecycle span: DMAD issue -> DMAC completion.
        // Async ('b'/'e') because up to `outstanding` descriptors
        // overlap on one channel's track.
        std::uint64_t span_id = 0;
        if (DPU_TRACE_ARMED) {
            span_id = DPU_TRACE_NEXT_ID();
            DPU_TRACE_SPAN_BEGIN(sim::TraceCat::Dms,
                                 ctx.baseCore + coreId,
                                 descTypeName(d.type), span_id,
                                 ctx.eq.now(), "rows", d.rows,
                                 "bytes", bytes);
        }

        const int notify = d.notifyEvent;
        const char *desc_name = descTypeName(d.type);
        if (sim::faultPlane().active() &&
            sim::faultPlane().fires(sim::FaultSite::DmsDescError,
                                    ctx.eq.now(),
                                    int(ctx.baseCore + coreId))) {
            // Injected descriptor error: the DMAC rejects the
            // descriptor after decode and completes it with error
            // status. No data moves; the notify event still fires
            // (waiters must wake) carrying the error flag.
            DPU_TRACE_INSTANT(sim::TraceCat::Dms,
                              ctx.baseCore + coreId, "descError",
                              ctx.eq.now(), "ch", ch);
            completeAt(ctx.eq.now() + descOverhead, ch,
                       notify, span_id, desc_name, true);
        } else {
            dmac.execute(
                coreId, d, eff_ddr, eff_dmem, ctx.eq.now(),
                [this, ch, notify, span_id,
                 desc_name](sim::Tick t) {
                    completeAt(t, ch, notify, span_id, desc_name,
                               false);
                });
        }

        ++c.pc;
    }
}

} // namespace dpu::dms
