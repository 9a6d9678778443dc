#include "dms/handoff_exec.hh"

#include <algorithm>

#include "dms/dms.hh"
#include "sim/logging.hh"

namespace dpu::dms {

// Both layouts fit one core's channels, events and DMEM, side by
// side: lander buffers, exec buffers, exec chain, lander slots.
static_assert(execChannel != landerChannel &&
              execChannel < channelsPerCore &&
              landerChannel < channelsPerCore);
static_assert(execEventA != execEventB &&
              landerEventA != landerEventB &&
              execEventB < landerEventA && landerEventB < eventsPerCore);
static_assert(landerBufBase + 2 * stagingBufBytes <= execBufBase &&
              execBufBase + 2 * stagingBufBytes <= execChainBase &&
              execChainBase + execChainBytes <= landerSlotBase &&
              landerSlotBase + 2 * 16 <= mem::Dmem::size);

// ----------------------------------------------------------------
// HandoffExec (source role)
// ----------------------------------------------------------------

HandoffExec::HandoffExec(Dms &dms_, unsigned core_id, mem::Dmem &dmem_)
    : dms(dms_), coreId(core_id), dmem(dmem_)
{
}

unsigned
HandoffExec::eventOf(unsigned chunk) const
{
    return (chunk & 1) ? execEventB : execEventA;
}

void
HandoffExec::start(const HandoffPlan &plan, ChunkFn on_staged)
{
    sim_assert(!active(), "hand-off exec already running a plan");
    sim_assert(!plan.chunks.empty(), "empty hand-off plan");
    sim_assert(on_staged, "staged-chunk consumer required");

    descs = plan.descriptors(execBufBase, stagingBufBytes,
                             std::int8_t(execEventA),
                             std::int8_t(execEventB));
    sim_assert(descs.size() * 16 <= execChainBytes,
               "plan chain (%zu descriptors) overruns the chain "
               "window", descs.size());

    cb = std::move(on_staged);
    total = unsigned(descs.size());
    staged = 0;
    released = 0;
    nextFor[0] = 0;
    nextFor[1] = 1;

    EventFile &ev = dms.events(coreId);
    sim_assert(!ev.isSet(execEventA) && !ev.isSet(execEventB),
               "hand-off events dirty at start");
    ev.whenSet(execEventA, [this] { onStaged(0); });
    if (total > 1)
        ev.whenSet(execEventB, [this] { onStaged(1); });

    // Encode the whole chain into DMEM, then push it. Descriptor
    // i+2 shares buffer (and event) with descriptor i, so the DMAD
    // parks it on the wait-for-clear precondition until release(i).
    Dmad &dmad = dms.dmad(coreId);
    for (unsigned i = 0; i < total; ++i) {
        const EncodedDesc e = encode(descs[i]);
        dmem.write(execChainBase + 16u * i, e.w.data(), 16);
    }
    for (unsigned i = 0; i < total; ++i)
        dmad.push(execChannel, std::uint16_t(execChainBase + 16u * i));
}

void
HandoffExec::onStaged(unsigned buf)
{
    const unsigned chunk = nextFor[buf];
    sim_assert(chunk < total, "spurious staging completion");
    nextFor[buf] += 2;
    ++staged;
    // Re-arm before the consumer runs: release() clears the event,
    // and the next set edge belongs to chunk + 2.
    if (nextFor[buf] < total)
        dms.events(coreId).whenSet(eventOf(buf),
                                   [this, buf] { onStaged(buf); });
    const bool err = dms.events(coreId).errorSet(eventOf(chunk));
    cb(chunk, err);
}

void
HandoffExec::release(unsigned chunk)
{
    sim_assert(chunk < total, "release of unknown chunk %u", chunk);
    sim_assert(released < staged, "release before staging");
    ++released;
    dms.events(coreId).clear(eventOf(chunk));
}

// ----------------------------------------------------------------
// HandoffLander (destination role)
// ----------------------------------------------------------------

HandoffLander::HandoffLander(Dms &dms_, unsigned core_id,
                             mem::Dmem &dmem_, sim::StatGroup &stats)
    : dms(dms_), coreId(core_id), dmem(dmem_),
      stale(stats, "staleDeliveries")
{
}

unsigned
HandoffLander::eventOf(unsigned chunk) const
{
    return (chunk & 1) ? landerEventB : landerEventA;
}

unsigned
HandoffLander::expect(unsigned total_chunks)
{
    sim_assert(total_chunks > 0, "expecting an empty migration");
    sim_assert(!busy(), "lander re-armed while busy");
    ++gen;
    total = total_chunks;
    landedCnt = 0;
    failedCnt = 0;
    return gen;
}

void
HandoffLander::deliver(unsigned generation, unsigned chunk,
                       mem::Addr ddr,
                       const std::vector<std::uint8_t> &payload,
                       std::uint8_t col_width)
{
    if (generation != gen) {
        ++stale; // an aborted migration's leftovers; drop
        return;
    }
    sim_assert(chunk < total, "delivery of unknown chunk %u", chunk);
    sim_assert(!payload.empty() && payload.size() <= stagingBufBytes,
               "chunk payload does not fit the bounce buffer");
    sim_assert(col_width > 0 && payload.size() % col_width == 0,
               "chunk payload not a whole number of rows");
    fifo.push_back({chunk, ddr, payload, col_width});
    pump();
}

void
HandoffLander::pump()
{
    // Land the first queued chunk whose ping/pong buffer is free;
    // repeat while progress is possible. Retransmitted chunks can
    // arrive out of order, so selection is by buffer parity, never
    // arrival order.
    bool progress = true;
    while (progress) {
        progress = false;
        for (auto it = fifo.begin(); it != fifo.end(); ++it) {
            const unsigned buf = it->chunk & 1;
            if (bufBusy[buf])
                continue;
            Queued q = std::move(*it);
            fifo.erase(it);
            bufBusy[buf] = true;
            land(q);
            progress = true;
            break;
        }
    }
}

void
HandoffLander::land(const Queued &q)
{
    const unsigned buf = q.chunk & 1;
    const std::uint16_t buf_addr =
        std::uint16_t(landerBufBase + buf * stagingBufBytes);
    dmem.write(buf_addr, q.payload.data(), q.payload.size());

    Descriptor d;
    d.type = DescType::DmemToDdr;
    d.notifyEvent = std::int8_t(eventOf(q.chunk));
    d.colWidth = q.colWidth;
    d.rows = std::uint32_t(q.payload.size() / q.colWidth);
    d.ddrAddr = q.ddr;
    d.dmemAddr = buf_addr;
    const EncodedDesc e = encode(d);
    const std::uint16_t slot = std::uint16_t(landerSlotBase + 16u * buf);
    dmem.write(slot, e.w.data(), 16);

    dms.events(coreId).whenSet(
        eventOf(q.chunk),
        [this, g = gen, buf, chunk = q.chunk] {
            onLanded(g, buf, chunk);
        });
    dms.dmad(coreId).push(landerChannel, slot);
}

void
HandoffLander::onLanded(unsigned expect_gen, unsigned buf,
                        unsigned chunk)
{
    EventFile &ev = dms.events(coreId);
    const bool err = ev.errorSet(eventOf(chunk));
    ev.clear(eventOf(chunk));
    bufBusy[buf] = false;
    if (expect_gen == gen) {
        if (err)
            ++failedCnt;
        else
            ++landedCnt;
    }
    pump();
}

void
HandoffLander::cancel()
{
    ++gen;
    fifo.clear();
    total = 0;
}

bool
HandoffLander::busy() const
{
    return bufBusy[0] || bufBusy[1] || !fifo.empty();
}

} // namespace dpu::dms
