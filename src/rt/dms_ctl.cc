#include "rt/dms_ctl.hh"

#include "sim/logging.hh"

namespace dpu::rt {

// ----------------------------------------------------------------
// DmsXfer builder
// ----------------------------------------------------------------

dms::Descriptor
DmsXfer::descriptor() const
{
    sim_assert(haveSrc && haveDst,
               "DmsXfer needs both from() and to()");
    sim_assert(nRows > 0 && nRows <= 0xffff,
               "DmsXfer rows %u out of the 16-bit field", nRows);
    sim_assert(elemWidth == 1 || elemWidth == 2 || elemWidth == 4 ||
                   elemWidth == 8,
               "DmsXfer width %u not 1/2/4/8", elemWidth);

    const bool to_dmem = type == dms::DescType::DdrToDmem;
    const mem::Addr ddr_side = to_dmem ? srcOperand : dstOperand;
    const mem::Addr dmem_side = to_dmem ? dstOperand : srcOperand;
    const std::uint64_t span = std::uint64_t(nRows) * elemWidth;
    sim_assert(dmem_side + span <= mem::dmemBytes,
               "DmsXfer DMEM operand 0x%llx + %u rows x %u B "
               "overruns the 32 KB scratchpad (swapped from()/to()?)",
               (unsigned long long)dmem_side, nRows, elemWidth);

    dms::Descriptor d;
    d.type = type;
    d.rows = nRows;
    d.colWidth = elemWidth;
    d.ddrAddr = ddr_side;
    d.dmemAddr = std::uint16_t(dmem_side);
    d.notifyEvent = notify;
    d.waitEvent = wait;
    // The auto-incremented side is the DDR one on both directions
    // (the DMEM buffer rewinds every loop iteration, Listing 1).
    d.srcAddrInc = ddrInc;
    return d;
}

DescHandle
DmsXfer::setup()
{
    return ctl.setup(descriptor());
}

DescHandle
DmsXfer::push(unsigned ch)
{
    DescHandle h = setup();
    ctl.push(h, ch);
    return h;
}

DescHandle
DmsCtl::setup(const dms::Descriptor &d)
{
    sim_assert(arenaNext + 16 <= mem::dmemBytes,
               "descriptor arena exhausted on core %u", core.id());
    dms::EncodedDesc e = dms::encode(d);
    std::uint16_t at = std::uint16_t(arenaNext);
    core.dmem().write(at, e.w.data(), sizeof(e.w));
    // Building the 16 B descriptor costs a handful of stores.
    core.dualIssue(4, 4);
    arenaNext += 16;
    return at;
}

void
DmsCtl::rewrite(DescHandle at, const dms::Descriptor &d)
{
    dms::EncodedDesc e = dms::encode(d);
    core.dmem().write(at, e.w.data(), sizeof(e.w));
    core.dualIssue(4, 4);
}

DescHandle
DmsCtl::setupLoop(DescHandle target, std::uint16_t iterations)
{
    dms::Descriptor d;
    d.type = dms::DescType::Loop;
    d.linkAddr = target;
    d.iterations = iterations;
    return setup(d);
}

void
DmsCtl::push(DescHandle desc, unsigned ch)
{
    dmsRef.push(core, ch, desc);
}

// ----------------------------------------------------------------
// StreamReader
// ----------------------------------------------------------------

StreamReader::StreamReader(DmsCtl &ctl_, mem::Addr src,
                           std::uint64_t total_bytes,
                           std::uint16_t dmem_base,
                           std::uint32_t buf_bytes, unsigned n_bufs,
                           unsigned first_event, unsigned channel)
    : ctl(ctl_), totalBytes(total_bytes), dmemBase(dmem_base),
      bufBytes(buf_bytes), nBufs(n_bufs), firstEvent(first_event)
{
    sim_assert(buf_bytes % 4 == 0, "buffer size must be 4 B aligned");
    sim_assert(total_bytes > 0, "empty stream");

    const std::uint64_t full_bufs = total_bytes / buf_bytes;
    const std::uint32_t partial =
        std::uint32_t(total_bytes % buf_bytes);
    const std::uint64_t full_groups = full_bufs / n_bufs;
    const unsigned rem_full = unsigned(full_bufs % n_bufs);

    // Listing 1: n descriptors sharing one auto-incremented source
    // register, plus a loop descriptor re-running the group. The
    // loop covers only FULL groups — an overshooting transfer would
    // park the channel on an event nobody will ever clear — and
    // explicit descriptors mop up the remainder (the final one
    // right-sized so the stream reads exactly total_bytes, rounded
    // up to whole 4 B elements). The loop descriptor's 16-bit count
    // re-runs the group at most 65,535 times.
    sim_assert(full_groups <= 0x10000,
               "StreamReader: %llu full passes of the %u-buffer ring "
               "exceed the loop descriptor's 65,536-pass limit",
               (unsigned long long)full_groups, n_bufs);
    if (full_groups > 0) {
        std::vector<DescHandle> handles;
        for (unsigned b = 0; b < n_bufs; ++b) {
            // dms_setup_ddr_to_dmem(rows, src, buffer b, event b)
            handles.push_back(ctl.ddrToDmem()
                                  .rows(buf_bytes / 4).width(4)
                                  .from(src).to(dmem_base + b * buf_bytes)
                                  .event(int(first_event + b)).setup());
        }
        DescHandle loop = ctl.setupLoop(
            handles.front(), std::uint16_t(full_groups - 1));
        for (DescHandle h : handles)
            ctl.push(h, channel);
        ctl.push(loop, channel);
    }
    unsigned ring_pos = 0;
    for (unsigned b = 0; b < rem_full; ++b, ++ring_pos) {
        ctl.ddrToDmem()
            .rows(buf_bytes / 4).width(4)
            .from(src).to(dmem_base + ring_pos * buf_bytes)
            .event(int(first_event + ring_pos)).push(channel);
    }
    if (partial > 0) {
        ctl.ddrToDmem()
            .rows((partial + 3) / 4).width(4)
            .from(src).to(dmem_base + ring_pos * buf_bytes)
            .event(int(first_event + ring_pos)).push(channel);
    }
}

void
StreamReader::forEach(
    const std::function<void(std::uint32_t, std::uint32_t)> &fn)
{
    std::uint64_t consumed = 0;
    unsigned buf = 0;
    while (consumed < totalBytes) {
        unsigned ev = firstEvent + buf;
        ctl.wfe(ev);
        std::uint32_t valid = std::uint32_t(
            std::min<std::uint64_t>(bufBytes, totalBytes - consumed));
        fn(dmemBase + buf * bufBytes, valid);
        ctl.clearEvent(ev);
        consumed += valid;
        buf = (buf + 1) % nBufs;
    }
}

// ----------------------------------------------------------------
// StreamWriter
// ----------------------------------------------------------------

StreamWriter::StreamWriter(DmsCtl &ctl_, mem::Addr dst_,
                           std::uint16_t dmem_base,
                           std::uint32_t buf_bytes, unsigned n_bufs,
                           unsigned first_event, unsigned channel_)
    : ctl(ctl_), dst(dst_), dmemBase(dmem_base), bufBytes(buf_bytes),
      nBufs(n_bufs), firstEvent(first_event), channel(channel_),
      pending(n_bufs, false), slots(n_bufs)
{
    sim_assert(buf_bytes % 4 == 0, "buffer size must be 4 B aligned");
    // Pre-allocate one rewritable arena slot per ring buffer so a
    // long stream does not exhaust the descriptor arena.
    dms::Descriptor nop;
    for (unsigned b = 0; b < n_bufs; ++b)
        slots[b] = ctl.setup(nop);
}

std::uint32_t
StreamWriter::acquire()
{
    if (pending[cur]) {
        unsigned ev = firstEvent + cur;
        ctl.wfe(ev);
        ctl.clearEvent(ev);
        pending[cur] = false;
    }
    return dmemBase + cur * bufBytes;
}

void
StreamWriter::commit(std::uint32_t bytes)
{
    sim_assert(bytes % 4 == 0 && bytes <= bufBytes,
               "bad commit size %u", bytes);
    if (bytes == 0)
        return;
    sim_assert(!pending[cur], "commit without acquire");
    unsigned ev = firstEvent + cur;

    dms::Descriptor d;
    d.type = dms::DescType::DmemToDdr;
    d.rows = bytes / 4;
    d.colWidth = 4;
    d.dmemAddr = std::uint16_t(dmemBase + cur * bufBytes);
    d.ddrAddr = dst + written;
    d.notifyEvent = std::int8_t(ev);
    ctl.rewrite(slots[cur], d);
    ctl.push(slots[cur], channel);

    pending[cur] = true;
    written += bytes;
    cur = (cur + 1) % nBufs;
}

void
StreamWriter::finish()
{
    for (unsigned b = 0; b < nBufs; ++b) {
        unsigned slot = (cur + b) % nBufs;
        if (pending[slot]) {
            ctl.wfe(firstEvent + slot);
            ctl.clearEvent(firstEvent + slot);
            pending[slot] = false;
        }
    }
}

} // namespace dpu::rt
