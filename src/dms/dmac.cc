#include "dms/dmac.hh"

#include <algorithm>
#include <array>
#include <cstring>

#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"
#include "util/crc32.hh"

namespace dpu::dms {

namespace {

/** dpCores per DMAX complex (8 cores per macro, Figure 1). */
constexpr unsigned coresPerDmax = 8;

sim::Tick
cyc(sim::Cycles c)
{
    return sim::dpCoreClock.cyclesToTicks(c);
}

} // namespace

Dmac::Dmac(DmsContext &ctx_)
    : ctx(ctx_), stats("dmac"), partDst(ctx_.nCores())
{
}

sim::Tick
Dmac::dmaxTicks(std::uint32_t bytes) const
{
    std::uint32_t cycles =
        (bytes + dmaxBytesPerCycle - 1) / dmaxBytesPerCycle;
    return cyc(cycles);
}

sim::Tick
Dmac::ddrStream(mem::Addr addr, std::uint8_t *buf, std::uint32_t bytes,
                bool write, sim::Tick start)
{
    constexpr unsigned window = axiWindow;
    std::array<sim::Tick, window> inflight;
    inflight.fill(start);
    sim::Tick done = start;
    std::uint32_t off = 0;
    unsigned i = 0;
    while (off < bytes) {
        std::uint32_t chunk = std::min(bytes - off, axiMaxBytes);
        sim::Tick earliest = std::max(start, inflight[i % window]);
        done = write
                   ? ctx.mm.dmsWrite(addr + off, buf + off, chunk,
                                     earliest)
                   : ctx.mm.dmsRead(addr + off, buf + off, chunk,
                                    earliest);
        inflight[i % window] = done;
        off += chunk;
        ++i;
    }
    return done;
}

std::vector<Dmac::Run>
Dmac::maskRuns(const Descriptor &d, std::uint32_t rows) const
{
    std::vector<Run> runs;
    const auto &bank = bvm[d.ibank];
    if (d.rle) {
        // RID mode: the bank holds 32-bit row ids, ascending.
        sim_assert(rows * 4 <= bvBankBytes,
                   "RID list overflows BV bank: %u rids", rows);
        std::uint32_t prev = ~0u;
        for (std::uint32_t i = 0; i < rows; ++i) {
            std::uint32_t rid;
            std::memcpy(&rid, bank.data() + i * 4, 4);
            if (!runs.empty() && rid == prev + 1) {
                ++runs.back().nRows;
            } else {
                runs.push_back({rid, 1});
            }
            prev = rid;
        }
    } else {
        // Bit-vector mode: one bit per row.
        sim_assert((rows + 7) / 8 <= bvBankBytes,
                   "bit vector overflows BV bank: %u rows", rows);
        for (std::uint32_t i = 0; i < rows; ++i) {
            bool sel = (bank[i >> 3] >> (i & 7)) & 1;
            if (!sel)
                continue;
            if (!runs.empty() &&
                runs.back().firstRow + runs.back().nRows == i) {
                ++runs.back().nRows;
            } else {
                runs.push_back({i, 1});
            }
        }
    }
    return runs;
}

void
Dmac::wedge(unsigned core, sim::Counter &cause)
{
    // A wedge is permanent: the flag feeds host-side death
    // attribution (the reaper reads hung()), the counter and the
    // trace instant make the cause visible in stats and timelines.
    wedged = true;
    ++cause;
    ++wedges;
    DPU_TRACE_INSTANT(sim::TraceCat::Dms, ctx.baseCore + core,
                      "dmacWedge", ctx.eq.now(), "core",
                      ctx.baseCore + core);
}

void
Dmac::execute(unsigned core, const Descriptor &d, mem::Addr eff_ddr,
              std::uint32_t eff_dmem, sim::Tick issue, DoneFn done)
{
    ++descriptors;
    // The front-end handles one incoming descriptor at a time.
    // Internal pipeline-stage commands (hash, partition store,
    // flush) ride the already-dispatched chain and skip it.
    if (d.type != DescType::HashCol &&
        d.type != DescType::DmsToDmem &&
        d.type != DescType::PartFlush &&
        d.type != DescType::DmsToDms) {
        dispatcher = std::max(dispatcher, issue) + dmacDispatch;
        issue = dispatcher;
        // Injected fault: the controller locks up mid-dispatch and
        // the descriptor never completes — the same observable shape
        // as the gather-bug erratum, but schedulable on any data
        // descriptor so recovery paths can be exercised at will.
        if (sim::faultPlane().active() &&
            sim::faultPlane().fires(sim::FaultSite::DmsWedge,
                                    ctx.eq.now(),
                                    int(ctx.baseCore + core))) {
            wedge(core, injectedWedges);
            warn("fault plane: DMAC wedged on dispatch (core %u)",
                 ctx.baseCore + core);
            return;
        }
    }
    switch (d.type) {
      case DescType::DdrToDmem:
        execDdrToDmem(core, d, eff_ddr, eff_dmem, issue,
                      std::move(done));
        return;
      case DescType::DmemToDdr:
        execDmemToDdr(core, d, eff_ddr, eff_dmem, issue,
                      std::move(done));
        return;
      case DescType::DdrToDms:
        execDdrToDms(core, d, eff_ddr, issue, std::move(done));
        return;
      case DescType::HashCol:
        execHashCol(d, issue, std::move(done));
        return;
      case DescType::DmsToDmem:
        execStorePart(core, d, issue, std::move(done));
        return;
      case DescType::PartFlush:
        execPartFlush(issue, std::move(done));
        return;
      case DescType::DmemToDms:
        execDmemToDms(core, d, eff_dmem, issue, std::move(done));
        return;
      case DescType::DmsToDdr:
        execDmsToDdr(d, eff_ddr, issue, std::move(done));
        return;
      case DescType::DmsToDms:
        execDmsToDms(d, issue, std::move(done));
        return;
      default:
        panic("DMAC cannot execute descriptor type %d", int(d.type));
    }
}

void
Dmac::execDdrToDmem(unsigned core, const Descriptor &d,
                    mem::Addr ddr, std::uint32_t dmem,
                    sim::Tick issue, DoneFn done)
{
    const unsigned m = core / coresPerDmax;
    const std::uint32_t bytes = d.rows * d.colWidth;
    // In 64 bits: an auto-incremented offset grows without bound, and
    // the neighbour past a DMEM's end is another core's DMEM.
    sim_assert(std::uint64_t(dmem) + bytes <= mem::dmemBytes,
               "DDR->DMEM overflows DMEM: off=%u bytes=%u", dmem,
               bytes);

    // Dispatch overhead overlaps with the engine's previous
    // transfer; the engine itself is busy only while moving data.
    sim::Tick start = std::max(issue + descOverhead, loadEngine[m]);
    mem::Dmem &dst = *ctx.dmems[core];
    sim::Tick t;

    if (d.gatherSrc) {
        if (ctx.params.emulateGatherBug && gathersActive > 0) {
            // RTL erratum: the BV-count FIFO overflows and the DMAD
            // stalls indefinitely (Section 3.4). The descriptor
            // never completes.
            wedge(core, gatherBugHangs);
            warn("DMAC gather-bug erratum triggered: DMAD wedged");
            return;
        }
        ++gathersActive;
        ++gathers;
        auto runs = maskRuns(d, d.rows);
        t = start;
        std::uint32_t out = dmem;
        // The DMS fetches at burst granularity: runs separated by
        // less than one 64 B burst merge into a covering segment
        // whose unselected bytes are fetched and DISCARDED. Dense
        // masks therefore gather near line rate; sparse masks pay
        // for bytes they do not keep.
        const std::uint32_t merge_gap =
            std::max<std::uint32_t>(1, 64 / d.colWidth);
        std::size_t i = 0;
        std::vector<std::uint8_t> seg_buf;
        while (i < runs.size()) {
            std::size_t j = i;
            std::uint32_t seg_first = runs[i].firstRow;
            std::uint32_t seg_end =
                runs[i].firstRow + runs[i].nRows;
            while (j + 1 < runs.size() &&
                   runs[j + 1].firstRow - seg_end < merge_gap) {
                ++j;
                seg_end = runs[j].firstRow + runs[j].nRows;
            }
            std::uint32_t seg_bytes =
                (seg_end - seg_first) * d.colWidth;
            seg_buf.resize(seg_bytes);
            t = ddrStream(ddr + mem::Addr(seg_first) * d.colWidth,
                          seg_buf.data(), seg_bytes, false,
                          t + gatherRunOverhead);
            for (std::size_t k = i; k <= j; ++k) {
                std::uint32_t run_bytes =
                    runs[k].nRows * d.colWidth;
                sim_assert(out + run_bytes <= mem::dmemBytes,
                           "gather output overflows DMEM");
                std::memcpy(dst.raw() + out,
                            seg_buf.data() +
                                (runs[k].firstRow - seg_first) *
                                    d.colWidth,
                            run_bytes);
                out += run_bytes;
            }
            i = j + 1;
        }
        std::uint32_t moved = out - dmem;
        sim::Tick bus = std::max(dmaxBus[m], start) + dmaxTicks(moved);
        dmaxBus[m] = bus;
        t = std::max(t, bus);
        ctx.eq.schedule(std::max(t, ctx.eq.now()),
                        [this] { --gathersActive; },
                        sim::EvTag::Dms);
        bytesToDmem += moved;
    } else {
        t = ddrStream(ddr, dst.raw() + dmem, bytes, false, start);
        sim::Tick bus = std::max(dmaxBus[m], start) + dmaxTicks(bytes);
        dmaxBus[m] = bus;
        t = std::max(t, bus);
        bytesToDmem += bytes;
    }

    // The engine is occupied while ISSUING the request stream (its
    // AXI front-end runs at the DMAX rate); data returns complete
    // later. This lets requests from the macro's other cores queue
    // at the DDR controller early enough for their activations to
    // overlap this transfer — which is what the real controller's
    // command queue achieves.
    loadEngine[m] = start + dmaxTicks(bytes);
    DPU_TRACE_COMPLETE(sim::TraceCat::Dms,
                       sim::dmstrack::loadEngine +
                           ctx.baseCore / coresPerDmax + m,
                       "DdrToDmem", start, t - start, "bytes", bytes,
                       "core", ctx.baseCore + core);
    done(t);
}

void
Dmac::execDmemToDdr(unsigned core, const Descriptor &d,
                    mem::Addr ddr, std::uint32_t dmem,
                    sim::Tick issue, DoneFn done)
{
    const unsigned m = core / coresPerDmax;
    const std::uint32_t bytes = d.rows * d.colWidth;
    sim_assert(std::uint64_t(dmem) + bytes <= mem::dmemBytes,
               "DMEM->DDR overflows DMEM: off=%u bytes=%u", dmem,
               bytes);

    sim::Tick start = std::max(issue + descOverhead, storeEngine[m]);
    mem::Dmem &src = *ctx.dmems[core];
    sim::Tick t;

    if (d.scatterDst) {
        ++scatters;
        auto runs = maskRuns(d, d.rows);
        t = start;
        std::uint32_t in = dmem;
        for (const Run &run : runs) {
            std::uint32_t run_bytes = run.nRows * d.colWidth;
            t = ddrStream(ddr + mem::Addr(run.firstRow) * d.colWidth,
                          src.raw() + in, run_bytes, true,
                          t + gatherRunOverhead);
            in += run_bytes;
        }
        std::uint32_t moved = in - dmem;
        sim::Tick bus = std::max(dmaxBus[m], start) + dmaxTicks(moved);
        dmaxBus[m] = bus;
        t = std::max(t, bus);
        bytesFromDmem += moved;
    } else {
        t = ddrStream(ddr, src.raw() + dmem, bytes, true, start);
        sim::Tick bus = std::max(dmaxBus[m], start) + dmaxTicks(bytes);
        dmaxBus[m] = bus;
        t = std::max(t, bus);
        bytesFromDmem += bytes;
    }

    storeEngine[m] = start + dmaxTicks(bytes); // issue occupancy
    DPU_TRACE_COMPLETE(sim::TraceCat::Dms,
                       sim::dmstrack::storeEngine +
                           ctx.baseCore / coresPerDmax + m,
                       "DmemToDdr", start, t - start, "bytes", bytes,
                       "core", ctx.baseCore + core);
    done(t);
}

void
Dmac::execDdrToDms(unsigned core, const Descriptor &d, mem::Addr ddr,
                   sim::Tick issue, DoneFn done)
{
    const unsigned m = core / coresPerDmax;
    const unsigned tuple = unsigned(d.nCols) * d.colWidth;
    const std::uint32_t bytes = d.rows * tuple;
    sim_assert(d.ibank < nCmemBanks, "bad CMEM bank %u", d.ibank);
    sim_assert(bytes <= cmemBankBytes,
               "tuple chunk overflows CMEM bank: %u bytes", bytes);

    sim::Tick start = std::max({issue + descOverhead,
                                loadEngine[m], cmemBusy[d.ibank]});

    // Fetch one column at a time (Section 3.4: "As DMS fetches one
    // column at a time, it observes a small latency overhead in
    // fetching non-contiguous DRAM pages"). A projection mask
    // selects which source columns feed the packed tuples.
    unsigned src_cols[16];
    if (d.colMask) {
        unsigned k = 0;
        for (unsigned b = 0; b < 16; ++b)
            if (d.colMask & (1u << b))
                src_cols[k++] = b;
        sim_assert(k == d.nCols, "colMask/nCols mismatch");
    } else {
        for (unsigned b = 0; b < d.nCols; ++b)
            src_cols[b] = b;
    }
    auto &bank = cmem[d.ibank];
    std::vector<std::uint8_t> colbuf(d.rows * d.colWidth);
    // The engine issues all column requests up front; their row
    // activations overlap even though the data bus serializes.
    sim::Tick t = start;
    for (unsigned c = 0; c < d.nCols; ++c) {
        mem::Addr src = ddr + mem::Addr(src_cols[c]) * d.colStride;
        t = std::max(t, ddrStream(src, colbuf.data(),
                                  d.rows * d.colWidth, false,
                                  start));
        // Transpose the column into row-major tuples.
        for (std::uint32_t r = 0; r < d.rows; ++r) {
            std::memcpy(bank.data() + r * tuple + c * d.colWidth,
                        colbuf.data() + r * d.colWidth, d.colWidth);
        }
    }

    bytesToCmem += bytes;
    loadEngine[m] = start + dmaxTicks(bytes); // issue occupancy
    cmemBusy[d.ibank] = t;
    DPU_TRACE_COMPLETE(sim::TraceCat::Dms,
                       sim::dmstrack::loadEngine +
                           ctx.baseCore / coresPerDmax + m,
                       "DdrToDms", start, t - start, "bytes", bytes,
                       "bank", d.ibank);
    done(t);
}

void
Dmac::execHashCol(const Descriptor &d, sim::Tick issue, DoneFn done)
{
    sim_assert(d.ibank < nCmemBanks && d.ibank2 < nCrcBanks &&
               d.cidBank < nCidBanks, "bad hash banks");
    sim_assert(d.rows <= cidBankBytes,
               "hash chunk exceeds CID capacity: %u rows", d.rows);
    sim_assert(d.rows * 4 <= crcBankBytes,
               "hash chunk exceeds CRC capacity: %u rows", d.rows);
    sim_assert(!d.rangeMode || rangeProgrammed,
               "range partitioning without RangeProg");

    sim::Tick start = std::max({issue, hashEngine, cmemBusy[d.ibank],
                                crcBusy[d.ibank2],
                                cidBusy[d.cidBank]});

    const unsigned tuple = unsigned(d.nCols) * d.colWidth;
    const auto &src = cmem[d.ibank];
    auto &crc_bank = crcm[d.ibank2];
    auto &cid_bank = cidm[d.cidBank];
    const std::uint32_t radix_mask = (1u << radixBits) - 1u;

    for (std::uint32_t r = 0; r < d.rows; ++r) {
        std::uint64_t key = 0;
        std::memcpy(&key, src.data() + r * tuple, d.colWidth);
        std::uint32_t h = hashUseCrc
                              ? util::crc32(&key, d.colWidth)
                              : std::uint32_t(key);
        std::memcpy(crc_bank.data() + r * 4, &h, 4);

        std::uint8_t cid;
        if (d.rangeMode) {
            // First range whose bound is >= key; bounds ascending.
            auto it = std::lower_bound(rangeBounds.begin(),
                                       rangeBounds.end(), key);
            cid = std::uint8_t(
                std::min<std::ptrdiff_t>(it - rangeBounds.begin(),
                                         31));
        } else {
            cid = std::uint8_t((h >> radixShift) & radix_mask);
        }
        cid_bank[r] = cid;
    }

    sim::Cycles cycles = hashSetupCycles +
        (d.rows + hashKeysPerCycle - 1) / hashKeysPerCycle;
    sim::Tick t = start + cyc(cycles);
    keysHashed += d.rows;

    hashEngine = t;
    cmemBusy[d.ibank] = t;
    crcBusy[d.ibank2] = t;
    cidBusy[d.cidBank] = t;
    DPU_TRACE_COMPLETE(sim::TraceCat::Dms,
                       sim::dmstrack::hashEngine + ctx.baseCore,
                       "HashCol", start, t - start, "rows", d.rows,
                       "bank", d.ibank);
    done(t);
}

void
Dmac::programHash(const Descriptor &d)
{
    hashUseCrc = d.hashUseCrc;
    radixBits = d.radixBits;
    radixShift = d.radixShift;
    sim_assert(radixBits >= 1 && radixBits <= 8, "bad radix bits %u",
               radixBits);
}

void
Dmac::programRange(unsigned core, const Descriptor &d)
{
    // 32 x 8 B ascending boundaries in the pusher's DMEM.
    for (unsigned i = 0; i < 32; ++i) {
        rangeBounds[i] = ctx.dmems[core]->load<std::uint64_t>(
            d.dmemAddr + i * 8);
        sim_assert(i == 0 || rangeBounds[i] >= rangeBounds[i - 1],
                   "range bounds must ascend (entry %u)", i);
    }
    rangeProgrammed = true;
}

void
Dmac::configPartDst(unsigned core, const Descriptor &d)
{
    // A reconfiguration starts a fresh partition phase.

    // d.rows entries of 8 B each: {u16 base, u16 bufBytes,
    // u8 firstEvent, u8 nBufs, u16 pad}; entry i configures core i.
    sim_assert(d.rows <= ctx.nCores(), "too many partition dsts: %u",
               d.rows);
    const mem::Dmem &src = *ctx.dmems[core];
    for (std::uint32_t i = 0; i < d.rows; ++i) {
        std::uint32_t off = d.dmemAddr + i * 8;
        PartDst &p = partDst[i];
        p.base = src.load<std::uint16_t>(off);
        p.bufBytes = src.load<std::uint16_t>(off + 2);
        p.firstEvent = src.load<std::uint8_t>(off + 4);
        p.nBufs = src.load<std::uint8_t>(off + 5);
        p.curBuf = 0;
        p.fill = 0;
        p.rowsInBuf = 0;
        p.busyMask = 0;
        p.configured = p.nBufs > 0;
        if (p.configured) {
            sim_assert(p.base + std::uint32_t(p.bufBytes) * p.nBufs <=
                       mem::dmemBytes,
                       "partition ring overflows DMEM of core %u", i);
            sim_assert(p.firstEvent + p.nBufs <= eventsPerCore,
                       "partition events out of range for core %u", i);
            sim_assert(p.bufBytes > 4, "partition buffer too small");
        }
    }
}

void
Dmac::finalizeBuffer(unsigned dst_core, sim::Tick t, bool final_buf)
{
    PartDst &p = partDst[dst_core];
    const unsigned buf = p.curBuf;
    std::uint32_t buf_base =
        p.base + std::uint32_t(buf) * p.bufBytes;
    std::uint32_t hdr =
        p.rowsInBuf | (final_buf ? 0x80000000u : 0u);
    ctx.dmems[dst_core]->store<std::uint32_t>(buf_base, hdr);

    // Mark the buffer busy until the consumer clears its event; the
    // clear edge releases it and kicks a stalled store pipeline.
    p.busyMask |= std::uint8_t(1u << buf);
    unsigned ev = p.firstEvent + buf;
    ctx.events[dst_core].whenClear(ev, [this, dst_core, buf] {
        partDst[dst_core].busyMask &= std::uint8_t(~(1u << buf));
        ctx.eq.scheduleIn(0,
                          [this] {
                              if (partActive && !partQueue.empty()) {
                                  partQueue.front().t = std::max(
                                      partQueue.front().t,
                                      ctx.eq.now());
                                  partStep();
                              }
                          },
                          sim::EvTag::Dms);
    });

    ctx.scheduleSet(dst_core, ev, t);
    ++partBuffersSealed;
}

void
Dmac::execStorePart(unsigned core, const Descriptor &d,
                    sim::Tick issue, DoneFn done)
{
    sim_assert(d.ibank < nCmemBanks && d.cidBank < nCidBanks,
               "bad partition banks");
    PartJob job;
    job.core = core;
    job.d = d;
    job.row = 0;
    job.t = std::max({issue, cmemBusy[d.ibank], cidBusy[d.cidBank]});
    job.traceStart = job.t;
    job.done = std::move(done);
    partQueue.push_back(std::move(job));
    if (!partActive) {
        partActive = true;
        partStep();
    }
}

void
Dmac::partStep()
{
    while (!partQueue.empty()) {
        PartJob &job = partQueue.front();

        if (job.flush) {
            // Seal every configured destination's current buffer
            // (possibly with zero rows — the 'final' header bit
            // unblocks waiting consumers either way).
            while (job.row < ctx.nCores()) {
                unsigned dst = job.row;
                PartDst &p = partDst[dst];
                if (!p.configured) {
                    ++job.row;
                    continue;
                }
                if (p.busyMask & (1u << p.curBuf)) {
                    // The buffer to seal is still owned by the
                    // consumer; the seal-time clear hook resumes us.
                    ++partStalls;
                    DPU_TRACE_INSTANT(sim::TraceCat::Dms,
                                      sim::dmstrack::partPipe +
                                          ctx.baseCore,
                                      "partStall", ctx.eq.now(),
                                      "dst", dst);
                    return;
                }
                finalizeBuffer(dst, job.t, true);
                p.curBuf = std::uint8_t((p.curBuf + 1) % p.nBufs);
                p.fill = 0;
                p.rowsInBuf = 0;
                ++job.row;
            }
            sim::Tick t = job.t;
            DPU_TRACE_COMPLETE(sim::TraceCat::Dms,
                               sim::dmstrack::partPipe + ctx.baseCore,
                               "PartFlush", job.traceStart,
                               t - job.traceStart, nullptr, 0,
                               nullptr, 0);
            DoneFn fn = std::move(job.done);
            partQueue.pop_front();
            if (!partQueue.empty())
                partQueue.front().t =
                    std::max(partQueue.front().t, t);
            fn(t);
            continue;
        }

        const Descriptor &d = job.d;
        const unsigned tuple = unsigned(d.nCols) * d.colWidth;
        const auto &src = cmem[d.ibank];
        const auto &cids = cidm[d.cidBank];
        const sim::Tick per_row =
            cyc(std::max<std::uint32_t>(1, tuple / storeBytesPerCycle));

        while (job.row < d.rows) {
            std::uint32_t r = job.row;
            unsigned dst = cids[r];
            sim_assert(dst < ctx.nCores(),
                       "partition CID %u out of range", dst);
            PartDst &p = partDst[dst];
            sim_assert(p.configured,
                       "partition to unconfigured core %u", dst);

            if (p.fill + tuple > std::uint32_t(p.bufBytes) - 4) {
                // Seal the buffer and move to the next one.
                finalizeBuffer(dst, job.t);
                p.curBuf = std::uint8_t((p.curBuf + 1) % p.nBufs);
                p.fill = 0;
                p.rowsInBuf = 0;
            }
            if (p.busyMask & (1u << p.curBuf)) {
                // Back-pressure: the consumer still owns the next
                // buffer; the seal-time clear hook resumes us.
                ++partStalls;
                DPU_TRACE_INSTANT(sim::TraceCat::Dms,
                                  sim::dmstrack::partPipe +
                                      ctx.baseCore,
                                  "partStall", ctx.eq.now(),
                                  "dst", dst);
                return;
            }

            std::uint32_t buf_base =
                p.base + std::uint32_t(p.curBuf) * p.bufBytes;
            ctx.dmems[dst]->write(buf_base + 4 + p.fill,
                                  src.data() + r * tuple, tuple);
            p.fill = std::uint16_t(p.fill + tuple);
            ++p.rowsInBuf;
            job.t += per_row;
            ++job.row;
            ++rowsPartitioned;
        }

        cmemBusy[d.ibank] = job.t;
        cidBusy[d.cidBank] = job.t;
        sim::Tick t = job.t;
        DPU_TRACE_COMPLETE(sim::TraceCat::Dms,
                           sim::dmstrack::partPipe + ctx.baseCore,
                           "StorePart", job.traceStart,
                           t - job.traceStart, "rows", d.rows,
                           nullptr, 0);
        DoneFn fn = std::move(job.done);
        partQueue.pop_front();
        if (!partQueue.empty())
            partQueue.front().t = std::max(partQueue.front().t, t);
        fn(t);
    }
    partActive = false;
}

void
Dmac::execPartFlush(sim::Tick issue, DoneFn done)
{
    // Flushing must happen strictly after every queued store and
    // respects buffer ownership like any other seal, so it runs as
    // a job on the serialized partition pipeline.
    PartJob job;
    job.core = 0;
    job.flush = true;
    job.row = 0;
    job.t = issue + cyc(ctx.nCores());
    job.traceStart = job.t;
    job.done = std::move(done);
    partQueue.push_back(std::move(job));
    if (!partActive) {
        partActive = true;
        partStep();
    }
}

void
Dmac::execDmemToDms(unsigned core, const Descriptor &d,
                    std::uint32_t dmem, sim::Tick issue, DoneFn done)
{
    sim_assert(d.ibank < nBvBanks, "bad BV bank %u", d.ibank);
    const std::uint32_t bytes = d.rle ? d.rows * 4 : d.rows;
    sim_assert(bytes <= bvBankBytes,
               "BV/RID load overflows BV bank: %u bytes", bytes);

    const unsigned m = core / coresPerDmax;
    sim::Tick start = std::max({issue, bvBusy[d.ibank], dmaxBus[m]}) +
                      descOverhead;
    ctx.dmems[core]->read(dmem, bvm[d.ibank].data(), bytes);
    sim::Tick t = start + dmaxTicks(bytes);
    dmaxBus[m] = t;
    bvBusy[d.ibank] = t;
    bvBytesLoaded += bytes;
    done(t);
}

void
Dmac::execDmsToDdr(const Descriptor &d, mem::Addr ddr,
                   sim::Tick issue, DoneFn done)
{
    std::uint8_t *bank = nullptr;
    std::uint32_t cap = 0;
    switch (d.imem) {
      case IMem::Crc:
        sim_assert(d.ibank < nCrcBanks, "bad CRC bank");
        bank = crcm[d.ibank].data();
        cap = crcBankBytes;
        break;
      case IMem::Cid:
        sim_assert(d.ibank < nCidBanks, "bad CID bank");
        bank = cidm[d.ibank].data();
        cap = cidBankBytes;
        break;
      case IMem::Cmem:
        sim_assert(d.ibank < nCmemBanks, "bad CMEM bank");
        bank = cmem[d.ibank].data();
        cap = cmemBankBytes;
        break;
      case IMem::Bv:
        sim_assert(d.ibank < nBvBanks, "bad BV bank");
        bank = bvm[d.ibank].data();
        cap = bvBankBytes;
        break;
      default:
        panic("DMS->DDR from no internal memory");
    }
    std::uint32_t bytes = d.rows * d.colWidth;
    sim_assert(bytes <= cap, "DMS->DDR exceeds bank: %u bytes", bytes);

    sim::Tick start = std::max(issue, storeEngine[0]) + descOverhead;
    sim::Tick t = ddrStream(ddr, bank, bytes, true, start);
    storeEngine[0] = t;
    bytesDmsToDdr += bytes;
    done(t);
}

void
Dmac::execDmsToDms(const Descriptor &d, sim::Tick issue, DoneFn done)
{
    auto bankOf = [this](IMem m, unsigned b,
                         std::uint32_t &cap) -> std::uint8_t * {
        switch (m) {
          case IMem::Cmem: cap = cmemBankBytes; return cmem[b].data();
          case IMem::Crc: cap = crcBankBytes; return crcm[b].data();
          case IMem::Cid: cap = cidBankBytes; return cidm[b].data();
          case IMem::Bv: cap = bvBankBytes; return bvm[b].data();
          default: panic("bad internal memory operand");
        }
    };
    std::uint32_t src_cap = 0, dst_cap = 0;
    std::uint8_t *src = bankOf(d.imem, d.ibank, src_cap);
    std::uint8_t *dst = bankOf(d.imem2, d.ibank2, dst_cap);
    std::uint32_t bytes = d.rows;
    sim_assert(bytes <= src_cap && bytes <= dst_cap,
               "DMS->DMS move exceeds bank: %u bytes", bytes);
    std::memcpy(dst, src, bytes);
    sim::Tick t = issue + descOverhead + dmaxTicks(bytes);
    done(t);
}

} // namespace dpu::dms
