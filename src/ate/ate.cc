#include "ate/ate.hh"

#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace dpu::ate {

namespace {

sim::Tick
cyc(sim::Cycles c)
{
    return sim::dpCoreClock.cyclesToTicks(c);
}

const char *
ateOpName(AteOp op)
{
    switch (op) {
      case AteOp::Load: return "Load";
      case AteOp::Store: return "Store";
      case AteOp::FetchAdd: return "FetchAdd";
      case AteOp::CompareSwap: return "CompareSwap";
      case AteOp::SwRpc: return "SwRpc";
    }
    return "?";
}

} // namespace

Ate::Ate(sim::EventQueue &eq_, std::vector<core::DpCore *> cores_)
    : eq(eq_), cores(std::move(cores_)),
      baseId(cores.empty() ? 0 : cores.front()->id()), stats("ate"),
      pending(cores.size()), lastDeliver(cores.size() * cores.size(), 0)
{
}

unsigned
Ate::local(unsigned global_id) const
{
    sim_assert(global_id >= baseId &&
               global_id - baseId < cores.size(),
               "core %u is outside this ATE complex", global_id);
    return global_id - baseId;
}

sim::Tick
Ate::oneWay(unsigned src, unsigned dst) const
{
    bool same_macro = src / core::coresPerMacro ==
                      dst / core::coresPerMacro;
    sim::Cycles c =
        2 * localHopCycles + (same_macro ? 0 : macroHopCycles);
    return cyc(c);
}

sim::Tick
Ate::deliveryTick(unsigned src, unsigned dst)
{
    sim::Tick &last =
        lastDeliver[local(src) * cores.size() + local(dst)];
    sim::Tick t = std::max(eq.now() + oneWay(src, dst),
                           last + cyc(linkSpacingCycles));
    last = t;
    return t;
}

std::uint64_t
Ate::doRemoteOp(unsigned target, AteOp op, mem::Addr addr,
                std::uint64_t a, std::uint64_t b, unsigned bytes,
                sim::Tick when, sim::Tick &op_done)
{
    sim_assert(bytes == 1 || bytes == 2 || bytes == 4 || bytes == 8,
               "bad ATE op width %u", bytes);
    core::DpCore &r = *cores[local(target)];
    const std::uint64_t mask =
        bytes == 8 ? ~0ull : ((1ull << (bytes * 8)) - 1);

    auto read = [&](sim::Tick t, sim::Tick &done) -> std::uint64_t {
        std::uint64_t v = 0;
        if (mem::isDmemAddr(addr)) {
            sim_assert(mem::dmemOwner(addr) == target,
                       "ATE op at core %u for DMEM it does not own",
                       target);
            r.dmem().read(mem::dmemOffset(addr), &v, bytes);
            done = t + cyc(1);
        } else {
            done = r.l1d().read(addr, &v, bytes, t);
        }
        return v & mask;
    };
    auto write = [&](std::uint64_t v, sim::Tick t, sim::Tick &done) {
        if (mem::isDmemAddr(addr)) {
            sim_assert(mem::dmemOwner(addr) == target,
                       "ATE op at core %u for DMEM it does not own",
                       target);
            r.dmem().write(mem::dmemOffset(addr), &v, bytes);
            done = t + cyc(1);
        } else {
            done = r.l1d().write(addr, &v, bytes, t);
        }
    };

    std::uint64_t old = 0;
    sim::Tick t = when;
    switch (op) {
      case AteOp::Load:
        old = read(t, t);
        t += cyc(opLoadCycles);
        ++loads;
        break;
      case AteOp::Store:
        write(a & mask, t, t);
        t += cyc(opStoreCycles);
        ++stores;
        break;
      case AteOp::FetchAdd: {
        old = read(t, t);
        write((old + std::uint64_t(std::int64_t(a))) & mask, t, t);
        t += cyc(opAmoCycles);
        ++fetchAdds;
        break;
      }
      case AteOp::CompareSwap: {
        old = read(t, t);
        if (old == (a & mask))
            write(b & mask, t, t);
        t += cyc(opAmoCycles);
        ++compareSwaps;
        break;
      }
      default:
        panic("doRemoteOp on a software RPC");
    }

    // The op appears as a stall in the remote instruction stream.
    r.injectStall(t - when);
    op_done = t;
    return old;
}

void
Ate::issue(core::DpCore &c, unsigned target, AteOp op, mem::Addr addr,
           std::uint64_t a, std::uint64_t b, unsigned bytes)
{
    c.sync();
    Outstanding &o = pending[local(c.id())];
    // The ISA allows one outstanding request; back-to-back issues
    // without waitResponse are a programming error on chip, so here.
    sim_assert(!o.busy,
               "core %u issued a second ATE request while one is "
               "outstanding", c.id());
    o.busy = true;
    o.ready = false;
    const std::uint64_t gen = ++o.gen;

    const unsigned src = c.id();

    if (op == AteOp::SwRpc)
        panic("use swRpc() for software RPCs");

    // Fault plane: the request message can be lost in the crossbar
    // (the outstanding slot stays armed — recovery is a bounded wait
    // plus reissue) or its delivery can be delayed by `mag` ticks.
    if (sim::faultPlane().active()) {
        if (sim::faultPlane().fires(sim::FaultSite::AteDrop, eq.now(),
                                    int(src))) {
            ++droppedRequests;
            DPU_TRACE_INSTANT(sim::TraceCat::Ate, src, "reqDrop",
                              eq.now(), "target", target);
            return;
        }
        std::uint64_t extra = 0;
        if (sim::faultPlane().fires(sim::FaultSite::AteDelay,
                                    eq.now(), int(src), &extra)) {
            ++delayedRequests;
            // Charge the link too, so FIFO ordering holds.
            lastDeliver[local(src) * cores.size() + local(target)] +=
                extra;
        }
    }

    sim::Tick deliver = deliveryTick(src, target);

    // RPC round-trip span: 'b' at issue on the source core's track,
    // an 'X' for the remote op on the target's track, 'e' when the
    // response arrives back at the source.
    const char *op_name = ateOpName(op);
    std::uint64_t span_id = 0;
    if (DPU_TRACE_ARMED) {
        span_id = DPU_TRACE_NEXT_ID();
        DPU_TRACE_SPAN_BEGIN(sim::TraceCat::Ate, src, op_name,
                             span_id, eq.now(), "target", target,
                             nullptr, 0);
    }

    eq.schedule(deliver, [this, src, target, op, addr, a, b, bytes,
                          op_name, span_id, gen] {
        sim::Tick op_done = 0;
        sim::Tick op_start = eq.now();
        std::uint64_t value = doRemoteOp(target, op, addr, a, b,
                                         bytes, op_start, op_done);
        DPU_TRACE_COMPLETE(sim::TraceCat::Ate, target, op_name,
                           op_start, op_done - op_start, "src", src,
                           nullptr, 0);
        sim::Tick resp = op_done + oneWay(target, src);
        eq.schedule(resp, [this, src, value, op_name, span_id, gen] {
            if (span_id) {
                DPU_TRACE_SPAN_END(sim::TraceCat::Ate, src, op_name,
                                   span_id, eq.now());
            }
            Outstanding &out = pending[local(src)];
            if (out.gen != gen) {
                // The requester abandoned this request (bounded wait
                // timed out); drop the response on the floor.
                ++staleResponses;
                return;
            }
            out.ready = true;
            out.value = value;
            cores[local(src)]->wake(eq.now());
        }, sim::EvTag::Ate);
    }, sim::EvTag::Ate);
}

std::uint64_t
Ate::waitResponse(core::DpCore &c)
{
    Outstanding &o = pending[local(c.id())];
    sim_assert(o.busy, "waitResponse with no outstanding ATE request");
    c.blockUntil([&o] { return o.ready; });
    o.busy = false;
    return o.value;
}

bool
Ate::waitResponseFor(core::DpCore &c, sim::Tick timeout,
                     std::uint64_t &value)
{
    Outstanding &o = pending[local(c.id())];
    sim_assert(o.busy, "waitResponseFor with no outstanding request");
    c.sync();
    if (!c.blockUntil([&o] { return o.ready; }, eq.now() + timeout)) {
        abandonRequest(c);
        return false;
    }
    o.busy = false;
    value = o.value;
    return true;
}

void
Ate::abandonRequest(core::DpCore &c)
{
    Outstanding &o = pending[local(c.id())];
    sim_assert(o.busy, "abandonRequest with no outstanding request");
    o.busy = false;
    o.ready = false;
    ++o.gen;
    ++abandonedRequests;
}

std::uint64_t
Ate::remoteLoad(core::DpCore &c, unsigned target, mem::Addr addr,
                unsigned bytes)
{
    issue(c, target, AteOp::Load, addr, 0, 0, bytes);
    return waitResponse(c);
}

void
Ate::remoteStore(core::DpCore &c, unsigned target, mem::Addr addr,
                 std::uint64_t value, unsigned bytes)
{
    issue(c, target, AteOp::Store, addr, value, 0, bytes);
    waitResponse(c);
}

std::uint64_t
Ate::fetchAdd(core::DpCore &c, unsigned target, mem::Addr addr,
              std::int64_t delta, unsigned bytes)
{
    issue(c, target, AteOp::FetchAdd, addr, std::uint64_t(delta), 0,
          bytes);
    return waitResponse(c);
}

std::uint64_t
Ate::compareSwap(core::DpCore &c, unsigned target, mem::Addr addr,
                 std::uint64_t expect, std::uint64_t desired,
                 unsigned bytes)
{
    issue(c, target, AteOp::CompareSwap, addr, expect, desired,
          bytes);
    return waitResponse(c);
}

void
Ate::swRpc(core::DpCore &c, unsigned target,
           std::function<void(core::DpCore &)> fn, bool wait)
{
    c.sync();
    Outstanding &o = pending[local(c.id())];
    sim_assert(!o.busy,
               "core %u issued an ATE sw RPC while a request is "
               "outstanding", c.id());
    o.busy = true;
    o.ready = false;
    const std::uint64_t gen = ++o.gen;
    ++swRpcs;

    const unsigned src = c.id();
    sim::Tick deliver = deliveryTick(src, target) + cyc(swDeliverCycles);

    std::uint64_t span_id = 0;
    if (DPU_TRACE_ARMED) {
        span_id = DPU_TRACE_NEXT_ID();
        DPU_TRACE_SPAN_BEGIN(sim::TraceCat::Ate, src, "SwRpc",
                             span_id, eq.now(), "target", target,
                             nullptr, 0);
    }

    eq.schedule(deliver, [this, src, target, span_id, gen,
                          fn = std::move(fn)] {
        cores[local(target)]->postInterrupt(
            [this, src, target, span_id, gen, fn](core::DpCore &rc) {
                fn(rc);
                // Ack once the handler ran to completion.
                sim::Tick resp =
                    rc.now() + oneWay(target, src);
                eq.schedule(std::max(resp, eq.now()),
                            [this, src, span_id, gen] {
                                if (span_id) {
                                    DPU_TRACE_SPAN_END(
                                        sim::TraceCat::Ate, src,
                                        "SwRpc", span_id, eq.now());
                                }
                                unsigned l = local(src);
                                if (pending[l].gen != gen) {
                                    ++staleResponses;
                                    return;
                                }
                                pending[l].ready = true;
                                pending[l].value = 0;
                                cores[l]->wake(eq.now());
                            },
                            sim::EvTag::Ate);
            });
    }, sim::EvTag::Ate);

    if (wait)
        waitResponse(c);
}

} // namespace dpu::ate
