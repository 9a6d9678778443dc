/**
 * @file
 * Figure 2: performance of ATE remote procedure calls — measured
 * round-trip response times for hardware loads, stores, atomic
 * fetch-and-add and compare-and-swap, near (same macro) and far
 * (across macros), plus a software RPC for contrast. The paper's
 * figure shows tens of core cycles for hardware RPCs with a clear
 * near/far split and software RPCs an order of magnitude costlier.
 */

#include <functional>

#include "bench/report.hh"
#include "soc/soc.hh"

using namespace dpu;

namespace {

double
cyclesFor(const std::function<void(core::DpCore &, ate::Ate &,
                                   unsigned)> &op,
          unsigned target, unsigned iters)
{
    soc::Soc s;
    sim::Tick dt = 0;
    s.start(0, [&](core::DpCore &c) {
        // Warm once, then measure the round trips.
        op(c, s.ate(), target);
        sim::Tick t0 = c.now();
        for (unsigned i = 0; i < iters; ++i)
            op(c, s.ate(), target);
        dt = (c.now() - t0) / iters;
    });
    s.run();
    return double(sim::dpCoreClock.ticksToCycles(dt));
}

} // namespace

int
main(int argc, char **argv)
{
    sim::setVerbose(false);
    const bool smoke = bench::smokeRun(argc, argv);
    const unsigned iters = smoke ? 8 : 64;
    bench::header("Figure 2", "ATE remote procedure call latency");

    struct Op
    {
        const char *name;
        std::function<void(core::DpCore &, ate::Ate &, unsigned)> fn;
    };
    const Op ops[] = {
        {"hw load", [](core::DpCore &c, ate::Ate &a, unsigned t) {
             a.remoteLoad(c, t, mem::dmemAddr(t, 0), 8);
         }},
        {"hw store", [](core::DpCore &c, ate::Ate &a, unsigned t) {
             a.remoteStore(c, t, mem::dmemAddr(t, 0), 1, 8);
         }},
        {"hw fetch-add", [](core::DpCore &c, ate::Ate &a, unsigned t) {
             a.fetchAdd(c, t, mem::dmemAddr(t, 0), 1, 8);
         }},
        {"hw compare-swap",
         [](core::DpCore &c, ate::Ate &a, unsigned t) {
             a.compareSwap(c, t, mem::dmemAddr(t, 0), 0, 0, 8);
         }},
    };

    bench::row("  %-18s %14s %14s", "operation", "near (cycles)",
               "far (cycles)");
    for (const Op &op : ops) {
        double near = cyclesFor(op.fn, 1, iters);  // same macro
        double far = cyclesFor(op.fn, 31, iters);  // macro 3
        bench::row("  %-18s %14.0f %14.0f", op.name, near, far);
    }

    // Software RPC (interrupt + handler) for contrast. The remote
    // core idles in a wfe-like block so the interrupt is taken
    // immediately.
    {
        soc::Soc s;
        sim::Tick dt = 0;
        bool stop = false;
        s.start(31, [&](core::DpCore &c) {
            c.blockUntil([&] { return stop; });
        });
        const unsigned sw_iters = smoke ? 4 : 16;
        s.start(0, [&](core::DpCore &c) {
            s.ate().swRpc(c, 31, [](core::DpCore &) {});
            sim::Tick t0 = c.now();
            for (unsigned i = 0; i < sw_iters; ++i)
                s.ate().swRpc(c, 31, [](core::DpCore &) {});
            dt = (c.now() - t0) / sw_iters;
            stop = true;
            s.core(31).wake(c.now());
        });
        s.run();
        bench::row("  %-18s %14s %14.0f", "sw RPC (far)", "-",
                   double(sim::dpCoreClock.ticksToCycles(dt)));
    }

    bench::row("\n  paper shape: hw RPCs are tens of cycles; far >"
               " near; sw RPC ~10x costlier (interrupt + handler).");
    return 0;
}
