/**
 * @file
 * Canonical whole-SoC scenarios shared by the golden-stats and
 * determinism tests. Each runner builds a fresh chip, executes one
 * paper workload end to end, and freezes every live StatGroup into
 * a snapshot (plus the final simulated tick as the pseudo-counter
 * "sim.finalTick"). The workloads are pure integer simulation with
 * fixed seeds, so a given binary must reproduce the snapshots
 * bit-for-bit — which is exactly what the golden files check.
 */

#ifndef DPU_TESTS_SOC_SCENARIOS_HH
#define DPU_TESTS_SOC_SCENARIOS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "host/offload.hh"
#include "rt/dms_ctl.hh"
#include "rt/partition.hh"
#include "sim/rng.hh"
#include "sim/stats_registry.hh"
#include "soc/host_a9.hh"
#include "soc/soc.hh"
#include "util/crc32.hh"

namespace dpu::test {

/** Freeze all stats of @p s plus the final tick. */
inline sim::StatsSnapshot
freezeStats(soc::Soc &s)
{
    sim::StatsSnapshot snap = sim::StatsRegistry::instance().snapshot();
    snap.counters["sim.finalTick"] = s.now();
    return snap;
}

/**
 * Listing 1, scaled to 2 MB: stream DDR through two ping-pong DMEM
 * buffers with three descriptors, consuming with wfe/clear_event.
 */
inline sim::StatsSnapshot
runListing1Scenario(const mem::DdrParams *ddr_override = nullptr)
{
    soc::SocParams p = soc::dpu40nm();
    if (ddr_override)
        p.ddr = *ddr_override;
    soc::Soc s(p);

    const std::uint32_t total = 2 << 20;
    std::uint64_t expect = 0;
    for (std::uint32_t i = 0; i < total / 4; ++i) {
        std::uint32_t v = i * 0x9e3779b9u;
        s.memory().store().store<std::uint32_t>(i * 4, v);
        expect += v;
    }

    std::uint64_t sum = 0;
    s.start(0, [&](core::DpCore &c) {
        rt::DmsCtl ctl(c, s.dms());
        // dms_setup_ddr_to_dmem(256, 0, 0, event0)
        auto d0 = ctl.ddrToDmem().rows(256).width(4).from(0).to(0)
                      .event(0).setup();
        // dms_setup_ddr_to_dmem(256, 0, 1024, event1)
        auto d1 = ctl.ddrToDmem().rows(256).width(4).from(0).to(1024)
                      .event(1).setup();
        auto loop = ctl.setupLoop(d0, 1023); // 2048 buffers total
        ctl.push(d0);
        ctl.push(d1);
        ctl.push(loop);

        unsigned buf = 0;
        for (std::uint32_t count = 0; count < 2048; ++count) {
            ctl.wfe(buf);
            std::uint32_t base = buf ? 1024u : 0u;
            for (std::uint32_t i = 0; i < 256; ++i)
                sum += c.dmem().load<std::uint32_t>(base + i * 4);
            c.dualIssue(256, 256);
            ctl.clearEvent(buf);
            buf = 1 - buf;
        }
    });
    s.run();
    if (!s.allFinished() || sum != expect)
        return {}; // empty snapshot == scenario self-check failed
    return freezeStats(s);
}

/** 32-way CRC-hash partition of an 8192x2 table, all cores consume. */
inline sim::StatsSnapshot
runPartitionScenario()
{
    soc::Soc s;

    sim::Rng rng{12345};
    const std::uint32_t n_rows = 8192;
    const unsigned n_cols = 2;
    const std::uint32_t stride = n_rows * 4;
    const std::uint16_t buf_bytes = 1024 + 4;
    for (std::uint32_t r = 0; r < n_rows; ++r) {
        s.memory().store().store<std::uint32_t>(
            0x100000 + r * 4, std::uint32_t(rng.next()));
        s.memory().store().store<std::uint32_t>(
            0x100000 + stride + r * 4, r);
    }

    std::vector<int> delivered(n_rows, 0);
    std::uint64_t wrong_core = 0;
    for (unsigned id = 0; id < 32; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            rt::DmsCtl ctl(c, s.dms());
            if (id == 0) {
                rt::PartitionJob job;
                job.table = 0x100000;
                job.nRows = n_rows;
                job.nCols = n_cols;
                job.colWidth = 4;
                job.colStride = stride;
                job.chunkRows = 128;
                job.dstBufBytes = buf_bytes;
                rt::runPartition(ctl, job);
            }
            const unsigned tuple = n_cols * 4;
            rt::consumePartition(
                ctl, 0, buf_bytes, 2, 16,
                [&](std::uint32_t off, std::uint32_t rows) {
                    for (std::uint32_t i = 0; i < rows; ++i) {
                        std::uint32_t key =
                            c.dmem().load<std::uint32_t>(off +
                                                         i * tuple);
                        if ((util::crc32Key(key) & 31) != id)
                            ++wrong_core;
                        std::uint32_t tag =
                            c.dmem().load<std::uint32_t>(
                                off + i * tuple + 4);
                        if (tag < n_rows)
                            ++delivered[tag];
                    }
                    c.dualIssue(rows * n_cols, rows * n_cols);
                });
            if (id == 0) {
                ctl.wfe(30);
                ctl.clearEvent(30);
            }
        });
    }
    s.run();
    if (!s.allFinished() || wrong_core != 0)
        return {};
    for (std::uint32_t r = 0; r < n_rows; ++r)
        if (delivered[r] != 1)
            return {};
    return freezeStats(s);
}

/**
 * ATE ping-pong: cores 0 and 31 fetch-add each other's DMEM counter
 * 256 times (near+far hops), then core 0 fires 8 software RPCs.
 */
inline sim::StatsSnapshot
runAtePingPongScenario()
{
    soc::Soc s;

    bool stop = false;
    s.start(31, [&](core::DpCore &c) {
        for (int i = 0; i < 256; ++i)
            s.ate().fetchAdd(c, 0, mem::dmemAddr(0, 0), 1, 8);
        c.blockUntil([&] { return stop; });
    });
    s.start(0, [&](core::DpCore &c) {
        for (int i = 0; i < 256; ++i)
            s.ate().fetchAdd(c, 31, mem::dmemAddr(31, 0), 1, 8);
        for (int i = 0; i < 8; ++i)
            s.ate().swRpc(c, 31, [](core::DpCore &rc) {
                rc.alu(16);
            });
        stop = true;
        s.core(31).wake(c.now());
    });
    s.run();
    if (!s.allFinished())
        return {};
    if (s.core(0).dmem().load<std::uint64_t>(0) != 256 ||
        s.core(31).dmem().load<std::uint64_t>(0) != 256)
        return {};
    return freezeStats(s);
}

/**
 * MBC storm: all 32 dpCores fire staggered bursts of messages at
 * the A9 mailbox concurrently; the host must drain every one
 * exactly once. The stagger strides are coprime with the core count
 * so arrival order interleaves heavily instead of batching.
 */
inline sim::StatsSnapshot
runMbcStormScenario()
{
    soc::Soc s;

    constexpr unsigned per_core = 8;
    const unsigned n_cores = s.nCores();
    for (unsigned id = 0; id < n_cores; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            for (unsigned k = 0; k < per_core; ++k) {
                c.sleepCycles(1 + (id * 7 + k * 13) % 97);
                s.mbc().send(c, s.mbc().a9Box(),
                             (std::uint64_t(id) << 32) | k);
            }
        });
    }

    std::vector<unsigned> seen(n_cores * per_core, 0);
    bool stray = false;
    s.a9().start([&](soc::HostA9 &host) {
        for (unsigned n = 0; n < n_cores * per_core; ++n) {
            const std::uint64_t msg = host.recv();
            const unsigned id = unsigned(msg >> 32);
            const unsigned k = unsigned(msg & 0xffffffffu);
            if (id >= n_cores || k >= per_core)
                stray = true;
            else
                ++seen[id * per_core + k];
        }
    });
    s.run();

    if (!s.allFinished() || !s.a9().finished() || stray)
        return {};
    for (unsigned slot : seen)
        if (slot != 1)
            return {};
    if (s.mbc().depth(s.mbc().a9Box()) != 0)
        return {};
    return freezeStats(s);
}

/**
 * Offload serving: a fixed open-loop trickle of small mixed-app
 * requests through the host scheduler, including one injected
 * never-completing job whose group must be reaped (timeout +
 * quarantine) while the rest of the load keeps draining. One core
 * (the wedged lane) never finishes by construction.
 */
inline sim::StatsSnapshot
runServingScenario()
{
    soc::Soc s;
    host::OffloadParams op;
    host::OffloadScheduler sched(s, op);

    struct Req
    {
        const char *app;
        std::initializer_list<
            std::pair<std::string_view, std::string_view>>
            opts;
    };
    static const Req load[] = {
        {"filter", {{"rowsPerCore", "4096"}}},
        {"groupby-low", {{"nRows", "16384"}, {"ndv", "128"}}},
        {"hll-crc",
         {{"nElements", "8192"}, {"cardinality", "2048"},
          {"pBits", "10"}}},
        {"json", {{"nRecords", "512"}}},
        {"svm", {{"nTest", "2048"}, {"dims", "32"}}},
        {"simsearch",
         {{"nDocs", "512"}, {"vocab", "512"}, {"nQueries", "1"}}},
        {"filter", {{"rowsPerCore", "2048"}}},
        {"groupby-low", {{"nRows", "8192"}, {"ndv", "64"}}},
        {"json", {{"nRecords", "256"}}},
        {"hll-crc",
         {{"nElements", "4096"}, {"cardinality", "1024"},
          {"pBits", "10"}}},
        {"filter", {{"rowsPerCore", "8192"}}},
        {"groupby-low", {{"nRows", "16384"}, {"ndv", "256"}}},
    };
    const sim::Tick gap = sim::Tick(150e6); // 150 us
    unsigned i = 0;
    for (const Req &r : load) {
        const apps::AppSpec *spec = apps::findApp(r.app);
        if (!spec)
            return {};
        apps::ConfigHandle cfg = spec->makeConfig();
        for (const auto &[k, v] : r.opts)
            if (!spec->set(cfg, k, v))
                return {};
        host::JobRequest req;
        req.app = r.app;
        req.cfg = std::move(cfg);
        req.seed = 0x5eed0000 + i;
        sched.enqueueAt(++i * gap, std::move(req));
    }

    // The injected fault: lane 0 never sets its completion event.
    host::JobRequest wedged;
    wedged.timeout = sim::Tick(2e9); // 2 ms, well under the drain
    wedged.makeJob = [](const apps::ServingContext &) {
        apps::ServingJob job;
        job.stage = [] {};
        job.lane = [](core::DpCore &c, unsigned lane) {
            if (lane == 0)
                c.blockUntil([] { return false; });
            c.alu(16);
        };
        return job;
    };
    sched.enqueueAt(6 * gap + 1, std::move(wedged));

    sched.start();
    s.run();

    const host::ServingSummary sum = sched.summary();
    if (sum.completed != std::size(load) || sum.timedOut != 1 ||
        sum.rejected != 0 || sum.validationFailed != 0 ||
        sum.wedgedGroups != 1)
        return {};
    // Exactly the wedged lane must still be parked.
    if (s.unfinishedCores().size() != 1)
        return {};
    return freezeStats(s);
}

} // namespace dpu::test

#endif // DPU_TESTS_SOC_SCENARIOS_HH
