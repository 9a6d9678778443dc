#include "apps/sql/groupby.hh"

#include "apps/entry.hh"

#include <vector>

#include "rt/dms_ctl.hh"
#include "rt/partition.hh"
#include "rt/sync.hh"
#include "sim/rng.hh"
#include "util/crc32.hh"

namespace dpu::apps::sql {

namespace {

struct Workload
{
    std::vector<std::uint32_t> keys;
    std::vector<std::uint32_t> vals;
};

Workload
makeWorkload(const GroupByConfig &cfg)
{
    Workload w;
    w.keys.resize(cfg.nRows);
    w.vals.resize(cfg.nRows);
    sim::Rng rng{cfg.seed};
    for (std::uint32_t i = 0; i < cfg.nRows; ++i) {
        w.keys[i] = std::uint32_t(rng.below(cfg.ndv));
        w.vals[i] = std::uint32_t(rng.below(1000)) + 1;
    }
    return w;
}

/** Add one (key, sum) to a dense GroupByResult::groups table; a key
 *  outside [0, ndv) bumps the overflow slot instead. */
void
addGroup(std::vector<std::uint64_t> &groups, std::uint32_t key,
         std::uint64_t sum)
{
    if (key < groups.size() - 1)
        groups[key] += sum;
    else
        ++groups.back();
}

/** Reference aggregation for validation and the Xeon baselines. */
std::vector<std::uint64_t>
referenceGroups(const GroupByConfig &cfg, const Workload &w)
{
    std::vector<std::uint64_t> groups(std::size_t(cfg.ndv) + 1, 0);
    for (std::size_t i = 0; i < w.keys.size(); ++i)
        addGroup(groups, w.keys[i], w.vals[i]);
    return groups;
}

/** DMEM layout shared by the group-by kernels. */
constexpr std::uint32_t tileBytes = 2048;
constexpr std::uint32_t keyTiles = 0;              // 2 x 2 KB
constexpr std::uint32_t valTiles = 2 * tileBytes;  // 2 x 2 KB
constexpr std::uint32_t aggTable = 8 * 1024;       // up to 16 KB
constexpr std::uint32_t syncWords = 26 * 1024;     // barrier/counter

} // namespace

// ----------------------------------------------------------------
// Low NDV
// ----------------------------------------------------------------

GroupByResult
dpuGroupByLowNdv(const soc::SocParams &params, const GroupByConfig &cfg)
{
    sim_assert(cfg.ndv <= 2048, "low-NDV table must fit DMEM");
    const std::uint64_t n = cfg.nRows;
    const mem::Addr key_base = 0;
    const mem::Addr val_base = alignUp(n * 4 + (64 << 10), 4096);
    const mem::Addr tbl_base = alignUp(val_base * 2, 4096);
    const mem::Addr res_base =
        alignUp(tbl_base + 32ull * cfg.ndv * 8 + 4096, 4096);
    soc::Soc s(params);

    Workload w = makeWorkload(cfg);
    stage(s, key_base, w.keys);
    stage(s, val_base, w.vals);

    rt::AteBarrier barrier(0, syncWords, cfg.nCores);
    const std::uint32_t rows_per_core =
        std::uint32_t(n / cfg.nCores);

    for (unsigned id = 0; id < cfg.nCores; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            rt::DmsCtl ctl(c, s.dmsFor(id));

            // Zero the local table.
            for (std::uint32_t k = 0; k < cfg.ndv; ++k)
                c.dmem().store<std::uint64_t>(aggTable + k * 8, 0);
            c.dualIssue(cfg.ndv, cfg.ndv);

            const std::uint64_t my_bytes =
                std::uint64_t(rows_per_core) * 4;
            rt::StreamReader keys(ctl,
                                  key_base + id * my_bytes, my_bytes,
                                  keyTiles, tileBytes, 2, 0, 0);
            rt::StreamReader vals(ctl,
                                  val_base + id * my_bytes, my_bytes,
                                  valTiles, tileBytes, 2, 2, 1);

            // Lock-step the two streams manually.
            std::uint64_t consumed = 0;
            unsigned buf = 0;
            while (consumed < my_bytes) {
                ctl.wfe(0 + buf);
                ctl.wfe(2 + buf);
                std::uint32_t koff = keyTiles + buf * tileBytes;
                std::uint32_t voff = valTiles + buf * tileBytes;
                std::uint32_t cnt = std::uint32_t(
                    std::min<std::uint64_t>(tileBytes,
                                            my_bytes - consumed) / 4);
                for (std::uint32_t i = 0; i < cnt; ++i) {
                    std::uint32_t k = c.dmem().load<std::uint32_t>(
                        koff + i * 4);
                    std::uint32_t v = c.dmem().load<std::uint32_t>(
                        voff + i * 4);
                    std::uint64_t sum =
                        c.dmem().load<std::uint64_t>(aggTable + k * 8);
                    c.dmem().store<std::uint64_t>(aggTable + k * 8,
                                                  sum + v);
                }
                // 2 loads + 1 store on the LSU pipe, index + add on
                // the ALU pipe, per tuple.
                c.dualIssue(2 * cnt, 3 * cnt);
                ctl.clearEvent(0 + buf);
                ctl.clearEvent(2 + buf);
                consumed += cnt * 4;
                buf = 1 - buf;
            }

            // Dump the local table for the merge operator.
            ctl.dmemToDdr()
                .rows(cfg.ndv * 2).width(4).from(aggTable)
                .to(tbl_base + std::uint64_t(id) * cfg.ndv * 8)
                .event(4).noAutoInc().push(1);
            ctl.wfe(4);
            ctl.clearEvent(4);

            barrier.arrive(c, s.ateFor(id));

            // Merge operator on core 0: sum the 32 tables. Its
            // input is 32*ndv*8 bytes — tiny next to the scan
            // ("its overhead is very low", Section 5.3).
            if (id == 0) {
                for (std::uint32_t k = 0; k < cfg.ndv; ++k)
                    c.dmem().store<std::uint64_t>(aggTable + k * 8,
                                                  0);
                c.dualIssue(cfg.ndv, cfg.ndv);
                rt::StreamReader tabs(ctl, tbl_base,
                                      32ull * cfg.ndv * 8, keyTiles,
                                      tileBytes, 2, 0, 0);
                std::uint32_t k = 0;
                tabs.forEach([&](std::uint32_t off,
                                 std::uint32_t bytes) {
                    for (std::uint32_t i = 0; i < bytes; i += 8) {
                        std::uint64_t v =
                            c.dmem().load<std::uint64_t>(off + i);
                        std::uint64_t sum =
                            c.dmem().load<std::uint64_t>(aggTable +
                                                         k * 8);
                        c.dmem().store<std::uint64_t>(aggTable + k * 8,
                                                      sum + v);
                        k = (k + 1) % cfg.ndv;
                    }
                    c.dualIssue(bytes / 8 * 2, bytes / 8 * 3);
                });
                ctl.dmemToDdr()
                    .rows(cfg.ndv * 2).width(4).from(aggTable)
                    .to(res_base).event(5).noAutoInc().push(1);
                ctl.wfe(5);
            }
        });
    }
    sim::Tick t = s.run();
    sim_assert(s.allFinished(), "group-by kernels deadlocked");

    GroupByResult r;
    r.seconds = double(t) * 1e-12;
    r.rows = n;
    // The merged table is already dense; append the overflow slot
    // (no key can fall outside it).
    r.groups = unstage<std::uint64_t>(s, res_base, cfg.ndv);
    r.groups.push_back(0);
    return r;
}

GroupByResult
xeonGroupByLowNdv(const GroupByConfig &cfg)
{
    Workload w = makeWorkload(cfg);
    GroupByResult r;
    r.groups = referenceGroups(cfg, w);
    r.rows = cfg.nRows;

    xeon::XeonModel m;
    // One bandwidth-bound pass; the table lives in L1.
    m.streamBytes(double(cfg.nRows) * 8);
    m.scalarOps(double(cfg.nRows) * 4);
    m.serialOps(double(cfg.ndv) * 36); // merge of per-thread tables
    m.endPhase();
    r.seconds = m.seconds();
    return r;
}

// ----------------------------------------------------------------
// High NDV
// ----------------------------------------------------------------

GroupByResult
dpuGroupByHighNdv(const soc::SocParams &params,
                  const GroupByConfig &cfg)
{
    const std::uint64_t n = cfg.nRows;
    const unsigned n_parts = 1024; // 32-way hw x 32-way sw
    const std::uint64_t region_bytes =
        alignUp(n / n_parts * 8 * 4 + 1024, 256);
    const std::uint64_t res_region = 20 * 1024;

    const mem::Addr key_base = 0;
    const mem::Addr val_base = alignUp(n * 4 + 4096, 4096);
    const mem::Addr part_base = alignUp(val_base + n * 4 + 4096,
                                        4096);
    const mem::Addr res_base =
        alignUp(part_base + n_parts * region_bytes + 4096, 4096);
    soc::Soc s(params);

    Workload w = makeWorkload(cfg);
    stage(s, key_base, w.keys);
    stage(s, val_base, w.vals);

    rt::AteBarrier barrier(0, syncWords, cfg.nCores);
    s.core(0).dmem().store<std::uint64_t>(syncWords + 32, 0);
    rt::AteCounter stealer(0, syncWords + 32);

    // Phase A DMEM layout: partition ring 2 x (2048+4) from 0;
    // 32 sub-partition buffers of 256 B from 6144; hash table and
    // tiles for phase B reuse the same space afterwards.
    constexpr std::uint32_t ringBase = 0;
    constexpr std::uint32_t ringBuf = 2048 + 4;
    constexpr std::uint32_t subBase = 6144;
    constexpr std::uint32_t subBuf = 512;

    // Host-side mirror of the DRAM length table each core would
    // keep in DDR (charged below).
    std::vector<std::vector<std::uint32_t>> part_len(
        cfg.nCores, std::vector<std::uint32_t>(32, 0));

    for (unsigned id = 0; id < cfg.nCores; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            rt::DmsCtl ctl(c, s.dmsFor(id));
            ate::Ate &ate = s.ateFor(id);

            if (id == 0) {
                rt::PartitionJob job;
                job.table = key_base;
                job.nRows = std::uint32_t(n);
                job.nCols = 2;
                job.colWidth = 4;
                job.colStride = std::uint32_t(val_base - key_base);
                job.scheme.kind =
                    rt::PartitionScheme::Kind::HashRadix;
                job.scheme.radixBits = 5;
                job.dstBase = ringBase;
                job.dstBufBytes = ringBuf;
                job.dstNBufs = 2;
                job.dstFirstEvent = 16;
                job.doneEvent = 30;
                rt::runPartition(ctl, job);
            }

            // --- Phase A: consume + 32-way software partition ---
            std::uint32_t sub_fill[32] = {};
            // Two round-robin flush descriptors (events 8/9) keep a
            // drain in flight behind the consume loop instead of
            // serializing on every 256 B sub-buffer.
            dms::Descriptor nop;
            rt::DescHandle flush_slots[2] = {ctl.setup(nop),
                                             ctl.setup(nop)};
            bool flush_pending[2] = {false, false};
            unsigned flush_rr = 0;
            auto flushSub = [&](unsigned sp) {
                if (sub_fill[sp] == 0)
                    return;
                unsigned slot = flush_rr;
                flush_rr ^= 1;
                unsigned ev = 8 + slot;
                if (flush_pending[slot]) {
                    ctl.wfe(ev);
                    ctl.clearEvent(ev);
                }
                dms::Descriptor d;
                d.type = dms::DescType::DmemToDdr;
                d.rows = sub_fill[sp] / 4;
                d.colWidth = 4;
                d.dmemAddr = std::uint16_t(subBase + sp * subBuf);
                d.ddrAddr = part_base +
                            (std::uint64_t(id) * 32 + sp) *
                                region_bytes +
                            part_len[id][sp] * 8;
                d.notifyEvent = std::int8_t(ev);
                sim_assert(part_len[id][sp] * 8 + sub_fill[sp] <=
                           region_bytes,
                           "software partition region overflow");
                ctl.rewrite(flush_slots[slot], d);
                ctl.push(flush_slots[slot], 1);
                flush_pending[slot] = true;
                part_len[id][sp] += sub_fill[sp] / 8;
                sub_fill[sp] = 0;
                c.dualIssue(6, 4);
            };
            auto flushDrain = [&] {
                for (unsigned slot = 0; slot < 2; ++slot) {
                    if (flush_pending[slot]) {
                        ctl.wfe(8 + slot);
                        ctl.clearEvent(8 + slot);
                        flush_pending[slot] = false;
                    }
                }
            };

            rt::consumePartition(
                ctl, ringBase, ringBuf, 2, 16,
                [&](std::uint32_t off, std::uint32_t rows) {
                    for (std::uint32_t i = 0; i < rows; ++i) {
                        std::uint32_t key =
                            c.dmem().load<std::uint32_t>(off + i * 8);
                        std::uint32_t val =
                            c.dmem().load<std::uint32_t>(off + i * 8 +
                                                         4);
                        unsigned sp =
                            (util::crc32Key(key) >> 5) & 31;
                        std::uint32_t dst =
                            subBase + sp * subBuf + sub_fill[sp];
                        c.dmem().store<std::uint32_t>(dst, key);
                        c.dmem().store<std::uint32_t>(dst + 4, val);
                        sub_fill[sp] += 8;
                        if (sub_fill[sp] == subBuf)
                            flushSub(sp);
                    }
                    // 2 loads + 2 stores (LSU), CRC + radix + fill
                    // bookkeeping (ALU) per tuple.
                    c.dualIssue(3 * rows, 4 * rows);
                    c.bulkCrcOps(rows);
                });
            for (unsigned sp = 0; sp < 32; ++sp)
                flushSub(sp);
            flushDrain();
            if (id == 0)
                ctl.wfe(30); // hardware partition flush completed

            barrier.arrive(c, ate);

            // --- Phase B: work-steal the 1024 partitions ---
            constexpr std::uint32_t tblOff = aggTable; // 8 KB
            constexpr std::uint32_t tblSlots = 1024;
            while (true) {
                std::uint64_t j = stealer.next(c, ate);
                if (j >= n_parts)
                    break;
                // Recycle the descriptor arena each iteration; all
                // previously pushed descriptors were copied by the
                // DMAD at push time.
                ctl.resetArena();
                rt::DescHandle emit_slot = ctl.setup(nop);
                std::uint32_t len =
                    part_len[j / 32][j % 32]; // length-table read
                c.dualIssue(2, 2);
                if (len == 0) {
                    // Still emit an empty result header.
                    c.dmem().store<std::uint32_t>(tblOff - 4, 0);
                    dms::Descriptor d;
                    d.type = dms::DescType::DmemToDdr;
                    d.rows = 1;
                    d.colWidth = 4;
                    d.dmemAddr = std::uint16_t(tblOff - 4);
                    d.ddrAddr = res_base + j * res_region;
                    d.notifyEvent = 9;
                    ctl.rewrite(emit_slot, d);
                    ctl.push(emit_slot, 1);
                    ctl.wfe(9);
                    ctl.clearEvent(9);
                    continue;
                }

                for (std::uint32_t i = 0; i < tblSlots; ++i)
                    c.dmem().store<std::uint64_t>(tblOff + i * 8, 0);
                c.dualIssue(tblSlots / 2, tblSlots);

                mem::Addr src = part_base + j * region_bytes;
                rt::StreamReader in(ctl, src,
                                    std::uint64_t(len) * 8, 0,
                                    2 * tileBytes, 2, 0, 0);
                in.forEach([&](std::uint32_t off,
                               std::uint32_t bytes) {
                    for (std::uint32_t i = 0; i < bytes; i += 8) {
                        std::uint32_t key =
                            c.dmem().load<std::uint32_t>(off + i);
                        std::uint32_t val =
                            c.dmem().load<std::uint32_t>(off + i + 4);
                        // Partitioning consumed CRC bits [9:0]
                        // (5 hw + 5 sw), so every key in this
                        // partition shares them; index the table
                        // with the NEXT bits or linear probing
                        // degenerates into one giant cluster.
                        std::uint32_t slot =
                            (c.crcHash(key) >> 10) & (tblSlots - 1);
                        // Linear probe; keys are stored +1 so that
                        // 0 means empty (key 0 is legal). A full
                        // table ends the run instead of probing
                        // forever.
                        for (std::uint32_t probes = 0;; ++probes) {
                            sim_assert(probes < tblSlots,
                                       "group-by partition %llu holds "
                                       "more than %u distinct keys "
                                       "(ndv %u)",
                                       (unsigned long long)j, tblSlots,
                                       cfg.ndv);
                            std::uint32_t k =
                                c.dmem().load<std::uint32_t>(
                                    tblOff + slot * 8);
                            if (k == 0) {
                                c.dmem().store<std::uint32_t>(
                                    tblOff + slot * 8, key + 1);
                                c.dmem().store<std::uint32_t>(
                                    tblOff + slot * 8 + 4, val);
                                break;
                            }
                            if (k == key + 1) {
                                std::uint32_t sum =
                                    c.dmem().load<std::uint32_t>(
                                        tblOff + slot * 8 + 4);
                                c.dmem().store<std::uint32_t>(
                                    tblOff + slot * 8 + 4, sum + val);
                                break;
                            }
                            slot = (slot + 1) & (tblSlots - 1);
                            c.dualIssue(1, 1);
                        }
                        c.dualIssue(3, 4);
                    }
                });

                // Compact (key,sum) pairs to the front and emit.
                std::uint32_t groups = 0;
                for (std::uint32_t i = 0; i < tblSlots; ++i) {
                    std::uint32_t k = c.dmem().load<std::uint32_t>(
                        tblOff + i * 8);
                    if (k == 0)
                        continue;
                    std::uint32_t v = c.dmem().load<std::uint32_t>(
                        tblOff + i * 8 + 4);
                    c.dmem().store<std::uint32_t>(
                        tblOff + groups * 8, k - 1);
                    c.dmem().store<std::uint32_t>(
                        tblOff + groups * 8 + 4, v);
                    ++groups;
                }
                c.dualIssue(tblSlots, tblSlots * 2);
                c.dmem().store<std::uint32_t>(tblOff - 4, groups);

                dms::Descriptor d;
                d.type = dms::DescType::DmemToDdr;
                d.rows = 1 + groups * 2;
                d.colWidth = 4;
                d.dmemAddr = std::uint16_t(tblOff - 4);
                d.ddrAddr = res_base + j * res_region;
                d.notifyEvent = 9;
                ctl.rewrite(emit_slot, d);
                ctl.push(emit_slot, 1);
                ctl.wfe(9);
                ctl.clearEvent(9);
            }
        });
    }
    sim::Tick t = s.run();
    if (!s.allFinished()) {
        for (unsigned uid : s.unfinishedCores())
            warn("core %u stuck (blocks=%llu)", uid,
                 (unsigned long long)s.core(uid).statGroup().get(
                     "blocks"));
        warn("dmac stalls=%llu sealed=%llu rowsPart=%llu",
             (unsigned long long)s.dms().dmac().statGroup().get("partStalls"),
             (unsigned long long)s.dms().dmac().statGroup().get("partBuffersSealed"),
             (unsigned long long)s.dms().dmac().statGroup().get("rowsPartitioned"));
    }
    sim_assert(s.allFinished(), "high-NDV group-by deadlocked");

    GroupByResult r;
    r.seconds = double(t) * 1e-12;
    r.rows = n;
    r.groups.assign(std::size_t(cfg.ndv) + 1, 0);
    for (unsigned j = 0; j < n_parts; ++j) {
        mem::Addr base = res_base + j * res_region;
        std::uint32_t groups =
            s.memory().store().load<std::uint32_t>(base);
        for (std::uint32_t g = 0; g < groups; ++g) {
            std::uint32_t k = s.memory().store().load<std::uint32_t>(
                base + 4 + g * 8);
            std::uint32_t v = s.memory().store().load<std::uint32_t>(
                base + 4 + g * 8 + 4);
            addGroup(r.groups, k, v);
        }
    }
    return r;
}

GroupByResult
xeonGroupByHighNdv(const GroupByConfig &cfg)
{
    Workload w = makeWorkload(cfg);
    GroupByResult r;
    r.groups = referenceGroups(cfg, w);
    r.rows = cfg.nRows;

    xeon::XeonModel m;
    const double n = cfg.nRows;
    // Round 1: 256-way software partition (radix out of cache,
    // non-temporal stores); round 2: another 256-way fan-out of
    // each partition. Two rounds because a single round cannot
    // produce enough partitions at full speed (Section 5.3 /
    // Polychroniou & Ross).
    for (int round = 0; round < 2; ++round) {
        m.streamBytes(n * 8);  // read
        m.streamBytes(n * 8);  // non-temporal write
        m.scalarOps(n * 6);    // hash + bucket bookkeeping
        m.endPhase();
    }
    // Aggregation pass: partitions now fit the cache hierarchy.
    m.streamBytes(n * 8);
    m.scalarOps(n * 8);
    m.endPhase();
    r.seconds = m.seconds();
    return r;
}

// ----------------------------------------------------------------
// Figure 14 wrappers
// ----------------------------------------------------------------

namespace {

AppResult
wrap(const char *name, const GroupByResult &d, const GroupByResult &x)
{
    AppResult r;
    r.name = name;
    r.dpuSeconds = d.seconds;
    r.xeonSeconds = x.seconds;
    r.workUnits = double(d.rows);
    r.unitName = "tuples";
    r.matched = d.groups == x.groups;
    return r;
}

} // namespace

AppResult
groupByLowApp(const GroupByConfig &cfg)
{
    return wrap("GroupBy Low-NDV",
                dpuGroupByLowNdv(soc::dpu40nm(), cfg),
                xeonGroupByLowNdv(cfg));
}

AppResult
groupByHighApp(const GroupByConfig &cfg)
{
    return wrap("GroupBy High-NDV",
                dpuGroupByHighNdv(soc::dpu40nm(), cfg),
                xeonGroupByHighNdv(cfg));
}

} // namespace dpu::apps::sql
