#include "apps/sql/tpch.hh"

#include <algorithm>

#include "rt/dms_ctl.hh"
#include "rt/partition.hh"
#include "rt/sync.hh"
#include "sim/rng.hh"

namespace dpu::apps::sql {

const char *const tpchQueries[5] = {"Q1", "Q3", "Q6", "Q12", "Q14"};

namespace {

// ----------------------------------------------------------------
// dbgen-lite
// ----------------------------------------------------------------

/** Day numbers span 1992-01-01 .. 1998-12-31 (2555 days). */
constexpr std::uint32_t dayMax = 2555;

struct Db
{
    // lineitem, column order as staged (see stageDb):
    std::vector<std::uint32_t> l_orderkey, l_quantity, l_extprice,
        l_discount, l_shipdate, l_partkey, l_returnflag,
        l_linestatus, l_shipmode, l_commitdate, l_receiptdate;
    // orders
    std::vector<std::uint32_t> o_orderkey, o_custkey, o_orderdate,
        o_priority;
    // customer
    std::vector<std::uint32_t> c_mktsegment; // custkey is dense 1..n
    // part
    std::vector<std::uint32_t> p_type;       // partkey is dense 1..n
};

Db
makeDb(const TpchConfig &cfg)
{
    Db db;
    sim::Rng rng{cfg.seed};
    const std::uint32_t nO = cfg.nOrders();
    const std::uint32_t nL = cfg.nLineitem();
    const std::uint32_t nC = cfg.nCustomers();
    const std::uint32_t nP = cfg.nParts();

    db.c_mktsegment.resize(nC);
    for (auto &v : db.c_mktsegment)
        v = std::uint32_t(rng.below(5));
    db.p_type.resize(nP);
    for (auto &v : db.p_type)
        v = std::uint32_t(rng.below(150));

    db.o_orderkey.resize(nO);
    db.o_custkey.resize(nO);
    db.o_orderdate.resize(nO);
    db.o_priority.resize(nO);
    for (std::uint32_t i = 0; i < nO; ++i) {
        db.o_orderkey[i] = i + 1;
        db.o_custkey[i] = std::uint32_t(rng.below(nC)) + 1;
        db.o_orderdate[i] = std::uint32_t(rng.below(dayMax));
        db.o_priority[i] = std::uint32_t(rng.below(5));
    }

    auto push_line = [&](std::uint32_t okey, std::uint32_t odate) {
        db.l_orderkey.push_back(okey);
        db.l_quantity.push_back(std::uint32_t(rng.below(50)) + 1);
        db.l_extprice.push_back(
            std::uint32_t(rng.below(950000)) + 100); // cents
        db.l_discount.push_back(std::uint32_t(rng.below(11))); // %
        std::uint32_t ship =
            std::min<std::uint32_t>(odate + 1 +
                                        std::uint32_t(rng.below(120)),
                                    dayMax);
        db.l_shipdate.push_back(ship);
        db.l_partkey.push_back(std::uint32_t(rng.below(nP)) + 1);
        db.l_returnflag.push_back(std::uint32_t(rng.below(3)));
        db.l_linestatus.push_back(std::uint32_t(rng.below(2)));
        db.l_shipmode.push_back(std::uint32_t(rng.below(7)));
        std::uint32_t commit = std::min(ship +
                                            std::uint32_t(
                                                rng.below(30)),
                                        dayMax);
        db.l_commitdate.push_back(commit);
        db.l_receiptdate.push_back(
            std::min(commit + std::uint32_t(rng.below(30)), dayMax));
    };

    while (db.l_orderkey.size() < nL) {
        std::uint32_t o = std::uint32_t(rng.below(nO));
        unsigned lines = 1 + unsigned(rng.below(7));
        for (unsigned k = 0;
             k < lines && db.l_orderkey.size() < nL; ++k)
            push_line(db.o_orderkey[o], db.o_orderdate[o]);
    }
    return db;
}

/** Simulated-DDR addresses of the staged columnar tables. */
struct Staged
{
    mem::Addr lineitem; ///< 11 columns, stride = nL*4
    mem::Addr orders;   ///< 4 columns, stride = nO*4
    mem::Addr customer; ///< 1 column (mktsegment)
    mem::Addr part;     ///< 1 column (type)
    mem::Addr scratch;  ///< per-core result regions
    std::uint32_t lStride, oStride;
};

Staged
stageDb(soc::Soc &s, const Db &db)
{
    Staged st;
    const std::uint32_t nL = std::uint32_t(db.l_orderkey.size());
    const std::uint32_t nO = std::uint32_t(db.o_orderkey.size());
    st.lStride = nL * 4;
    st.oStride = nO * 4;

    mem::Addr at = 4096;
    st.lineitem = at;
    const std::vector<std::uint32_t> *lcols[11] = {
        &db.l_orderkey, &db.l_quantity, &db.l_extprice,
        &db.l_discount, &db.l_shipdate, &db.l_partkey,
        &db.l_returnflag, &db.l_linestatus, &db.l_shipmode,
        &db.l_commitdate, &db.l_receiptdate};
    for (unsigned c = 0; c < 11; ++c)
        stage(s, at + c * st.lStride, *lcols[c]);
    at = alignUp(at + 11ull * st.lStride + 4096, 4096);

    st.orders = at;
    const std::vector<std::uint32_t> *ocols[4] = {
        &db.o_orderkey, &db.o_custkey, &db.o_orderdate,
        &db.o_priority};
    for (unsigned c = 0; c < 4; ++c)
        stage(s, at + c * st.oStride, *ocols[c]);
    at = alignUp(at + 4ull * st.oStride + 4096, 4096);

    st.customer = at;
    stage(s, at, db.c_mktsegment);
    at = alignUp(at + db.c_mktsegment.size() * 4 + 4096, 4096);

    st.part = at;
    stage(s, at, db.p_type);
    at = alignUp(at + db.p_type.size() * 4 + 4096, 4096);

    st.scratch = at;
    return st;
}

// Query predicates shared by both platforms.
constexpr std::uint32_t q1CutDay = 2200;
constexpr std::uint32_t q3Segment = 1;
constexpr std::uint32_t q3CutDay = 1100;
constexpr std::uint32_t q6Year0 = 1095, q6Year1 = 1460;
constexpr std::uint32_t q6Disc = 6, q6Qty = 24;
constexpr std::uint32_t q12ModeA = 2, q12ModeB = 4;
constexpr std::uint32_t q12Year0 = 1460, q12Year1 = 1825;
constexpr std::uint32_t q14Month0 = 1185, q14Month1 = 1215;
constexpr bool
promoPart(std::uint32_t type)
{
    return type < 25;
}

// ----------------------------------------------------------------
// Kernel-side helpers
// ----------------------------------------------------------------

/** Ring layout shared by all TPCH pipelines. */
constexpr std::uint16_t ringBase = 0;
constexpr std::uint16_t ringBuf = 4096 + 4;
constexpr std::uint8_t ringBufs = 2;
constexpr std::uint8_t ringEvent = 16;
constexpr std::uint32_t tblOff = 10 * 1024;   // per-core hash/agg
constexpr std::uint32_t bmpOff = 22 * 1024;   // bitmaps
constexpr std::uint32_t syncOff = 26 * 1024;  // barrier words
constexpr int doneEvent = 30;

/** Issue one hardware-partitioned scan over a lineitem/orders
 *  column window and consume the rows on this core. */
void
partitionedScan(rt::DmsCtl &ctl, unsigned id, mem::Addr base,
                std::uint32_t n_rows, std::uint32_t col_stride,
                std::uint16_t col_mask, std::uint32_t chunk_rows,
                const std::function<void(const std::uint32_t *)>
                    &on_row,
                sim::Cycles per_row_cycles)
{
    core::DpCore &c = ctl.dpCore();
    const std::uint8_t n_cols =
        std::uint8_t(__builtin_popcount(col_mask));
    if (id == 0) {
        rt::PartitionJob job;
        job.table = base;
        job.nRows = n_rows;
        job.nCols = n_cols;
        job.colWidth = 4;
        job.colStride = col_stride;
        job.colMask = col_mask;
        job.scheme.kind = rt::PartitionScheme::Kind::HashRadix;
        job.dstBase = ringBase;
        job.dstBufBytes = ringBuf;
        job.dstNBufs = ringBufs;
        job.dstFirstEvent = ringEvent;
        job.doneEvent = doneEvent;
        job.chunkRows = chunk_rows;
        rt::runPartition(ctl, job);
    }
    const unsigned tuple = n_cols * 4u;
    std::uint32_t fields[16];
    rt::consumePartition(
        ctl, ringBase, ringBuf, ringBufs, ringEvent,
        [&](std::uint32_t off, std::uint32_t rows) {
            for (std::uint32_t i = 0; i < rows; ++i) {
                for (unsigned f = 0; f < n_cols; ++f)
                    fields[f] = c.dmem().load<std::uint32_t>(
                        off + i * tuple + f * 4);
                on_row(fields);
            }
            c.dualIssue(rows * per_row_cycles,
                        rows * (n_cols / 2 + 1));
        });
    if (id == 0) {
        ctl.wfe(unsigned(doneEvent));
        ctl.clearEvent(unsigned(doneEvent));
    }
}

/** Build a DMEM bitmap from a dense 4 B column (id = position+1). */
void
streamBitmap(rt::DmsCtl &ctl, mem::Addr col, std::uint32_t n,
             std::uint32_t bmp_off,
             const std::function<bool(std::uint32_t)> &pred)
{
    core::DpCore &c = ctl.dpCore();
    for (std::uint32_t i = 0; i <= n / 8; ++i)
        c.dmem().store<std::uint8_t>(bmp_off + i, 0);
    c.dualIssue(n / 16, n / 8);
    // Bitmaps are small (<256 B); the column streams through two
    // 1 KB buffers placed just above, clear of the sync words.
    rt::StreamReader in(ctl, col, std::uint64_t(n) * 4,
                        std::uint16_t(bmp_off + 512), 1024, 2, 8, 0);
    std::uint32_t idx = 0;
    in.forEach([&](std::uint32_t off, std::uint32_t blen) {
        for (std::uint32_t i = 0; i < blen; i += 4, ++idx) {
            if (pred(c.dmem().load<std::uint32_t>(off + i))) {
                std::uint32_t bit = idx + 1; // ids are 1-based
                std::uint8_t b = c.dmem().load<std::uint8_t>(
                    bmp_off + bit / 8);
                c.dmem().store<std::uint8_t>(
                    bmp_off + bit / 8,
                    std::uint8_t(b | (1u << (bit % 8))));
            }
        }
        c.dualIssue(blen / 4 * 2, blen / 4 * 2);
    });
}

bool
testBit(core::DpCore &c, std::uint32_t bmp_off, std::uint32_t id)
{
    return (c.dmem().load<std::uint8_t>(bmp_off + id / 8) >>
            (id % 8)) & 1;
}

} // namespace

// ----------------------------------------------------------------
// DPU plans
// ----------------------------------------------------------------

QueryResult
dpuTpch(const soc::SocParams &params, const TpchConfig &cfg,
        const std::string &query)
{
    Db db = makeDb(cfg);
    soc::Soc s(params);
    Staged st = stageDb(s, db);
    const std::uint32_t nL = std::uint32_t(db.l_orderkey.size());
    const std::uint32_t nO = std::uint32_t(db.o_orderkey.size());
    const unsigned n_cores = cfg.nCores;

    rt::AteBarrier barrier(0, syncOff, n_cores);
    // Q6/Q12/Q14 reduce into core 0's DMEM with ATE fetch-adds.
    for (unsigned w = 0; w < 8; ++w)
        s.core(0).dmem().store<std::uint64_t>(syncOff + 64 + w * 8,
                                              0);

    QueryResult r;
    r.query = query;

    // Per-core partial results gathered after the run.
    std::vector<std::map<std::uint32_t, std::uint64_t>> q3rev(
        n_cores);
    std::vector<std::array<std::uint64_t, 24>> q1agg(
        n_cores, std::array<std::uint64_t, 24>{});

    for (unsigned id = 0; id < n_cores; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            rt::DmsCtl ctl(c, s.dmsFor(id));
            ate::Ate &ate = s.ateFor(id);

            if (query == "Q1") {
                // scan cols 0..7, filter shipdate, 6-group agg.
                // Project {orderkey, qty, price, disc, shipdate,
                // returnflag, linestatus} out of the 11 columns.
                partitionedScan(
                    ctl, id, st.lineitem, nL, st.lStride, 0x00DF,
                    256,
                    [&](const std::uint32_t *f) {
                        if (f[4] > q1CutDay)
                            return;
                        unsigned g = f[5] * 2 + f[6]; // flag,status
                        auto &a = q1agg[id];
                        a[g * 4 + 0] += f[1];            // qty
                        a[g * 4 + 1] += f[2];            // price
                        a[g * 4 + 2] +=
                            std::uint64_t(f[2]) * (100 - f[3]);
                        a[g * 4 + 3] += 1;               // count
                    },
                    8);
                barrier.arrive(c, ate);
                // Merge operator: core 0 pulls the per-core tables
                // over the ATE (24 words each; tiny).
                // (Values live host-side; charge the RPCs.)
                if (id == 0) {
                    for (unsigned w = 0; w < 24 * n_cores; w += 8)
                        (void)ate.remoteLoad(
                            c, (w / 24) % n_cores,
                            mem::dmemAddr((w / 24) % n_cores,
                                          tblOff),
                            8);
                    c.dualIssue(24 * n_cores, 24 * n_cores);
                }
            } else if (query == "Q6") {
                std::uint64_t local = 0;
                partitionedScan(
                    ctl, id, st.lineitem, nL, st.lStride, 0x001F,
                    256,
                    [&](const std::uint32_t *f) {
                        if (f[4] >= q6Year0 && f[4] < q6Year1 &&
                            f[3] >= q6Disc - 1 &&
                            f[3] <= q6Disc + 1 && f[1] < q6Qty)
                            local += std::uint64_t(f[2]) * f[3];
                    },
                    6);
                // Single global sum: ATE fetch-add at core 0.
                ate.fetchAdd(c, id / 32 * 32,
                             mem::dmemAddr(id / 32 * 32,
                                           syncOff + 64),
                             std::int64_t(local), 8);
                barrier.arrive(c, ate);
            } else if (query == "Q3") {
                // 1. customer segment bitmap (dense custkeys).
                streamBitmap(ctl, st.customer, cfg.nCustomers(),
                             bmpOff, [&](std::uint32_t seg) {
                                 return seg == q3Segment;
                             });
                barrier.arrive(c, ate);

                // 2. partition orders; keep qualifying orderkeys in
                // a DMEM hash set (open addressing, 1024 slots).
                constexpr std::uint32_t slots = 1024;
                for (std::uint32_t i = 0; i < slots; ++i)
                    c.dmem().store<std::uint64_t>(tblOff + i * 8, 0);
                c.dualIssue(slots / 2, slots);
                partitionedScan(
                    ctl, id, st.orders, nO, st.oStride, 0x0007, 256,
                    [&](const std::uint32_t *f) {
                        // f = orderkey, custkey, orderdate
                        if (f[2] >= q3CutDay ||
                            !testBit(c, bmpOff, f[1]))
                            return;
                        std::uint32_t slot =
                            (c.crcHash(f[0]) >> 10) & (slots - 1);
                        while (c.dmem().load<std::uint32_t>(
                                   tblOff + slot * 8) != 0)
                            slot = (slot + 1) & (slots - 1);
                        c.dmem().store<std::uint32_t>(
                            tblOff + slot * 8, f[0]);
                        c.dualIssue(4, 4);
                    },
                    8);
                barrier.arrive(c, ate);

                // 3. partition lineitem; co-partitioned probing
                // (same key column -> same core), revenue by order.
                // Project {orderkey, price, disc, shipdate}.
                partitionedScan(
                    ctl, id, st.lineitem, nL, st.lStride, 0x001D,
                    256,
                    [&](const std::uint32_t *f) {
                        if (f[3] <= q3CutDay)
                            return;
                        std::uint32_t slot =
                            (c.crcHash(f[0]) >> 10) & (slots - 1);
                        while (true) {
                            std::uint32_t k =
                                c.dmem().load<std::uint32_t>(
                                    tblOff + slot * 8);
                            if (k == 0)
                                return; // no matching order
                            if (k == f[0])
                                break;
                            slot = (slot + 1) & (slots - 1);
                            c.dualIssue(1, 1);
                        }
                        std::uint64_t rev =
                            std::uint64_t(f[1]) * (100 - f[2]);
                        q3rev[id][f[0]] += rev;
                        std::uint32_t cur =
                            c.dmem().load<std::uint32_t>(
                                tblOff + slot * 8 + 4);
                        c.dmem().store<std::uint32_t>(
                            tblOff + slot * 8 + 4,
                            cur + std::uint32_t(rev / 100));
                        c.dualIssue(6, 4);
                    },
                    8);
                barrier.arrive(c, ate);
            } else if (query == "Q12") {
                // Build orderkey -> priority map per core.
                constexpr std::uint32_t slots = 1024;
                for (std::uint32_t i = 0; i < slots; ++i)
                    c.dmem().store<std::uint64_t>(tblOff + i * 8, 0);
                c.dualIssue(slots / 2, slots);
                partitionedScan(
                    ctl, id, st.orders, nO, st.oStride, 0x000F, 256,
                    [&](const std::uint32_t *f) {
                        std::uint32_t slot =
                            (c.crcHash(f[0]) >> 10) & (slots - 1);
                        while (c.dmem().load<std::uint32_t>(
                                   tblOff + slot * 8) != 0)
                            slot = (slot + 1) & (slots - 1);
                        c.dmem().store<std::uint32_t>(
                            tblOff + slot * 8, f[0]);
                        c.dmem().store<std::uint32_t>(
                            tblOff + slot * 8 + 4, f[3]);
                        c.dualIssue(4, 4);
                    },
                    6);
                barrier.arrive(c, ate);

                std::uint64_t cnt[4] = {0, 0, 0, 0};
                // Project {orderkey, shipdate, shipmode,
                // commitdate, receiptdate}.
                partitionedScan(
                    ctl, id, st.lineitem, nL, st.lStride, 0x0711,
                    256,
                    [&](const std::uint32_t *f) {
                        std::uint32_t mode = f[2];
                        if (mode != q12ModeA && mode != q12ModeB)
                            return;
                        if (!(f[3] < f[4] && f[1] < f[3] &&
                              f[4] >= q12Year0 && f[4] < q12Year1))
                            return;
                        std::uint32_t slot =
                            (c.crcHash(f[0]) >> 10) & (slots - 1);
                        while (c.dmem().load<std::uint32_t>(
                                   tblOff + slot * 8) != f[0])
                            slot = (slot + 1) & (slots - 1);
                        std::uint32_t prio =
                            c.dmem().load<std::uint32_t>(
                                tblOff + slot * 8 + 4);
                        unsigned hi = prio < 2 ? 0 : 1;
                        cnt[(mode == q12ModeA ? 0 : 2) + hi] += 1;
                        c.dualIssue(6, 5);
                    },
                    10);
                for (unsigned k = 0; k < 4; ++k)
                    ate.fetchAdd(c, id / 32 * 32,
                                 mem::dmemAddr(id / 32 * 32,
                                               syncOff + 64 + k * 8),
                                 std::int64_t(cnt[k]), 8);
                barrier.arrive(c, ate);
            } else if (query == "Q14") {
                // Promo-part bitmap, then one lineitem scan.
                streamBitmap(ctl, st.part, cfg.nParts(), bmpOff,
                             [&](std::uint32_t type) {
                                 return promoPart(type);
                             });
                barrier.arrive(c, ate);
                std::uint64_t promo = 0, total = 0;
                // Project {orderkey, price, disc, ship, partkey}.
                partitionedScan(
                    ctl, id, st.lineitem, nL, st.lStride, 0x003D,
                    256,
                    [&](const std::uint32_t *f) {
                        if (f[3] < q14Month0 || f[3] >= q14Month1)
                            return;
                        std::uint64_t rev =
                            std::uint64_t(f[1]) * (100 - f[2]);
                        total += rev;
                        if (testBit(c, bmpOff, f[4]))
                            promo += rev;
                    },
                    8);
                ate.fetchAdd(c, id / 32 * 32,
                             mem::dmemAddr(id / 32 * 32,
                                           syncOff + 64),
                             std::int64_t(promo), 8);
                ate.fetchAdd(c, id / 32 * 32,
                             mem::dmemAddr(id / 32 * 32,
                                           syncOff + 72),
                             std::int64_t(total), 8);
                barrier.arrive(c, ate);
            } else {
                fatal("unknown TPCH query '%s'", query.c_str());
            }
        });
    }
    sim::Tick t = s.run();
    sim_assert(s.allFinished(), "TPCH %s deadlocked",
               query.c_str());
    r.seconds = double(t) * 1e-12;

    // Collect the functional results.
    if (query == "Q1") {
        for (unsigned g = 0; g < 6; ++g) {
            std::uint64_t sums[4] = {0, 0, 0, 0};
            for (unsigned id = 0; id < n_cores; ++id)
                for (unsigned k = 0; k < 4; ++k)
                    sums[k] += q1agg[id][g * 4 + k];
            std::string base = "g" + std::to_string(g) + "_";
            r.values[base + "qty"] = sums[0];
            r.values[base + "price"] = sums[1];
            r.values[base + "disc_price"] = sums[2];
            r.values[base + "count"] = sums[3];
        }
    } else if (query == "Q6") {
        r.values["revenue"] =
            s.core(0).dmem().load<std::uint64_t>(syncOff + 64);
    } else if (query == "Q3") {
        std::map<std::uint32_t, std::uint64_t> all;
        for (auto &m : q3rev)
            for (auto &[k, v] : m)
                all[k] += v;
        std::vector<std::pair<std::uint64_t, std::uint32_t>> top;
        for (auto &[k, v] : all)
            top.push_back({v, k});
        std::sort(top.begin(), top.end(),
                  [](auto &a, auto &b) {
                      return a.first != b.first ? a.first > b.first
                                                : a.second < b.second;
                  });
        std::uint64_t sum10 = 0;
        for (std::size_t i = 0; i < top.size() && i < 10; ++i) {
            sum10 += top[i].first;
            r.values["top" + std::to_string(i) + "_key"] =
                top[i].second;
        }
        r.values["top10_revenue"] = sum10;
        r.values["groups"] = all.size();
    } else if (query == "Q12") {
        static const char *names[4] = {"modeA_high", "modeA_low",
                                       "modeB_high", "modeB_low"};
        for (unsigned k = 0; k < 4; ++k)
            r.values[names[k]] =
                s.core(0).dmem().load<std::uint64_t>(syncOff + 64 +
                                                     k * 8);
    } else if (query == "Q14") {
        r.values["promo_revenue"] =
            s.core(0).dmem().load<std::uint64_t>(syncOff + 64);
        r.values["total_revenue"] =
            s.core(0).dmem().load<std::uint64_t>(syncOff + 72);
    }
    return r;
}

// ----------------------------------------------------------------
// Xeon plans (functional + roofline charges)
// ----------------------------------------------------------------

QueryResult
xeonTpch(const TpchConfig &cfg, const std::string &query)
{
    Db db = makeDb(cfg);
    const std::uint32_t nL = std::uint32_t(db.l_orderkey.size());
    const std::uint32_t nO = std::uint32_t(db.o_orderkey.size());
    xeon::XeonModel m;
    QueryResult r;
    r.query = query;

    // Probe spill factor: at the paper's scale hash tables exceed
    // the LLC, so a fraction of probes are DRAM-random; the DPU
    // avoids this with DMEM-resident co-partitioned tables.
    const double probe_spill = 0.4;

    if (query == "Q1") {
        std::uint64_t sums[6][4] = {};
        for (std::uint32_t i = 0; i < nL; ++i) {
            if (db.l_shipdate[i] > q1CutDay)
                continue;
            unsigned g =
                db.l_returnflag[i] * 2 + db.l_linestatus[i];
            sums[g][0] += db.l_quantity[i];
            sums[g][1] += db.l_extprice[i];
            sums[g][2] += std::uint64_t(db.l_extprice[i]) *
                          (100 - db.l_discount[i]);
            sums[g][3] += 1;
        }
        for (unsigned g = 0; g < 6; ++g) {
            std::string base = "g" + std::to_string(g) + "_";
            r.values[base + "qty"] = sums[g][0];
            r.values[base + "price"] = sums[g][1];
            r.values[base + "disc_price"] = sums[g][2];
            r.values[base + "count"] = sums[g][3];
        }
        m.streamBytes(double(nL) * 24); // 6 used columns
        m.scalarOps(double(nL) * 10);
        m.endPhase();
    } else if (query == "Q6") {
        std::uint64_t rev = 0;
        for (std::uint32_t i = 0; i < nL; ++i) {
            if (db.l_shipdate[i] >= q6Year0 &&
                db.l_shipdate[i] < q6Year1 &&
                db.l_discount[i] >= q6Disc - 1 &&
                db.l_discount[i] <= q6Disc + 1 &&
                db.l_quantity[i] < q6Qty)
                rev += std::uint64_t(db.l_extprice[i]) *
                       db.l_discount[i];
        }
        r.values["revenue"] = rev;
        m.streamBytes(double(nL) * 16);
        m.simdOps(double(nL) * 6);
        m.endPhase();
    } else if (query == "Q3") {
        std::vector<bool> seg(cfg.nCustomers() + 1, false);
        for (std::uint32_t i = 0; i < cfg.nCustomers(); ++i)
            seg[i + 1] = db.c_mktsegment[i] == q3Segment;
        std::vector<bool> okeep(nO + 1, false);
        for (std::uint32_t i = 0; i < nO; ++i)
            okeep[db.o_orderkey[i]] =
                db.o_orderdate[i] < q3CutDay && seg[db.o_custkey[i]];
        std::map<std::uint32_t, std::uint64_t> all;
        for (std::uint32_t i = 0; i < nL; ++i) {
            if (db.l_shipdate[i] <= q3CutDay ||
                !okeep[db.l_orderkey[i]])
                continue;
            all[db.l_orderkey[i]] +=
                std::uint64_t(db.l_extprice[i]) *
                (100 - db.l_discount[i]);
        }
        std::vector<std::pair<std::uint64_t, std::uint32_t>> top;
        for (auto &[k, v] : all)
            top.push_back({v, k});
        std::sort(top.begin(), top.end(),
                  [](auto &a, auto &b) {
                      return a.first != b.first ? a.first > b.first
                                                : a.second < b.second;
                  });
        std::uint64_t sum10 = 0;
        for (std::size_t i = 0; i < top.size() && i < 10; ++i) {
            sum10 += top[i].first;
            r.values["top" + std::to_string(i) + "_key"] =
                top[i].second;
        }
        r.values["top10_revenue"] = sum10;
        r.values["groups"] = all.size();

        m.streamBytes(double(cfg.nCustomers()) * 4 +
                      double(nO) * 12 + double(nL) * 16);
        m.randomBytes(double(nL) * 64 * probe_spill);
        m.scalarOps(double(nL) * 12 + double(nO) * 8);
        m.endPhase();
    } else if (query == "Q12") {
        std::vector<std::uint32_t> prio(nO + 1, 0);
        for (std::uint32_t i = 0; i < nO; ++i)
            prio[db.o_orderkey[i]] = db.o_priority[i];
        std::uint64_t cnt[4] = {0, 0, 0, 0};
        std::uint64_t probes = 0;
        for (std::uint32_t i = 0; i < nL; ++i) {
            std::uint32_t mode = db.l_shipmode[i];
            if (mode != q12ModeA && mode != q12ModeB)
                continue;
            if (!(db.l_commitdate[i] < db.l_receiptdate[i] &&
                  db.l_shipdate[i] < db.l_commitdate[i] &&
                  db.l_receiptdate[i] >= q12Year0 &&
                  db.l_receiptdate[i] < q12Year1))
                continue;
            ++probes;
            unsigned hi = prio[db.l_orderkey[i]] < 2 ? 0 : 1;
            cnt[(mode == q12ModeA ? 0 : 2) + hi] += 1;
        }
        static const char *names[4] = {"modeA_high", "modeA_low",
                                       "modeB_high", "modeB_low"};
        for (unsigned k = 0; k < 4; ++k)
            r.values[names[k]] = cnt[k];
        m.streamBytes(double(nO) * 8 + double(nL) * 20);
        m.randomBytes(double(probes) * 64 * probe_spill);
        m.scalarOps(double(nL) * 8);
        m.endPhase();
    } else if (query == "Q14") {
        std::uint64_t promo = 0, total = 0;
        for (std::uint32_t i = 0; i < nL; ++i) {
            if (db.l_shipdate[i] < q14Month0 ||
                db.l_shipdate[i] >= q14Month1)
                continue;
            std::uint64_t rev = std::uint64_t(db.l_extprice[i]) *
                                (100 - db.l_discount[i]);
            total += rev;
            if (promoPart(db.p_type[db.l_partkey[i] - 1]))
                promo += rev;
        }
        r.values["promo_revenue"] = promo;
        r.values["total_revenue"] = total;
        m.streamBytes(double(cfg.nParts()) * 4 + double(nL) * 16);
        m.scalarOps(double(nL) * 8);
        m.endPhase();
    } else {
        fatal("unknown TPCH query '%s'", query.c_str());
    }
    r.seconds = m.seconds();
    return r;
}

AppResult
tpchApp(const TpchConfig &cfg, const std::string &query)
{
    QueryResult d = dpuTpch(soc::dpu40nm(), cfg, query);
    QueryResult x = xeonTpch(cfg, query);
    AppResult r;
    r.name = "TPCH " + query;
    r.dpuSeconds = d.seconds;
    r.xeonSeconds = x.seconds;
    r.workUnits = double(cfg.nLineitem());
    r.unitName = "lineitem rows";
    r.matched = d.values == x.values;
    return r;
}

} // namespace dpu::apps::sql
