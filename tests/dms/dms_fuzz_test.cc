/**
 * @file
 * Randomized property tests for the DMS: arbitrary interleaved
 * chains of DDR->DMEM and DMEM->DDR descriptors across both
 * channels and many cores must leave memory exactly as a sequential
 * reference execution would, and random partition workloads must
 * deliver every row exactly once to the right core regardless of
 * chunk size, tuple shape or consumer speed.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rt/dms_ctl.hh"
#include "rt/partition.hh"
#include "sim/json.hh"
#include "sim/rng.hh"
#include "sim/trace.hh"
#include "soc/soc.hh"
#include "util/crc32.hh"

using namespace dpu;
using rt::DmsCtl;

/** Seeded random transfer plans. */
class DmsFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(DmsFuzz, RandomTransferChainsMatchReference)
{
    sim::Rng rng{std::uint64_t(GetParam()) * 1313 + 7};
    soc::Soc s;

    // Reference copy of DDR contents, maintained host-side.
    const std::uint64_t ddr_words = 1 << 20; // 4 MB working region
    std::vector<std::uint32_t> ref(ddr_words);
    for (std::uint64_t i = 0; i < ddr_words; ++i) {
        ref[i] = std::uint32_t(rng.next());
        s.memory().store().store<std::uint32_t>(i * 4, ref[i]);
    }

    // Each core executes a random sequence of {read buffer, mutate
    // in DMEM, write back elsewhere} against a private DDR region.
    const unsigned n_cores = 8;
    const std::uint64_t region_words = ddr_words / n_cores;

    struct Op
    {
        std::uint32_t srcw, dstw, words;
    };
    std::vector<std::vector<Op>> plans(n_cores);
    for (unsigned id = 0; id < n_cores; ++id) {
        unsigned n_ops = 4 + unsigned(rng.below(12));
        for (unsigned k = 0; k < n_ops; ++k) {
            Op op;
            op.words = 16 + std::uint32_t(rng.below(1500));
            op.srcw = std::uint32_t(rng.below(region_words -
                                              op.words));
            op.dstw = std::uint32_t(rng.below(region_words -
                                              op.words));
            plans[id].push_back(op);
        }
    }

    for (unsigned id = 0; id < n_cores; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            DmsCtl ctl(c, s.dms());
            const std::uint64_t base = id * region_words;
            for (const auto &op : plans[id]) {
                ctl.resetArena();
                ctl.ddrToDmem()
                    .rows(op.words).width(4)
                    .from((base + op.srcw) * 4).to(0)
                    .event(0).noAutoInc().push(0);
                ctl.wfe(0);
                for (std::uint32_t i = 0; i < op.words; ++i) {
                    std::uint32_t v = c.dmem().load<std::uint32_t>(
                        i * 4);
                    c.dmem().store<std::uint32_t>(i * 4, v ^ id);
                }
                c.dualIssue(op.words, op.words * 2);
                ctl.clearEvent(0);
                ctl.dmemToDdr()
                    .rows(op.words).width(4)
                    .from(0).to((base + op.dstw) * 4)
                    .event(1).noAutoInc().push(1);
                ctl.wfe(1);
                ctl.clearEvent(1);
            }
        });
    }
    s.run();
    ASSERT_TRUE(s.allFinished());

    // Sequential reference execution with the DMS's SNAPSHOT
    // semantics: the whole source buffer lands in DMEM before any
    // byte is written back, so overlapping src/dst ranges read the
    // pre-op contents.
    for (unsigned id = 0; id < n_cores; ++id) {
        const std::uint64_t base = id * region_words;
        for (const auto &op : plans[id]) {
            std::vector<std::uint32_t> snap(op.words);
            for (std::uint32_t i = 0; i < op.words; ++i)
                snap[i] = ref[base + op.srcw + i] ^ id;
            for (std::uint32_t i = 0; i < op.words; ++i)
                ref[base + op.dstw + i] = snap[i];
        }
    }
    for (std::uint64_t i = 0; i < ddr_words; ++i) {
        ASSERT_EQ(s.memory().store().load<std::uint32_t>(i * 4),
                  ref[i]) << "word " << i;
    }
}

TEST_P(DmsFuzz, RandomPartitionShapesDeliverEveryRowOnce)
{
    sim::Rng rng{std::uint64_t(GetParam()) * 31 + 3};
    soc::Soc s;

    const std::uint32_t n_rows =
        2000 + std::uint32_t(rng.below(30000));
    const unsigned n_cols = 2 + unsigned(rng.below(4)); // 2..5
    const std::uint32_t chunk_rows =
        64u << rng.below(3); // 64/128/256
    const std::uint16_t buf_bytes =
        std::uint16_t((1024u << rng.below(2)) + 4);
    const sim::Cycles delay = sim::Cycles(rng.below(3000));

    const std::uint32_t stride = n_rows * 4;
    for (std::uint32_t r = 0; r < n_rows; ++r) {
        s.memory().store().store<std::uint32_t>(
            0x100000 + r * 4, std::uint32_t(rng.next())); // key
        for (unsigned col = 1; col < n_cols; ++col)
            s.memory().store().store<std::uint32_t>(
                0x100000 + col * stride + r * 4, r); // row tag
    }

    std::vector<int> delivered(n_rows, 0);
    std::uint64_t wrong_core = 0;
    for (unsigned id = 0; id < 32; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            DmsCtl ctl(c, s.dms());
            if (id == 0) {
                rt::PartitionJob job;
                job.table = 0x100000;
                job.nRows = n_rows;
                job.nCols = std::uint8_t(n_cols);
                job.colWidth = 4;
                job.colStride = stride;
                job.chunkRows = chunk_rows;
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
                        if (n_cols > 1) {
                            std::uint32_t tag =
                                c.dmem().load<std::uint32_t>(
                                    off + i * tuple + 4);
                            if (tag < n_rows)
                                ++delivered[tag];
                        }
                    }
                    c.dualIssue(rows * n_cols, rows * n_cols);
                    if (delay)
                        c.sleepCycles(delay);
                });
            if (id == 0) {
                ctl.wfe(30);
                ctl.clearEvent(30);
            }
        });
    }
    s.run();
    ASSERT_TRUE(s.allFinished());
    EXPECT_EQ(wrong_core, 0u);
    for (std::uint32_t r = 0; r < n_rows; ++r)
        ASSERT_EQ(delivered[r], 1) << "row " << r;
}

/**
 * Property: with tracing armed, any random descriptor chain produces
 * a well-formed trace — the JSON parses, every async begin has a
 * matching end (keyed by cat+id, begin first), and timestamps are
 * monotone within each (pid, tid) track.
 */
TEST_P(DmsFuzz, RandomChainsEmitWellFormedTraceJson)
{
    sim::Tracer &tr = sim::tracer();
    tr.arm(1u << 18);

    sim::Rng rng{std::uint64_t(GetParam()) * 977 + 11};
    soc::Soc s;
    for (std::uint32_t i = 0; i < 4096; ++i)
        s.memory().store().store<std::uint32_t>(
            i * 4, std::uint32_t(rng.next()));

    // A few cores run random-length chains of read/modify/write
    // descriptor pairs so DMAD, load/store engines and event tracks
    // all emit overlapping spans.
    for (unsigned id = 0; id < 4; ++id) {
        unsigned n_ops = 2 + unsigned(rng.below(6));
        std::vector<std::uint32_t> words;
        for (unsigned k = 0; k < n_ops; ++k)
            words.push_back(16 + std::uint32_t(rng.below(800)));
        s.start(id, [&s, id, words](core::DpCore &c) {
            DmsCtl ctl(c, s.dms());
            for (std::uint32_t w : words) {
                ctl.resetArena();
                ctl.ddrToDmem().rows(w).width(4).from(0).to(0)
                    .event(0).noAutoInc().push(0);
                ctl.wfe(0);
                c.dualIssue(w, w);
                ctl.clearEvent(0);
                ctl.dmemToDdr().rows(w).width(4).from(0).to(0x8000)
                    .event(1).noAutoInc().push(1);
                ctl.wfe(1);
                ctl.clearEvent(1);
            }
        });
    }
    s.run();
    ASSERT_TRUE(s.allFinished());
    EXPECT_EQ(tr.dropped(), 0u);
    EXPECT_GT(tr.size(), 0u);

    std::ostringstream os;
    tr.exportJson(os);
    tr.disarm();
    tr.clear();

    sim::json::Value doc;
    std::string err;
    ASSERT_TRUE(sim::json::parse(os.str(), doc, err)) << err;
    const sim::json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, sim::json::Value::Kind::Array);

    std::map<std::pair<std::string, std::uint64_t>, int> open;
    std::map<std::pair<std::uint64_t, std::uint64_t>, double> last;
    std::uint64_t spans = 0;
    for (const auto &e : events->arr) {
        const sim::json::Value *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->s == "M")
            continue;
        const double ts = e.find("ts")->asDouble();
        auto track = std::make_pair(e.find("pid")->asU64(),
                                    e.find("tid")->asU64());
        auto it = last.find(track);
        if (it != last.end()) {
            ASSERT_GE(ts, it->second);
        }
        last[track] = ts;
        if (ph->s == "b" || ph->s == "e") {
            auto key = std::make_pair(e.find("cat")->s,
                                      e.find("id")->asU64());
            if (ph->s == "b") {
                ++open[key];
                ++spans;
            } else {
                ASSERT_GT(open[key], 0) << "orphan 'e' id "
                                        << key.second;
                --open[key];
            }
        }
    }
    EXPECT_GT(spans, 0u);
    for (const auto &[key, count] : open)
        EXPECT_EQ(count, 0) << "unclosed span id " << key.second;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DmsFuzz, ::testing::Range(0, 6));
