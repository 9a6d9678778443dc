/**
 * @file
 * Property tests for the DMS hardware partitioner: random key
 * streams pushed through all three schemes (CRC hash-radix, raw
 * radix, programmed range) must satisfy the partitioning contract
 * regardless of data:
 *
 *  - multiset preservation: every input row arrives exactly once,
 *    with its payload intact, across the 32 consumer rings;
 *  - shard dictation: a row lands on the core its key's hash (or
 *    radix field, or range bucket) dictates — never elsewhere;
 *  - range boundaries: under Range, each received key respects
 *    bounds[cid-1] < key <= bounds[cid], including keys placed
 *    exactly on the programmed boundaries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "rt/partition.hh"
#include "sim/fault.hh"
#include "sim/rng.hh"
#include "soc/soc.hh"
#include "util/crc32.hh"

using namespace dpu;

namespace {

constexpr std::uint32_t tableBase = 0x100000;
constexpr unsigned nCols = 2;
constexpr std::uint16_t bufBytes = 1024 + 4;

/** The scheme contract, recomputed host-side. */
unsigned
dictatedCore(const rt::PartitionScheme &scheme, std::uint32_t key)
{
    switch (scheme.kind) {
    case rt::PartitionScheme::Kind::HashRadix: {
        const std::uint64_t k = key; // engine loads colWidth bytes
        const std::uint32_t h = util::crc32(&k, 4);
        return (h >> scheme.radixShift) &
               ((1u << scheme.radixBits) - 1);
    }
    case rt::PartitionScheme::Kind::RawRadix:
        return (key >> scheme.radixShift) &
               ((1u << scheme.radixBits) - 1);
    case rt::PartitionScheme::Kind::Range: {
        const auto it =
            std::lower_bound(scheme.bounds.begin(),
                             scheme.bounds.end(), key);
        return unsigned(std::min<std::ptrdiff_t>(
            it - scheme.bounds.begin(), 31));
    }
    }
    return 0;
}

struct Received
{
    std::uint32_t key = 0;
    unsigned core = 0;
};

/**
 * Push @p keys through the partitioner under @p scheme; returns
 * what each consumer saw, indexed by the payload row tag (so the
 * caller can check delivery exactly once and shard dictation).
 */
std::vector<std::vector<Received>>
partitionRun(const std::vector<std::uint32_t> &keys,
             const rt::PartitionScheme &scheme)
{
    sim::faultPlane().reset();
    soc::Soc s;

    const std::uint32_t n_rows = std::uint32_t(keys.size());
    const std::uint32_t stride = n_rows * 4;
    for (std::uint32_t r = 0; r < n_rows; ++r) {
        s.memory().store().store<std::uint32_t>(
            tableBase + r * 4, keys[r]);
        s.memory().store().store<std::uint32_t>(
            tableBase + stride + r * 4, r);
    }

    std::vector<std::vector<Received>> by_tag(n_rows);
    for (unsigned id = 0; id < 32; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            rt::DmsCtl ctl(c, s.dmsFor(c.id()));
            if (id == 0) {
                rt::PartitionJob job;
                job.table = tableBase;
                job.nRows = n_rows;
                job.nCols = nCols;
                job.colWidth = 4;
                job.colStride = stride;
                job.chunkRows = 128;
                job.dstBufBytes = bufBytes;
                job.scheme = scheme;
                rt::runPartition(ctl, job);
            }
            rt::consumePartition(
                ctl, 0, bufBytes, 2, 16,
                [&](std::uint32_t off, std::uint32_t rows) {
                    for (std::uint32_t i = 0; i < rows; ++i) {
                        const std::uint32_t key =
                            c.dmem().load<std::uint32_t>(
                                off + i * nCols * 4);
                        const std::uint32_t tag =
                            c.dmem().load<std::uint32_t>(
                                off + i * nCols * 4 + 4);
                        if (tag < n_rows)
                            by_tag[tag].push_back({key, id});
                    }
                    c.dualIssue(rows * nCols, rows * nCols);
                });
            if (id == 0) {
                ctl.wfe(30);
                ctl.clearEvent(30);
            }
        });
    }
    s.run();
    EXPECT_TRUE(s.allFinished());
    return by_tag;
}

/** The three properties, checked for one (keys, scheme) draw. */
void
checkProperties(const std::vector<std::uint32_t> &keys,
                const rt::PartitionScheme &scheme)
{
    const auto by_tag = partitionRun(keys, scheme);
    ASSERT_EQ(by_tag.size(), keys.size());
    for (std::uint32_t tag = 0; tag < keys.size(); ++tag) {
        // Multiset preservation: exactly once, payload intact.
        ASSERT_EQ(by_tag[tag].size(), 1u) << "row " << tag;
        const Received &rc = by_tag[tag][0];
        EXPECT_EQ(rc.key, keys[tag]) << "row " << tag;
        // Shard dictation.
        EXPECT_EQ(rc.core, dictatedCore(scheme, keys[tag]))
            << "row " << tag << " key " << keys[tag];
        // Range boundary law (redundant with dictation, but states
        // the contract directly against the programmed bounds).
        if (scheme.kind == rt::PartitionScheme::Kind::Range) {
            EXPECT_LE(std::uint64_t(rc.key),
                      scheme.bounds[std::min<unsigned>(rc.core,
                                                       31)]);
            if (rc.core > 0) {
                EXPECT_GT(std::uint64_t(rc.key),
                          scheme.bounds[rc.core - 1]);
            }
        }
    }
}

std::vector<std::uint32_t>
randomKeys(sim::Rng &rng, std::uint32_t n)
{
    std::vector<std::uint32_t> keys(n);
    for (auto &k : keys)
        k = std::uint32_t(rng.next());
    return keys;
}

} // namespace

TEST(PartitionProperty, HashRadixRandomStreams)
{
    sim::Rng rng{0x9a57};
    for (unsigned trial = 0; trial < 2; ++trial) {
        rt::PartitionScheme scheme;
        scheme.kind = rt::PartitionScheme::Kind::HashRadix;
        scheme.radixShift = std::uint8_t(rng.below(28));
        checkProperties(
            randomKeys(rng, 2048 + std::uint32_t(rng.below(512))),
            scheme);
    }
}

TEST(PartitionProperty, RawRadixRandomStreams)
{
    sim::Rng rng{0x9a58};
    for (unsigned trial = 0; trial < 2; ++trial) {
        rt::PartitionScheme scheme;
        scheme.kind = rt::PartitionScheme::Kind::RawRadix;
        scheme.radixShift = std::uint8_t(rng.below(28));
        // Skewed low bits: raw radix on random data is uniform, so
        // also stress a clustered distribution.
        std::vector<std::uint32_t> keys = randomKeys(rng, 2048);
        for (std::size_t i = 0; i < keys.size() / 2; ++i)
            keys[i] &= 0xffu << scheme.radixShift;
        checkProperties(keys, scheme);
    }
}

TEST(PartitionProperty, RangeRandomBoundsAndBoundaryKeys)
{
    sim::Rng rng{0x9a59};
    for (unsigned trial = 0; trial < 2; ++trial) {
        rt::PartitionScheme scheme;
        scheme.kind = rt::PartitionScheme::Kind::Range;
        // 31 distinct ascending random bounds, then a catch-all.
        std::vector<std::uint64_t> b;
        while (b.size() < 31) {
            const std::uint64_t v = rng.below(1ull << 32);
            if (std::find(b.begin(), b.end(), v) == b.end())
                b.push_back(v);
        }
        std::sort(b.begin(), b.end());
        b.push_back(~0ull);
        scheme.bounds = b;

        std::vector<std::uint32_t> keys = randomKeys(rng, 2048);
        // Edge cases: keys exactly on, one above, and one below
        // every finite boundary.
        for (unsigned i = 0; i < 31; ++i) {
            keys.push_back(std::uint32_t(b[i]));
            keys.push_back(std::uint32_t(b[i]) + 1);
            if (b[i] > 0)
                keys.push_back(std::uint32_t(b[i]) - 1);
        }
        checkProperties(keys, scheme);
    }
}

TEST(PartitionProperty, DuplicateKeysPreserveMultiplicity)
{
    // Heavy duplication: 16 distinct keys over 4096 rows. The
    // multiset check (every tagged row exactly once) proves no
    // dedup or fan-out happens on collision-heavy streams.
    sim::Rng rng{0x9a5a};
    std::vector<std::uint32_t> pool = randomKeys(rng, 16);
    std::vector<std::uint32_t> keys(4096);
    for (auto &k : keys)
        k = pool[rng.below(pool.size())];
    rt::PartitionScheme scheme;
    scheme.kind = rt::PartitionScheme::Kind::HashRadix;
    checkProperties(keys, scheme);
}
