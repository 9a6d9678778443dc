/**
 * @file
 * DDR channel model tests: functional storage, streaming bandwidth
 * near the channel peak, random-access degradation, and bank-level
 * row behaviour — the properties the whole DPU design point rests on
 * (Section 2: "compute at memory bandwidth").
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <vector>

#include "mem/main_memory.hh"
#include "sim/fault.hh"
#include "sim/rng.hh"

using namespace dpu;
using mem::MainMemory;

namespace {

double
streamBandwidthGBs(MainMemory &mm, std::size_t total, bool write)
{
    // Keep a controller-depth window of transactions outstanding so
    // CAS and activate latencies pipeline instead of gating every
    // 256 B round trip (the DMAC read engine prefetches within a
    // descriptor the same way).
    constexpr std::size_t depth = 16;
    std::vector<std::uint8_t> buf(256);
    sim::Tick inflight[depth] = {};
    sim::Tick done = 0;
    std::size_t i = 0;
    for (std::size_t a = 0; a < total; a += 256, ++i) {
        sim::Tick earliest = inflight[i % depth];
        done = write ? mm.dmsWrite(a, buf.data(), 256, earliest)
                     : mm.dmsRead(a, buf.data(), 256, earliest);
        inflight[i % depth] = done;
    }
    return double(total) / (double(done) * 1e-12) / 1e9;
}

/** This process's resident set in bytes, or -1 where unreadable. */
long long
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    long long pages = 0, resident = 0;
    if (!(statm >> pages >> resident))
        return -1;
    return resident * sysconf(_SC_PAGESIZE);
}

/**
 * The channel as it charged every 64 B burst through the bank and
 * bus logic, one at a time: the reference DdrChannel's row runs
 * must reproduce tick for tick and cell for cell.
 */
class PerBurstDdr
{
  public:
    explicit PerBurstDdr(const mem::DdrParams &params) : p(params) {}

    sim::Tick
    access(mem::Addr addr, std::uint32_t bytes, bool write,
           sim::Tick earliest)
    {
        sim::Tick done = earliest;
        for (mem::Addr a = addr & ~mem::Addr(63); a < addr + bytes;
             a += 64)
            done = burst(a, write, earliest);
        (write ? bytesWritten : bytesRead) += bytes;
        return done;
    }

    sim::Tick busFree = 0;
    std::uint64_t rowMisses = 0, rowHits = 0, busyTicks = 0,
                  bursts = 0, bytesRead = 0, bytesWritten = 0;

  private:
    sim::Tick
    burst(mem::Addr addr, bool write, sim::Tick earliest)
    {
        const std::uint64_t rowId = addr / p.rowBytes;
        Bank &b = banks[rowId % p.nBanks];
        const std::int64_t row = std::int64_t(rowId / p.nBanks);
        if (b.openRow != row) {
            sim::Tick t = std::max(earliest, b.dataReadyAt);
            if (b.openRow >= 0)
                t += p.tRp;
            t += p.tRcd + p.tCl;
            b.dataReadyAt = t;
            b.openRow = row;
            ++rowMisses;
        } else {
            b.dataReadyAt = std::max(b.dataReadyAt, earliest + p.tCl);
            ++rowHits;
        }
        sim::Tick data_start = std::max(b.dataReadyAt, busFree);
        if (write != lastWasWrite && busFree > 0)
            data_start += p.tTurnaround;
        lastWasWrite = write;
        sim::Tick t_burst =
            sim::Tick(double(p.tBurst) / (1.0 - p.refreshDerate));
        if (sim::faultPlane().hasMemFault())
            t_burst *= sim::faultPlane().memBwDivisor(data_start);
        busFree = data_start + t_burst;
        busyTicks += t_burst;
        ++bursts;
        return busFree;
    }

    struct Bank
    {
        std::int64_t openRow = -1;
        sim::Tick dataReadyAt = 0;
    };

    mem::DdrParams p;
    std::array<Bank, 64> banks{};
    bool lastWasWrite = false;
};

} // namespace

TEST(Ddr, ClosedFormMatchesPerBurstReference)
{
    struct Case
    {
        const mem::DdrParams *params;
        const char *faults;
    };
    // Each mix runs to about 340M ticks on DDR3 and 60-105M on
    // DDR4, so the degrade windows (one pair overlapping) cover a
    // middle stretch and some accesses straddle their edges.
    const Case cases[] = {
        {&mem::ddr3_1600, ""},
        {&mem::ddr4_3200x3, ""},
        {&mem::ddr3_1600,
         "mem.degrade@from=60000000,to=200000000,mag=3"},
        {&mem::ddr4_3200x3,
         "mem.degrade@from=10000000,to=40000000,mag=5;"
         "mem.degrade@from=30000000,to=70000000,mag=2"},
    };
    for (const Case &c : cases) {
        for (std::uint64_t seed = 1; seed <= 12; ++seed) {
            sim::faultPlane().configure(c.faults, seed);
            sim::StatGroup st("ddr");
            mem::DdrChannel ch(*c.params, st);
            PerBurstDdr ref(*c.params);
            sim::Rng rng{seed * 0x51ed27ull};
            for (int op = 0; op < 1500; ++op) {
                // A few hot regions keep rows open across accesses;
                // starts are unaligned and lengths cross rows.
                const mem::Addr base =
                    rng.below(6) * 3 * c.params->rowBytes *
                    c.params->nBanks;
                const mem::Addr addr = base + rng.below(16384);
                const std::uint32_t bytes =
                    rng.below(4) == 0
                        ? std::uint32_t(rng.below(65))
                        : std::uint32_t(1 + rng.below(5000));
                const bool write = rng.below(3) == 0;
                // Arrive before the bus frees (queued) or after it
                // (idle gap), as DMS windows and cores both do.
                const sim::Tick gap = rng.below(20000);
                const sim::Tick earliest =
                    rng.below(2) ? ref.busFree + gap
                                 : ref.busFree - std::min(ref.busFree,
                                                          gap);
                const sim::Tick want =
                    ref.access(addr, bytes, write, earliest);
                ASSERT_EQ(ch.access(addr, bytes, write, earliest), want)
                    << c.params->name << " '" << c.faults << "' seed "
                    << seed << " op " << op;
            }
            EXPECT_EQ(st.get("rowMisses"), ref.rowMisses);
            EXPECT_EQ(st.get("rowHits"), ref.rowHits);
            EXPECT_EQ(st.get("busyTicks"), ref.busyTicks);
            EXPECT_EQ(st.get("bursts"), ref.bursts);
            EXPECT_EQ(st.get("bytesRead"), ref.bytesRead);
            EXPECT_EQ(st.get("bytesWritten"), ref.bytesWritten);
            if (*c.faults) { // the windows really stretched bursts
                EXPECT_GT(sim::faultPlane().injected(
                              sim::FaultSite::MemDegrade),
                          0u);
            }
        }
    }
    sim::faultPlane().reset();
}

TEST(Ddr, FunctionalReadWrite)
{
    MainMemory mm(mem::ddr3_1600, 1 << 20);
    std::uint32_t v = 0xabad1dea;
    mm.store().store<std::uint32_t>(0x1234, v);
    EXPECT_EQ(mm.store().load<std::uint32_t>(0x1234), v);

    const char msg[] = "data movement system";
    mm.store().write(0x8000, msg, sizeof(msg));
    char out[sizeof(msg)];
    mm.store().read(0x8000, out, sizeof(msg));
    EXPECT_STREQ(out, msg);
}

TEST(Ddr, ImageIsDemandZero)
{
    // A chip's DDR size is address space only: building a 1 GiB
    // image commits no host RAM for it, every byte reads zero until
    // written, and a written byte keeps its value.
    constexpr std::size_t gib = std::size_t(1) << 30;
    const long long before = residentBytes();
    MainMemory mm(mem::ddr3_1600, gib);
    const long long after = residentBytes();
    if (before >= 0 && after >= 0) {
        EXPECT_LT(after - before, 16ll << 20);
    }

    for (mem::Addr a : {mem::Addr(0), mem::Addr(gib / 2),
                        mem::Addr(gib - 1)}) {
        EXPECT_EQ(mm.store().load<std::uint8_t>(a), 0u) << a;
        mm.store().store<std::uint8_t>(a, 0x5a);
        EXPECT_EQ(mm.store().load<std::uint8_t>(a), 0x5au) << a;
    }
}

TEST(DdrDeathTest, ReadWrappingPastTheAddressSpaceDies)
{
    // addr + len wraps to 4: a sum-based bounds check passes it and
    // copies from 4 bytes below the image.
    MainMemory mm(mem::ddr3_1600, 1 << 20);
    std::uint64_t v = 0;
    EXPECT_DEATH(mm.store().read(~mem::Addr(0) - 3, &v, sizeof v),
                 "DDR read out of range");
}

TEST(DdrDeathTest, WriteWrappingPastTheAddressSpaceDies)
{
    MainMemory mm(mem::ddr3_1600, 1 << 20);
    const std::uint64_t v = ~std::uint64_t(0);
    EXPECT_DEATH(mm.store().write(~mem::Addr(0) - 3, &v, sizeof v),
                 "DDR write out of range");
}

TEST(Ddr, StreamingReadNearPeak)
{
    MainMemory mm(mem::ddr3_1600, 64 << 20);
    double gbs = streamBandwidthGBs(mm, 32 << 20, false);
    // DDR3-1600 peak is 12.8 GB/s; the paper's practical channel
    // limit is ~10 GB/s, which the model reproduces.
    EXPECT_GT(gbs, 9.3);
    EXPECT_LT(gbs, 10.8);
}

TEST(Ddr, StreamingWriteNearPeak)
{
    MainMemory mm(mem::ddr3_1600, 64 << 20);
    double gbs = streamBandwidthGBs(mm, 32 << 20, true);
    EXPECT_GT(gbs, 9.3);
    EXPECT_LT(gbs, 10.8);
}

TEST(Ddr, RandomAccessIsMuchSlower)
{
    MainMemory mm(mem::ddr3_1600, 64 << 20);
    // 64 B random reads with a stride that breaks row locality.
    std::uint8_t buf[64];
    sim::Tick done = 0;
    const int n = 4096;
    std::uint64_t addr = 0;
    for (int i = 0; i < n; ++i) {
        addr = (addr + 1234567) % ((64 << 20) - 64);
        addr &= ~63ull;
        done = mm.dmsRead(addr, buf, 64, done);
    }
    double gbs = double(n) * 64 / (double(done) * 1e-12) / 1e9;
    EXPECT_LT(gbs, 5.0); // row misses dominate
    EXPECT_GT(mm.statGroup().get("rowMisses"),
              mm.statGroup().get("rowHits"));
}

TEST(Ddr, SequentialStreamIsMostlyRowHits)
{
    MainMemory mm(mem::ddr3_1600, 8 << 20);
    streamBandwidthGBs(mm, 4 << 20, false);
    EXPECT_GT(mm.statGroup().get("rowHits"),
              20 * mm.statGroup().get("rowMisses"));
}

TEST(Ddr, Ddr4VariantIsFaster)
{
    MainMemory a(mem::ddr3_1600, 16 << 20);
    MainMemory b(mem::ddr4_3200x3, 16 << 20);
    double ga = streamBandwidthGBs(a, 8 << 20, false);
    double gb = streamBandwidthGBs(b, 8 << 20, false);
    // The 16 nm DPU's memory system provides 76 GB/s vs ~12.8
    // (Section 2.5) — roughly 6x.
    EXPECT_GT(gb / ga, 4.5);
    EXPECT_GT(gb, 60.0);
}

TEST(Ddr, CompletionTimesAreMonotonic)
{
    MainMemory mm(mem::ddr3_1600, 1 << 20);
    std::uint8_t buf[64];
    sim::Tick prev = 0;
    for (int i = 0; i < 100; ++i) {
        sim::Tick done = mm.dmsRead(std::uint64_t(i) * 64, buf, 64,
                                    prev);
        EXPECT_GT(done, prev);
        prev = done;
    }
}

TEST(Ddr, BytesCounted)
{
    MainMemory mm(mem::ddr3_1600, 1 << 20);
    std::uint8_t buf[256];
    mm.dmsRead(0, buf, 256, 0);
    mm.dmsWrite(0, buf, 128, 0);
    EXPECT_EQ(mm.statGroup().get("bytesRead"), 256u);
    EXPECT_EQ(mm.statGroup().get("bytesWritten"), 128u);
}
