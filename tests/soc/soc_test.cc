/**
 * @file
 * SoC assembly tests: the 40 nm and 16 nm configurations, the DDR
 * window, demand-zero SRAM carved from one region per chip, caches
 * built on first use, kernel scheduling across all cores, stats
 * plumbing, and cross-complex isolation at 16 nm.
 */

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/stats_registry.hh"
#include "soc/soc.hh"

// ThreadSanitizer maps shadow of its own beside each new region, so
// under it the process's mapping count measures the instrumentation.
#if defined(__SANITIZE_THREAD__)
#define DPU_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DPU_TEST_TSAN 1
#endif
#endif
#ifndef DPU_TEST_TSAN
#define DPU_TEST_TSAN 0
#endif

using namespace dpu;

namespace {

/** The process's kernel mappings (lines of /proc/self/maps), or -1
 *  where the file cannot be read. */
long
mappingCount()
{
    std::ifstream f("/proc/self/maps");
    if (!f)
        return -1;
    long n = 0;
    for (std::string line; std::getline(f, line);)
        ++n;
    return n;
}

/** Resident pages among the @p len bytes at page-aligned @p p. */
unsigned
residentPages(const void *p, std::size_t len)
{
    const std::size_t page = std::size_t(sysconf(_SC_PAGESIZE));
    std::vector<unsigned char> in((len + page - 1) / page);
    EXPECT_EQ(mincore(const_cast<void *>(p), len, in.data()), 0);
    unsigned n = 0;
    for (unsigned char c : in)
        n += c & 1;
    return n;
}

} // namespace

TEST(Soc, FortyNmMatchesPaperGeometry)
{
    soc::Soc s;
    EXPECT_EQ(s.nCores(), 32u);
    EXPECT_STREQ(s.params().ddr.name, "DDR3-1600");
    EXPECT_DOUBLE_EQ(s.params().provisionedWatts, 6.0);
    // The DDR image spans the whole window below the DMEM apertures.
    EXPECT_EQ(s.memory().store().size(), mem::dmemBase);
}

TEST(SocDeathTest, DdrOverlappingTheDmemAperturesDies)
{
    // DpCore and the ATE send every address from mem::dmemBase up to
    // a DMEM aperture, so a larger DDR image would give one address
    // two memories.
    soc::SocParams p = soc::dpu40nm();
    p.ddrBytes = mem::dmemBase + (1 << 20);
    EXPECT_DEATH(soc::Soc{p}, "DMEM apertures");
}

TEST(Soc, SramIsDemandZeroInABoundedNumberOfMappings)
{
    // The first chip also maps what the process sets up once (the
    // allocator's and a sanitizer's regions), so count a second.
    const soc::Soc first;
    const long before = mappingCount();
    soc::Soc s;
    // Two regions, each below its guard page: the DDR image and the
    // one block every SRAM (32 DMEMs, 32 L1-Ds, 4 L2s) is carved
    // from, plus a few that a growing heap may map. So a process
    // holds thousands of chips under the kernel's default 65,530
    // mappings.
    if (before >= 0 && !DPU_TEST_TSAN) {
        EXPECT_LE(mappingCount() - before, 2 * 2 + 16);
    }

    // A fresh chip reads all zero, yet holds no DMEM page until a
    // run writes one.
    for (unsigned i = 0; i < s.nCores(); ++i)
        ASSERT_EQ(residentPages(s.core(i).dmem().raw(), mem::dmemBytes),
                  0u)
            << "core " << i;
    s.core(5).dmem().store<std::uint32_t>(4096, 7);
    EXPECT_EQ(residentPages(s.core(5).dmem().raw(), mem::dmemBytes), 1u);
    std::vector<std::uint8_t> bytes(mem::dmemBytes, 1);
    s.core(6).dmem().read(0, bytes.data(), bytes.size());
    EXPECT_EQ(std::vector<std::uint8_t>(mem::dmemBytes, 0), bytes);
    EXPECT_EQ(s.core(5).dmem().load<std::uint32_t>(4096), 7u);
}

TEST(Soc, SixteenNmChipMapsTheSameTwoRegions)
{
    // 160 DMEMs, 160 L1-Ds and 20 L2s share one SRAM region, so the
    // 16 nm chip maps no more than the 40 nm one (682 mappings when
    // each SRAM had its own region).
    const soc::Soc first(soc::dpu16nm());
    const long before = mappingCount();
    soc::Soc s(soc::dpu16nm());
    if (before >= 0 && !DPU_TEST_TSAN) {
        EXPECT_LE(mappingCount() - before, 2 * 2 + 16);
    }
    // Neighbouring DMEMs share no byte, and a fresh one reads zero.
    s.core(0).dmem().store<std::uint32_t>(mem::dmemBytes - 4, 1);
    s.core(1).dmem().store<std::uint32_t>(0, 2);
    EXPECT_EQ(s.core(0).dmem().load<std::uint32_t>(mem::dmemBytes - 4),
              1u);
    EXPECT_EQ(s.core(1).dmem().load<std::uint32_t>(0), 2u);
    EXPECT_EQ(s.core(159).dmem().load<std::uint32_t>(0), 0u);
}

TEST(Soc, CachesAreBuiltOnFirstUse)
{
    sim::StatsRegistry &reg = sim::StatsRegistry::instance();
    soc::Soc s;
    s.memory().store().store<std::uint64_t>(0x2040, 0x1122334455667788);
    const std::size_t built = reg.groupCount();

    // Kernels that touch only DMEM build no cache: none of the 32
    // L1-Ds and 4 L2s registers a stat group.
    s.startAll([](core::DpCore &c) {
        c.store<std::uint32_t>(c.dmemBase() + 64, c.id());
        c.cycles(c.load<std::uint32_t>(c.dmemBase() + 64) + 1);
    });
    s.run();
    EXPECT_EQ(reg.groupCount(), built);
    for (const auto &[key, value] : reg.snapshot().counters) {
        EXPECT_EQ(key.find(".l1d"), std::string::npos) << key;
        EXPECT_EQ(key.find(".l2"), std::string::npos) << key;
    }

    // Core 9's first cached load builds its L1-D and macro 1's L2,
    // and reads the DDR bytes through them.
    std::uint64_t got = 0;
    s.start(9, [&got](core::DpCore &c) {
        got = c.load<std::uint64_t>(0x2040);
    });
    s.run();
    EXPECT_EQ(got, 0x1122334455667788u);
    EXPECT_EQ(reg.groupCount(), built + 2);
    const sim::StatsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("core9.l1d.misses"), 1u);
    EXPECT_EQ(snap.counters.at("macro1.l2.misses"), 1u);
    EXPECT_EQ(snap.counters.count("core8.l1d.misses"), 0u);
}

TEST(Soc, ACacheBuiltLateTakesItsOwnersPlaceAmongNamesakes)
{
    // Two chips' core-0 L1-Ds share a name, told apart by "#N" in
    // the order of their cores, whichever cache is built first: the
    // names do not depend on when, or on which thread, a run first
    // caches.
    soc::Soc a, b;
    b.start(0, [](core::DpCore &c) { (void)c.load<std::uint32_t>(0); });
    b.run();
    a.start(0, [](core::DpCore &c) {
        (void)c.load<std::uint32_t>(0);
        (void)c.load<std::uint32_t>(4096);
    });
    a.run();
    const sim::StatsSnapshot snap =
        sim::StatsRegistry::instance().snapshot();
    EXPECT_EQ(snap.counters.at("core0.l1d.misses"), 2u);
    EXPECT_EQ(snap.counters.at("core0.l1d#1.misses"), 1u);
    EXPECT_EQ(snap.counters.at("macro0.l2.misses"), 2u);
    EXPECT_EQ(snap.counters.at("macro0.l2#1.misses"), 1u);
}

TEST(Soc, SixteenNmShrink)
{
    soc::Soc s(soc::dpu16nm());
    // Section 2.5: 160 dpCores in five 32-core complexes, 76 GB/s.
    EXPECT_EQ(s.nCores(), 160u);
    EXPECT_EQ(s.params().nComplexes, 5u);
    EXPECT_GT(s.params().ddr.peakBytesPerSec(), 70e9);
    EXPECT_DOUBLE_EQ(s.params().provisionedWatts, 12.0);
}

TEST(Soc, StartAllRunsTheSameImageEverywhere)
{
    soc::Soc s;
    std::vector<int> ran(32, 0);
    s.startAll([&](core::DpCore &c) {
        ran[c.id()] = 1;
        c.cycles(10 * (c.id() + 1));
    });
    s.run();
    EXPECT_TRUE(s.allFinished());
    for (int r : ran)
        EXPECT_EQ(r, 1);
}

TEST(Soc, RunForLimitsSimulatedTime)
{
    soc::Soc s;
    s.start(0, [](core::DpCore &c) {
        for (int i = 0; i < 1000; ++i)
            c.sleepCycles(100000);
    });
    s.runFor(1'000'000); // 1 us
    EXPECT_FALSE(s.allFinished());
    EXPECT_LE(s.now(), 2'000'000u);
}

TEST(Soc, StatsDumpContainsAllGroups)
{
    soc::Soc s;
    s.start(0, [](core::DpCore &c) {
        c.alu(100);
        (void)c.load<std::uint64_t>(0x1000); // touch DDR
    });
    s.run();
    std::ostringstream os;
    s.dumpStats(os);
    std::string out = os.str();
    EXPECT_NE(out.find("core0.aluOps = 100"), std::string::npos);
    EXPECT_NE(out.find("ddr.bytesRead"), std::string::npos);
}

TEST(Soc, SixteenNmComplexesHaveIndependentDmsAndAte)
{
    soc::Soc s(soc::dpu16nm());
    // Core 40 belongs to complex 1.
    EXPECT_EQ(&s.dmsFor(40), &s.dms(1));
    EXPECT_EQ(&s.ateFor(40), &s.ate(1));
    EXPECT_NE(&s.dms(0), &s.dms(1));

    // An ATE fetch-add inside complex 1 works with global ids.
    s.core(33).dmem().store<std::uint64_t>(0, 0);
    s.start(40, [&](core::DpCore &c) {
        s.ateFor(40).fetchAdd(c, 33, mem::dmemAddr(33, 0), 5, 8);
    });
    s.run();
    EXPECT_EQ(s.core(33).dmem().load<std::uint64_t>(0), 5u);
}

TEST(Soc, SecondsTracksTicks)
{
    soc::Soc s;
    s.start(0, [](core::DpCore &c) { c.sleepCycles(800'000'000); });
    s.run(); // 800 M cycles at 800 MHz = 1 s
    EXPECT_NEAR(s.seconds(), 1.0, 1e-6);
}
