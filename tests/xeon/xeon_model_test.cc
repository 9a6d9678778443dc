/**
 * @file
 * Xeon roofline-model tests: the max(compute, memory) + serial
 * phase semantics, the published calibration anchors (34.5 GB/s
 * effective stream bandwidth; SAJSON's 5.2 GB/s at 48 uops/byte),
 * and thread scaling.
 */

#include <gtest/gtest.h>

#include "xeon/xeon_model.hh"

using dpu::xeon::XeonModel;

TEST(XeonModel, MemoryBoundPhaseIsBytesOverBandwidth)
{
    XeonModel m;
    m.streamBytes(34.5e9); // one second worth
    m.endPhase();
    EXPECT_NEAR(m.seconds(), 1.0, 1e-9);
}

TEST(XeonModel, ComputeBoundPhaseUsesAllThreads)
{
    XeonModel m(36);
    // 36 cores x 2.3 GHz x 3 IPC = 248.4 G uops/s.
    m.scalarOps(248.4e9);
    m.endPhase();
    EXPECT_NEAR(m.seconds(), 1.0, 1e-6);
}

TEST(XeonModel, PhaseTakesMaxOfComputeAndMemory)
{
    XeonModel slow_mem;
    slow_mem.streamBytes(34.5e9);
    slow_mem.scalarOps(1e9); // negligible compute
    slow_mem.endPhase();

    XeonModel slow_cpu;
    slow_cpu.streamBytes(1e6);
    slow_cpu.scalarOps(248.4e9);
    slow_cpu.endPhase();

    EXPECT_NEAR(slow_mem.seconds(), 1.0, 1e-3);
    EXPECT_NEAR(slow_cpu.seconds(), 1.0, 1e-3);
}

TEST(XeonModel, SerialWorkAddsOnTop)
{
    XeonModel m;
    m.streamBytes(34.5e9);
    m.serialOps(2.3e9 * 3); // one second of one core
    m.endPhase();
    EXPECT_NEAR(m.seconds(), 2.0, 1e-3);
}

TEST(XeonModel, SimdDividesByLaneCount)
{
    XeonModel scalar, simd;
    scalar.scalarOps(8e9);
    simd.simdOps(8e9);
    scalar.endPhase();
    simd.endPhase();
    EXPECT_NEAR(scalar.seconds() / simd.seconds(), 8.0, 1e-6);
}

TEST(XeonModel, RandomBytesAreSlowerThanStreamed)
{
    XeonModel stream, random;
    stream.streamBytes(1e9);
    random.randomBytes(1e9);
    stream.endPhase();
    random.endPhase();
    EXPECT_GT(random.seconds(), 3.0 * stream.seconds());
}

TEST(XeonModel, FewerThreadsSlowCompute)
{
    XeonModel full(36);
    XeonModel half(18);
    full.scalarOps(1e10);
    half.scalarOps(1e10);
    full.endPhase();
    half.endPhase();
    EXPECT_NEAR(half.seconds() / full.seconds(), 2.0, 1e-6);
}

TEST(XeonModel, SajsonAnchorReproduces)
{
    // Section 5.5: SAJSON parses at 5.2 GB/s on the 36-core box.
    XeonModel m;
    const double bytes = 1e9;
    m.scalarOps(bytes * 48.0);
    m.streamBytes(bytes);
    m.endPhase();
    double gbs = bytes / m.seconds() / 1e9;
    EXPECT_NEAR(gbs, 5.2, 0.3);
}

TEST(XeonModel, OpenPhaseCountsTowardSeconds)
{
    XeonModel m;
    m.streamBytes(34.5e9);
    // No endPhase(): seconds() must still include it.
    EXPECT_NEAR(m.seconds(), 1.0, 1e-9);
    m.endPhase();
    EXPECT_NEAR(m.seconds(), 1.0, 1e-9);
}
