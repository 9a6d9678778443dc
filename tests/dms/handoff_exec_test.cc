/**
 * @file
 * Hand-off plan EXECUTION over the real descriptor path. PR 8's
 * handoff_test.cc pins the pure planning laws; this suite drives the
 * plans: HandoffExec must stage chunks through a real DdrToDmem
 * chain whose boundaries match planRangeHandoff() exactly, complete
 * in (tick, seq) order, and self-throttle on the ping-pong events;
 * HandoffLander must land delivered payloads byte-exactly into DDR,
 * tolerate reordered deliveries, and drop stale generations.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dms/handoff.hh"
#include "dms/handoff_exec.hh"
#include "sim/fault.hh"
#include "sim/stats.hh"
#include "soc/soc.hh"

using namespace dpu;
using dms::HandoffExec;
using dms::HandoffLander;
using dms::HandoffPlan;
using dms::planRangeHandoff;

namespace {

constexpr mem::Addr srcBase = 0x40000;
constexpr mem::Addr dstBase = 0x80000;
constexpr std::uint64_t stateBytes = 1152; // 4 x 256 + 128 tail
/** Chunks smaller than the staging buffers, so a short state range
 *  still makes a five-chunk plan. */
constexpr std::uint64_t chunkBytes = 256;

/** DMEM offset of the exec role's staging buffer for @p chunk. */
std::uint32_t
stagedAt(unsigned chunk)
{
    return dms::execBufBase + (chunk % 2) * dms::stagingBufBytes;
}

std::uint8_t
patByte(std::uint64_t i)
{
    return std::uint8_t(0xA5 ^ (i * 31) ^ (i >> 7));
}

void
seedSource(soc::Soc &s)
{
    std::vector<std::uint8_t> img(stateBytes);
    for (std::uint64_t i = 0; i < stateBytes; ++i)
        img[i] = patByte(i);
    s.memory().store().write(srcBase, img.data(), img.size());
}

std::vector<std::uint8_t>
ddrImage(soc::Soc &s, mem::Addr base)
{
    std::vector<std::uint8_t> img(stateBytes);
    s.memory().store().read(base, img.data(), img.size());
    return img;
}

struct PlaneGuard
{
    PlaneGuard() { sim::faultPlane().reset(); }
    ~PlaneGuard() { sim::faultPlane().reset(); }
};

} // namespace

// ----------------------------------------------------------------
// The driver's chain is the plan's chain
// ----------------------------------------------------------------

TEST(HandoffExecTest, ChainMatchesPlanBoundariesExactly)
{
    soc::Soc s;
    seedSource(s);
    HandoffExec exec(s.dms(), 0, s.core(0).dmem());

    const HandoffPlan plan =
        planRangeHandoff(srcBase, stateBytes, chunkBytes, 8);
    ASSERT_EQ(plan.chunks.size(), 5u);

    HandoffExec *e = &exec;
    exec.start(plan, [e](unsigned chunk, bool) {
        e->release(chunk);
    });

    // Byte-for-byte the chain plan.descriptors() would emit: same
    // chunk boundaries, ping-pong buffers, alternating events.
    const std::vector<dms::Descriptor> want = plan.descriptors(
        dms::execBufBase, dms::stagingBufBytes,
        std::int8_t(dms::execEventA), std::int8_t(dms::execEventB));
    ASSERT_EQ(exec.chain().size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        const dms::Descriptor &g = exec.chain()[i];
        EXPECT_EQ(g.type, dms::DescType::DdrToDmem) << i;
        EXPECT_EQ(g.ddrAddr, plan.chunks[i].ddrAddr) << i;
        EXPECT_EQ(g.rows, plan.chunks[i].rows) << i;
        EXPECT_EQ(g.colWidth, plan.chunks[i].colWidth) << i;
        EXPECT_EQ(g.dmemAddr, want[i].dmemAddr) << i;
        EXPECT_EQ(g.notifyEvent, want[i].notifyEvent) << i;
        // The ping-pong law, spelled out: even chunks fill the ping
        // buffer and notify eventA, odd chunks the pong / eventB.
        EXPECT_EQ(g.dmemAddr, stagedAt(unsigned(i))) << i;
        EXPECT_EQ(g.notifyEvent, std::int8_t(i % 2 ? dms::execEventB
                                                   : dms::execEventA))
            << i;
    }

    s.run();
    EXPECT_EQ(exec.chunksStaged(), 5u);
    EXPECT_EQ(exec.chunksReleased(), 5u);
    EXPECT_FALSE(exec.active());
}

TEST(HandoffExecTest, StagesSourceBytesInTickSeqOrder)
{
    soc::Soc s;
    seedSource(s);
    HandoffExec exec(s.dms(), 0, s.core(0).dmem());

    const HandoffPlan plan =
        planRangeHandoff(srcBase, stateBytes, chunkBytes, 8);

    std::vector<unsigned> order;
    std::vector<sim::Tick> ticks;
    std::vector<bool> match;
    exec.start(plan, [&](unsigned chunk, bool error) {
        EXPECT_FALSE(error);
        order.push_back(chunk);
        ticks.push_back(s.now());
        // Snapshot the staging buffer BEFORE releasing: the bytes
        // must be exactly this chunk's DDR slice.
        const dms::HandoffChunk &c = plan.chunks[chunk];
        std::vector<std::uint8_t> got(c.bytes());
        s.core(0).dmem().read(stagedAt(chunk), got.data(), got.size());
        bool ok = true;
        for (std::uint64_t i = 0; i < c.bytes(); ++i)
            ok = ok && got[i] == patByte(c.ddrAddr - srcBase + i);
        match.push_back(ok);
        exec.release(chunk);
    });
    s.run();

    // Completions arrive in (tick, seq) order: chunk indices exactly
    // 0..n-1, at non-decreasing ticks.
    ASSERT_EQ(order.size(), plan.chunks.size());
    for (unsigned i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
    for (std::size_t i = 1; i < ticks.size(); ++i)
        EXPECT_GE(ticks[i], ticks[i - 1]);
    for (std::size_t i = 0; i < match.size(); ++i)
        EXPECT_TRUE(match[i]) << "chunk " << i << " bytes differ";
}

TEST(HandoffExecTest, ChainSelfThrottlesOnUnreleasedBuffers)
{
    soc::Soc s;
    seedSource(s);
    HandoffExec exec(s.dms(), 0, s.core(0).dmem());

    const HandoffPlan plan =
        planRangeHandoff(srcBase, stateBytes, chunkBytes, 8);
    exec.start(plan, [](unsigned, bool) { /* hold every buffer */ });

    // With neither buffer released, the chain parks after filling
    // ping and pong: descriptor i+2 waits on buffer i's event.
    s.run();
    EXPECT_EQ(exec.chunksStaged(), 2u);
    EXPECT_TRUE(exec.active());

    // Each release lets exactly one more descriptor through.
    exec.release(0);
    s.run();
    EXPECT_EQ(exec.chunksStaged(), 3u);
    exec.release(1);
    s.run();
    EXPECT_EQ(exec.chunksStaged(), 4u);
    exec.release(2);
    exec.release(3);
    s.run();
    EXPECT_EQ(exec.chunksStaged(), 5u);
    exec.release(4);
    EXPECT_FALSE(exec.active());
    EXPECT_EQ(exec.chunksReleased(), 5u);
}

TEST(HandoffExecTest, DescriptorErrorSurfacesToConsumer)
{
    PlaneGuard g;
    sim::faultPlane().configure("dms.descError@p=1,max=1", 7);

    soc::Soc s;
    seedSource(s);
    HandoffExec exec(s.dms(), 0, s.core(0).dmem());

    unsigned errors = 0;
    exec.start(planRangeHandoff(srcBase, stateBytes, chunkBytes, 8),
               [&](unsigned chunk, bool error) {
                   if (error)
                       ++errors;
                   exec.release(chunk);
               });
    s.run();

    // The plane's budget of one: exactly one chunk completes with
    // the error flag; the chain still finishes past it.
    EXPECT_EQ(errors, 1u);
    EXPECT_EQ(exec.chunksStaged(), 5u);
    EXPECT_FALSE(exec.active());
}

// ----------------------------------------------------------------
// Lander: byte-exact landing, reorder tolerance, stale generations
// ----------------------------------------------------------------

namespace {

/** Deliver every chunk of the canonical plan to @p lander with the
 *  source pattern's bytes, in @p order. */
void
deliverAll(HandoffLander &lander, unsigned gen,
           const HandoffPlan &plan, const std::vector<unsigned> &order)
{
    for (unsigned chunk : order) {
        const dms::HandoffChunk &c = plan.chunks[chunk];
        std::vector<std::uint8_t> payload(c.bytes());
        for (std::uint64_t i = 0; i < c.bytes(); ++i)
            payload[i] = patByte(c.ddrAddr - srcBase + i);
        lander.deliver(gen, chunk,
                       dstBase + (c.ddrAddr - srcBase), payload,
                       c.colWidth);
    }
}

} // namespace

TEST(HandoffLanderTest, LandsDeliveredChunksByteExactly)
{
    soc::Soc s;
    sim::StatGroup g("handoff");
    HandoffLander lander(s.dms(), 0, s.core(0).dmem(), g);

    const HandoffPlan plan =
        planRangeHandoff(srcBase, stateBytes, chunkBytes, 8);
    const unsigned gen = lander.expect(unsigned(plan.chunks.size()));
    deliverAll(lander, gen, plan, {0, 1, 2, 3, 4});
    s.run();

    EXPECT_EQ(lander.landed(), 5u);
    EXPECT_EQ(lander.failed(), 0u);
    EXPECT_FALSE(lander.busy());
    const std::vector<std::uint8_t> img = ddrImage(s, dstBase);
    for (std::uint64_t i = 0; i < stateBytes; ++i)
        ASSERT_EQ(img[i], patByte(i)) << "byte " << i;
}

TEST(HandoffLanderTest, ToleratesReorderedDeliveries)
{
    soc::Soc s;
    sim::StatGroup g("handoff");
    HandoffLander lander(s.dms(), 0, s.core(0).dmem(), g);

    const HandoffPlan plan =
        planRangeHandoff(srcBase, stateBytes, chunkBytes, 8);
    const unsigned gen = lander.expect(unsigned(plan.chunks.size()));

    // Retransmit-style reorder: later chunks first. Chunks whose
    // ping/pong buffer is occupied queue and land once it frees.
    deliverAll(lander, gen, plan, {1, 0, 3, 2, 4});
    EXPECT_TRUE(lander.busy());
    s.run();

    EXPECT_EQ(lander.landed(), 5u);
    EXPECT_EQ(lander.staleDeliveries(), 0u);
    EXPECT_FALSE(lander.busy());
    const std::vector<std::uint8_t> img = ddrImage(s, dstBase);
    for (std::uint64_t i = 0; i < stateBytes; ++i)
        ASSERT_EQ(img[i], patByte(i)) << "byte " << i;
}

TEST(HandoffLanderTest, StaleGenerationsDropWithoutLanding)
{
    soc::Soc s;
    sim::StatGroup g("handoff");
    HandoffLander lander(s.dms(), 0, s.core(0).dmem(), g);

    const HandoffPlan plan =
        planRangeHandoff(srcBase, stateBytes, chunkBytes, 8);
    const unsigned aborted =
        lander.expect(unsigned(plan.chunks.size()));
    lander.cancel();

    // The aborted migration's leftovers arrive after the cancel:
    // dropped, counted, no bytes move.
    deliverAll(lander, aborted, plan, {0, 1});
    s.run();
    EXPECT_EQ(lander.staleDeliveries(), 2u);
    EXPECT_EQ(g.get("staleDeliveries"), 2u);
    EXPECT_EQ(lander.landed(), 0u);
    EXPECT_FALSE(lander.busy());
    const std::vector<std::uint8_t> img = ddrImage(s, dstBase);
    for (std::uint64_t i = 0; i < stateBytes; ++i)
        ASSERT_EQ(img[i], 0u) << "stale delivery moved byte " << i;

    // A successor migration re-arms cleanly with a fresh token
    // (cancel() already burned one generation).
    const unsigned fresh = lander.expect(2);
    EXPECT_GT(fresh, aborted);
    deliverAll(lander, fresh, plan, {0, 1});
    s.run();
    EXPECT_EQ(lander.landed(), 2u);
}

// ----------------------------------------------------------------
// Round trip: exec stages, lander lands, images match
// ----------------------------------------------------------------

TEST(HandoffExecTest, RoundTripReproducesSourceImage)
{
    soc::Soc s;
    seedSource(s);
    HandoffExec exec(s.dms(), 0, s.core(0).dmem());
    sim::StatGroup g("handoff");
    HandoffLander lander(s.dms(), 0, s.core(0).dmem(), g);

    const HandoffPlan plan =
        planRangeHandoff(srcBase, stateBytes, chunkBytes, 8);
    const unsigned gen = lander.expect(unsigned(plan.chunks.size()));

    // The exec's consumer plays the balancer's shipping loop with a
    // zero-latency link: snapshot the staged buffer, release it,
    // hand the payload straight to the lander.
    exec.start(plan, [&](unsigned chunk, bool error) {
        ASSERT_FALSE(error);
        const dms::HandoffChunk &c = plan.chunks[chunk];
        std::vector<std::uint8_t> payload(c.bytes());
        s.core(0).dmem().read(stagedAt(chunk), payload.data(),
                              payload.size());
        exec.release(chunk);
        lander.deliver(gen, chunk,
                       dstBase + (c.ddrAddr - srcBase), payload,
                       c.colWidth);
    });
    s.run();

    EXPECT_FALSE(exec.active());
    EXPECT_EQ(lander.landed(), plan.chunks.size());
    EXPECT_FALSE(lander.busy());
    EXPECT_EQ(ddrImage(s, dstBase), ddrImage(s, srcBase));
}

// ----------------------------------------------------------------
// Misuse is loud
// ----------------------------------------------------------------

TEST(HandoffExecDeathTest, StartWhileActiveDies)
{
    soc::Soc s;
    seedSource(s);
    HandoffExec exec(s.dms(), 0, s.core(0).dmem());
    const HandoffPlan plan =
        planRangeHandoff(srcBase, stateBytes, chunkBytes, 8);
    exec.start(plan, [](unsigned, bool) {});
    EXPECT_DEATH(exec.start(plan, [](unsigned, bool) {}),
                 "already running");
}

TEST(HandoffExecDeathTest, ReleaseBeforeStagingDies)
{
    soc::Soc s;
    seedSource(s);
    HandoffExec exec(s.dms(), 0, s.core(0).dmem());
    exec.start(planRangeHandoff(srcBase, stateBytes, chunkBytes, 8),
               [](unsigned, bool) {});
    EXPECT_DEATH(exec.release(0), "release before staging");
}

TEST(HandoffExecDeathTest, PlanOverrunningChainWindowDies)
{
    soc::Soc s;
    HandoffExec exec(s.dms(), 0, s.core(0).dmem());
    // One 16 B descriptor per chunk: a plan one chunk longer than
    // the window holds.
    const unsigned window = dms::execChainBytes / 16;
    const HandoffPlan plan = planRangeHandoff(
        srcBase, (window + 1) * chunkBytes, chunkBytes, 8);
    ASSERT_EQ(plan.chunks.size(), window + 1);
    EXPECT_DEATH(exec.start(plan, [](unsigned, bool) {}),
                 "overruns the chain");
}

TEST(HandoffLanderDeathTest, OversizePayloadDies)
{
    soc::Soc s;
    sim::StatGroup g("handoff");
    HandoffLander lander(s.dms(), 0, s.core(0).dmem(), g);
    const unsigned gen = lander.expect(1);
    const std::vector<std::uint8_t> fat(2 * dms::stagingBufBytes, 0);
    EXPECT_DEATH(lander.deliver(gen, 0, dstBase, fat, 8),
                 "bounce buffer");
}

TEST(HandoffLanderDeathTest, RaggedPayloadDies)
{
    soc::Soc s;
    sim::StatGroup g("handoff");
    HandoffLander lander(s.dms(), 0, s.core(0).dmem(), g);
    const unsigned gen = lander.expect(1);
    const std::vector<std::uint8_t> ragged(12, 0);
    EXPECT_DEATH(lander.deliver(gen, 0, dstBase, ragged, 8),
                 "whole number of rows");
}

TEST(HandoffLanderDeathTest, ReArmWhileBusyDies)
{
    soc::Soc s;
    sim::StatGroup g("handoff");
    HandoffLander lander(s.dms(), 0, s.core(0).dmem(), g);
    const unsigned gen = lander.expect(1);
    const std::vector<std::uint8_t> payload(64, 1);
    lander.deliver(gen, 0, dstBase, payload, 8);
    EXPECT_DEATH(lander.expect(1), "re-armed while busy");
}
