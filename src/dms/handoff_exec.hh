/**
 * @file
 * Hand-off plan execution: drive planRangeHandoff() staging plans
 * through the real descriptor path.
 *
 * The plans (dms/handoff.hh) are pure chunking functions that both
 * ends of a migration can compute independently, and they execute
 * nothing: the rack tier charges a flat transfer, and the DMS model
 * never sees the bytes. This driver closes that gap for the board
 * tier. Two halves, one per endpoint role:
 *
 *  - HandoffExec (source DPU): encodes the plan's DdrToDmem chain
 *    into a dedicated engine core's DMEM, pushes the whole chain on
 *    one DMS channel, and surfaces each chunk as it lands in the
 *    ping-pong staging buffer. The chain self-throttles exactly the
 *    way Listing 1's double buffer does: descriptor i+2 reuses
 *    buffer i's completion event as its notify event, so the DMAD
 *    parks it until the consumer release()s chunk i (clearing the
 *    event). The consumer snapshots the buffer, releases, and ships
 *    the bytes over the link fabric.
 *
 *  - HandoffLander (destination DPU): receives chunk payloads (in
 *    any order — link retransmits reorder them), lands each through
 *    a DMEM bounce buffer with a DmemToDdr descriptor, and reports
 *    completion per chunk. A generation token makes deliveries from
 *    an aborted migration harmlessly stale instead of corrupting a
 *    successor.
 *
 * Both halves run entirely on their own DPU's event-queue partition:
 * the exec's callbacks fire from DMS completion events on the source
 * partition, the lander's from delivered bulk messages on the
 * destination partition. Cross-DPU coordination is the caller's job
 * (board/balance.hh ships chunks through LinkFabric sends), so
 * parallel board runs stay bit-identical.
 */

#ifndef DPU_DMS_HANDOFF_EXEC_HH
#define DPU_DMS_HANDOFF_EXEC_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "dms/handoff.hh"
#include "mem/dmem.hh"
#include "sim/stats.hh"

namespace dpu::dms {

class Dms;

/** Bytes per ping-pong buffer of either role: the largest chunk a
 *  plan may stage or a lander may land. */
constexpr std::uint16_t stagingBufBytes = 2048;

// The two roles' fixed layouts on one engine core. They share no
// DMS channel, DMEM byte or event, so a DPU can source one
// migration while landing another.

/** Source role (HandoffExec): DMS channel, ping buffer (pong at
 *  +stagingBufBytes), descriptor chain window of 16 B slots, and
 *  the ping / pong completion events. */
constexpr unsigned execChannel = 0;
constexpr std::uint16_t execBufBase = 0x5000;
constexpr std::uint16_t execChainBase = 0x6000;
constexpr std::uint16_t execChainBytes = 0x800;
constexpr unsigned execEventA = 16, execEventB = 17;

/** Destination role (HandoffLander): DMS channel, ping bounce
 *  buffer, two 16 B descriptor slots (ping, pong), and events. */
constexpr unsigned landerChannel = 1;
constexpr std::uint16_t landerBufBase = 0x4000;
constexpr std::uint16_t landerSlotBase = 0x6800;
constexpr unsigned landerEventA = 18, landerEventB = 19;

/**
 * Source half: stage a plan's chunks into DMEM through the real
 * DdrToDmem descriptor chain, one callback per staged chunk.
 */
class HandoffExec
{
  public:
    /** @p on_staged fires on the owning partition as each chunk's
     *  descriptor completes; @p error reports a descriptor-level
     *  error completion (dms.descError) — the buffer is garbage. */
    using ChunkFn = std::function<void(unsigned chunk, bool error)>;

    /** @p core_id is the engine core's id LOCAL to @p dms's complex;
     *  @p dmem is that core's DMEM. */
    HandoffExec(Dms &dms, unsigned core_id, mem::Dmem &dmem);

    /** Encode + push the whole chain (event context, source DPU).
     *  One plan at a time: asserts !active(). */
    void start(const HandoffPlan &plan, ChunkFn on_staged);

    /** Consumer done with @p chunk's buffer: clear its event so the
     *  chain refills it. Every staged chunk must be released, even
     *  after an error, or the chain wedges by design. */
    void release(unsigned chunk);

    /** True from start() until every chunk was released. */
    bool
    active() const
    {
        return total > 0 && released < total;
    }

    unsigned chunksStaged() const { return staged; }
    unsigned chunksReleased() const { return released; }
    /** The encoded chain of the current/last plan (test probe). */
    const std::vector<Descriptor> &chain() const { return descs; }

  private:
    void onStaged(unsigned buf);
    unsigned eventOf(unsigned chunk) const;

    Dms &dms;
    unsigned coreId;
    mem::Dmem &dmem;
    std::vector<Descriptor> descs;
    ChunkFn cb;
    unsigned total = 0;
    unsigned staged = 0;
    unsigned released = 0;
    /** Next chunk index each buffer's event announces. */
    unsigned nextFor[2] = {0, 1};
};

/**
 * Destination half: land delivered chunk payloads into DDR through
 * DmemToDdr descriptors, tolerating reordered and stale deliveries.
 */
class HandoffLander
{
  public:
    /** Counts stale deliveries into @p stats's "staleDeliveries"
     *  cell, which must outlive the lander's last count. */
    HandoffLander(Dms &dms, unsigned core_id, mem::Dmem &dmem,
                  sim::StatGroup &stats);

    /**
     * Arm the lander for a migration of @p total_chunks (host
     * phase). @return the generation token deliveries must carry;
     * deliveries with any other token are dropped as stale.
     */
    unsigned expect(unsigned total_chunks);

    /**
     * Deliver one chunk (event context, destination DPU): copy
     * @p payload into the bounce buffer and land it at @p ddr via a
     * DmemToDdr descriptor. Out-of-order chunks queue until their
     * ping/pong buffer frees.
     */
    void deliver(unsigned generation, unsigned chunk, mem::Addr ddr,
                 const std::vector<std::uint8_t> &payload,
                 std::uint8_t col_width);

    /** Abandon the armed migration (host phase): later deliveries
     *  go stale, queued ones are discarded. In-flight descriptors
     *  still complete; wait for !busy() before re-arming. */
    void cancel();

    /** Buffers occupied or deliveries queued. */
    bool busy() const;

    unsigned landed() const { return landedCnt; }
    unsigned failed() const { return failedCnt; }
    std::uint64_t staleDeliveries() const { return stale.value(); }

  private:
    struct Queued
    {
        unsigned chunk = 0;
        mem::Addr ddr = 0;
        std::vector<std::uint8_t> payload;
        std::uint8_t colWidth = 8;
    };

    void pump();
    void land(const Queued &q);
    void onLanded(unsigned expect_gen, unsigned buf, unsigned chunk);
    unsigned eventOf(unsigned chunk) const;

    Dms &dms;
    unsigned coreId;
    mem::Dmem &dmem;
    std::deque<Queued> fifo;
    bool bufBusy[2] = {false, false};
    unsigned gen = 0;
    unsigned total = 0;
    unsigned landedCnt = 0;
    unsigned failedCnt = 0;
    sim::Counter stale;
};

} // namespace dpu::dms

#endif // DPU_DMS_HANDOFF_EXEC_HH
