/**
 * @file
 * The per-dpCore DMAD (DMA DMEM unit, Section 3.1).
 *
 * Software pushes a DMEM pointer naming a 16 B descriptor onto one
 * of two channels; the DMAD fetches and decodes it, links it onto
 * the channel's active list, and walks the list: honouring loop
 * control descriptors (with a fixed iteration count and source/
 * destination auto-increment registers), event preconditions (a data
 * descriptor whose notify event is still set waits for the consumer
 * to clear it), and a bounded in-flight window to the DMAC (max 4
 * descriptors outstanding, Section 3.1).
 */

#ifndef DPU_DMS_DMAD_HH
#define DPU_DMS_DMAD_HH

#include <cstdint>
#include <vector>

#include "dms/descriptor.hh"
#include "dms/dmac.hh"
#include "dms/dms_context.hh"

namespace dpu::dms {

/** Number of DMS channels per dpCore (read + write, typically). */
constexpr unsigned channelsPerCore = 2;

/** One dpCore's descriptor front-end. */
class Dmad
{
  public:
    Dmad(DmsContext &ctx, Dmac &dmac, unsigned core_id);

    /**
     * Push the descriptor stored at DMEM offset @p desc_addr onto
     * channel @p ch. Called from glue code at the pushing core's
     * current simulated time; the DMAD fetches the 16 B from DMEM.
     */
    void push(unsigned ch, std::uint16_t desc_addr);

  private:
    struct Entry
    {
        Descriptor d;
        std::uint16_t dmemAddr = 0;   ///< where the descriptor lives
        /** Loop bookkeeping. */
        std::uint16_t remaining = 0;
    };

    struct Channel
    {
        std::vector<Entry> list;
        std::size_t pc = 0;
        unsigned inflight = 0;
        /** Events this channel has promised to set at a future tick
         *  (prevents a loop from re-reading a stale clear state). */
        std::uint32_t pendingSet = 0;
        bool waiting = false;   ///< parked on an event edge
        /**
         * Per-channel auto-increment address registers (Section
         * 3.1: "It also has source and destination address
         * registers to support auto-increment functionality within
         * DMS loops"). The first descriptor executed with the
         * AddrInc flag arms the register; every subsequent one
         * consumes and advances it — which is why Listing 1 can
         * pass the SAME src_addr to both ping-pong descriptors.
         */
        bool srcArmed = false;
        mem::Addr srcReg = 0;
        bool dstArmed = false;
        std::uint32_t dstReg = 0;
    };

    void process(unsigned ch);
    /**
     * Schedule the completion of an in-flight data descriptor at
     * tick @p t: close its trace span, set the notify event (with
     * error status when @p error), release the in-flight slot and
     * resume the channel.
     */
    void completeAt(sim::Tick t, unsigned ch, int notify,
                    std::uint64_t span_id, const char *desc_name,
                    bool error);
    /** Park the channel until @p ev of this core clears. */
    void parkOnClear(unsigned ch, unsigned ev);
    /** Park the channel until @p ev of this core sets. */
    void parkOnSet(unsigned ch, unsigned ev);
    std::size_t findEntry(const Channel &c,
                          std::uint16_t link_addr) const;

    DmsContext &ctx;
    Dmac &dmac;
    unsigned coreId;
    std::vector<Channel> channels;
};

} // namespace dpu::dms

#endif // DPU_DMS_DMAD_HH
