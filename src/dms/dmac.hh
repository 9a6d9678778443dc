/**
 * @file
 * The central DMA Controller (Sections 3.1-3.2, Figure 8).
 *
 * Owns the internal SRAMs (3 x 8 KB column memories, double-buffered
 * CRC and CID memories, 4 x 4 KB bit-vector banks), four load/store
 * engines (one per DMAX/macro), the hash engine (CRC32 + radix
 * extraction) and the 32-entry range comparator. Executes decoded
 * data descriptors with a timestamp-based resource model: every
 * engine, internal bank, DMAX bus and the DDR channel carries a
 * busy-until tick, so the three-stage partition pipeline of Figure 9
 * (load / hash+CID / store) overlaps exactly when the software
 * rotates banks as in Figure 10.
 *
 * Partition stores apply real back-pressure: when a destination
 * core's DMEM buffer ring is full (its event is still set because
 * the core has not consumed the buffer), the store engine suspends
 * and resumes on the event's clearing edge — "the DMAC hardware thus
 * applies back pressure to restore flow control" (Section 3.1).
 */

#ifndef DPU_DMS_DMAC_HH
#define DPU_DMS_DMAC_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "dms/descriptor.hh"
#include "dms/dms_context.hh"
#include "sim/stats.hh"

namespace dpu::dms {

/** Completion callback: invoked once with the finish tick. */
using DoneFn = std::function<void(sim::Tick)>;

/** The central DMA controller. */
class Dmac
{
  public:
    explicit Dmac(DmsContext &ctx);

    /**
     * Execute a data descriptor.
     * @param core      The pushing dpCore (selects the DMAX/engine,
     *                  and owns the DMEM side of DDR<->DMEM moves).
     * @param d         Decoded descriptor.
     * @param eff_ddr   Effective DDR address (after DMAD
     *                  auto-increment).
     * @param eff_dmem  Effective DMEM offset.
     * @param issue     Tick the DMAD handed the descriptor over.
     * @param done      Called exactly once with the completion tick.
     */
    void execute(unsigned core, const Descriptor &d,
                 mem::Addr eff_ddr, std::uint32_t eff_dmem,
                 sim::Tick issue, DoneFn done);

    /** Program the hash engine (HashProg control descriptor). */
    void programHash(const Descriptor &d);

    /**
     * Program the 32 range boundaries from a table of 8 B values in
     * the pushing core's DMEM (RangeProg control descriptor).
     */
    void programRange(unsigned core, const Descriptor &d);

    /**
     * Configure partition destinations from a table in the pushing
     * core's DMEM (PartDstCfg): one 8 B entry per destination core
     * { u16 base, u16 bufBytes, u8 firstEvent, u8 nBufs, u16 pad }.
     */
    void configPartDst(unsigned core, const Descriptor &d);

    /** True if the gather-bug erratum has wedged the DMAC. */
    bool hung() const { return wedged; }

    sim::StatGroup &statGroup() { return stats; }

    /** Raw internal memory access for tests. */
    std::uint8_t *bvBank(unsigned b) { return bvm[b].data(); }

  private:
    // --- execution helpers, one per descriptor family -------------
    void execDdrToDmem(unsigned core, const Descriptor &d,
                       mem::Addr ddr, std::uint32_t dmem,
                       sim::Tick start, DoneFn done);
    void execDmemToDdr(unsigned core, const Descriptor &d,
                       mem::Addr ddr, std::uint32_t dmem,
                       sim::Tick start, DoneFn done);
    void execDdrToDms(unsigned core, const Descriptor &d,
                      mem::Addr ddr, sim::Tick start, DoneFn done);
    void execHashCol(const Descriptor &d, sim::Tick start,
                     DoneFn done);
    void execStorePart(unsigned core, const Descriptor &d,
                       sim::Tick start, DoneFn done);
    void execPartFlush(sim::Tick start, DoneFn done);
    void execDmemToDms(unsigned core, const Descriptor &d,
                       std::uint32_t dmem, sim::Tick start,
                       DoneFn done);
    void execDmsToDdr(const Descriptor &d, mem::Addr ddr,
                      sim::Tick start, DoneFn done);
    void execDmsToDms(const Descriptor &d, sim::Tick start,
                      DoneFn done);

    /**
     * Issue a contiguous DDR transfer as pipelined AXI transactions
     * (max 256 B each, axiWindow outstanding).
     * @return completion tick of the last beat.
     */
    sim::Tick ddrStream(mem::Addr addr, std::uint8_t *buf,
                        std::uint32_t bytes, bool write,
                        sim::Tick start);

    /** Ticks to move @p bytes across one DMAX data bus. */
    sim::Tick dmaxTicks(std::uint32_t bytes) const;

    /** Selected-row runs for a gather/scatter mask. */
    struct Run
    {
        std::uint32_t firstRow;
        std::uint32_t nRows;
    };
    std::vector<Run> maskRuns(const Descriptor &d,
                              std::uint32_t rows) const;

    // --- partition store machinery ---------------------------------
    struct PartDst
    {
        bool configured = false;
        std::uint16_t base = 0;
        std::uint16_t bufBytes = 0;
        std::uint8_t firstEvent = 0;
        std::uint8_t nBufs = 0;
        std::uint8_t curBuf = 0;
        std::uint16_t fill = 0;     ///< payload bytes in curBuf
        std::uint32_t rowsInBuf = 0;
        /**
         * Buffers sealed but not yet handed back by the consumer.
         * Tracked here (not via the event file) because the seal's
         * event-set is scheduled at a future tick; checking raw
         * event state would let the store engine overwrite a
         * buffer whose completion is still in flight.
         */
        std::uint8_t busyMask = 0;
    };

    /** One in-progress (possibly back-pressured) partition store,
     *  or a flush job (which must serialize behind earlier stores
     *  and respect the same buffer back-pressure). */
    struct PartJob
    {
        unsigned core;
        Descriptor d;
        bool flush = false;
        /** Next row (stores) or next destination core (flush). */
        std::uint32_t row = 0;
        sim::Tick t = 0;
        /** Model tick the job entered the pipeline (trace span). */
        sim::Tick traceStart = 0;
        DoneFn done;
    };

    void partStep();
    /**
     * Seal dst's current buffer: write the row-count header (top
     * bit flags a flush-sealed, i.e. final, buffer) and set the
     * buffer's event at @p t.
     */
    void finalizeBuffer(unsigned dst_core, sim::Tick t,
                        bool final_buf = false);

    DmsContext &ctx;
    sim::StatGroup stats;
    /** Per-descriptor and per-row counters (sim/stats.hh). */
    sim::Counter descriptors{stats, "descriptors"};
    sim::Counter gathers{stats, "gathers"};
    sim::Counter scatters{stats, "scatters"};
    sim::Counter bytesToDmem{stats, "bytesToDmem"};
    sim::Counter bytesFromDmem{stats, "bytesFromDmem"};
    sim::Counter bytesToCmem{stats, "bytesToCmem"};
    sim::Counter keysHashed{stats, "keysHashed"};
    sim::Counter partBuffersSealed{stats, "partBuffersSealed"};
    sim::Counter partStalls{stats, "partStalls"};
    sim::Counter rowsPartitioned{stats, "rowsPartitioned"};
    sim::Counter bvBytesLoaded{stats, "bvBytesLoaded"};
    sim::Counter bytesDmsToDdr{stats, "bytesDmsToDdr"};
    sim::Counter wedges{stats, "wedges"};
    sim::Counter injectedWedges{stats, "injectedWedges"};
    sim::Counter gatherBugHangs{stats, "gatherBugHangs"};

    // Internal SRAMs.
    std::array<std::array<std::uint8_t, cmemBankBytes>, nCmemBanks>
        cmem{};
    std::array<std::array<std::uint8_t, crcBankBytes>, nCrcBanks>
        crcm{};
    std::array<std::array<std::uint8_t, cidBankBytes>, nCidBanks>
        cidm{};
    std::array<std::array<std::uint8_t, bvBankBytes>, nBvBanks> bvm{};

    // Busy-until ticks for every shared resource.
    /** Global descriptor dispatcher (front-end) occupancy. */
    sim::Tick dispatcher = 0;
    std::array<sim::Tick, nDmax> loadEngine{};
    std::array<sim::Tick, nDmax> storeEngine{};
    std::array<sim::Tick, nDmax> dmaxBus{};
    sim::Tick hashEngine = 0;
    std::array<sim::Tick, nCmemBanks> cmemBusy{};
    std::array<sim::Tick, nCrcBanks> crcBusy{};
    std::array<sim::Tick, nCidBanks> cidBusy{};
    std::array<sim::Tick, nBvBanks> bvBusy{};

    // Hash/range engine programming.
    bool hashUseCrc = true;
    std::uint8_t radixBits = 5;
    std::uint8_t radixShift = 0;
    std::array<std::uint64_t, 32> rangeBounds{};
    bool rangeProgrammed = false;

    // Partition destinations & the serialized store pipeline.
    std::vector<PartDst> partDst;
    std::deque<PartJob> partQueue;
    bool partActive = false;

    /** Record a permanent DMAC wedge: flag + stats + trace;
     *  @p cause counts why. */
    void wedge(unsigned core, sim::Counter &cause);

    // Gather erratum state.
    unsigned gathersActive = 0;
    bool wedged = false;
};

} // namespace dpu::dms

#endif // DPU_DMS_DMAC_HH
