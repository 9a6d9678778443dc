/**
 * @file
 * DMS microarchitecture parameters (Sections 3.1-3.2).
 *
 * Geometry is taken directly from the paper: 3 x 8 KB column
 * memories, double-buffered 1 KB CRC and 256 B CID memories, 4 x
 * 4 KB bit-vector banks (42.5 KB total), four load/store engines
 * (one per DMAX/macro), a 128-bit AXI DDR port with 256 B maximum
 * transactions, and a 4-descriptor outstanding window.
 *
 * Latency/overhead numbers are calibrated once so the
 * microbenchmarks land on the paper's Figure 11-13 shapes (~9.3-9.6
 * GB/s at 8 KB buffers, lower at small tiles); EXPERIMENTS.md
 * records the resulting fits. Like the geometry, they are
 * properties of the fabricated DMS, so they are constants.
 */

#ifndef DPU_DMS_DMS_PARAMS_HH
#define DPU_DMS_DMS_PARAMS_HH

#include <cstdint>

#include "sim/types.hh"

namespace dpu::dms {

/** Number of DMAX crossbar complexes (one per macro). */
constexpr unsigned nDmax = 4;

/** Internal SRAM geometry (Section 3.2). */
constexpr unsigned nCmemBanks = 3;
constexpr unsigned cmemBankBytes = 8 * 1024;
constexpr unsigned nCrcBanks = 2;
constexpr unsigned crcBankBytes = 1024;
constexpr unsigned nCidBanks = 2;
constexpr unsigned cidBankBytes = 256;
constexpr unsigned nBvBanks = 4;
constexpr unsigned bvBankBytes = 4 * 1024;

/** Maximum bytes per AXI transaction (Section 3.1). */
constexpr unsigned axiMaxBytes = 256;

/** DMAD descriptor fetch/decode + DMAX arbitration + DMAC
 *  dispatch, charged once per descriptor. */
constexpr sim::Tick descOverhead = 120'000; // 120 ns

/** In-flight descriptor window per channel at the DMAC. */
constexpr unsigned outstandingDescs = 4;

/** The DMAC front-end dispatches one descriptor at a time; this is
 *  the per-descriptor occupancy of that dispatcher. It is what
 *  makes small DMEM tiles lose bandwidth in Figure 11 ("large
 *  buffer sizes amortize fixed DMS configuration overheads"). */
constexpr sim::Tick dmacDispatch = 100'000; // 100 ns

/** DDR transactions kept in flight by a load/store engine within
 *  one descriptor. */
constexpr unsigned axiWindow = 16;

/** DMAX data path: bytes per core cycle (128-bit @ 800 MHz). */
constexpr unsigned dmaxBytesPerCycle = 16;

/** Hash/range engine throughput: keys per core cycle. */
constexpr unsigned hashKeysPerCycle = 1;

/** Hash/CID stage fixed setup per chunk descriptor (cycles). */
constexpr sim::Cycles hashSetupCycles = 16;

/** Partition store engine: bytes per cycle into one DMAX. */
constexpr unsigned storeBytesPerCycle = 16;

/** Extra per-run cost of gather/scatter (address generation). */
constexpr sim::Tick gatherRunOverhead = 10'000; // 10 ns

/** What a chip configuration may set on its DMS. */
struct DmsParams
{
    /**
     * Emulate the first-silicon RTL erratum (Section 3.4): when more
     * than one gather descriptor is in flight, the bit-vector-count
     * FIFO in the DMAC overflows and the issuing DMADs stall
     * indefinitely. The software workaround serializes gathers.
     */
    bool emulateGatherBug = false;
};

} // namespace dpu::dms

#endif // DPU_DMS_DMS_PARAMS_HH
