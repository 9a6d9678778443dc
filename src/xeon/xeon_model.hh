/**
 * @file
 * Roofline-style timing model of the paper's x86 baseline: a dual
 * socket Xeon E5-2699 v3 (2 x 18 cores / 36 threads used, 256 GB
 * DDR4-1600, 145 W TDP per Section 5).
 *
 * We cannot run the authors' Xeon server, so baseline algorithms
 * execute FUNCTIONALLY on the host while this model converts their
 * algorithmic work (instructions, SIMD ops, streamed/random bytes,
 * serial critical path) into time on the paper's machine. The model
 * is calibrated on anchors the paper itself publishes:
 *
 *  - 34.5 GB/s effective bandwidth across 36 cores (Section 5.2's
 *    tiled SpMM — the realistic streaming-with-reuse regime every
 *    bandwidth-bound comparison in Section 5 is made against);
 *  - SAJSON at 5.2 GB/s with IPC 3.05 (Section 5.5);
 *  - two software partition rounds for high-NDV group-by vs the
 *    DPU's single hardware round (Section 5.3).
 *
 * Each workload phase is time = max(compute, memory) + serial —
 * perfectly-overlapped compute and prefetched memory, an optimistic
 * (Xeon-favouring) assumption, which keeps the reported DPU gains
 * conservative.
 */

#ifndef DPU_XEON_XEON_MODEL_HH
#define DPU_XEON_XEON_MODEL_HH

namespace dpu::xeon {

// Machine constants of the baseline server.

/** All-core sustained clock. */
constexpr double freqGHz = 2.3;
/** Per-core retired uops/cycle. */
constexpr double ipc = 3.0;
/** AVX2 32-bit lanes. */
constexpr double simdLanes = 8;
/** Effective bandwidth in the tiled-streaming regime the paper's
 *  kernels run in (its own SpMM measurement). */
constexpr double effStreamBwGBs = 34.5;
/** Effective bandwidth for dependent random access. */
constexpr double effRandomBwGBs = 8.0;

/** Accumulates one workload's phases into seconds. */
class XeonModel
{
  public:
    explicit XeonModel(unsigned threads_used = 36)
        : threads(threads_used)
    {
    }

    /** Parallel scalar instruction work (uops across all threads). */
    void
    scalarOps(double ops)
    {
        phaseScalar += ops;
    }

    /** Parallel SIMD work, counted in ELEMENT operations; the model
     *  divides by the vector width. */
    void
    simdOps(double element_ops)
    {
        phaseSimd += element_ops;
    }

    /** Bytes moved to/from DRAM with streaming locality. */
    void
    streamBytes(double bytes)
    {
        phaseStream += bytes;
    }

    /** Bytes moved with dependent/random access. */
    void
    randomBytes(double bytes)
    {
        phaseRandom += bytes;
    }

    /** Single-threaded critical-path uops (reductions, merges). */
    void
    serialOps(double ops)
    {
        phaseSerial += ops;
    }

    /**
     * Close the current phase: elapsed += max(compute, memory) +
     * serial. Call at every global synchronization point of the
     * modelled algorithm.
     */
    void endPhase();

    /** Total modelled time including any open phase. */
    double seconds() const;

  private:
    double phaseSeconds() const;

    unsigned threads;
    double elapsed = 0;
    double phaseScalar = 0;
    double phaseSimd = 0;
    double phaseStream = 0;
    double phaseRandom = 0;
    double phaseSerial = 0;
};

} // namespace dpu::xeon

#endif // DPU_XEON_XEON_MODEL_HH
