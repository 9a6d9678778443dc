/**
 * @file
 * HyperLogLog cardinality estimation (Section 5.4).
 *
 * Single pass over the data; per element: hash, take p index bits,
 * count zeros in the rest, keep the per-register maximum; harmonic
 * mean at the end. The paper's co-design points, all modelled here:
 *
 *  - NTZ instead of NLZ: counting TRAILING zeros costs 4 cycles via
 *    the popcount unit against 13 for leading zeros, with identical
 *    estimator statistics;
 *  - CRC32 (single-cycle ISA extension) vs Murmur64 (three 64-bit
 *    multiplies per block on the iterative multiplier — the "does
 *    poorly on the DPU" case);
 *  - work stealing over input chunks with ATE fetch-and-add,
 *    essential because the variable-latency multiplier makes static
 *    schedules tail-heavy.
 */

#ifndef DPU_APPS_HLL_HH
#define DPU_APPS_HLL_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "apps/common.hh"

namespace dpu::apps {

/** Hash function selection (Section 5.4 compares the two). */
enum class HllHash
{
    Crc32,
    Murmur64,
};

struct HllConfig
{
    std::uint64_t nElements = 1 << 21;
    std::uint64_t cardinality = 1 << 18; ///< true distinct count
    unsigned pBits = 12;                 ///< 4096 registers
    HllHash hash = HllHash::Crc32;
    bool useNtz = true;                  ///< NTZ (4cy) vs NLZ (13cy)
    std::uint64_t seed = 21;
    unsigned nCores = 32;
};

struct HllResult
{
    double seconds = 0;
    double estimate = 0;
    std::uint64_t elements = 0;

    double gbPerSec() const { return elements * 8.0 / seconds / 1e9; }
};

/** Internals shared with the serving kernel (apps/serving.cc). */
namespace hlldetail {
/** Synthetic multiset with a known number of distinct values. */
std::vector<std::uint64_t> makeElements(const HllConfig &cfg);
/** The estimator update both platforms share. */
void update(std::uint64_t h, unsigned p_bits, bool use_ntz,
            std::vector<std::uint8_t> &regs);
/** The 64-bit element hash on the host: two chained CRC32 steps,
 *  or Murmur64. */
std::uint64_t hostHash(std::uint64_t e, HllHash hash);
/**
 * One element on dpCore @p c: hostHash()'s value, charged as the
 * core computes it (one cycle per CRC32 step; Murmur64's multiplies
 * on the iterative multiplier plus 10 ALU ops), then the NTZ or NLZ
 * count, update() into @p regs, and the register's load, compare
 * and store paired with the index arithmetic.
 */
void dpuStep(core::DpCore &c, std::uint64_t e, HllHash hash,
             unsigned p_bits, bool use_ntz,
             std::vector<std::uint8_t> &regs);
/** 2^-@p r, exactly: built from the exponent bits, since every
 *  8-bit rank's power of two is a normal double. */
inline double
rankTerm(std::uint8_t r)
{
    return std::bit_cast<double>(std::uint64_t(1023 - r) << 52);
}
/** Harmonic-mean estimate with small-range correction. */
double estimate(const std::vector<std::uint8_t> &regs);
} // namespace hlldetail

/** Run on the DPU simulator. */
HllResult dpuHll(const soc::SocParams &params, const HllConfig &cfg);

/** Functional baseline through the Xeon model. */
HllResult xeonHll(const HllConfig &cfg);

} // namespace dpu::apps

#endif // DPU_APPS_HLL_HH
