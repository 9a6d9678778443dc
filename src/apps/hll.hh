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

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "apps/common.hh"
#include "core/dp_core.hh"
#include "util/crc32.hh"
#include "util/murmur64.hh"

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
/**
 * The estimator update both platforms share: the register index and
 * rank of hash @p h, kept as the register's maximum. NTZ and NLZ
 * variants are statistically interchangeable on a well-behaved hash
 * (Section 5.4). Inline, like hostHash() and dpuStep(): the lanes
 * and the serving job's answer run them once per element.
 */
inline void
update(std::uint64_t h, unsigned p_bits, bool use_ntz,
       std::vector<std::uint8_t> &regs)
{
    unsigned rank;
    std::uint32_t idx;
    if (use_ntz) {
        // NTZ form: index from the low bits, rank from trailing
        // zeros of the remainder; the guard bit bounds the rank.
        idx = std::uint32_t(h) & ((1u << p_bits) - 1);
        std::uint64_t w = (h >> p_bits) | (1ull << (64 - p_bits));
        rank = unsigned(__builtin_ctzll(w)) + 1;
    } else {
        // Classic NLZ form: index from the top bits.
        idx = std::uint32_t(h >> (64 - p_bits));
        std::uint64_t w = (h << p_bits) | (1ull << (p_bits - 1));
        rank = unsigned(__builtin_clzll(w)) + 1;
    }
    // Store the maximum unconditionally: whether a rank beats its
    // register is a coin flip the branch predictor loses.
    regs[idx] = std::max(regs[idx], std::uint8_t(rank));
}

/** The 64-bit element hash on the host: two chained CRC32 steps,
 *  or Murmur64. */
inline std::uint64_t
hostHash(std::uint64_t e, HllHash hash)
{
    if (hash == HllHash::Murmur64)
        return util::murmur64Key(e);
    const std::uint32_t lo = util::crc32Key64(e);
    const std::uint32_t hi = util::crc32Key(lo ^ std::uint32_t(e >> 32));
    return (std::uint64_t(hi) << 32) | lo;
}

/**
 * One element on dpCore @p c: hostHash()'s value, charged as the
 * core computes it (one cycle per CRC32 step; Murmur64's multiplies
 * on the iterative multiplier plus 10 ALU ops), then the NTZ or NLZ
 * count, update() into @p regs, and the register's load, compare
 * and store paired with the index arithmetic.
 */
inline void
dpuStep(core::DpCore &c, std::uint64_t e, HllHash hash,
        unsigned p_bits, bool use_ntz, std::vector<std::uint8_t> &regs)
{
    std::uint64_t h;
    if (hash == HllHash::Crc32) {
        // Two chained CRC32 steps build a 64-bit-quality hash; each
        // is one cycle.
        const std::uint32_t lo = c.crcHash64(e);
        const std::uint32_t hi = c.crcHash(lo ^ std::uint32_t(e >> 32));
        h = (std::uint64_t(hi) << 32) | lo;
    } else {
        h = util::murmur64Key(e);
        // Charge the iterative multiplier for every 64x64 multiply
        // murmur performs.
        for (std::uint64_t k = 0; k < util::murmur64MulCount(8); ++k)
            c.mul(64);
        c.alu(10); // shifts/xors
    }
    if (use_ntz)
        (void)c.ntz(h << p_bits | 1);
    else
        (void)c.nlz(h << p_bits | 1);
    update(h, p_bits, use_ntz, regs);
    // load + compare + conditional store, paired with the index
    // arithmetic.
    c.dualIssue(3, 3);
}

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
