/**
 * @file
 * JSON parsing (Section 5.5).
 *
 * The workload is ~TPCH-lineitem-shaped records (integers, fixed
 * point, dates, strings). The paper's findings, reproduced:
 *
 *  - a branchy recursive parser (SAJSON-style) runs at 13.2
 *    cycles/byte on the dpCore (no fancy branch prediction) — only
 *    ~645 MB/s across the chip;
 *  - coercing the grammar into a JUMP TABLE (the state-transition
 *    table fits DMEM) brings the DPU to ~1.73 GB/s over 32 cores;
 *  - the file splits into per-core chunks with 1 KB padding so a
 *    record straddling a chunk boundary is parsed exactly once;
 *  - the DMS triple-buffers 8 KB input tiles (Section 5.5).
 *
 * Functional output (record count, field count, integer-field sum)
 * is compared exactly against the baseline parse.
 */

#ifndef DPU_APPS_JSON_HH
#define DPU_APPS_JSON_HH

#include <cstdint>
#include <string>

#include "apps/common.hh"

namespace dpu::apps {

struct JsonConfig
{
    std::uint32_t nRecords = 24 * 1024;
    std::uint64_t seed = 5;
    unsigned nCores = 32;
    /** Charge the branchy-parser cost model instead of the jump
     *  table (the paper's 13.2 cycles/byte data point). */
    bool branchyParser = false;
};

/** Parse summary used for cross-validation. */
struct JsonTally
{
    std::uint64_t records = 0;
    std::uint64_t fields = 0;
    std::uint64_t intSum = 0;

    bool operator==(const JsonTally &) const = default;
};

struct JsonResult
{
    double seconds = 0;
    std::uint64_t bytes = 0;
    JsonTally tally;

    double gbPerSec() const { return bytes / seconds / 1e9; }
};

/** Internals shared with the serving kernel (apps/serving.cc). */
namespace jsondetail {
/** Generated text plus the tally it was written with. */
struct Records
{
    std::string text;
    /** Counted while writing, not parsed: every record has 6
     *  fields, and intSum adds orderkey, partkey, quantity and the
     *  price's integer part. */
    JsonTally tally;
};
/** The synthetic record generator both platforms parse. */
Records makeRecords(const JsonConfig &cfg);
/** The shared FSM tally over [p, p+len). */
JsonTally parseSpan(const char *p, std::uint64_t len);
} // namespace jsondetail

JsonResult dpuJson(const soc::SocParams &params,
                   const JsonConfig &cfg);
JsonResult xeonJson(const JsonConfig &cfg);

} // namespace dpu::apps

#endif // DPU_APPS_JSON_HH
