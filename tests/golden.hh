/**
 * @file
 * The golden-file check every test wall shares. A golden is a stats
 * snapshot checked in as tests/golden/<name>.json. The simulator is
 * integer-exact, so a run must match it bit for bit; any drift
 * means a model change, which is either a bug or a deliberate
 * recalibration. In the latter case regenerate the files with
 *
 *   DPU_REGEN_GOLDEN=1 ./<test binary>
 *
 * and commit the diff alongside the model change.
 */

#ifndef DPU_TESTS_GOLDEN_HH
#define DPU_TESTS_GOLDEN_HH

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "sim/stats_registry.hh"

#ifndef DPU_GOLDEN_DIR
#error "build must define DPU_GOLDEN_DIR"
#endif

namespace dpu::test {

inline std::string
goldenPath(const std::string &name)
{
    return std::string(DPU_GOLDEN_DIR) + "/" + name + ".json";
}

/**
 * The checked-in golden @p name. A missing or unparsable file is a
 * test failure naming it, and yields nothing. Never regenerates.
 */
inline std::optional<sim::StatsSnapshot>
loadGolden(const std::string &name)
{
    const std::string path = goldenPath(name);
    std::ifstream is(path);
    if (!is) {
        ADD_FAILURE() << "missing golden file " << path
                      << " (run with DPU_REGEN_GOLDEN=1 to create it)";
        return std::nullopt;
    }
    std::stringstream buf;
    buf << is.rdbuf();
    sim::StatsSnapshot golden;
    std::string err;
    if (!sim::StatsSnapshot::readJson(buf.str(), golden, err)) {
        ADD_FAILURE() << path << ": " << err;
        return std::nullopt;
    }
    return golden;
}

/**
 * Expect @p actual to match golden @p name stat for stat, reporting
 * every drifted stat. With DPU_REGEN_GOLDEN set (and not "0"),
 * rewrite the golden from @p actual and skip instead.
 */
inline void
expectGolden(const std::string &name, const sim::StatsSnapshot &actual)
{
    ASSERT_FALSE(actual.counters.empty())
        << "scenario '" << name << "' failed its own self-checks";

    const std::string path = goldenPath(name);
    const char *regen = std::getenv("DPU_REGEN_GOLDEN");
    if (regen && *regen && std::string(regen) != "0") {
        std::ofstream os(path, std::ios::trunc);
        ASSERT_TRUE(os) << "cannot write " << path;
        actual.writeJson(os);
        GTEST_SKIP() << "regenerated " << path;
    }

    const auto golden = loadGolden(name);
    if (!golden)
        return;
    const auto diffs = sim::diffSnapshots(*golden, actual);
    EXPECT_TRUE(diffs.empty())
        << diffs.size() << " stat(s) drifted from " << path << ":\n"
        << sim::formatDiffs(diffs)
        << "(if the model change is intentional, regenerate with "
           "DPU_REGEN_GOLDEN=1)";
}

} // namespace dpu::test

#endif // DPU_TESTS_GOLDEN_HH
