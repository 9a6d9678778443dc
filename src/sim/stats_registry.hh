/**
 * @file
 * Process-wide stats snapshot / diff facility.
 *
 * Every StatGroup registers itself here on construction, so a test
 * can freeze the whole simulator's statistics into a StatsSnapshot —
 * a flat "group.stat" -> value map — then serialize it to JSON,
 * reload a checked-in golden copy, and diff the two with per-stat
 * tolerances. This is the backbone of the golden-stats regression
 * suite in tests/soc: the simulator's arithmetic is integer-exact,
 * so counters compare exactly by default while derived scalars get a
 * small relative tolerance.
 *
 * Groups with duplicate names (a 16nm chip has one "dmac" group per
 * complex) are disambiguated in registration order as "dmac",
 * "dmac#1", "dmac#2", ... Registration order is construction order,
 * which is deterministic: a group joins at the end of the list when
 * its owner is built, and every owner, a chip's caches included, is
 * built with the system it belongs to.
 *
 * The registry is an intrusive list, so a group joins and leaves in
 * constant time whatever order groups die in: tearing down a
 * 512-chip board is linear in its groups. A lock guards the list and
 * its count, so a snapshot or a group built or destroyed on another
 * thread never sees it half-linked; groups are built and destroyed
 * with their owners, outside a board's parallel epochs, so the lock
 * is not contended.
 */

#ifndef DPU_SIM_STATS_REGISTRY_HH
#define DPU_SIM_STATS_REGISTRY_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace dpu::sim {

class StatGroup;

/** A frozen copy of every registered stat, flat-keyed. */
struct StatsSnapshot
{
    /** "group.stat" -> counter value. */
    std::map<std::string, std::uint64_t> counters;
    /** "group.stat" -> scalar value. */
    std::map<std::string, double> scalars;

    bool operator==(const StatsSnapshot &) const = default;

    /** Serialize as a two-section JSON object (sorted keys). */
    void writeJson(std::ostream &os) const;

    /**
     * Parse a snapshot previously produced by writeJson().
     * @return true on success; on failure @p err explains why.
     */
    static bool readJson(const std::string &text, StatsSnapshot &out,
                         std::string &err);
};

/** One stat that differs between golden and actual. */
struct StatDiff
{
    std::string key;
    double golden = 0.0;
    double actual = 0.0;
    /** "missing", "extra", or "drift". */
    std::string kind;
};

/**
 * Compare @p actual against @p golden: counters exactly, scalars
 * within the relative tolerance @p scalar_rel. A stat drifts when
 * |actual - golden| > tol * max(|golden|, 1); stats present on only
 * one side are reported as missing/extra.
 */
std::vector<StatDiff> diffSnapshots(const StatsSnapshot &golden,
                                    const StatsSnapshot &actual,
                                    double scalar_rel = 1e-9);

/** Render a diff list as readable "key: golden -> actual" lines. */
std::string formatDiffs(const std::vector<StatDiff> &diffs);

/** Tracks every live StatGroup in the process. */
class StatsRegistry
{
  public:
    static StatsRegistry &instance();

    /** Freeze all registered groups (name-disambiguated). */
    StatsSnapshot snapshot() const;

    /** Number of live groups (test introspection). */
    std::size_t groupCount() const;

    // StatGroup ctor/dtor hooks: @p g joins at the end.
    void add(StatGroup *g);
    void remove(StatGroup *g);

  private:
    StatsRegistry() = default;
    mutable std::mutex lock;
    /** The list's ends; a snapshot names groups in list order. */
    StatGroup *head = nullptr;
    StatGroup *tail = nullptr;
    std::size_t count = 0;
};

} // namespace dpu::sim

#endif // DPU_SIM_STATS_REGISTRY_HH
