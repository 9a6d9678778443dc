/**
 * @file
 * Lightweight statistics registry.
 *
 * Components register named counters with a StatGroup; the SoC can
 * dump all groups as a flat name = value listing. Counters are plain
 * uint64_t / double cells so hot paths pay only an increment.
 *
 * A cell is the one record of its count, and a component's summary
 * struct is a fold of its cells. Host-phase control paths (the
 * schedulers and balancers) increment cells directly where each
 * event happens (`++stats.counter("migCommitted")`), which creates
 * the cell at its first hit. Kernel hot paths and writers on
 * partition threads instead keep a DeferredCounter or a shadow
 * tally that a flush hook folds in before any read.
 *
 * Every live StatGroup is also tracked by the process-wide
 * StatsRegistry (see stats_registry.hh), which snapshots all groups
 * for golden-stats regression testing. Registration happens in the
 * constructor and deregistration in the destructor, so groups must
 * not be copied or moved.
 */

#ifndef DPU_SIM_STATS_HH
#define DPU_SIM_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace dpu::sim {

class StatGroup;

/**
 * A hot-path counter that defers its StatGroup cell.
 *
 * The string-keyed counter() lookup is cheap enough for control
 * paths but shows up hard when charged per load or per issue slot
 * (the dpCore's LSU path calls it once per 8 bytes moved). Owners
 * keep one of these as a plain member, bump it with add()/++, and
 * fold it into the group from a flush hook (StatGroup::addFlushHook)
 * that runs right before any read of the cells. The cell is
 * registered exactly when the owning site has been hit — the same
 * rule as direct counter() use — so stat snapshots are
 * indistinguishable from the eager version.
 */
class DeferredCounter
{
  public:
    void
    add(std::uint64_t n)
    {
        v += n;
        touched = true;
    }

    DeferredCounter &
    operator+=(std::uint64_t n)
    {
        add(n);
        return *this;
    }

    DeferredCounter &
    operator++()
    {
        add(1);
        return *this;
    }

    /** Move the pending count into @p group's @p cell (inline
     *  definition follows StatGroup). */
    void flushInto(StatGroup &group, const char *cell);

  private:
    std::uint64_t v = 0;
    bool touched = false;
};

/** A named group of scalar statistics. */
class StatGroup
{
  public:
    explicit StatGroup(std::string name);
    ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register (or fetch) a counter cell by name. */
    std::uint64_t &
    counter(const std::string &name)
    {
        return counters[name];
    }

    /** Register (or fetch) a floating-point cell by name. */
    double &
    scalar(const std::string &name)
    {
        return scalars[name];
    }

    /**
     * Run @p hook before any read of the cells (get, dump,
     * snapshot, reset). Owners use this to fold DeferredCounter
     * members in lazily; the hook must only write cells, never read
     * other groups. The registering object must outlive the group's
     * last read (in practice: hooks capture `this` of the object
     * that owns or co-owns the group).
     */
    void
    addFlushHook(std::function<void()> hook)
    {
        flushHooks.push_back(std::move(hook));
    }

    /** Read a counter (0 if never touched). */
    std::uint64_t
    get(const std::string &name) const
    {
        flush();
        auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
    }

    /** Read a floating-point cell (0.0 if never touched). */
    double
    getScalar(const std::string &name) const
    {
        flush();
        auto it = scalars.find(name);
        return it == scalars.end() ? 0.0 : it->second;
    }

    const std::string &name() const { return groupName; }

    /** All counter cells, name-ordered (snapshot/diff tooling). */
    const std::map<std::string, std::uint64_t> &
    counterCells() const
    {
        flush();
        return counters;
    }

    /** All floating-point cells, name-ordered. */
    const std::map<std::string, double> &
    scalarCells() const
    {
        flush();
        return scalars;
    }

    /** Write "group.name = value" lines for every cell. */
    void dump(std::ostream &os) const;

    /** Zero every cell (used between benchmark repetitions). */
    void reset();

  private:
    /** Fold deferred counters in; hooks mutate the maps through the
     *  owner's non-const handle, hence callable from const reads. */
    void
    flush() const
    {
        for (const auto &h : flushHooks)
            h();
    }

    std::string groupName;
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> scalars;
    std::vector<std::function<void()>> flushHooks;
};

inline void
DeferredCounter::flushInto(StatGroup &group, const char *cell)
{
    if (touched) {
        group.counter(cell) += v;
        v = 0;
    }
}

} // namespace dpu::sim

#endif // DPU_SIM_STATS_HH
