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
 * partition threads instead hold a Counter: a member that names its
 * cell once, at construction, and that the group reads live. Its
 * increment is a plain add, and no fold copies it anywhere.
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
 * A counter that is its own stat cell.
 *
 * The string-keyed counter() lookup is cheap enough for control
 * paths but shows up hard when charged per load or per issue slot
 * (the dpCore's LSU path counts once per 8 bytes moved). A Counter
 * is constructed against its group with its cell name, and the
 * group reads it in get(), dump(), reset() and snapshots, so the
 * counter is the only record of its count:
 *  - its cell appears the first time it is touched (an add of 0
 *    counts), the same rule as direct counter() use;
 *  - several counters may name one cell (one per source chip or
 *    fault domain, each written by its own thread), and the cell
 *    reads as their sum, plus any direct counter() value.
 *
 * The group keeps the counter's address and the name pointer, so a
 * counter does not move, its name is a string literal, and it lives
 * as long as its group is read (in practice both are members of one
 * owner, the group declared first).
 */
class Counter
{
  public:
    /** Count into @p group's cell @p cell (a string literal). */
    Counter(StatGroup &group, const char *cell);

    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    void
    add(std::uint64_t n)
    {
        v += n;
        touched = true;
    }

    Counter &
    operator+=(std::uint64_t n)
    {
        add(n);
        return *this;
    }

    Counter &
    operator++()
    {
        add(1);
        return *this;
    }

    /** This counter's own count (not its cell's sum). */
    std::uint64_t value() const { return v; }

  private:
    friend class StatGroup;

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
     * snapshot, reset). Owners use this for cells computed from
     * other state (the channel tallies, the landers' stale-chunk
     * counts); the hook must only write cells, never read other
     * groups. The registering object must outlive the group's last
     * read (in practice: hooks capture `this` of the object that
     * owns or co-owns the group).
     */
    void
    addFlushHook(std::function<void()> hook)
    {
        flushHooks.push_back(std::move(hook));
    }

    /** Read a counter (0 if never touched). */
    std::uint64_t get(const std::string &name) const;

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
    std::map<std::string, std::uint64_t> counterCells() const;

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
    friend class Counter;

    /** A Counter and the cell it counts into. */
    struct Live
    {
        const char *cell;
        Counter *counter;
    };

    /** Run the flush hooks; they mutate the maps through the
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
    std::vector<Live> live;
    std::vector<std::function<void()>> flushHooks;
};

inline Counter::Counter(StatGroup &group, const char *cell)
{
    group.live.push_back({cell, this});
}

} // namespace dpu::sim

#endif // DPU_SIM_STATS_HH
