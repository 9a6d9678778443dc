/**
 * @file
 * Lightweight statistics registry.
 *
 * Components register named cells with a StatGroup; the SoC can
 * dump all groups as a flat name = value listing.
 *
 * One counting rule: every counter cell is counted by Counters, and
 * only by them. A Counter is a member that names its cell once, at
 * construction, and that its group reads live; its increment is a
 * plain add, on whichever thread owns the counter (a partition
 * writes its own). No fold copies a count anywhere, and a
 * component's summary struct is a fold of its cells. Floating-point
 * cells (scalar()) are written by a component's end-of-run summary.
 *
 * Reading runs no code: get(), counterCells(), dump() and registry
 * snapshots are const walks over the counters and scalars, so two
 * reads in a row agree and a read leaves no cell behind.
 *
 * Every live StatGroup is also tracked by the process-wide
 * StatsRegistry (see stats_registry.hh), which snapshots all groups
 * for golden-stats regression testing. Registration happens in the
 * constructor, at the end of the registry's list, and
 * deregistration in the destructor, so groups must not be copied or
 * moved. A part that counts for its owner takes the owner's group
 * rather than building its own (a core's L1-D counts into the core's
 * group under the prefix "l1d").
 */

#ifndef DPU_SIM_STATS_HH
#define DPU_SIM_STATS_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace dpu::sim {

class Counter;

/** A named group of counter and floating-point cells. */
class StatGroup
{
  public:
    /** A group @p name, registered after every live group. */
    explicit StatGroup(std::string name);
    ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register (or fetch) a floating-point cell by name. */
    double &
    scalar(const std::string &name)
    {
        return scalars[name];
    }

    /** Read a counter cell: the sum of its counters (0 if none). */
    std::uint64_t get(std::string_view name) const;

    /** Read a floating-point cell (0.0 if never written). */
    double
    getScalar(const std::string &name) const
    {
        auto it = scalars.find(name);
        return it == scalars.end() ? 0.0 : it->second;
    }

    const std::string &name() const { return groupName; }

    /** Every touched counter cell, name-ordered (snapshot/diff
     *  tooling). */
    std::map<std::string, std::uint64_t> counterCells() const;

    /** All floating-point cells, name-ordered. */
    const std::map<std::string, double> &
    scalarCells() const
    {
        return scalars;
    }

    /** Write "group.name = value" lines for every cell. */
    void dump(std::ostream &os) const;

    /** Room for @p n more Counters, so an owner that builds many (a
     *  board's n^2 link channels) grows the group's index once. */
    void reserve(std::size_t n) { live.reserve(live.size() + n); }

    /** Host bytes one Counter adds to its group's index. */
    static constexpr std::size_t entryBytes = 3 * sizeof(void *);

  private:
    friend class Counter;
    friend class StatsRegistry;

    /** A Counter and the cell it counts into. */
    struct Live
    {
        const char *prefix; ///< nullptr for a bare literal
        const char *cell;
        const Counter *counter;

        bool named(std::string_view name) const;
        std::string key() const;
    };
    static_assert(sizeof(Live) == entryBytes);

    std::string groupName;
    std::map<std::string, double> scalars;
    std::vector<Live> live;
    /** Neighbours in the StatsRegistry's list; its lock guards
     *  them. */
    StatGroup *prev = nullptr;
    StatGroup *next = nullptr;
};

/**
 * A counter that is its own stat cell.
 *
 * It is constructed against its group with its cell name, and the
 * group reads it in get(), dump() and snapshots, so the counter is
 * the only record of its count:
 *  - its cell appears the first time it is touched (an add of 0
 *    counts);
 *  - several counters may name one cell (one per source chip or
 *    fault domain, each written by its own thread), and the cell
 *    reads as their sum.
 *
 * A cell name is a string literal, or a short prefix its owner keeps
 * ("ch0to1", "b2") and a literal, read as "<prefix>.<cell>"; either
 * way no name is allocated. The group keeps the counter's address
 * and the name pointers, so a counter does not move, and it and its
 * prefix live as long as its group is read (in practice all are
 * members of one owner, the group declared first, or of a part the
 * owner builds after its group, as a core builds its L1-D).
 */
class Counter
{
  public:
    /** Count into @p group's cell @p cell (a string literal). */
    Counter(StatGroup &group, const char *cell)
        : Counter(group, nullptr, cell)
    {
    }

    /** Count into @p group's cell "<prefix>.<cell>". */
    Counter(StatGroup &group, const char *prefix, const char *cell)
    {
        group.live.push_back({prefix, cell, this});
    }

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

} // namespace dpu::sim

#endif // DPU_SIM_STATS_HH
