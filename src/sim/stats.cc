#include "sim/stats.hh"

#include "sim/stats_registry.hh"

namespace dpu::sim {

StatGroup::StatGroup(std::string name) : groupName(std::move(name))
{
    StatsRegistry::instance().add(this);
}

StatGroup::~StatGroup()
{
    StatsRegistry::instance().remove(this);
}

std::uint64_t
StatGroup::get(const std::string &name) const
{
    flush();
    auto it = counters.find(name);
    std::uint64_t v = it == counters.end() ? 0 : it->second;
    for (const Live &l : live)
        if (name == l.cell)
            v += l.counter->v;
    return v;
}

std::map<std::string, std::uint64_t>
StatGroup::counterCells() const
{
    flush();
    std::map<std::string, std::uint64_t> cells = counters;
    for (const Live &l : live)
        if (l.counter->touched)
            cells[l.cell] += l.counter->v;
    return cells;
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &[name, value] : counterCells())
        os << groupName << "." << name << " = " << value << "\n";
    for (const auto &[name, value] : scalars)
        os << groupName << "." << name << " = " << value << "\n";
}

void
StatGroup::reset()
{
    // Fold computed cells first so their counts don't survive the
    // reset and leak into the next measurement window.
    flush();
    for (auto &[name, value] : counters)
        value = 0;
    for (Live &l : live)
        l.counter->v = 0;
    for (auto &[name, value] : scalars)
        value = 0.0;
}

} // namespace dpu::sim
