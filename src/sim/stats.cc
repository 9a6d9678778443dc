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

bool
StatGroup::Live::named(std::string_view name) const
{
    if (!prefix)
        return name == cell;
    const std::string_view p(prefix);
    return name.size() > p.size() && name.starts_with(p) &&
           name[p.size()] == '.' && name.substr(p.size() + 1) == cell;
}

std::string
StatGroup::Live::key() const
{
    return prefix ? std::string(prefix) + "." + cell : cell;
}

std::uint64_t
StatGroup::get(std::string_view name) const
{
    std::uint64_t v = 0;
    for (const Live &l : live)
        if (l.named(name))
            v += l.counter->v;
    return v;
}

std::map<std::string, std::uint64_t>
StatGroup::counterCells() const
{
    std::map<std::string, std::uint64_t> cells;
    for (const Live &l : live)
        if (l.counter->touched)
            cells[l.key()] += l.counter->v;
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

} // namespace dpu::sim
