#include "mem/cache.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace dpu::mem {

Cache::Cache(sim::StatGroup &stats, const char *prefix,
             const CacheParams &params, MemPort &downstream,
             std::span<std::uint8_t> sram)
    : hits(stats, prefix, "hits"), misses(stats, prefix, "misses"),
      writebacks(stats, prefix, "writebacks"),
      fills(stats, prefix, "fills"),
      flushedLines(stats, prefix, "flushedLines"),
      invalidatedLines(stats, prefix, "invalidatedLines"), p(params),
      next(downstream),
      nSets(params.sizeBytes / (lineBytes * params.assoc)),
      lines(reinterpret_cast<Line *>(sram.data()),
            std::size_t(nSets) * params.assoc),
      hitLatency(sim::dpCoreClock.cyclesToTicks(params.hitCycles))
{
    sim_assert(nSets > 0 && (nSets & (nSets - 1)) == 0,
               "cache sets must be a power of two (size=%u assoc=%u)",
               params.sizeBytes, params.assoc);
    sim_assert(sram.size() >= sramBytes(params) &&
                   reinterpret_cast<std::uintptr_t>(sram.data()) %
                           alignof(Line) ==
                       0,
               "a cache of group %s given a %zu-byte slice for %zu "
               "bytes of lines", stats.name().c_str(), sram.size(),
               sramBytes(params));
}

std::size_t
Cache::sramBytes(const CacheParams &params)
{
    return std::size_t(params.sizeBytes / (lineBytes * params.assoc)) *
           params.assoc * sizeof(Line);
}

std::uint32_t
Cache::setIndex(Addr line_addr) const
{
    return std::uint32_t((line_addr / lineBytes) & (nSets - 1));
}

Cache::Line *
Cache::findLine(Addr line_addr)
{
    Line *set = &lines[std::size_t(setIndex(line_addr)) * p.assoc];
    for (std::uint32_t w = 0; w < p.assoc; ++w) {
        if (set[w].valid && set[w].tag == line_addr)
            return &set[w];
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr line_addr) const
{
    return const_cast<Cache *>(this)->findLine(line_addr);
}

std::pair<Cache::Line *, sim::Tick>
Cache::getLine(Addr line_addr, sim::Tick when, bool fill)
{
    if (Line *l = findLine(line_addr)) {
        l->lastUse = ++useClock;
        ++hits;
        return {l, when + hitLatency};
    }

    ++misses;
    Line *set = &lines[std::size_t(setIndex(line_addr)) * p.assoc];
    Line *victim = &set[0];
    for (std::uint32_t w = 1; w < p.assoc; ++w) {
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (set[w].lastUse < victim->lastUse)
            victim = &set[w];
    }

    sim::Tick t = when + hitLatency;
    if (victim->valid && victim->dirty) {
        t = next.writeLine(victim->tag, victim->data, t);
        ++writebacks;
    }

    victim->valid = true;
    victim->dirty = false;
    victim->tag = line_addr;
    victim->lastUse = ++useClock;
    if (fill) {
        t = next.readLine(line_addr, victim->data, t);
        ++fills;
    } else {
        std::memset(victim->data, 0, lineBytes);
    }
    return {victim, t};
}

sim::Tick
Cache::read(Addr addr, void *dst, std::uint32_t len, sim::Tick when)
{
    auto *out = static_cast<std::uint8_t *>(dst);
    sim::Tick t = when;
    while (len > 0) {
        Addr line_addr = lineAlign(addr);
        std::uint32_t off = std::uint32_t(addr - line_addr);
        std::uint32_t chunk = std::min(len, lineBytes - off);
        auto [line, done] = getLine(line_addr, t, true);
        std::memcpy(out, line->data + off, chunk);
        t = done;
        addr += chunk;
        out += chunk;
        len -= chunk;
    }
    return t;
}

sim::Tick
Cache::write(Addr addr, const void *src, std::uint32_t len,
             sim::Tick when)
{
    auto *in = static_cast<const std::uint8_t *>(src);
    sim::Tick t = when;
    while (len > 0) {
        Addr line_addr = lineAlign(addr);
        std::uint32_t off = std::uint32_t(addr - line_addr);
        std::uint32_t chunk = std::min(len, lineBytes - off);
        // Whole-line writes need no fill; partial writes do.
        bool fill = !(off == 0 && chunk == lineBytes);
        auto [line, done] = getLine(line_addr, t, fill);
        std::memcpy(line->data + off, in, chunk);
        line->dirty = true;
        t = done;
        addr += chunk;
        in += chunk;
        len -= chunk;
    }
    return t;
}

sim::Tick
Cache::readLine(Addr addr, void *dst, sim::Tick when)
{
    return read(addr, dst, lineBytes, when);
}

sim::Tick
Cache::writeLine(Addr addr, const void *src, sim::Tick when)
{
    return write(addr, src, lineBytes, when);
}

Cache::Flushed
Cache::flushRange(Addr addr, std::uint64_t len, sim::Tick when)
{
    Flushed f{when, 0};
    Addr first = lineAlign(addr);
    Addr last = lineAlign(addr + (len ? len - 1 : 0));
    for (Addr a = first; a <= last; a += lineBytes) {
        if (Line *l = findLine(a); l && l->dirty) {
            f.done = next.writeLine(a, l->data, f.done + hitLatency);
            l->dirty = false;
            ++f.lines;
            ++flushedLines;
        }
    }
    return f;
}

sim::Tick
Cache::invalidateRange(Addr addr, std::uint64_t len, sim::Tick when)
{
    Addr first = lineAlign(addr);
    Addr last = lineAlign(addr + (len ? len - 1 : 0));
    sim::Tick t = when;
    for (Addr a = first; a <= last; a += lineBytes) {
        if (Line *l = findLine(a)) {
            l->valid = false;
            l->dirty = false;
            t += hitLatency;
            ++invalidatedLines;
        }
    }
    return t;
}

bool
Cache::contains(Addr addr) const
{
    return findLine(lineAlign(addr)) != nullptr;
}

bool
Cache::isDirty(Addr addr) const
{
    const Line *l = findLine(lineAlign(addr));
    return l && l->dirty;
}

} // namespace dpu::mem
