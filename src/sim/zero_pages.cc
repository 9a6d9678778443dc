#include "sim/zero_pages.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "sim/logging.hh"

namespace dpu::sim {

namespace {

std::size_t
pageBytes()
{
    static const std::size_t page = std::size_t(sysconf(_SC_PAGESIZE));
    return page;
}

} // namespace

ZeroPages::ZeroPages(std::size_t n) : bytes(n)
{
    const std::size_t page = pageBytes();
    if (n > SIZE_MAX - 2 * page)
        fatal("cannot map %zu demand-zero bytes", n);
    mapBytes = page + pageRound(n);
    // MAP_NORESERVE: the region is address space only until written,
    // so it must not be charged against swap up front either.
    void *m = mmap(nullptr, mapBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (m == MAP_FAILED)
        fatal("cannot map %zu demand-zero bytes: %s", n,
              std::strerror(errno));
    map = static_cast<std::uint8_t *>(m);
    first = map + page;
    // Splitting off the guard page takes a second kernel mapping,
    // which fails once the process reaches vm.max_map_count.
    if (mprotect(map, page, PROT_NONE) != 0)
        fatal("cannot guard %zu demand-zero bytes: %s", n,
              std::strerror(errno));
    // Advisory only: a kernel built without transparent huge pages
    // rejects it, and then has no huge page to pull in.
    (void)madvise(first, mapBytes - page, MADV_NOHUGEPAGE);
}

ZeroPages::~ZeroPages()
{
    munmap(map, mapBytes);
}

std::size_t
ZeroPages::pageRound(std::size_t n)
{
    const std::size_t page = pageBytes();
    return (n + page - 1) / page * page;
}

std::span<std::uint8_t>
ZeroPages::carve(std::size_t n)
{
    if (n > bytes - carved)
        fatal("cannot carve %zu bytes from a %zu-byte region at byte "
              "%zu", n, bytes, carved);
    const std::span<std::uint8_t> slice(first + carved, n);
    carved = std::min(bytes, carved + pageRound(n));
    return slice;
}

} // namespace dpu::sim
