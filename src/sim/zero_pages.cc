#include "sim/zero_pages.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "sim/logging.hh"

namespace dpu::sim {

ZeroPages::ZeroPages(std::size_t n) : bytes(n)
{
    const std::size_t page = std::size_t(sysconf(_SC_PAGESIZE));
    if (n > SIZE_MAX - 2 * page)
        fatal("cannot map %zu demand-zero bytes", n);
    mapBytes = page + (n + page - 1) / page * page;
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

} // namespace dpu::sim
