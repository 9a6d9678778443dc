/**
 * @file
 * Execution domains for the sharded event kernel.
 *
 * A domain is one event-queue partition — on a multi-DPU board,
 * domain d is DPU d. Process-wide facilities that must stay both
 * thread-safe and deterministic under the parallel runner (the fault
 * plane's rule RNGs, the tracer's record rings) key their state by
 * the current domain instead of by thread: the epoch runner sizes
 * both for its partitions when it is built and sets the domain
 * around every partition it advances, so a given DPU's decisions
 * consume the same per-domain streams whatever thread — or how many
 * threads — happen to execute it.
 *
 * Domain 0 is the default everywhere, which keeps single-chip
 * simulations (one queue, one thread, never touched by a runner)
 * byte-identical to the pre-sharding kernel.
 */

#ifndef DPU_SIM_DOMAIN_HH
#define DPU_SIM_DOMAIN_HH

namespace dpu::sim {

namespace detail {
inline thread_local unsigned curDomain = 0;
} // namespace detail

/** The calling thread's current execution domain (default 0). */
inline unsigned
currentDomain()
{
    return detail::curDomain;
}

/** RAII domain switch: restores the previous domain on scope exit. */
class DomainScope
{
  public:
    explicit DomainScope(unsigned d) : prev(detail::curDomain)
    {
        detail::curDomain = d;
    }

    ~DomainScope() { detail::curDomain = prev; }

    DomainScope(const DomainScope &) = delete;
    DomainScope &operator=(const DomainScope &) = delete;

  private:
    unsigned prev;
};

} // namespace dpu::sim

#endif // DPU_SIM_DOMAIN_HH
