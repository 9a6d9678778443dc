/**
 * @file
 * The app-kernel registry: every Section 5 co-design application as
 * a uniform, enumerable value instead of a bespoke call signature.
 *
 * An AppSpec bundles one application's name, default config, string
 * config mutators, head-to-head runner (kernel factory + result
 * validator, returning the usual AppResult), and — for the offload
 * scheduler — a serving-job factory that instantiates the app's
 * kernel on an arbitrary dpCore group instead of a whole chip.
 *
 * This registry is the sole entry path: the old per-app
 * free-function wrappers (hllApp, svmApp, ...) are gone from the
 * public headers. Enumerate registry() or look up findApp(name);
 * the typed head-to-head runners live in the internal apps/entry.hh.
 */

#ifndef DPU_APPS_REGISTRY_HH
#define DPU_APPS_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/common.hh"

namespace dpu::apps {

/** Opaque shared handle to one app's config struct. */
using ConfigHandle = std::shared_ptr<void>;

/**
 * Per-request resources a serving job is instantiated against: the
 * long-lived serving chip, the core-group's lane span, and a
 * job-private DDR arena for inputs/outputs.
 */
struct ServingContext
{
    soc::Soc *soc = nullptr;
    unsigned baseCore = 0;       ///< first core of the group
    unsigned nLanes = 1;         ///< cores in the group
    mem::Addr arena = 0;         ///< DDR scratch base (job-private)
    std::uint64_t arenaBytes = 0;
    std::uint64_t seed = 0;      ///< per-request seed
};

/**
 * One dispatched request, instantiated on a core group. stage()
 * runs host-side before dispatch (places inputs in DDR through the
 * backing store, and computes from them the answer validate() will
 * expect); lane() is the kernel body executed on core baseCore+lane
 * for every lane; validate() runs host-side after all lanes acked
 * and checks the outputs (again via the backing store, which DMS
 * writes reach directly).
 */
struct ServingJob
{
    std::function<void()> stage;
    std::function<void(core::DpCore &, unsigned lane)> lane;
    std::function<bool()> validate;
};

/** One registered application. */
struct AppSpec
{
    /** Registry key, e.g. "hll-crc", "groupby-low". */
    std::string name;
    /** One-line description. */
    std::string summary;
    /** Figure 14 gain anchor (0 = not a Figure 14 bar). */
    double paperGain = 0;

    /** Fresh config with this entry's defaults. */
    std::function<ConfigHandle()> makeConfig;

    /**
     * Mutate @p cfg field @p key to @p value (decimal/bool/enum
     * token). @return false on unknown key or unparsable value.
     */
    std::function<bool(const ConfigHandle &cfg, std::string_view key,
                       std::string_view value)>
        set;

    /**
     * Full head-to-head: build the DPU kernel, run it and the Xeon
     * baseline, validate agreement. The AppResult carries the
     * validator verdict in .matched.
     */
    std::function<AppResult(const ConfigHandle &cfg)> run;

    /** Instantiate the app as a core-group serving job. */
    std::function<ServingJob(const ConfigHandle &cfg,
                             const ServingContext &ctx)>
        serve;
};

/** All registered apps, in Figure 14 row order. */
const std::vector<AppSpec> &registry();

/** Look up an app by name; nullptr when absent. */
const AppSpec *findApp(std::string_view name);

/**
 * Convenience: run app @p name with @p opts applied over the
 * defaults. Asserts the name and every option resolve.
 */
AppResult runApp(std::string_view name,
                 std::initializer_list<
                     std::pair<std::string_view, std::string_view>>
                     opts = {});

} // namespace dpu::apps

#endif // DPU_APPS_REGISTRY_HH
