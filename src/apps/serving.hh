/**
 * @file
 * Core-group serving kernels: each Section 5 application re-cast as
 * a ServingJob the offload scheduler can dispatch to an arbitrary
 * group of dpCores inside a long-lived serving chip (the deployment
 * model of Section 2.4, where the A9 host feeds work to the
 * dpCores over the MBC).
 *
 * Unlike the dpu* head-to-head runners — which build a whole Soc per
 * invocation — a serving job stages its inputs into a job-private
 * DDR arena, runs one kernel lane per group core, and is validated
 * host-side against the exact answer it computed from the same input
 * while staging (JSON: the tally its generator wrote). All
 * input/output moves go through the DMS (which reads and writes the
 * DDR backing store directly), so jobs never depend on the
 * non-coherent core caches observing another job's data.
 */

#ifndef DPU_APPS_SERVING_HH
#define DPU_APPS_SERVING_HH

#include "apps/disparity.hh"
#include "apps/hll.hh"
#include "apps/json.hh"
#include "apps/registry.hh"
#include "apps/simsearch.hh"
#include "apps/sql/filter.hh"
#include "apps/sql/groupby.hh"
#include "apps/svm.hh"

namespace dpu::apps::serving {

/** Predicate scan: per-lane FILT over a uint32 column slice. */
ServingJob filterJob(const sql::FilterConfig &cfg,
                     const ServingContext &ctx);

/** Low-NDV aggregation: per-lane DMEM sum tables, host merge. */
ServingJob groupByJob(const sql::GroupByConfig &cfg,
                      const ServingContext &ctx);

/** Cardinality sketch: per-lane HLL register files, host merge. */
ServingJob hllJob(const HllConfig &cfg, const ServingContext &ctx);

/** JSON tally: per-lane boundary-exact parse of a text slice. */
ServingJob jsonJob(const JsonConfig &cfg, const ServingContext &ctx);

/** SVM inference: classify a test batch against staged weights. */
ServingJob svmJob(const SvmConfig &cfg, const ServingContext &ctx);

/** Similarity scoring: Q10.22 posting-list scan against a query. */
ServingJob simSearchJob(const SimSearchConfig &cfg,
                        const ServingContext &ctx);

/** Stereo disparity: row-banded SAD argmin. */
ServingJob disparityJob(const DisparityConfig &cfg,
                        const ServingContext &ctx);

} // namespace dpu::apps::serving

#endif // DPU_APPS_SERVING_HH
