/**
 * @file
 * Internal head-to-head entry points, one per Section 5 app.
 *
 * These are the typed run functions registry.cc hands to each
 * AppSpec as its run callable: DPU run + Xeon baseline + validation,
 * folded into one AppResult. The registry (apps/registry.hh) is the
 * sole public entry path; this header exists only so the
 * definitions in the app .cc files and registry.cc agree on a
 * signature. Do not include it outside src/apps/.
 */

#ifndef DPU_APPS_ENTRY_HH
#define DPU_APPS_ENTRY_HH

#include "apps/common.hh"
#include "apps/disparity.hh"
#include "apps/hll.hh"
#include "apps/json.hh"
#include "apps/simsearch.hh"
#include "apps/sql/filter.hh"
#include "apps/sql/groupby.hh"
#include "apps/svm.hh"

namespace dpu::apps {

AppResult svmApp(const SvmConfig &cfg);
AppResult simSearchApp(const SimSearchConfig &cfg);
AppResult hllApp(const HllConfig &cfg);
AppResult jsonApp(const JsonConfig &cfg);
AppResult disparityApp(const DisparityConfig &cfg);

namespace sql {
AppResult filterApp(const FilterConfig &cfg);
AppResult groupByLowApp(const GroupByConfig &cfg);
AppResult groupByHighApp(const GroupByConfig &cfg);
} // namespace sql

} // namespace dpu::apps

#endif // DPU_APPS_ENTRY_HH
