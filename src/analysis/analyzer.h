/**
 * @file
 * Static plan/graph verifier (`scnn lint`): proves every plan the
 * planner (or the degradation chain) emits is well-formed *before*
 * anything executes, without running a single op. Five check suites,
 * each with stable SAxxx diagnostic codes (see diagnostics.h):
 *
 *   1. graph well-formedness            (SA1xx)
 *   2. TSO refcount & aliasing legality (SA2xx, Sec. 4.2)
 *   3. offload/prefetch ordering        (SA3xx, Sec. 4.3 / Alg. 1)
 *   4. pool overlap / live ranges       (SA4xx, Sec. 4.4)
 *   5. split-scheme validity            (SA5xx, Eqs. 1-2 and 5)
 *
 * Every entry point is total over corrupt inputs: a malformed plan
 * yields diagnostics, never a panic or an out-of-range access.
 */
#ifndef SCNN_ANALYSIS_ANALYZER_H
#define SCNN_ANALYSIS_ANALYZER_H

#include <vector>

#include "analysis/diagnostics.h"
#include "kernels/split_scheme.h"
#include "graph/backward.h"
#include "graph/graph.h"
#include "hmms/plan.h"
#include "hmms/static_planner.h"
#include "hmms/tso.h"

namespace scnn {

/** Knobs threaded through the plan-level checks. */
struct AnalyzerOptions
{
    /** Must match the options the plans were built with. */
    BackwardOptions backward;
};

/**
 * Suite 2: storage-assignment legality — stored reference counts
 * match the tensor->TSO maps (no underflow), value-TSO sharing only
 * through in-place ReLU or flatten views, gradient-TSO sharing only
 * through summation-error sharing, no TSO both value and gradient,
 * and every TSO at least as large as each tensor mapped to it.
 */
std::vector<Diagnostic>
analyzeStorage(const Graph &graph, const StorageAssignment &assignment);

/**
 * Suite 3: offload/prefetch schedule — the four critical moments of
 * every offloaded TSO exist, are unique, and are ordered; offloads
 * start only after the last forward write and free only after the
 * last forward reader; prefetches complete before the first backward
 * use; transferred TSOs carry a stream; and the cross-stream event
 * graph (compute order x per-stream FIFO x sync edges) is acyclic.
 */
std::vector<Diagnostic>
analyzeSchedule(const Graph &graph, const StorageAssignment &assignment,
                const MemoryPlan &plan, const AnalyzerOptions &options = {});

/**
 * Suite 4: static layout — every planned access falls inside a live
 * interval of its TSO, simultaneously-live intervals never share
 * pool bytes, every interval is placed inside the pool high-water
 * mark, and interval sizes agree with their TSOs.
 *
 * @param checked_accesses if non-null, receives the number of
 *        access/overlap facts examined (the residency checker's
 *        coverage metric).
 */
std::vector<Diagnostic>
analyzeLayout(const Graph &graph, const StorageAssignment &assignment,
              const MemoryPlan &plan, const StaticMemoryPlan &static_plan,
              const AnalyzerOptions &options = {},
              int *checked_accesses = nullptr);

/**
 * Suite 5: split-scheme validity — re-derives Eqs. 1-2 and the
 * corrected Eq. 5 padding formulas for @p scheme over an op with
 * input extent @p w: pieces tile input and output partitions exactly,
 * each split point lies in [lb, ub], and each patch's halo padding
 * yields exactly its output extent.
 */
std::vector<Diagnostic> lintSplitScheme(const WindowParams1d &op,
                                        int64_t w,
                                        const SplitScheme1d &scheme);

/**
 * The whole battery (suites 1-4; suite 5's graph-level facts are
 * covered by the slice/concat geometry checks of suite 1): verify a
 * Graph x Plan pair without executing anything. This is what
 * `scnn lint` runs and what the degradation chain consults before
 * accepting a fallback plan.
 */
std::vector<Diagnostic>
analyzePlan(const Graph &graph, const StorageAssignment &assignment,
            const MemoryPlan &plan, const StaticMemoryPlan &static_plan,
            const AnalyzerOptions &options = {});

/**
 * Whether the debug-build plan lint hooks in planMemory/simulatePlan
 * are active: compiled in for !NDEBUG builds, and switchable at run
 * time with SCNN_LINT_PLANS=1 (on) / SCNN_LINT_PLANS=0 (off).
 */
bool lintPlansEnabled();

} // namespace scnn

#endif // SCNN_ANALYSIS_ANALYZER_H
