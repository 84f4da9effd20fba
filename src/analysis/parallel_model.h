/**
 * @file
 * Suite 6: parallel-execution safety (SA6xx) — a static model of the
 * work-item decompositions the fused split kernels and the executor's
 * wave scheduler actually run, precise enough to *prove* them
 * race-free instead of sampling them with TSan.
 *
 * The model is a ParallelPlan: named memory regions plus work items
 * grouped into epochs (items sharing an epoch may run concurrently;
 * epochs are separated by barriers). Every item carries its exact
 * access footprint as strided spans. analyzeParallelPlan() then
 * checks, per region:
 *
 *   SA601  same-epoch items with overlapping write sets (or a
 *          write overlapping another item's read) — a data race
 *   SA602  an access outside the region's bounds
 *   SA603  a write to a read-only region (weight panels, inputs)
 *   SA604  an access to a scratch-arena region owned by another item
 *   SA605  in an `ordered` region, a read of a slot with no write in
 *          any earlier epoch (happens-before violation)
 *   SA606  in a `serial_stats` region, same-epoch writes to one slot
 *          or epoch order disagreeing with serial order (the deferred
 *          BN running-stat determinism contract)
 *   SA608  an `exact_cover` region whose union of write sets leaves
 *          a gap (the decomposition does not tile the output)
 *   SA609  in an `ordered_accum` region, overlapping writes from the
 *          same epoch or with epoch order disagreeing with serial
 *          order — the backward halo-accumulation contract: patches
 *          sharing halo rows scatter-add into the parent gradient,
 *          which is only race-free *and* bitwise-deterministic when
 *          every overlapping pair is serialized in a fixed order
 *          (one worker owns the image; bands/patches run ascending)
 *
 * (SA607 — a *recorded* access escaping the predicted footprint — is
 * emitted by the shadow-access validator, shadow_access.h.)
 *
 * The builders mirror the engine's parallel surfaces (forward and
 * backward). They derive the decomposition from the same shared
 * helpers the kernels use (convWork, lowerGraph,
 * computeExecutionWaves), so the model cannot silently diverge from
 * the code it describes:
 *
 *  - buildSplitConvPlan: splitConv2dForward's convWork items — one
 *    row band of one image, or every band of an image group. Per
 *    image, an item writes its output rows of every output channel
 *    at the parent channel stride (one span
 *    {base, n1=oc, s1=oh*ow, len=rows*ow} per image), reads the halo
 *    rectangles of every patch it stages, shares the packed weight
 *    panels read-only, and owns a private scratch-arena region for
 *    its staged columns (and a group's C bounce buffer).
 *  - buildSplitPoolPlan: the image x patch items of the fused pool
 *    paths; a patch writes the block
 *    [out_start_h, out_end_h) x [out_start_w, out_end_w) of every
 *    channel ({base, n1=c, s1=oh*ow, n2=outLen_h, s2=ow,
 *    len=outLen_w}).
 *  - buildSplitBatchNormPlan: the split-BN channel items and its
 *    per-patch running-stat updates.
 *  - buildExecutorWavePlan: the executor's dependency waves over the
 *    lowered node list's value slots (slot-granular, `ordered`),
 *    parameter reads, and — in training mode — the deferred BN
 *    running-stat updates as their own post-barrier serial epochs
 *    (`serial_stats`). The serial fallback for narrow waves and
 *    waves holding region nodes runs a wave's nodes on the caller in
 *    wave order, which only *strengthens* the modeled happens-before
 *    edges, so one plan covers both schedules.
 *
 * analyzeParallelExecution() is the battery `scnn lint --parallel`
 * runs: the wave plan for the graph plus a split-conv/pool plan for
 * every window op at a given split grid.
 */
#ifndef SCNN_ANALYSIS_PARALLEL_MODEL_H
#define SCNN_ANALYSIS_PARALLEL_MODEL_H

#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "graph/graph.h"
#include "kernels/split_scheme.h"

namespace scnn {

/**
 * A strided set of float offsets inside one region: the union of
 *   base + i1*s1 + i2*s2 + [0, len)   for i1 < n1, i2 < n2.
 * n1 = n2 = 1 degenerates to a plain interval. This is exactly the
 * shape of a band/patch footprint: (channel stride) x (row stride) x
 * contiguous row segment.
 */
struct StridedSpan
{
    int64_t base = 0;
    int64_t n1 = 1; ///< outer repeat count (e.g. channels)
    int64_t s1 = 0; ///< outer stride (e.g. oh*ow)
    int64_t n2 = 1; ///< inner repeat count (e.g. rows)
    int64_t s2 = 0; ///< inner stride (e.g. ow)
    int64_t len = 0; ///< contiguous floats per (i1, i2)

    /** A plain contiguous interval [base, base+len). */
    static StridedSpan
    interval(int64_t base, int64_t len)
    {
        return {base, 1, 0, 1, 0, len};
    }

    int64_t count() const { return n1 * n2; } ///< expanded intervals
};

/** One access of one work item. */
struct ParallelAccess
{
    int region = -1; ///< index into ParallelPlan::regions
    bool write = false;
    StridedSpan span;
};

/** One unit of concurrent work (a band, a patch, a graph node). */
struct ParallelItem
{
    std::string name;
    /** Barrier group: items sharing an epoch may run concurrently;
     * all of epoch e completes before any of epoch e+1 starts. */
    int64_t epoch = 0;
    /** Serial position for `serial_stats` checks (-1 = unordered).
     * In the executor plan this is the topological index of the
     * deferred update, the order the serial replay phase applies. */
    int64_t seq = -1;
    std::vector<ParallelAccess> accesses;
};

/** One shared memory region (sizes and offsets in floats). */
struct ParallelRegion
{
    std::string name;
    int64_t size = 0;
    bool read_only = false;   ///< any write is SA603
    bool exact_cover = false; ///< write-set union must tile [0, size)
    bool ordered = false;     ///< reads need an earlier-epoch write
    bool serial_stats = false; ///< writes serialized in seq order
    /** Scatter-accumulate region (backward gradients): overlapping
     * writes are *expected* (halo rows, shared weight gradients) but
     * must come from distinct epochs whose order agrees with serial
     * (seq) order — checked as SA609. Epochs here encode per-worker
     * serial program order (a worker owns all of an image's items),
     * not global barriers; only overlapping pairs are constrained,
     * and overlaps are intra-image by construction. */
    bool ordered_accum = false;
    int64_t owner = -1; ///< owning item index, or -1 = shared
};

/** A complete static model of one parallel execution. */
struct ParallelPlan
{
    std::string name;
    std::vector<ParallelRegion> regions;
    std::vector<ParallelItem> items;
};

/** Index of the region named @p name, or -1. */
int64_t findParallelRegion(const ParallelPlan &plan,
                           const std::string &name);

/** Display name of item @p item ("item N" when unnamed/invalid). */
std::string parallelItemName(const ParallelPlan &plan, int64_t item);

/**
 * Check one ParallelPlan (SA601-SA606, SA608; see file header).
 * Total over corrupt plans: malformed indices yield diagnostics,
 * never a panic.
 */
std::vector<Diagnostic> analyzeParallelPlan(const ParallelPlan &plan);

/** Panic with the first finding unless analyzeParallelPlan(@p plan)
 * is clean: the check behind every lintParallelEnabled() hook. */
void checkParallelPlan(const ParallelPlan &plan);

/**
 * Model splitConv2dForward for @p n images of a
 * C x ih x iw input under @p scheme. Reads are modeled as each patch's
 * halo rectangle (a conservative contiguous hull per patch and image —
 * exactly what the shadow recorder logs).
 */
ParallelPlan buildSplitConvPlan(int64_t n, int64_t c, int64_t ih,
                                int64_t iw, int64_t oc,
                                const Window2d &win,
                                const SplitScheme2d &scheme);

/** Model the fused split-pool paths (image x patch items). */
ParallelPlan buildSplitPoolPlan(int64_t n, int64_t c, int64_t ih,
                                int64_t iw, const SplitScheme2d &scheme);

/**
 * Model splitConv2dBackward: wgrad reduction
 * units (images, or image groups) fan out across workers, and a
 * worker runs its unit's convWork items serially ascending — so the
 * plan's epochs encode that per-unit serial order. Per item: grad_x
 * scatter hulls (band-restricted, mirroring col2imViewStrided, per
 * image) land in the `ordered_accum` grad_x region, grad_out rows and
 * patch input hulls are read, the packed dgrad (W^T) panels are
 * shared read-only, and the unit's wgrad partial accumulator chains
 * items under the same ordered discipline. A per-image bias item then
 * reduces grad_out rows into its slot of the unit's accumulator, and
 * a per-unit reduction item — serialized in unit order after each
 * wave — folds the partial into the shared grad_w / grad_b regions
 * (both `ordered_accum`).
 */
ParallelPlan buildSplitConvBackwardPlan(int64_t n, int64_t c,
                                        int64_t ih, int64_t iw,
                                        int64_t oc, const Window2d &win,
                                        const SplitScheme2d &scheme);

/**
 * Images a conv plan models so that two wgrad reduction units are
 * present: min(@p n, 2 * the conv's image group). Unit footprints
 * are identical translates, so two units prove every inter-unit pair
 * (and, for groups, every inter-group reduction order).
 */
int64_t convModelBatch(int64_t n, int64_t krows,
                       const SplitScheme2d &scheme);

/**
 * Model the fused split-pool backward paths: image x patch items
 * scatter-adding window gradients through each patch's input hull
 * into the `ordered_accum` grad_x region (halo rows overlap between
 * neighbouring patches of one image; a worker owns the image and
 * runs its patches serially ascending).
 */
ParallelPlan buildSplitPoolBackwardPlan(int64_t n, int64_t c,
                                        int64_t ih, int64_t iw,
                                        const SplitScheme2d &scheme);

/**
 * Model the split-BN kernels (splitBatchNormForwardStats /
 * splitBatchNormBackward, and the unsplit BN as one full patch) for
 * @p n images of a C x h x w tensor over @p patches. Three phases in
 * epoch order: forward channel items (each owns its channel's output
 * and x_hat planes and its column of the per-patch statistics), one
 * running-stat update per patch in ascending patch order on the
 * `serial_stats` running-stat region (the SA606 contract), and
 * backward channel items writing grad_x planes and their channel's
 * grad_gamma / grad_beta.
 */
ParallelPlan buildSplitBatchNormPlan(int64_t n, int64_t c, int64_t h,
                                     int64_t w,
                                     const std::vector<PatchView> &patches);

/**
 * Every plan the split kernels of @p graph's region nodes (lowerGraph)
 * run under their real schemes, each paired with the layer's first
 * clone and named after the layer (batch modeled as two work units,
 * as in analyzeParallelExecution): conv
 * forward and backward, pool forward and backward, or the split-BN
 * plan. ReLU and Add region nodes run elementwise kernels over the
 * parents and need none.
 */
std::vector<std::pair<NodeId, ParallelPlan>>
buildRegionNodePlans(const Graph &graph);

/**
 * Model the executor's wave-parallel forward pass over @p graph as
 * lowered for execution (lowerGraph: a split region's clones are one
 * region node per layer). @p training adds the deferred BN
 * running-stat updates as serial post-wave epochs writing the shared
 * param slots — one per patch for a split layer.
 */
ParallelPlan buildExecutorWavePlan(const Graph &graph, bool training);

/**
 * The `scnn lint --parallel` battery: the executor wave plan
 * (training mode — the superset of the inference-mode model), the
 * region-node plans of a split graph under their real schemes, plus
 * a split plan for every Conv2d / MaxPool2d / AvgPool2d node at an
 * (at most) @p splits_h x @p splits_w even split grid, clamped per
 * node to its output extents. Batch is modeled as two work units
 * (min(n, 2) images, or convModelBatch for a conv): unit footprints
 * are identical translates, so two suffice to prove inter-unit
 * disjointness for any batch.
 */
std::vector<Diagnostic> analyzeParallelExecution(const Graph &graph,
                                                 int splits_h,
                                                 int splits_w);

/**
 * Whether the parallel-safety debug hooks (split conv, pool and BN
 * calls with more than one patch, Executor construction) are active: compiled in for !NDEBUG builds,
 * switchable at run time with SCNN_LINT_PARALLEL=1/0. The same
 * contract as lintPlansEnabled().
 */
bool lintParallelEnabled();

} // namespace scnn

#endif // SCNN_ANALYSIS_PARALLEL_MODEL_H
