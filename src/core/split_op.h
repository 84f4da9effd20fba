/**
 * @file
 * Execution of a split window-based operation (Eqs. 4-7):
 * Split_W(X, I) -> per-patch Op with computed paddings -> concat.
 *
 * The 2-D case composes two independent 1-D schemes (height and
 * width), yielding h.parts() x w.parts() patches as in Figure 2.
 * The kernels here never materialize a patch: patches are views into
 * the full-size parent tensors, and each op writes the parent output
 * directly, so the concat is implicit. The executor runs every split
 * region of a transformed graph through them.
 */
#ifndef SCNN_CORE_SPLIT_OP_H
#define SCNN_CORE_SPLIT_OP_H

#include <vector>

#include "kernels/split_scheme.h"
#include "tensor/tensor.h"

namespace scnn {

/**
 * Split convolution forward (Eqs. 4-7 applied to conv2d), fused and
 * zero-copy: the band engine conv2dForwardPatches (kernels/conv2d.h)
 * over the scheme's patch views — no pad2d copy, no per-patch output
 * tensors, no concat. Every patch of a work item (one output-row
 * band, or every band of a small-image group) stages its halo-aware
 * im2col columns into one shared column matrix ordered by parent
 * output position, packed into B panels once, and the GEMM's C is the
 * parent output — so the GEMM runs at (at least) the unsplit
 * convolution's shape and the split overhead reduces to the per-patch
 * im2col flank handling. Weight panels are packed once per
 * (layer, split) via a keyed cache, not once per call.
 */
Tensor splitConv2dForward(const Tensor &x, const Tensor &weight,
                          const Tensor &bias, const Window2d &win,
                          const SplitScheme2d &scheme);

/** @name Per-(layer, split) weight-panel cache
 *
 * The split conv kernels pack their weight operand (forward GEMM A
 * panels, or the backward W^T panels) at most once per layer: a small
 * keyed LRU cache holds the packed panels across calls, keyed by
 * weight identity, shape, layout, and the active microkernel, and
 * validated by a full content hash (64-bit words) so in-place weight
 * updates (training) repack instead of serving stale panels.
 */
///@{
struct SplitWeightCacheStats
{
    int64_t hits = 0;   ///< lookups served from cached panels
    int64_t misses = 0; ///< lookups that had to pack
    int64_t evictions = 0; ///< entries displaced at capacity
    int64_t entries = 0; ///< live cached layers
};

/** Snapshot of the cache counters (process-wide). */
SplitWeightCacheStats splitWeightCacheStats();

/** Drop every cached panel and zero the counters (tests). */
void splitWeightCacheClear();

/** The content hash that validates every cache hit: exhaustive over
 * the weight's @p count floats, read as 64-bit words (benches time it
 * against the pack a hit saves). */
uint64_t splitWeightCacheHash(const float *w, int64_t count);
///@}

/**
 * @name Split pooling forward
 *
 * Reads halo-aware PatchViews of the parent and writes the strided
 * parent output directly, parallelized over image x patch work
 * items. The patch kernels replay maxPool2dForward /
 * avgPool2dForward's clip tests and tap order, so each patch block
 * holds exactly the bytes the unsplit kernel computes on that patch.
 */
///@{
/** Split max-pool forward. @p argmax receives, per output element,
 * the linear index into the whole input tensor of the max of its
 * patch-clipped window (-1 for an all-padding window) — the routing
 * splitMaxPool2dBackward consumes. */
Tensor splitMaxPool2dForward(const Tensor &x, const Window2d &win,
                             const SplitScheme2d &scheme,
                             std::vector<int64_t> &argmax);

Tensor splitAvgPool2dForward(const Tensor &x, const Window2d &win,
                             const SplitScheme2d &scheme);
///@}

/**
 * Split convolution backward: the band-fused zero-copy engine
 * conv2dBackwardPatches (kernels/conv2d.h) over the scheme's patch
 * views, with the W^T panels served from the weight-panel cache under
 * a dgrad key. Gradient patches are never materialized; halo rows
 * accumulate in each image's serial band/patch order (the SA609
 * ordered-accumulation discipline), so the result is
 * bitwise-identical for any thread count.
 *
 * @param grad_x [out] overwritten with dL/dx at x's shape.
 * @param grad_w [out] accumulated into (pre-shaped like weight).
 * @param grad_b [out] accumulated into; pass an empty tensor when the
 *        convolution has no bias.
 */
void splitConv2dBackward(const Tensor &x, const Tensor &weight,
                         const Tensor &grad_out, const Window2d &win,
                         const SplitScheme2d &scheme, Tensor &grad_x,
                         Tensor &grad_w, Tensor &grad_b);

/**
 * @name Split pooling backward
 *
 * Scatters gradients through each patch's PatchView into the parent
 * grad_x: a worker owns an image and walks its patches in ascending
 * order, so halo rows (windows straddling a patch seam when k > s)
 * accumulate in a fixed order — bitwise-deterministic for any thread
 * count.
 *
 * @p argmax comes from splitMaxPool2dForward (linear indices into the
 * whole input tensor); every argmax of an output in a patch's block
 * lies inside that patch's input rectangle by the scheme's
 * construction (Eqs. 1-2).
 */
///@{
Tensor splitMaxPool2dBackward(const Shape &in_shape,
                              const Tensor &grad_out,
                              const std::vector<int64_t> &argmax,
                              const SplitScheme2d &scheme);

Tensor splitAvgPool2dBackward(const Shape &in_shape,
                              const Tensor &grad_out,
                              const Window2d &win,
                              const SplitScheme2d &scheme);
///@}

} // namespace scnn

#endif // SCNN_CORE_SPLIT_OP_H
