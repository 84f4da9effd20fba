/**
 * @file
 * 2-D convolution forward and backward kernels: one band engine
 * (halo-aware im2col + packed GEMM) for split and unsplit layers.
 */
#ifndef SCNN_KERNELS_CONV2D_H
#define SCNN_KERNELS_CONV2D_H

#include "kernels/split_scheme.h"
#include "kernels/window.h"
#include "tensor/tensor.h"

namespace scnn {

/**
 * Forward convolution: conv2dForwardPatches with the whole image as
 * the one patch and the weight panels packed once per call.
 *
 * @param x input, [N, C, H, W].
 * @param weight [OC, C, kh, kw].
 * @param bias [OC]; pass an empty tensor for no bias.
 * @param win window geometry (kernel extents must match @p weight).
 * @return output, [N, OC, outH, outW].
 */
Tensor conv2dForward(const Tensor &x, const Tensor &weight,
                     const Tensor &bias, const Window2d &win);

/** conv2dForward under the name some callers (the benchmark) use. */
inline Tensor
conv2dForwardAuto(const Tensor &x, const Tensor &weight,
                  const Tensor &bias, const Window2d &win)
{
    return conv2dForward(x, weight, bias, win);
}

/**
 * The band engine's forward behind conv2dForward (the whole image as
 * the one patch) and splitConv2dForward. Each work item of convWork
 * stages the halo-aware im2col columns of every patch it covers
 * (im2colViewStrided) into one column matrix ordered by parent output
 * position — one band of one image, or every band of an image group
 * side by side — packs it into B panels once, and runs one GEMM
 * against the shared weight panels. C is the parent output itself
 * for one image, and a bounce buffer for an image group. Items write
 * disjoint output regions and every element accumulates K ascending
 * however the columns are grouped, so the result is bitwise-identical
 * for any thread count and to the unsplit kernel run on each
 * materialized patch. Shadow claims are recorded per item
 * (buildSplitConvPlan).
 *
 * @param weight [OC, C, kh, kw]; only its shape is read.
 * @param w_panels the weight packed as GEMM A panels:
 *        gemmPackA(oc, krows, 1, weight, ...).
 */
Tensor conv2dForwardPatches(const Tensor &x, const Tensor &weight,
                            const float *w_panels, const Tensor &bias,
                            const Window2d &win,
                            const SplitScheme2d &scheme);

/**
 * Backward convolution: conv2dBackwardPatches with the whole image as
 * the one patch and the W^T panels packed once per call.
 *
 * @param x forward input.
 * @param weight forward weight.
 * @param grad_out gradient w.r.t. the forward output.
 * @param win window geometry.
 * @param grad_x [out] gradient w.r.t. x (overwritten).
 * @param grad_w [out] gradient w.r.t. weight (accumulated into).
 * @param grad_b [out] gradient w.r.t. bias (accumulated into); pass an
 *        empty tensor when the convolution has no bias.
 */
void conv2dBackward(const Tensor &x, const Tensor &weight,
                    const Tensor &grad_out, const Window2d &win,
                    Tensor &grad_x, Tensor &grad_w, Tensor &grad_b);

/**
 * The band engine's backward behind conv2dBackward and
 * splitConv2dBackward. Each convWork item stages its columns once,
 * exactly as the forward does, and feeds both gradient GEMMs:
 *
 *   wgrad: the columns (packed A) x the item's grad_out columns
 *          packed transposed (gemmPackBStrided), into the reduction
 *          unit's partial — a banded image chains its bands
 *          (beta = 1), an image group is one GEMM with K = every
 *          column of the group. Partials reduce into grad_w serially
 *          in unit order (images, or groups, ascending).
 *   dgrad: W^T panels x the item's grad_out columns, scattered into
 *          grad_x through each patch's view (col2imViewStrided).
 *
 * A grouped item reads grad_out through a bounce copy (its images'
 * blocks are not one strided matrix). Units fan out across the pool
 * in waves; a worker owns a unit and runs its items, images, bands
 * and patches ascending, so halo scatters accumulate in a fixed order
 * and the result is bitwise-identical for any thread count (the SA609
 * discipline buildSplitConvBackwardPlan models; its shadow-access
 * claims are recorded here). The bias gradient sums each image's
 * grad_out rows and reduces them in image order.
 *
 * @param wt_panels W^T packed as GEMM A panels:
 *        gemmPackAStrided(krows, oc, 1, weight, 1, krows).
 * @param grad_x [in/out] zero-filled at x's shape; receives dL/dx.
 * @param grad_w [out] accumulated into (shaped like the weight).
 * @param grad_b [out] accumulated into; empty when there is no bias.
 */
void conv2dBackwardPatches(const Tensor &x, const float *wt_panels,
                           const Tensor &grad_out, const Window2d &win,
                           const SplitScheme2d &scheme, Tensor &grad_x,
                           Tensor &grad_w, Tensor &grad_b);

} // namespace scnn

#endif // SCNN_KERNELS_CONV2D_H
