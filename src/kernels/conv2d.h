/**
 * @file
 * 2-D convolution forward and backward: one band engine (im2col in
 * parent coordinates + packed GEMM) per direction, for split and
 * unsplit layers alike — an unsplit layer is the one-patch split.
 */
#ifndef SCNN_KERNELS_CONV2D_H
#define SCNN_KERNELS_CONV2D_H

#include "kernels/split_scheme.h"
#include "kernels/window.h"
#include "tensor/tensor.h"

namespace scnn {

/**
 * Split convolution forward (Eqs. 4-7 applied to conv2d), fused and
 * zero-copy; an unsplit layer passes wholeImageScheme. The weight is
 * packed as GEMM A panels once per call. Each work item of convWork
 * stages the im2col columns of every band it covers
 * (im2colViewStrided: whole parent rows under the unsplit window,
 * clipped to the band's H piece and masked at the width boundaries)
 * into one column matrix ordered by parent output position — one
 * band of one image, or every band of an image group side by side —
 * packs it into B panels once, and runs one GEMM
 * against the shared weight panels. C is the parent output itself
 * for one image, and a bounce buffer for an image group. Items write
 * disjoint output regions and every element accumulates K ascending
 * however the columns are grouped, so the result is bitwise-identical
 * for any thread count and to the unsplit kernel run on each
 * materialized patch.
 *
 * A call with more than one patch runs the debug hooks: the SA6xx
 * lint of buildSplitConvPlan and, with SCNN_SHADOW_ACCESS=1, a shadow
 * session checking every item's accesses against that plan. A
 * one-patch call opens no session, so unsplit nodes can share the
 * executor's parallel waves.
 *
 * @param x input, [N, C, H, W].
 * @param weight [OC, C, kh, kw].
 * @param bias [OC]; pass an empty tensor for no bias.
 * @param win the unsplit window (kernel extents must match @p weight).
 * @param scheme the split; its patch paddings replace win's.
 * @return output, [N, OC, outH, outW].
 */
Tensor splitConv2dForward(const Tensor &x, const Tensor &weight,
                          const Tensor &bias, const Window2d &win,
                          const SplitScheme2d &scheme);

/** splitConv2dForward over wholeImageScheme. */
Tensor conv2dForward(const Tensor &x, const Tensor &weight,
                     const Tensor &bias, const Window2d &win);

/** conv2dForward under the name the end-to-end benchmark
 * (perfbench) calls; nothing else should. */
inline Tensor
conv2dForwardAuto(const Tensor &x, const Tensor &weight,
                  const Tensor &bias, const Window2d &win)
{
    return conv2dForward(x, weight, bias, win);
}

/**
 * Split convolution backward; an unsplit layer passes
 * wholeImageScheme. The weight is packed transposed (W^T as GEMM A
 * panels) once per call. Each convWork item stages its columns once,
 * exactly as the forward does, and feeds both gradient GEMMs:
 *
 *   wgrad: the columns (packed A) x the item's grad_out columns
 *          packed transposed (gemmPackBStrided), into the reduction
 *          unit's partial — a banded image chains its bands
 *          (beta = 1), an image group is one GEMM with K = every
 *          column of the group. Partials reduce into grad_w serially
 *          in unit order (images, or groups, ascending).
 *   dgrad: W^T panels x the item's grad_out columns, scattered into
 *          grad_x band by band under the same clip and mask
 *          (col2imViewStrided).
 *
 * A grouped item reads grad_out through a bounce copy (its images'
 * blocks are not one strided matrix). Units fan out across the pool
 * in waves; a worker owns a unit and runs its items, images and bands
 * ascending, so halo scatters accumulate in a fixed order
 * and the result is bitwise-identical for any thread count (the SA609
 * discipline buildSplitConvBackwardPlan models). The bias gradient
 * sums each image's grad_out rows and reduces them in image order.
 * Debug hooks as in splitConv2dForward.
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

/** splitConv2dBackward over wholeImageScheme. */
void conv2dBackward(const Tensor &x, const Tensor &weight,
                    const Tensor &grad_out, const Window2d &win,
                    Tensor &grad_x, Tensor &grad_w, Tensor &grad_b);

} // namespace scnn

#endif // SCNN_KERNELS_CONV2D_H
