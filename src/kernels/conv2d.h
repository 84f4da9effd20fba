/**
 * @file
 * 2-D convolution forward and backward kernels (im2col + GEMM).
 */
#ifndef SCNN_KERNELS_CONV2D_H
#define SCNN_KERNELS_CONV2D_H

#include "kernels/split_scheme.h"
#include "kernels/window.h"
#include "tensor/tensor.h"

namespace scnn {

/**
 * Forward convolution.
 *
 * @param x input, [N, C, H, W].
 * @param weight [OC, C, kh, kw].
 * @param bias [OC]; pass an empty tensor for no bias.
 * @param win window geometry (kernel extents must match @p weight).
 * @return output, [N, OC, outH, outW].
 */
Tensor conv2dForward(const Tensor &x, const Tensor &weight,
                     const Tensor &bias, const Window2d &win);

/**
 * Forward convolution with automatic algorithm selection: Winograd
 * F(2x2, 3x3) for 3x3 stride-1 windows (cuDNN-style fast path, used
 * by the executor), im2col + GEMM otherwise.
 */
Tensor conv2dForwardAuto(const Tensor &x, const Tensor &weight,
                         const Tensor &bias, const Window2d &win);

/**
 * Backward convolution.
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
 * The band-fused backward engine behind conv2dBackward (the whole
 * image as the one patch) and splitConv2dBackward. Per image, each
 * 16-row output band of a patch-row group stages its patches'
 * halo-aware im2col columns (im2colViewStrided) once and feeds both
 * gradient GEMMs:
 *
 *   wgrad: the columns (packed A) x the band's grad_out rows packed
 *          transposed straight from the parent tensor
 *          (gemmPackBStrided), chained across the image's bands
 *          (beta = 1) into a per-image partial; partials reduce into
 *          grad_w serially in image order.
 *   dgrad: W^T panels x the band's grad_out rows, scattered into
 *          grad_x through each patch's view (col2imViewStrided).
 *
 * Images fan out across the pool in waves; a worker owns an image
 * and runs its bands and patches ascending, so halo scatters
 * accumulate in a fixed order and the result is bitwise-identical
 * for any thread count (the SA609 discipline
 * buildSplitConvBackwardPlan models; its shadow-access claims are
 * recorded here).
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
