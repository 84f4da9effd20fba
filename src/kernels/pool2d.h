/**
 * @file
 * Max and average 2-D pooling kernels with asymmetric padding: one
 * forward loop and one backward loop, for split and unsplit layers
 * alike (an unsplit layer is the one-patch split).
 */
#ifndef SCNN_KERNELS_POOL2D_H
#define SCNN_KERNELS_POOL2D_H

#include <cstdint>
#include <vector>

#include "kernels/split_scheme.h"
#include "tensor/tensor.h"

namespace scnn {

/**
 * @name Split pooling (an unsplit layer passes wholeImageScheme)
 *
 * Zero-copy: each (image, patch) item pools its patch straight out of
 * the parent tensor through the patch's view (window taps outside the
 * view read as the split scheme's zero padding) and writes the
 * patch's block of the parent output — no pad2d input copy, no
 * per-patch output tensor, no concat. Each patch block holds exactly
 * the bytes the unsplit kernel computes on that patch materialized.
 *
 * The backwards scatter through each patch's view into the parent
 * grad_x: a worker owns an image and walks its patches in ascending
 * order, so halo rows (windows straddling a patch seam when k > s)
 * accumulate in a fixed order — bitwise-deterministic for any thread
 * count.
 *
 * A call with more than one patch runs the debug hooks: the SA6xx
 * lint of buildSplitPoolPlan / buildSplitPoolBackwardPlan and, with
 * SCNN_SHADOW_ACCESS=1, a shadow session checking every item against
 * it. A one-patch call opens no session.
 */
///@{
/**
 * Max-pool forward.
 *
 * @param argmax [out] per output element, the linear index into the
 *        whole input tensor of the max of its patch-clipped window
 *        (-1 for an all-padding window, whose output is 0); sized by
 *        the kernel. Consumed by splitMaxPool2dBackward.
 */
Tensor splitMaxPool2dForward(const Tensor &x, const Window2d &win,
                             const SplitScheme2d &scheme,
                             std::vector<int64_t> &argmax);

/**
 * Average-pool forward. Padding elements count toward the divisor
 * (count_include_pad semantics), so a window is always divided by
 * kh*kw. This keeps split/unsplit equivalence exact for natural
 * splits.
 */
Tensor splitAvgPool2dForward(const Tensor &x, const Window2d &win,
                             const SplitScheme2d &scheme);

/** Max-pool backward: route each patch's grad_out block to its argmax
 * positions (from splitMaxPool2dForward under the same scheme; each
 * lies inside its patch's input rectangle by Eqs. 1-2). */
Tensor splitMaxPool2dBackward(const Shape &in_shape,
                              const Tensor &grad_out,
                              const std::vector<int64_t> &argmax,
                              const SplitScheme2d &scheme);

/** Average-pool backward, the exact adjoint of splitAvgPool2dForward:
 * every in-view tap of an output receives grad * 1/(kh*kw). */
Tensor splitAvgPool2dBackward(const Shape &in_shape,
                              const Tensor &grad_out,
                              const Window2d &win,
                              const SplitScheme2d &scheme);
///@}

/** @name Unsplit pooling: the split kernels over one whole-image patch */
///@{
Tensor maxPool2dForward(const Tensor &x, const Window2d &win,
                        std::vector<int64_t> &argmax);
Tensor maxPool2dBackward(const Shape &x_shape, const Tensor &grad_out,
                         const std::vector<int64_t> &argmax);
Tensor avgPool2dForward(const Tensor &x, const Window2d &win);
Tensor avgPool2dBackward(const Shape &x_shape, const Tensor &grad_out,
                         const Window2d &win);
///@}

/** Global average pool: [N, C, H, W] -> [N, C, 1, 1]. */
Tensor globalAvgPoolForward(const Tensor &x);

/** Global average pool backward. */
Tensor globalAvgPoolBackward(const Shape &x_shape,
                             const Tensor &grad_out);

} // namespace scnn

#endif // SCNN_KERNELS_POOL2D_H
