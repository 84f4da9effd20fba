/**
 * @file
 * Max and average 2-D pooling kernels with asymmetric padding.
 */
#ifndef SCNN_KERNELS_POOL2D_H
#define SCNN_KERNELS_POOL2D_H

#include <cstdint>
#include <vector>

#include "kernels/window.h"
#include "tensor/tensor.h"

namespace scnn {

/**
 * Max-pool forward.
 *
 * @param x input, [N, C, H, W].
 * @param win window geometry.
 * @param argmax [out] linear input index of the max for each output
 *        element (or -1 if the window saw only padding); sized by the
 *        kernel. Used by maxPool2dBackward.
 * @return pooled output.
 */
Tensor maxPool2dForward(const Tensor &x, const Window2d &win,
                        std::vector<int64_t> &argmax);

/** Max-pool backward: route grad_out to the argmax positions. */
Tensor maxPool2dBackward(const Shape &x_shape, const Tensor &grad_out,
                         const std::vector<int64_t> &argmax);

/**
 * Average-pool forward. Padding elements count toward the divisor
 * (count_include_pad semantics), so a window is always divided by
 * kh*kw. This keeps split/unsplit equivalence exact for natural
 * splits.
 */
Tensor avgPool2dForward(const Tensor &x, const Window2d &win);

/** Average-pool backward. */
Tensor avgPool2dBackward(const Shape &x_shape, const Tensor &grad_out,
                         const Window2d &win);

/**
 * @name Halo-aware patch-view pooling
 *
 * Zero-copy split execution: pool a rectangular patch of one parent
 * image straight out of parent memory (window taps outside the view
 * read as the split scheme's zero padding) and write the result into
 * the patch's block of the parent output — no pad2d input copy, no
 * per-patch output tensor, no concat. The unsplit kernels run them
 * with the whole image as the patch, so a split patch gets exactly
 * the bytes its materialized copy would.
 */
///@{
/**
 * Max-pool one image's patch.
 *
 * @param img parent image, C x ih x iw, contiguous.
 * @param view patch rectangle inside the parent.
 * @param win patch-local window (split-scheme paddings).
 * @param out parent output image base, [C, out_oh, out_ow].
 * @param oy0,ox0 where the patch's output block starts in @p out.
 *
 * @param argmax laid out like @p out: each written output's slot
 *        receives @p argmax_base plus the max's offset in @p img
 *        (-1 for an all-padding window, which writes 0 — both
 *        matching maxPool2dForward).
 */
void maxPool2dPatch(const float *img, int64_t c, int64_t ih,
                    int64_t iw, const PatchView &view,
                    const Window2d &win, float *out, int64_t out_oh,
                    int64_t out_ow, int64_t oy0, int64_t ox0,
                    int64_t *argmax, int64_t argmax_base);

/** Average-pool one image's patch; count_include_pad semantics like
 * avgPool2dForward (every window divides by kh*kw). */
void avgPool2dPatch(const float *img, int64_t c, int64_t ih,
                    int64_t iw, const PatchView &view,
                    const Window2d &win, float *out, int64_t out_oh,
                    int64_t out_ow, int64_t oy0, int64_t ox0);

/** The exact adjoint of avgPool2dPatch: scatter-add the patch's
 * gradient block (@p grad_out points at its first element, rows
 * @p out_ow and channels @p out_oh * @p out_ow apart) into the
 * parent gradient image through the view. Every in-view tap of an
 * output receives grad * 1/(kh*kw); out-of-view taps are padding
 * and get nothing, exactly as the forward reads them as zero. */
void avgPool2dPatchBackward(const float *grad_out, int64_t out_oh,
                            int64_t out_ow, int64_t c, int64_t ih,
                            int64_t iw, const PatchView &view,
                            const Window2d &win, float *grad_img);
///@}

/** Global average pool: [N, C, H, W] -> [N, C, 1, 1]. */
Tensor globalAvgPoolForward(const Tensor &x);

/** Global average pool backward. */
Tensor globalAvgPoolBackward(const Shape &x_shape,
                             const Tensor &grad_out);

} // namespace scnn

#endif // SCNN_KERNELS_POOL2D_H
