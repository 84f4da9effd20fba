/**
 * @file
 * im2col / col2im lowering for convolution, in parent coordinates.
 * Handles asymmetric and negative padding: out-of-bounds window
 * elements read as zero (im2col) and are dropped (col2im).
 *
 * A split conv runs the unsplit loop: with the corrected paddings of
 * kernels/split_scheme.h, tap kx of output ox in any patch reads the
 * parent column ox*sw - pw_b + kx, exactly as the unsplit op does.
 * The split differs only in data: a band's taps are clipped to its H
 * piece's input rows, and a tap whose column lies in a neighbouring
 * width piece reads zero. Both variants stage or scatter whole parent
 * rows and produce exactly the bytes the materializing path would
 * (copies and zero-fills are exact), so they carry no determinism
 * carve-out.
 */
#ifndef SCNN_KERNELS_IM2COL_H
#define SCNN_KERNELS_IM2COL_H

#include <cstdint>

#include "kernels/split_scheme.h"
#include "kernels/window.h"

namespace scnn {

/**
 * Lower parent output rows [oy0, oy1) of one parent image into a
 * strided slice of a column matrix: window element row r of output
 * pixel (oy, ox) lands at col[r*col_ld + (oy-oy0)*row_step + ox]. The
 * conv kernels stage every band of an item into one shared column
 * matrix this way (col_ld = the item's full column count, row_step =
 * the parent output width), so the item runs as a single packed GEMM
 * whose C is the parent output itself.
 *
 * Taps read zero outside the input rows [iy0, iy1) (the band's H
 * piece; [0, ih) for the whole-image scheme) and where their column
 * crosses a boundary of @p wsplit. The crossing columns depend only
 * on @p wsplit and kx and are computed once per call; the whole-image
 * scheme has none.
 *
 * @param img the parent image, C x ih x iw, contiguous.
 * @param win the unsplit window; output width is win.outW(iw).
 * @param wsplit the width split (its pieces tile [0, iw)).
 */
void im2colViewStrided(const float *img, int64_t c, int64_t ih,
                       int64_t iw, const Window2d &win,
                       const SplitScheme1d &wsplit, int64_t iy0,
                       int64_t iy1, int64_t oy0, int64_t oy1, float *col,
                       int64_t col_ld, int64_t row_step);

/**
 * Scatter-add output rows [oy0, oy1) of a strided column matrix (the
 * layout im2colViewStrided stages and the band-level dgrad GEMM
 * writes) back into the parent image: the adjoint of
 * im2colViewStrided over the same clip and width split. Masked and
 * out-of-image window elements are skipped; the rest accumulate
 * (`+=`), so rows shared by overlapping bands receive every
 * contribution — the caller sequences them (the conv backward runs
 * one image per worker, bands ascending, which pins the accumulation
 * order bitwise). @p img must be zero-initialized (or hold a prior
 * accumulation) by the caller.
 */
void col2imViewStrided(const float *col, int64_t c, int64_t ih,
                       int64_t iw, const Window2d &win,
                       const SplitScheme1d &wsplit, int64_t iy0,
                       int64_t iy1, int64_t oy0, int64_t oy1, float *img,
                       int64_t col_ld, int64_t row_step);

} // namespace scnn

#endif // SCNN_KERNELS_IM2COL_H
