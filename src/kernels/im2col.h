/**
 * @file
 * im2col / col2im lowering for convolution. Handles asymmetric and
 * negative padding: out-of-bounds window elements read as zero
 * (im2col) and are dropped (col2im).
 *
 * The view variants lower a rectangular patch of a parent image
 * without materializing it: window elements are read from parent
 * memory through strided offsets, and only the requested output-row
 * range is produced — the halo rows a split patch shares with its
 * neighbours are re-read from the parent, never copied into a
 * padded per-patch tensor. All variants produce exactly the bytes
 * the materializing path would (copies and zero-fills are exact), so
 * they carry no determinism carve-out.
 */
#ifndef SCNN_KERNELS_IM2COL_H
#define SCNN_KERNELS_IM2COL_H

#include <cstdint>

#include "kernels/window.h"

namespace scnn {

/**
 * Lower output rows [oy0, oy1) of a patch view of one parent image
 * into a strided slice of a column matrix: window element row r of
 * patch-output pixel (oy, ox) lands at
 * col[r*col_ld + (oy-oy0)*row_step + ox]. The split conv kernels
 * stage every patch of an output-row group into one shared column
 * matrix this way (col_ld = the group's full column count, row_step
 * = the parent output width), so the group runs as a single packed
 * GEMM whose C is the parent output itself. The unsplit conv passes
 * PatchView::full and the whole output.
 *
 * @param img the *parent* image, C x ih x iw, contiguous.
 * @param view the patch rectangle inside the parent.
 * @param win patch-local window geometry (the split scheme's
 *        per-patch paddings); output extents derive from view.ih/iw.
 */
void im2colViewStrided(const float *img, int64_t c, int64_t ih,
                       int64_t iw, const PatchView &view,
                       const Window2d &win, int64_t oy0, int64_t oy1,
                       float *col, int64_t col_ld, int64_t row_step);

/**
 * Scatter-add output rows [oy0, oy1) of a strided column matrix (the
 * layout im2colViewStrided stages and the band-level dgrad GEMM
 * writes) back into the *parent* image: the adjoint of
 * im2colViewStrided. Window elements falling in the patch's local
 * padding are dropped; in-patch elements accumulate (`+=`) at their
 * parent offsets, so rows shared by overlapping bands receive every
 * contribution — the caller sequences them (the conv backward runs
 * one image per worker, bands and patches ascending, which pins the
 * accumulation order bitwise). The valid ox flanks hoist out of the
 * row loop exactly as in im2colViewStrided. @p img must be
 * zero-initialized (or hold a prior accumulation) by the caller.
 */
void col2imViewStrided(const float *col, int64_t c, int64_t ih,
                       int64_t iw, const PatchView &view,
                       const Window2d &win, int64_t oy0, int64_t oy1,
                       float *img, int64_t col_ld, int64_t row_step);

} // namespace scnn

#endif // SCNN_KERNELS_IM2COL_H
