#include "kernels/im2col.h"

#include <algorithm>
#include <cstring>

namespace scnn {

void
im2colViewStrided(const float *img, int64_t c, int64_t ih, int64_t iw,
                  const PatchView &view, const Window2d &win,
                  int64_t oy0, int64_t oy1, float *col, int64_t col_ld,
                  int64_t row_step)
{
    const int64_t ow = win.outW(view.iw);
    const size_t row_bytes = static_cast<size_t>(ow) * sizeof(float);
    int64_t row = 0;
    for (int64_t ic = 0; ic < c; ++ic) {
        const float *chan = img + ic * ih * iw;
        for (int64_t ky = 0; ky < win.kh; ++ky) {
            for (int64_t kx = 0; kx < win.kw; ++kx, ++row) {
                float *dst = col + row * col_ld;
                // The valid ox range hoists out of the oy loop for
                // *any* stride: ix = ox*sw - pw_b + kx must land in
                // [0, view.iw), so ox lives in
                // [ceil((pw_b - kx)/sw), ceil((view.iw + pw_b - kx)/sw)).
                // Zero the out-of-patch flanks (when present) and
                // fill the middle with one memcpy (stride 1) or one
                // branch-free strided gather — bit-identical to the
                // old per-element walk. Narrow patches make these
                // rows short, so the flank work is guarded to keep
                // the per-row cost at one copy.
                const int64_t num_lo = win.pw_b - kx;
                const int64_t lo = std::clamp<int64_t>(
                    num_lo > 0 ? (num_lo + win.sw - 1) / win.sw : 0,
                    0, ow);
                const int64_t num_hi = view.iw + win.pw_b - kx;
                const int64_t hi = std::clamp<int64_t>(
                    num_hi > 0 ? (num_hi + win.sw - 1) / win.sw : 0,
                    lo, ow);
                const int64_t src_off =
                    view.c0 + lo * win.sw - win.pw_b + kx;
                for (int64_t oy = oy0; oy < oy1; ++oy) {
                    float *drow = dst + (oy - oy0) * row_step;
                    const int64_t iy = oy * win.sh - win.ph_b + ky;
                    if (iy < 0 || iy >= view.ih) {
                        std::memset(drow, 0, row_bytes);
                        continue;
                    }
                    if (lo > 0)
                        std::memset(drow, 0,
                                    static_cast<size_t>(lo) *
                                        sizeof(float));
                    if (hi < ow)
                        std::memset(drow + hi, 0,
                                    static_cast<size_t>(ow - hi) *
                                        sizeof(float));
                    const float *src =
                        chan + (view.r0 + iy) * iw + src_off;
                    if (win.sw == 1)
                        std::memcpy(drow + lo, src,
                                    static_cast<size_t>(hi - lo) *
                                        sizeof(float));
                    else
                        for (int64_t ox = lo; ox < hi; ++ox)
                            drow[ox] = src[(ox - lo) * win.sw];
                }
            }
        }
    }
}

void
col2imViewStrided(const float *col, int64_t c, int64_t ih, int64_t iw,
                  const PatchView &view, const Window2d &win,
                  int64_t oy0, int64_t oy1, float *img, int64_t col_ld,
                  int64_t row_step)
{
    const int64_t ow = win.outW(view.iw);
    int64_t row = 0;
    for (int64_t ic = 0; ic < c; ++ic) {
        float *chan = img + ic * ih * iw;
        for (int64_t ky = 0; ky < win.kh; ++ky) {
            for (int64_t kx = 0; kx < win.kw; ++kx, ++row) {
                const float *src = col + row * col_ld;
                // Same hoisted ox bounds as im2colViewStrided: only
                // ox in [lo, hi) has ix = ox*sw - pw_b + kx inside
                // [0, view.iw); the flanks are the dropped local
                // padding, so the inner loop is branch-free.
                const int64_t num_lo = win.pw_b - kx;
                const int64_t lo = std::clamp<int64_t>(
                    num_lo > 0 ? (num_lo + win.sw - 1) / win.sw : 0,
                    0, ow);
                const int64_t num_hi = view.iw + win.pw_b - kx;
                const int64_t hi = std::clamp<int64_t>(
                    num_hi > 0 ? (num_hi + win.sw - 1) / win.sw : 0,
                    lo, ow);
                const int64_t dst_off =
                    view.c0 + lo * win.sw - win.pw_b + kx;
                for (int64_t oy = oy0; oy < oy1; ++oy) {
                    const int64_t iy = oy * win.sh - win.ph_b + ky;
                    if (iy < 0 || iy >= view.ih)
                        continue;
                    const float *srow = src + (oy - oy0) * row_step;
                    float *drow = chan + (view.r0 + iy) * iw + dst_off;
                    if (win.sw == 1)
                        for (int64_t ox = lo; ox < hi; ++ox)
                            drow[ox - lo] += srow[ox];
                    else
                        for (int64_t ox = lo; ox < hi; ++ox)
                            drow[(ox - lo) * win.sw] += srow[ox];
                }
            }
        }
    }
}

} // namespace scnn
