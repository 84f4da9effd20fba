#include "kernels/im2col.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace scnn {

namespace {

/**
 * Per tap column kx, the output columns of one staged row, in
 * 2 * P slots (P = the width pieces): first [lo, hi), the outputs
 * whose tap ix = ox*sw - pw_b + kx lands in [0, iw); then P - 1 cuts
 * [a, b), ascending, disjoint and inside [lo, hi), whose tap crosses
 * a width boundary. Boundary j (input I_j, output O_j) cuts
 * [min(O_j, t), max(O_j, t)), t the first output whose tap reaches
 * I_j: outputs of piece j - 1 from t on would read piece j's columns,
 * outputs of piece j before t piece j - 1's. With I_j inside its
 * legal interval (Eqs. 1-2) a cut spans at most ceil(k / s) columns.
 */
std::vector<int64_t>
tapColumns(const Window2d &win, const SplitScheme1d &wsplit, int64_t iw)
{
    const int64_t ow = win.outW(iw);
    const size_t slots = 2 * wsplit.pieces.size();
    std::vector<int64_t> cols(static_cast<size_t>(win.kw) * slots);
    for (int64_t kx = 0; kx < win.kw; ++kx) {
        // The first output whose tap kx reads column ix or later.
        auto first = [&](int64_t ix) {
            const int64_t num = ix + win.pw_b - kx;
            return std::clamp<int64_t>(
                num > 0 ? (num + win.sw - 1) / win.sw : 0, 0, ow);
        };
        int64_t *t = cols.data() + static_cast<size_t>(kx) * slots;
        t[0] = first(0);
        t[1] = std::max(first(iw), t[0]);
        int64_t prev = t[0];
        for (size_t j = 1; j < wsplit.pieces.size(); ++j) {
            const int64_t o = wsplit.pieces[j].out_start;
            const int64_t f = first(wsplit.pieces[j].in_start);
            t[2 * j] = std::clamp(std::min(o, f), prev, t[1]);
            prev = t[2 * j + 1] = std::clamp(std::max(o, f), t[2 * j], t[1]);
        }
    }
    return cols;
}

} // namespace

void
im2colViewStrided(const float *img, int64_t c, int64_t ih, int64_t iw,
                  const Window2d &win, const SplitScheme1d &wsplit,
                  int64_t iy0, int64_t iy1, int64_t oy0, int64_t oy1,
                  float *col, int64_t col_ld, int64_t row_step)
{
    const int64_t ow = win.outW(iw);
    const size_t row_bytes = static_cast<size_t>(ow) * sizeof(float);
    const std::vector<int64_t> cols = tapColumns(win, wsplit, iw);
    const size_t slots = 2 * wsplit.pieces.size();
    int64_t row = 0;
    for (int64_t ic = 0; ic < c; ++ic) {
        const float *chan = img + ic * ih * iw;
        for (int64_t ky = 0; ky < win.kh; ++ky) {
            for (int64_t kx = 0; kx < win.kw; ++kx, ++row) {
                float *dst = col + row * col_ld;
                // Zero the out-of-image flanks (when present), fill
                // [lo, hi) with one memcpy (stride 1) or one
                // branch-free strided gather, then zero the cuts.
                const int64_t *t =
                    cols.data() + static_cast<size_t>(kx) * slots;
                const int64_t lo = t[0], hi = t[1];
                const int64_t src_off = lo * win.sw - win.pw_b + kx;
                for (int64_t oy = oy0; oy < oy1; ++oy) {
                    float *drow = dst + (oy - oy0) * row_step;
                    const int64_t iy = oy * win.sh - win.ph_b + ky;
                    if (iy < iy0 || iy >= iy1) {
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
                    const float *src = chan + iy * iw + src_off;
                    if (win.sw == 1)
                        std::memcpy(drow + lo, src,
                                    static_cast<size_t>(hi - lo) *
                                        sizeof(float));
                    else
                        for (int64_t ox = lo; ox < hi; ++ox)
                            drow[ox] = src[(ox - lo) * win.sw];
                    for (size_t j = 2; j < slots; j += 2)
                        std::fill(drow + t[j], drow + t[j + 1], 0.0f);
                }
            }
        }
    }
}

void
col2imViewStrided(const float *col, int64_t c, int64_t ih, int64_t iw,
                  const Window2d &win, const SplitScheme1d &wsplit,
                  int64_t iy0, int64_t iy1, int64_t oy0, int64_t oy1,
                  float *img, int64_t col_ld, int64_t row_step)
{
    const std::vector<int64_t> cols = tapColumns(win, wsplit, iw);
    const size_t slots = 2 * wsplit.pieces.size();
    int64_t row = 0;
    for (int64_t ic = 0; ic < c; ++ic) {
        float *chan = img + ic * ih * iw;
        for (int64_t ky = 0; ky < win.kh; ++ky) {
            for (int64_t kx = 0; kx < win.kw; ++kx, ++row) {
                const float *src = col + row * col_ld;
                // The same columns as im2colViewStrided: [lo, hi)
                // minus the cuts, each kept run branch-free.
                const int64_t *t =
                    cols.data() + static_cast<size_t>(kx) * slots;
                const int64_t lo = t[0], hi = t[1];
                const int64_t dst_off = lo * win.sw - win.pw_b + kx;
                for (int64_t oy = oy0; oy < oy1; ++oy) {
                    const int64_t iy = oy * win.sh - win.ph_b + ky;
                    if (iy < iy0 || iy >= iy1)
                        continue;
                    const float *srow = src + (oy - oy0) * row_step;
                    float *drow = chan + iy * iw + dst_off;
                    // Runs [lo, a_1), [b_1, a_2), ..., [b_last, hi).
                    int64_t a = lo;
                    for (size_t j = 2; j <= slots; j += 2) {
                        const int64_t b = j < slots ? t[j] : hi;
                        if (win.sw == 1)
                            for (int64_t ox = a; ox < b; ++ox)
                                drow[ox - lo] += srow[ox];
                        else
                            for (int64_t ox = a; ox < b; ++ox)
                                drow[(ox - lo) * win.sw] += srow[ox];
                        if (j < slots)
                            a = t[j + 1];
                    }
                }
            }
        }
    }
}

} // namespace scnn
