#include "kernels/pool2d.h"

#include <limits>

#include "analysis/shadow_access.h"
#include "util/logging.h"
#include "util/threadpool.h"

namespace scnn {

namespace {

/** Shadow claims for one fused pool patch: the contiguous input hull
 * it may read and the per-channel output block it writes — exactly
 * the spans buildSplitPoolPlan predicts for the item. */
void
shadowRecordPoolPatch(const float *img, int64_t c, int64_t ih,
                      int64_t iw, const PatchView &view,
                      const float *out, int64_t out_oh, int64_t out_ow,
                      int64_t oy0, int64_t ox0, int64_t oh_p,
                      int64_t ow_p)
{
    shadowRecord(img + view.r0 * iw + view.c0,
                 (c - 1) * ih * iw + (view.ih - 1) * iw + view.iw,
                 false);
    shadowRecordSpan(out + oy0 * out_ow + ox0,
                     {0, c, out_oh * out_ow, oh_p, out_ow, ow_p},
                     true);
}

} // namespace

Tensor
maxPool2dForward(const Tensor &x, const Window2d &win,
                 std::vector<int64_t> &argmax)
{
    SCNN_REQUIRE(x.shape().rank() == 4, "pool input must be NCHW");
    const int64_t n = x.shape().dim(0);
    const int64_t c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2);
    const int64_t iw = x.shape().dim(3);
    const int64_t oh = win.outH(ih);
    const int64_t ow = win.outW(iw);
    SCNN_REQUIRE(oh > 0 && ow > 0, "empty pool output");

    // The whole image is the patch. Every output element and argmax
    // slot is written, and images write disjoint ranges, so the batch
    // loop parallelizes without changing a single bit.
    Tensor out = Tensor::uninitialized(Shape{n, c, oh, ow});
    argmax.resize(static_cast<size_t>(n * c * oh * ow));
    globalPool().parallelFor(n, [&](int64_t nb, int64_t ne) {
        for (int64_t in = nb; in < ne; ++in)
            maxPool2dPatch(x.data() + in * c * ih * iw, c, ih, iw,
                           PatchView::full(ih, iw), win,
                           out.data() + in * c * oh * ow, oh, ow, 0, 0,
                           argmax.data() + in * c * oh * ow,
                           in * c * ih * iw);
    });
    return out;
}

Tensor
maxPool2dBackward(const Shape &x_shape, const Tensor &grad_out,
                  const std::vector<int64_t> &argmax)
{
    const int64_t n = x_shape.dim(0);
    Tensor grad_x(x_shape); // zero: scatter-add target
    SCNN_CHECK(static_cast<int64_t>(argmax.size()) == grad_out.numel(),
               "argmax size mismatch");
    SCNN_CHECK(n > 0 && grad_out.numel() % n == 0,
               "grad_out batch mismatch");
    // argmax entries point inside their own image's slice of x, so
    // per-image scatter ranges are disjoint.
    const int64_t per_image = grad_out.numel() / n;
    globalPool().parallelFor(n, [&](int64_t nb, int64_t ne) {
        for (int64_t i = nb * per_image; i < ne * per_image; ++i) {
            const int64_t idx = argmax[static_cast<size_t>(i)];
            if (idx >= 0)
                grad_x.at(idx) += grad_out.at(i);
        }
    });
    return grad_x;
}

Tensor
avgPool2dForward(const Tensor &x, const Window2d &win)
{
    SCNN_REQUIRE(x.shape().rank() == 4, "pool input must be NCHW");
    const int64_t n = x.shape().dim(0);
    const int64_t c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2);
    const int64_t iw = x.shape().dim(3);
    const int64_t oh = win.outH(ih);
    const int64_t ow = win.outW(iw);
    SCNN_REQUIRE(oh > 0 && ow > 0, "empty pool output");

    Tensor out = Tensor::uninitialized(Shape{n, c, oh, ow});
    globalPool().parallelFor(n, [&](int64_t nb, int64_t ne) {
        for (int64_t in = nb; in < ne; ++in)
            avgPool2dPatch(x.data() + in * c * ih * iw, c, ih, iw,
                           PatchView::full(ih, iw), win,
                           out.data() + in * c * oh * ow, oh, ow, 0, 0);
    });
    return out;
}

Tensor
avgPool2dBackward(const Shape &x_shape, const Tensor &grad_out,
                  const Window2d &win)
{
    const int64_t n = x_shape.dim(0);
    const int64_t c = x_shape.dim(1);
    const int64_t ih = x_shape.dim(2);
    const int64_t iw = x_shape.dim(3);
    const int64_t oh = win.outH(ih);
    const int64_t ow = win.outW(iw);

    Tensor grad_x(x_shape); // zero: windows may not cover everything
    globalPool().parallelFor(n, [&](int64_t nb, int64_t ne) {
        for (int64_t in = nb; in < ne; ++in)
            avgPool2dPatchBackward(grad_out.data() + in * c * oh * ow, oh,
                                   ow, c, ih, iw, PatchView::full(ih, iw),
                                   win, grad_x.data() + in * c * ih * iw);
    });
    return grad_x;
}

void
maxPool2dPatch(const float *img, int64_t c, int64_t ih, int64_t iw,
               const PatchView &view, const Window2d &win, float *out,
               int64_t out_oh, int64_t out_ow, int64_t oy0,
               int64_t ox0, int64_t *argmax, int64_t argmax_base)
{
    const int64_t oh_p = win.outH(view.ih);
    const int64_t ow_p = win.outW(view.iw);
    shadowRecordPoolPatch(img, c, ih, iw, view, out, out_oh, out_ow,
                          oy0, ox0, oh_p, ow_p);
    for (int64_t ic = 0; ic < c; ++ic) {
        const float *chan = img + ic * ih * iw;
        const int64_t row0 = ic * out_oh * out_ow + oy0 * out_ow + ox0;
        for (int64_t oy = 0; oy < oh_p; ++oy) {
            float *orow = out + row0 + oy * out_ow;
            int64_t *arow = argmax + row0 + oy * out_ow;
            for (int64_t ox = 0; ox < ow_p; ++ox) {
                float best = -std::numeric_limits<float>::infinity();
                int64_t best_off = -1;
                for (int64_t ky = 0; ky < win.kh; ++ky) {
                    const int64_t iy = oy * win.sh - win.ph_b + ky;
                    if (iy < 0 || iy >= view.ih)
                        continue;
                    for (int64_t kx = 0; kx < win.kw; ++kx) {
                        const int64_t ix = ox * win.sw - win.pw_b + kx;
                        if (ix < 0 || ix >= view.iw)
                            continue;
                        const int64_t off =
                            view.parentOffset(iy, ix, iw);
                        const float v = chan[off];
                        // Same comparison as maxPool2dForward, so
                        // ties and NaN-laden windows resolve
                        // identically.
                        if (v > best) {
                            best = v;
                            best_off = off;
                        }
                    }
                }
                orow[ox] = best_off < 0 ? 0.0f : best;
                arow[ox] = best_off < 0
                               ? -1
                               : argmax_base + ic * ih * iw + best_off;
            }
        }
    }
}

void
avgPool2dPatch(const float *img, int64_t c, int64_t ih, int64_t iw,
               const PatchView &view, const Window2d &win, float *out,
               int64_t out_oh, int64_t out_ow, int64_t oy0,
               int64_t ox0)
{
    const int64_t oh_p = win.outH(view.ih);
    const int64_t ow_p = win.outW(view.iw);
    const float inv_area = 1.0f / static_cast<float>(win.kh * win.kw);
    shadowRecordPoolPatch(img, c, ih, iw, view, out, out_oh, out_ow,
                          oy0, ox0, oh_p, ow_p);
    for (int64_t ic = 0; ic < c; ++ic) {
        const float *chan = img + ic * ih * iw;
        float *ochan = out + ic * out_oh * out_ow;
        for (int64_t oy = 0; oy < oh_p; ++oy) {
            float *orow = ochan + (oy0 + oy) * out_ow + ox0;
            for (int64_t ox = 0; ox < ow_p; ++ox) {
                float acc = 0.0f;
                for (int64_t ky = 0; ky < win.kh; ++ky) {
                    const int64_t iy = oy * win.sh - win.ph_b + ky;
                    if (iy < 0 || iy >= view.ih)
                        continue;
                    for (int64_t kx = 0; kx < win.kw; ++kx) {
                        const int64_t ix = ox * win.sw - win.pw_b + kx;
                        if (ix >= 0 && ix < view.iw)
                            acc += chan[view.parentOffset(iy, ix, iw)];
                    }
                }
                orow[ox] = acc * inv_area;
            }
        }
    }
}

void
avgPool2dPatchBackward(const float *grad_out, int64_t out_oh,
                       int64_t out_ow, int64_t c, int64_t ih, int64_t iw,
                       const PatchView &view, const Window2d &win,
                       float *grad_img)
{
    const int64_t oh_p = win.outH(view.ih);
    const int64_t ow_p = win.outW(view.iw);
    const float inv_area = 1.0f / static_cast<float>(win.kh * win.kw);
    for (int64_t ic = 0; ic < c; ++ic) {
        float *chan = grad_img + ic * ih * iw;
        const float *gchan = grad_out + ic * out_oh * out_ow;
        for (int64_t oy = 0; oy < oh_p; ++oy)
            for (int64_t ox = 0; ox < ow_p; ++ox) {
                const float g = gchan[oy * out_ow + ox] * inv_area;
                for (int64_t ky = 0; ky < win.kh; ++ky) {
                    const int64_t iy = oy * win.sh - win.ph_b + ky;
                    if (iy < 0 || iy >= view.ih)
                        continue;
                    for (int64_t kx = 0; kx < win.kw; ++kx) {
                        const int64_t ix = ox * win.sw - win.pw_b + kx;
                        if (ix >= 0 && ix < view.iw)
                            chan[view.parentOffset(iy, ix, iw)] += g;
                    }
                }
            }
    }
}

Tensor
globalAvgPoolForward(const Tensor &x)
{
    const int64_t n = x.shape().dim(0);
    const int64_t c = x.shape().dim(1);
    const int64_t spatial = x.shape().dim(2) * x.shape().dim(3);
    Tensor out = Tensor::uninitialized(Shape{n, c, 1, 1});
    globalPool().parallelFor(n * c, [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
            float acc = 0.0f;
            const float *src = x.data() + i * spatial;
            for (int64_t s = 0; s < spatial; ++s)
                acc += src[s];
            out.at(i) = acc / static_cast<float>(spatial);
        }
    });
    return out;
}

Tensor
globalAvgPoolBackward(const Shape &x_shape, const Tensor &grad_out)
{
    const int64_t n = x_shape.dim(0);
    const int64_t c = x_shape.dim(1);
    const int64_t spatial = x_shape.dim(2) * x_shape.dim(3);
    Tensor grad_x = Tensor::uninitialized(x_shape);
    globalPool().parallelFor(n * c, [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
            const float g =
                grad_out.at(i) / static_cast<float>(spatial);
            float *dst = grad_x.data() + i * spatial;
            for (int64_t s = 0; s < spatial; ++s)
                dst[s] = g;
        }
    });
    return grad_x;
}

} // namespace scnn
