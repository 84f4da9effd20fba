#include "kernels/pool2d.h"

#include <algorithm>
#include <limits>

#include "analysis/parallel_model.h"
#include "analysis/shadow_access.h"
#include "util/logging.h"
#include "util/threadpool.h"

namespace scnn {

namespace {

/** Max-pool one image's patch (@p ph, @p pw) into its block of the
 * parent output image [C, out_oh, out_ow] through the unsplit window
 * @p win, taps clipped to the patch's input rectangle. @p argmax is
 * laid out like @p out; each slot receives @p argmax_base plus the
 * max's offset in @p img (-1 for an all-padding window, which
 * writes 0). */
void
maxPool2dPatch(const float *img, int64_t c, int64_t ih, int64_t iw,
               const Window2d &win, const SplitPiece1d &ph,
               const SplitPiece1d &pw, float *out, int64_t out_oh,
               int64_t out_ow, int64_t *argmax, int64_t argmax_base)
{
    for (int64_t ic = 0; ic < c; ++ic) {
        const float *chan = img + ic * ih * iw;
        for (int64_t oy = ph.out_start; oy < ph.out_end; ++oy) {
            const int64_t row = (ic * out_oh + oy) * out_ow;
            for (int64_t ox = pw.out_start; ox < pw.out_end; ++ox) {
                float best = -std::numeric_limits<float>::infinity();
                int64_t best_off = -1;
                for (int64_t ky = 0; ky < win.kh; ++ky) {
                    const int64_t iy = oy * win.sh - win.ph_b + ky;
                    if (iy < ph.in_start || iy >= ph.in_end)
                        continue;
                    for (int64_t kx = 0; kx < win.kw; ++kx) {
                        const int64_t ix = ox * win.sw - win.pw_b + kx;
                        if (ix < pw.in_start || ix >= pw.in_end)
                            continue;
                        const int64_t off = iy * iw + ix;
                        const float v = chan[off];
                        // Strict >: the first max in tap order wins,
                        // and NaN never replaces it.
                        if (v > best) {
                            best = v;
                            best_off = off;
                        }
                    }
                }
                out[row + ox] = best_off < 0 ? 0.0f : best;
                argmax[row + ox] = best_off < 0
                                       ? -1
                                       : argmax_base + ic * ih * iw + best_off;
            }
        }
    }
}

/** Average-pool one image's patch, laid out like maxPool2dPatch. */
void
avgPool2dPatch(const float *img, int64_t c, int64_t ih, int64_t iw,
               const Window2d &win, const SplitPiece1d &ph,
               const SplitPiece1d &pw, float *out, int64_t out_oh,
               int64_t out_ow)
{
    const float inv_area = 1.0f / static_cast<float>(win.kh * win.kw);
    for (int64_t ic = 0; ic < c; ++ic) {
        const float *chan = img + ic * ih * iw;
        for (int64_t oy = ph.out_start; oy < ph.out_end; ++oy) {
            float *orow = out + (ic * out_oh + oy) * out_ow;
            for (int64_t ox = pw.out_start; ox < pw.out_end; ++ox) {
                float acc = 0.0f;
                for (int64_t ky = 0; ky < win.kh; ++ky) {
                    const int64_t iy = oy * win.sh - win.ph_b + ky;
                    if (iy < ph.in_start || iy >= ph.in_end)
                        continue;
                    for (int64_t kx = 0; kx < win.kw; ++kx) {
                        const int64_t ix = ox * win.sw - win.pw_b + kx;
                        if (ix >= pw.in_start && ix < pw.in_end)
                            acc += chan[iy * iw + ix];
                    }
                }
                orow[ox] = acc * inv_area;
            }
        }
    }
}

/** The exact adjoint of avgPool2dPatch: scatter-add the patch's
 * block of the parent gradient image @p grad_out ([C, out_oh,
 * out_ow]) into @p grad_img. Taps outside the patch's input
 * rectangle are padding and get nothing, exactly as the forward reads
 * them as zero. */
void
avgPool2dPatchBackward(const float *grad_out, int64_t out_oh,
                       int64_t out_ow, int64_t c, int64_t ih, int64_t iw,
                       const Window2d &win, const SplitPiece1d &ph,
                       const SplitPiece1d &pw, float *grad_img)
{
    const float inv_area = 1.0f / static_cast<float>(win.kh * win.kw);
    for (int64_t ic = 0; ic < c; ++ic) {
        float *chan = grad_img + ic * ih * iw;
        const float *gchan = grad_out + ic * out_oh * out_ow;
        for (int64_t oy = ph.out_start; oy < ph.out_end; ++oy)
            for (int64_t ox = pw.out_start; ox < pw.out_end; ++ox) {
                const float g = gchan[oy * out_ow + ox] * inv_area;
                for (int64_t ky = 0; ky < win.kh; ++ky) {
                    const int64_t iy = oy * win.sh - win.ph_b + ky;
                    if (iy < ph.in_start || iy >= ph.in_end)
                        continue;
                    for (int64_t kx = 0; kx < win.kw; ++kx) {
                        const int64_t ix = ox * win.sw - win.pw_b + kx;
                        if (ix >= pw.in_start && ix < pw.in_end)
                            chan[iy * iw + ix] += g;
                    }
                }
            }
    }
}

/** The forward loop of both pool kinds: one work item per
 * (image, patch), each writing a disjoint block of the parent output
 * (and of @p argmax, sized like it when given) through the patch
 * kernel, which receives the item's image index. */
template <typename PatchKernel>
Tensor
poolForward(const Tensor &x, const Window2d &win,
            const SplitScheme2d &scheme, const char *what,
            std::vector<int64_t> *argmax, PatchKernel &&kernel)
{
    SCNN_REQUIRE(x.shape().rank() == 4, "pool input must be NCHW");
    checkSchemeGeometry(win, scheme);
    const int64_t n = x.shape().dim(0);
    const int64_t c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2);
    const int64_t iw = x.shape().dim(3);
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    SCNN_REQUIRE(out_h > 0 && out_w > 0, "empty pool output");
    const bool split = scheme.parts() > 1;
    if (split && lintParallelEnabled())
        checkParallelPlan(
            buildSplitPoolPlan(std::min<int64_t>(n, 2), c, ih, iw, scheme));

    const int wp = scheme.w.parts();
    const int64_t parts = scheme.parts();

    // Every output element belongs to exactly one patch block, so the
    // allocation skips its zero-fill; items write disjoint regions.
    Tensor out = Tensor::uninitialized(Shape{n, c, out_h, out_w});
    if (argmax)
        argmax->resize(static_cast<size_t>(out.numel()));

    const auto shadow =
        split && shadowAccessEnabled()
            ? openShadowSession(buildSplitPoolPlan(n, c, ih, iw, scheme),
                                {{"output", out.data()}, {"input", x.data()}})
            : nullptr;

    globalPool().parallelFor(n * parts, [&](int64_t begin,
                                            int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
            const int64_t in = i / parts;
            const int hi = static_cast<int>((i % parts) / wp);
            const int wi = static_cast<int>(i % wp);
            const SplitPiece1d &ph = scheme.h.pieces[hi];
            const SplitPiece1d &pw = scheme.w.pieces[wi];
            const float *img = x.data() + in * c * ih * iw;
            float *oimg = out.data() + in * c * out_h * out_w;
            if (shadow) {
                // The patch's input hull and per-channel output block.
                shadowSetItem(i);
                shadowRecordPatch(img, c, ih, iw,
                                  {ph.in_start, pw.in_start, ph.inLen(),
                                   pw.inLen()},
                                  false);
                shadowRecordSpan(oimg + ph.out_start * out_w + pw.out_start,
                                 {0, c, out_h * out_w, ph.outLen(), out_w,
                                  pw.outLen()},
                                 true);
            }
            kernel(in, img, c, ih, iw, ph, pw, oimg, out_h, out_w);
        }
    });
    checkShadowSession(shadow, what);
    return out;
}

/**
 * The backward loop of both pool kinds: one image per worker, the
 * image's patches scattered serially ascending so halo targets
 * (k > s windows straddling a patch seam) accumulate in a fixed
 * order. @p scatter adds patch (hi, wi) of image @p in into grad_x
 * through the patch's view.
 */
template <typename Scatter>
Tensor
poolBackward(const Shape &in_shape, const Tensor &grad_out,
             const SplitScheme2d &scheme, const char *what,
             Scatter &&scatter)
{
    SCNN_REQUIRE(in_shape.rank() == 4, "pool input must be NCHW");
    SCNN_CHECK(scheme.h.parts() > 0 && scheme.w.parts() > 0,
               "empty split scheme");
    const int64_t n = in_shape.dim(0);
    const int64_t c = in_shape.dim(1);
    const int64_t ih = in_shape.dim(2);
    const int64_t iw = in_shape.dim(3);
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    SCNN_CHECK(grad_out.shape() == Shape({n, c, out_h, out_w}),
               "pool grad_out shape mismatch: "
                   << grad_out.shape().toString());
    const bool split = scheme.parts() > 1;
    if (split && lintParallelEnabled())
        checkParallelPlan(buildSplitPoolBackwardPlan(
            std::min<int64_t>(n, 2), c, ih, iw, scheme));

    const int wp = scheme.w.parts();
    const int64_t parts = scheme.parts();

    Tensor grad_x(in_shape); // zero: scatter-add target

    const auto shadow =
        split && shadowAccessEnabled()
            ? openShadowSession(
                  buildSplitPoolBackwardPlan(n, c, ih, iw, scheme),
                  {{"grad_x", grad_x.data()}, {"grad_out", grad_out.data()}})
            : nullptr;

    globalPool().parallelFor(n, [&](int64_t nb, int64_t ne) {
        for (int64_t in = nb; in < ne; ++in) {
            for (int64_t pi = 0; pi < parts; ++pi) {
                const int hi = static_cast<int>(pi / wp);
                const int wi = static_cast<int>(pi % wp);
                const SplitPiece1d &ph = scheme.h.pieces[hi];
                const SplitPiece1d &pw = scheme.w.pieces[wi];
                if (shadow) {
                    // The patch's input-hull write and output-block
                    // read — the spans the SA6xx backward model
                    // predicts for this item.
                    shadowSetItem(in * parts + pi);
                    shadowRecordPatch(grad_x.data() + in * c * ih * iw, c,
                                      ih, iw,
                                      {ph.in_start, pw.in_start,
                                       ph.inLen(), pw.inLen()},
                                      true);
                    shadowRecordSpan(
                        grad_out.data() + in * c * out_h * out_w +
                            ph.out_start * out_w + pw.out_start,
                        {0, c, out_h * out_w, ph.outLen(), out_w,
                         pw.outLen()},
                        false);
                }
                scatter(grad_x, in, hi, wi);
            }
        }
    });
    checkShadowSession(shadow, what);
    return grad_x;
}

} // namespace

Tensor
splitMaxPool2dForward(const Tensor &x, const Window2d &win,
                      const SplitScheme2d &scheme,
                      std::vector<int64_t> &argmax)
{
    return poolForward(
        x, win, scheme, "split max-pool", &argmax,
        [&](int64_t in, const float *img, int64_t c, int64_t ih,
            int64_t iw, const SplitPiece1d &ph, const SplitPiece1d &pw,
            float *out, int64_t out_oh, int64_t out_ow) {
            // argmax mirrors the output layout and holds indices into
            // the whole input tensor.
            maxPool2dPatch(img, c, ih, iw, win, ph, pw, out, out_oh, out_ow,
                           argmax.data() + in * c * out_oh * out_ow,
                           in * c * ih * iw);
        });
}

Tensor
splitAvgPool2dForward(const Tensor &x, const Window2d &win,
                      const SplitScheme2d &scheme)
{
    return poolForward(
        x, win, scheme, "split avg-pool", nullptr,
        [&](int64_t, const float *img, int64_t c, int64_t ih, int64_t iw,
            const SplitPiece1d &ph, const SplitPiece1d &pw, float *out,
            int64_t out_oh, int64_t out_ow) {
            avgPool2dPatch(img, c, ih, iw, win, ph, pw, out, out_oh,
                           out_ow);
        });
}

Tensor
splitMaxPool2dBackward(const Shape &in_shape, const Tensor &grad_out,
                       const std::vector<int64_t> &argmax,
                       const SplitScheme2d &scheme)
{
    SCNN_CHECK(static_cast<int64_t>(argmax.size()) == grad_out.numel(),
               "argmax size mismatch");
    const int64_t c = in_shape.dim(1);
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    return poolBackward(
        in_shape, grad_out, scheme, "split max-pool backward",
        [&](Tensor &gx, int64_t in, int hi, int wi) {
            const SplitPiece1d &ph = scheme.h.pieces[hi];
            const SplitPiece1d &pw = scheme.w.pieces[wi];
            // The forward argmax is absolute into the whole input
            // tensor, and every argmax of an output in this block
            // lies inside the patch's input rectangle (Eqs. 1-2).
            float *gxp = gx.data();
            const float *go = grad_out.data();
            const int64_t *am = argmax.data();
            for (int64_t ic = 0; ic < c; ++ic)
                for (int64_t oy = ph.out_start; oy < ph.out_end; ++oy) {
                    const int64_t row = ((in * c + ic) * out_h + oy) * out_w;
                    for (int64_t oi = row + pw.out_start;
                         oi < row + pw.out_end; ++oi)
                        if (am[oi] >= 0)
                            gxp[am[oi]] += go[oi];
                }
        });
}

Tensor
splitAvgPool2dBackward(const Shape &in_shape, const Tensor &grad_out,
                       const Window2d &win, const SplitScheme2d &scheme)
{
    const int64_t c = in_shape.dim(1);
    const int64_t ih = in_shape.dim(2);
    const int64_t iw = in_shape.dim(3);
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    return poolBackward(
        in_shape, grad_out, scheme, "split avg-pool backward",
        [&](Tensor &gx, int64_t in, int hi, int wi) {
            // grad_out is read in place at the parent strides.
            avgPool2dPatchBackward(grad_out.data() + in * c * out_h * out_w,
                                   out_h, out_w, c, ih, iw, win,
                                   scheme.h.pieces[hi], scheme.w.pieces[wi],
                                   gx.data() + in * c * ih * iw);
        });
}

Tensor
maxPool2dForward(const Tensor &x, const Window2d &win,
                 std::vector<int64_t> &argmax)
{
    SCNN_REQUIRE(x.shape().rank() == 4, "pool input must be NCHW");
    return splitMaxPool2dForward(
        x, win, wholeImageScheme(win, x.shape().dim(2), x.shape().dim(3)),
        argmax);
}

Tensor
maxPool2dBackward(const Shape &x_shape, const Tensor &grad_out,
                  const std::vector<int64_t> &argmax)
{
    SCNN_REQUIRE(x_shape.rank() == 4 && grad_out.shape().rank() == 4,
                 "pool input must be NCHW");
    // The argmax scatter reads only the patch's input rectangle and
    // output block, so the one-patch scheme needs no window paddings.
    SplitScheme2d whole;
    whole.h.pieces = {{0, x_shape.dim(2), 0, grad_out.shape().dim(2), 0, 0}};
    whole.w.pieces = {{0, x_shape.dim(3), 0, grad_out.shape().dim(3), 0, 0}};
    return splitMaxPool2dBackward(x_shape, grad_out, argmax, whole);
}

Tensor
avgPool2dForward(const Tensor &x, const Window2d &win)
{
    SCNN_REQUIRE(x.shape().rank() == 4, "pool input must be NCHW");
    return splitAvgPool2dForward(
        x, win, wholeImageScheme(win, x.shape().dim(2), x.shape().dim(3)));
}

Tensor
avgPool2dBackward(const Shape &x_shape, const Tensor &grad_out,
                  const Window2d &win)
{
    SCNN_REQUIRE(x_shape.rank() == 4, "pool input must be NCHW");
    return splitAvgPool2dBackward(
        x_shape, grad_out, win,
        wholeImageScheme(win, x_shape.dim(2), x_shape.dim(3)));
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
