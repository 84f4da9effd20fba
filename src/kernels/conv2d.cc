#include "kernels/conv2d.h"

#include <algorithm>

#include "analysis/parallel_model.h"
#include "analysis/shadow_access.h"
#include "kernels/gemm.h"
#include "kernels/im2col.h"
#include "kernels/microkernel.h"
#include "kernels/rowops.h"
#include "util/logging.h"
#include "util/scratch_arena.h"
#include "util/threadpool.h"

namespace scnn {

namespace {

/**
 * Call fn(image, col_offset, view, local_window, oy0, oy1) for every
 * (image, band, width patch) of @p item, in that nesting order, all
 * ascending. col_offset is the patch band's first column in the
 * item's column matrix: image blocks of rows * out_w columns side by
 * side, each in parent output order.
 */
template <typename Fn>
void
forEachItemPatch(const ConvWork &work, const ConvWorkItem &item,
                 const Window2d &win, const SplitScheme2d &scheme,
                 int64_t out_w, Fn &&fn)
{
    const int64_t img_cols = item.rows * out_w;
    for (int64_t j = 0; j < item.imgs; ++j)
        for (int bi = item.band0; bi < item.band1; ++bi) {
            const SplitBandItem &band = work.bands[static_cast<size_t>(bi)];
            const SplitPiece1d &ph =
                scheme.h.pieces[static_cast<size_t>(band.hi)];
            const int64_t off =
                j * img_cols + (ph.out_start + band.oy0 - item.row0) * out_w;
            for (int wi = 0; wi < scheme.w.parts(); ++wi) {
                const SplitPiece1d &pw =
                    scheme.w.pieces[static_cast<size_t>(wi)];
                fn(item.img0 + j, off + pw.out_start,
                   PatchView{ph.in_start, pw.in_start, ph.inLen(),
                             pw.inLen()},
                   patchWindow(win, scheme, band.hi, wi), band.oy0,
                   band.oy1);
            }
        }
}

/** Shadow claim of one band's dgrad scatter: the patch rows that
 * output rows [oy0, oy1) can touch (the band-restricted hull the
 * SA6xx backward model predicts), nothing when every window element
 * of the band is local padding. */
void
recordScatterHull(const float *img, int64_t c, int64_t ih, int64_t iw,
                  const PatchView &view, const Window2d &win, int64_t oy0,
                  int64_t oy1)
{
    const int64_t iy_lo = std::max<int64_t>(0, oy0 * win.sh - win.ph_b);
    const int64_t iy_hi = std::min<int64_t>(
        view.ih, (oy1 - 1) * win.sh - win.ph_b + win.kh);
    if (iy_lo < iy_hi)
        shadowRecordPatch(img, c, ih, iw,
                          {view.r0 + iy_lo, view.c0, iy_hi - iy_lo, view.iw},
                          true);
}

} // namespace

Tensor
conv2dForward(const Tensor &x, const Tensor &weight, const Tensor &bias,
              const Window2d &win)
{
    SCNN_REQUIRE(x.shape().rank() == 4, "conv2d input must be NCHW");
    return splitConv2dForward(
        x, weight, bias, win,
        wholeImageScheme(win, x.shape().dim(2), x.shape().dim(3)));
}

Tensor
splitConv2dForward(const Tensor &x, const Tensor &weight,
                   const Tensor &bias, const Window2d &win,
                   const SplitScheme2d &scheme)
{
    SCNN_REQUIRE(x.shape().rank() == 4, "conv2d input must be NCHW");
    SCNN_REQUIRE(weight.shape().rank() == 4,
                 "conv2d weight must be [OC, C, kh, kw]");
    const int64_t n = x.shape().dim(0);
    const int64_t c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2);
    const int64_t iw = x.shape().dim(3);
    const int64_t oc = weight.shape().dim(0);
    SCNN_REQUIRE(weight.shape().dim(1) == c,
                 "conv2d channel mismatch: weight expects "
                     << weight.shape().dim(1) << ", input has " << c);
    SCNN_REQUIRE(weight.shape().dim(2) == win.kh &&
                     weight.shape().dim(3) == win.kw,
                 "conv2d kernel extent mismatch");
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    SCNN_REQUIRE(out_h > 0 && out_w > 0,
                 "conv2d output is empty for input "
                     << x.shape().toString() << " with "
                     << win.toString());
    checkSchemeGeometry(win, scheme);
    const bool has_bias = bias.numel() > 0;
    if (has_bias)
        SCNN_REQUIRE(bias.numel() == oc, "conv2d bias size mismatch");

    const int64_t krows = c * win.kh * win.kw;
    const int64_t ospatial = out_h * out_w;
    const bool split = scheme.parts() > 1;
    if (split && lintParallelEnabled())
        checkParallelPlan(buildSplitConvPlan(
            convModelBatch(n, krows, scheme), c, ih, iw, oc, win, scheme));
    const int64_t panel_floats = gemmPackedASize(oc, krows);
    const ConvWork work = convWork(n, krows, out_w, scheme.h);

    // The weight panels, packed once per call and shared read-only by
    // every worker.
    auto &arena = ScratchArena::tls();
    auto guard = arena.scope();
    float *w_panels = arena.alloc(panel_floats);
    gemmPackA(oc, krows, 1.0f, weight.data(), w_panels);

    // Every element of out is written by exactly one item's GEMM
    // (beta = 0), so the allocation skips its zero-fill.
    Tensor out = Tensor::uninitialized(Shape{n, oc, out_h, out_w});
    const auto shadow =
        split && shadowAccessEnabled()
            ? openShadowSession(
                  buildSplitConvPlan(n, c, ih, iw, oc, win, scheme),
                  {{"input", x.data()},
                   {"weight_panels", w_panels},
                   {"output", out.data()}})
            : nullptr;
    globalPool().parallelFor(
        static_cast<int64_t>(work.items.size()),
        [&](int64_t begin, int64_t end) {
            const Microkernel &uk = activeMicrokernel();
            auto &warena = ScratchArena::tls();
            auto wguard = warena.scope();
            float *col = warena.alloc(krows * work.max_cols);
            float *pb = warena.alloc(gemmPackedBSize(krows, work.max_cols));
            float *cbuf =
                work.group > 1 ? warena.alloc(oc * work.max_cols) : nullptr;
            for (int64_t i = begin; i < end; ++i) {
                const ConvWorkItem &item =
                    work.items[static_cast<size_t>(i)];
                const int64_t img_cols = item.rows * out_w;
                const int64_t cols = item.imgs * img_cols;
                auto c_img = [&](int64_t j) {
                    return out.data() + (item.img0 + j) * oc * ospatial +
                           item.row0 * out_w;
                };
                // Shadow claims: the item's output rows of every
                // channel, per image, the shared panel read, and
                // each staged patch's input hull.
                if (shadow) {
                    shadowSetItem(i);
                    shadowRecord(w_panels, panel_floats, false);
                    for (int64_t j = 0; j < item.imgs; ++j)
                        shadowRecordSpan(c_img(j),
                                         {0, oc, ospatial, 1, 0, img_cols},
                                         true);
                }
                forEachItemPatch(
                    work, item, win, scheme, out_w,
                    [&](int64_t in, int64_t off, const PatchView &view,
                        const Window2d &local, int64_t oy0, int64_t oy1) {
                        const float *img = x.data() + in * c * ih * iw;
                        if (shadow)
                            shadowRecordPatch(img, c, ih, iw, view, false);
                        im2colViewStrided(img, c, ih, iw, view, local, oy0,
                                          oy1, col + off, cols, out_w);
                    });
                gemmPackB(krows, cols, col, cols, pb);
                // One image writes its output rows in place; a group
                // bounces C and copies each image's block out.
                if (item.imgs == 1) {
                    gemmPackedAB(oc, cols, krows, w_panels, pb, 0.0f,
                                 c_img(0), ospatial);
                } else {
                    gemmPackedAB(oc, cols, krows, w_panels, pb, 0.0f, cbuf,
                                 cols);
                    for (int64_t j = 0; j < item.imgs; ++j)
                        for (int64_t o = 0; o < oc; ++o)
                            uk.copyRow(c_img(j) + o * ospatial,
                                       cbuf + o * cols + j * img_cols,
                                       img_cols);
                }
                if (has_bias)
                    for (int64_t j = 0; j < item.imgs; ++j)
                        for (int64_t o = 0; o < oc; ++o)
                            uk.addBiasRow(c_img(j) + o * ospatial, img_cols,
                                          bias.data()[o]);
            }
        });
    checkShadowSession(shadow, "split conv");
    return out;
}

void
conv2dBackward(const Tensor &x, const Tensor &weight,
               const Tensor &grad_out, const Window2d &win,
               Tensor &grad_x, Tensor &grad_w, Tensor &grad_b)
{
    SCNN_REQUIRE(x.shape().rank() == 4, "conv2d input must be NCHW");
    splitConv2dBackward(
        x, weight, grad_out, win,
        wholeImageScheme(win, x.shape().dim(2), x.shape().dim(3)), grad_x,
        grad_w, grad_b);
}

void
splitConv2dBackward(const Tensor &x, const Tensor &weight,
                    const Tensor &grad_out, const Window2d &win,
                    const SplitScheme2d &scheme, Tensor &grad_x,
                    Tensor &grad_w, Tensor &grad_b)
{
    SCNN_REQUIRE(x.shape().rank() == 4 && weight.shape().rank() == 4,
                 "conv2d backward needs NCHW input and OIHW weight");
    checkSchemeGeometry(win, scheme);
    const int64_t n = x.shape().dim(0);
    const int64_t c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2);
    const int64_t iw = x.shape().dim(3);
    const int64_t oc = weight.shape().dim(0);
    const int64_t krows = c * win.kh * win.kw;
    SCNN_REQUIRE(weight.numel() == oc * krows,
                 "conv2d weight does not match the input");
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    SCNN_CHECK(grad_out.shape() == Shape({n, oc, out_h, out_w}),
               "conv2d grad_out shape mismatch: "
                   << grad_out.shape().toString());
    SCNN_CHECK(grad_w.shape() == Shape({oc, c, win.kh, win.kw}),
               "grad_w must be pre-shaped like the weight");
    const bool has_bias = grad_b.numel() > 0;
    if (has_bias)
        SCNN_REQUIRE(grad_b.numel() == oc, "conv2d grad_b size mismatch");
    const bool split = scheme.parts() > 1;
    if (split && lintParallelEnabled())
        checkParallelPlan(buildSplitConvBackwardPlan(
            convModelBatch(n, krows, scheme), c, ih, iw, oc, win, scheme));

    const int64_t ospatial = out_h * out_w;
    const ConvWork work = convWork(n, krows, out_w, scheme.h);
    const int64_t n_items = static_cast<int64_t>(work.items.size());
    const int64_t per_unit = work.itemsPerUnit();
    const int64_t max_cols = work.max_cols;

    auto &arena = ScratchArena::tls();
    auto guard = arena.scope();
    // W^T panels: A(i, p) = weight[p * krows + i], packed once per
    // call and shared read-only by every worker.
    const int64_t panel_floats = gemmPackedASize(krows, oc);
    float *wt_panels = arena.alloc(panel_floats);
    gemmPackAStrided(krows, oc, 1.0f, weight.data(), /*rs=*/1,
                     /*cs=*/krows, wt_panels);
    grad_x = Tensor(x.shape()); // zero: halo scatters accumulate
    const auto shadow =
        split && shadowAccessEnabled()
            ? openShadowSession(
                  buildSplitConvBackwardPlan(n, c, ih, iw, oc, win, scheme),
                  {{"grad_x", grad_x.data()},
                   {"grad_out", grad_out.data()},
                   {"input", x.data()},
                   {"weight_panels", wt_panels},
                   {"grad_w", grad_w.data()}})
            : nullptr;
    if (shadow && has_bias)
        shadow->bind("grad_b", grad_b.data());
    const int64_t wave = std::max<int64_t>(1, globalThreads());
    float *gw_acc = arena.alloc(wave * krows * oc);
    float *gb_acc = has_bias ? arena.alloc(wave * work.group * oc) : nullptr;

    for (int64_t u0 = 0; u0 < work.units; u0 += wave) {
        const int64_t wn = std::min(wave, work.units - u0);
        globalPool().parallelFor(wn, [&](int64_t begin, int64_t end) {
            auto &warena = ScratchArena::tls();
            auto wguard = warena.scope();
            float *col = warena.alloc(krows * max_cols);
            float *gcol = warena.alloc(krows * max_cols);
            float *pa_col = warena.alloc(gemmPackedASize(krows, max_cols));
            float *pb_got = warena.alloc(gemmPackedBSize(max_cols, oc));
            float *pb_go = warena.alloc(gemmPackedBSize(oc, max_cols));
            float *go_buf =
                work.group > 1 ? warena.alloc(oc * max_cols) : nullptr;
            for (int64_t wi = begin; wi < end; ++wi) {
                const int64_t u = u0 + wi;
                float *gw_unit = gw_acc + wi * krows * oc;
                for (int64_t t = 0; t < per_unit; ++t) {
                    const int64_t i = u * per_unit + t;
                    const ConvWorkItem &item =
                        work.items[static_cast<size_t>(i)];
                    const int64_t img_cols = item.rows * out_w;
                    const int64_t cols = item.imgs * img_cols;
                    auto go_img = [&](int64_t j) {
                        return grad_out.data() +
                               (item.img0 + j) * oc * ospatial +
                               item.row0 * out_w;
                    };
                    // Shadow claims: the item's grad_out rows of every
                    // output channel, per image, the shared panel
                    // read, each staged patch's input hull, and each
                    // band's grad_x scatter hull.
                    if (shadow) {
                        shadowSetItem(i);
                        shadowRecord(wt_panels, panel_floats, false);
                        for (int64_t j = 0; j < item.imgs; ++j)
                            shadowRecordSpan(
                                go_img(j), {0, oc, ospatial, 1, 0, img_cols},
                                false);
                    }
                    forEachItemPatch(
                        work, item, win, scheme, out_w,
                        [&](int64_t in, int64_t off, const PatchView &view,
                            const Window2d &local, int64_t oy0,
                            int64_t oy1) {
                            const float *img = x.data() + in * c * ih * iw;
                            if (shadow)
                                shadowRecordPatch(img, c, ih, iw, view,
                                                  false);
                            im2colViewStrided(img, c, ih, iw, view, local,
                                              oy0, oy1, col + off, cols,
                                              out_w);
                        });
                    // The item's grad_out columns: the parent rows in
                    // place for one image, a bounce copy for a group.
                    const float *go = go_img(0);
                    int64_t go_ld = ospatial;
                    if (item.imgs > 1) {
                        for (int64_t j = 0; j < item.imgs; ++j)
                            for (int64_t o = 0; o < oc; ++o)
                                std::copy_n(go_img(j) + o * ospatial,
                                            img_cols,
                                            go_buf + o * cols + j * img_cols);
                        go = go_buf;
                        go_ld = cols;
                    }
                    // wgrad: gw_unit (krows x oc, grad_w transposed)
                    // accumulates the columns x grad_out^T product;
                    // beta = 1 chains a banded image's bands.
                    gemmPackA(krows, cols, 1.0f, col, pa_col);
                    gemmPackBStrided(cols, oc, go, /*rs=*/1, /*cs=*/go_ld,
                                     pb_got);
                    gemmPackedAB(krows, oc, cols, pa_col, pb_got,
                                 t == 0 ? 0.0f : 1.0f, gw_unit, oc);
                    // dgrad: gcol = W^T x grad_out columns, scattered
                    // per image, band and width patch in order.
                    gemmPackB(oc, cols, go, go_ld, pb_go);
                    gemmPackedAB(krows, cols, oc, wt_panels, pb_go, 0.0f,
                                 gcol, cols);
                    forEachItemPatch(
                        work, item, win, scheme, out_w,
                        [&](int64_t in, int64_t off, const PatchView &view,
                            const Window2d &local, int64_t oy0,
                            int64_t oy1) {
                            float *gimg = grad_x.data() + in * c * ih * iw;
                            if (shadow)
                                recordScatterHull(gimg, c, ih, iw, view,
                                                  local, oy0, oy1);
                            col2imViewStrided(gcol + off, c, ih, iw, view,
                                              local, oy0, oy1, gimg, cols,
                                              out_w);
                        });
                }
                if (has_bias) {
                    const ConvWorkItem &first =
                        work.items[static_cast<size_t>(u * per_unit)];
                    for (int64_t j = 0; j < first.imgs; ++j) {
                        const int64_t in = first.img0 + j;
                        const float *go = grad_out.data() + in * oc * ospatial;
                        float *gb = gb_acc + (wi * work.group + j) * oc;
                        if (shadow) {
                            shadowSetItem(n_items + in);
                            shadowRecord(go, oc * ospatial, false);
                        }
                        std::fill(gb, gb + oc, 0.0f);
                        addRowSums(go, oc, ospatial, gb);
                    }
                }
            }
        });
        for (int64_t wi = 0; wi < wn; ++wi) {
            const int64_t u = u0 + wi;
            if (shadow) {
                shadowSetItem(n_items + n + u);
                shadowRecord(grad_w.data(), oc * krows, true);
                if (has_bias)
                    shadowRecord(grad_b.data(), oc, true);
            }
            // gw_unit is [krows x oc]; grad_w is [oc x krows].
            const float *gw = gw_acc + wi * krows * oc;
            float *dst = grad_w.data();
            for (int64_t o = 0; o < oc; ++o)
                for (int64_t r = 0; r < krows; ++r)
                    dst[o * krows + r] += gw[r * oc + o];
            if (has_bias) {
                const int64_t imgs =
                    work.items[static_cast<size_t>(u * per_unit)].imgs;
                float *gb_dst = grad_b.data();
                for (int64_t j = 0; j < imgs; ++j) {
                    const float *gb = gb_acc + (wi * work.group + j) * oc;
                    for (int64_t o = 0; o < oc; ++o)
                        gb_dst[o] += gb[o];
                }
            }
        }
    }
    checkShadowSession(shadow, "split conv backward");
}

} // namespace scnn
