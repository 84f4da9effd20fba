#include "kernels/conv2d.h"

#include <algorithm>

#include "analysis/shadow_access.h"
#include "kernels/gemm.h"
#include "kernels/im2col.h"
#include "kernels/rowops.h"
#include "kernels/winograd.h"
#include "util/logging.h"
#include "util/scratch_arena.h"
#include "util/threadpool.h"

namespace scnn {

Tensor
conv2dForward(const Tensor &x, const Tensor &weight, const Tensor &bias,
              const Window2d &win)
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
    const int64_t oh = win.outH(ih);
    const int64_t ow = win.outW(iw);
    SCNN_REQUIRE(oh > 0 && ow > 0,
                 "conv2d output is empty for input "
                     << x.shape().toString() << " with "
                     << win.toString());

    const int64_t krows = c * win.kh * win.kw;
    const int64_t ospatial = oh * ow;

    // Every element of out is written by the gemm (beta = 0), so the
    // allocation can skip its zero-fill. Images are independent: each
    // chunk writes a disjoint slice of out, which keeps the result
    // bitwise-identical for any thread count.
    Tensor out = Tensor::uninitialized(Shape{n, oc, oh, ow});
    const bool has_bias = bias.numel() > 0;
    if (has_bias)
        SCNN_REQUIRE(bias.numel() == oc, "conv2d bias size mismatch");

    globalPool().parallelFor(n, [&](int64_t begin, int64_t end) {
        auto &arena = ScratchArena::tls();
        auto guard = arena.scope();
        float *col = arena.alloc(krows * ospatial);
        for (int64_t in = begin; in < end; ++in) {
            im2col(x.data() + in * c * ih * iw, c, ih, iw, win, col);
            // out[in] = weight(as [oc, krows]) * col
            gemm(oc, ospatial, krows, 1.0f, weight.data(), col, 0.0f,
                 out.data() + in * oc * ospatial);
            if (has_bias)
                addRowBias(out.data() + in * oc * ospatial, oc,
                           ospatial, bias.data());
        }
    });
    return out;
}

Tensor
conv2dForwardAuto(const Tensor &x, const Tensor &weight,
                  const Tensor &bias, const Window2d &win)
{
    if (winogradApplicable(win) &&
        winogradCostModelWins(x.shape().dim(1), weight.shape().dim(0)))
        return conv2dForwardWinograd(x, weight, bias, win);
    return conv2dForward(x, weight, bias, win);
}

void
conv2dBackward(const Tensor &x, const Tensor &weight,
               const Tensor &grad_out, const Window2d &win,
               Tensor &grad_x, Tensor &grad_w, Tensor &grad_b)
{
    SCNN_REQUIRE(x.shape().rank() == 4 && weight.shape().rank() == 4,
                 "conv2d backward needs NCHW input and OIHW weight");
    const int64_t ih = x.shape().dim(2);
    const int64_t iw = x.shape().dim(3);
    const int64_t oc = weight.shape().dim(0);
    const int64_t krows = x.shape().dim(1) * win.kh * win.kw;
    SCNN_REQUIRE(weight.numel() == oc * krows,
                 "conv2d weight does not match the input");
    // The whole image is the one patch.
    SplitScheme2d whole;
    whole.h.pieces = {{0, ih, 0, win.outH(ih), win.ph_b, win.ph_e}};
    whole.w.pieces = {{0, iw, 0, win.outW(iw), win.pw_b, win.pw_e}};

    auto &arena = ScratchArena::tls();
    auto guard = arena.scope();
    // W^T panels: A(i, p) = weight[p * krows + i], shared read-only.
    float *pa_wt = arena.alloc(gemmPackedASize(krows, oc));
    gemmPackAStrided(krows, oc, 1.0f, weight.data(), /*rs=*/1,
                     /*cs=*/krows, pa_wt);
    grad_x = Tensor(x.shape()); // zero: col2im scatter-adds into it
    conv2dBackwardPatches(x, pa_wt, grad_out, win, whole, grad_x, grad_w,
                          grad_b);
}

void
conv2dBackwardPatches(const Tensor &x, const float *wt_panels,
                      const Tensor &grad_out, const Window2d &win,
                      const SplitScheme2d &scheme, Tensor &grad_x,
                      Tensor &grad_w, Tensor &grad_b)
{
    SCNN_REQUIRE(x.shape().rank() == 4, "conv2d input must be NCHW");
    checkSchemeGeometry(win, scheme);
    const int64_t n = x.shape().dim(0);
    const int64_t c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2);
    const int64_t iw = x.shape().dim(3);
    const int64_t oc = grad_w.shape().dim(0);
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    SCNN_CHECK(grad_out.shape() == Shape({n, oc, out_h, out_w}),
               "conv2d grad_out shape mismatch: "
                   << grad_out.shape().toString());
    SCNN_CHECK(grad_w.shape() == Shape({oc, c, win.kh, win.kw}) &&
                   grad_x.shape() == x.shape(),
               "grad_w / grad_x must be pre-shaped like weight / x");
    const bool has_bias = grad_b.numel() > 0;
    if (has_bias)
        SCNN_REQUIRE(grad_b.numel() == oc, "conv2d grad_b size mismatch");

    const int64_t krows = c * win.kh * win.kw;
    const int64_t ospatial = out_h * out_w;
    const std::vector<SplitBandItem> bands =
        splitConvBandItems(scheme.h);
    const int64_t n_bands = static_cast<int64_t>(bands.size());
    const int64_t max_band_cols = maxBandRows(bands) * out_w;

    auto &arena = ScratchArena::tls();
    auto guard = arena.scope();
    const int64_t wave = std::max<int64_t>(1, globalThreads());
    float *gw_acc = arena.alloc(wave * krows * oc);
    float *gb_acc = has_bias ? arena.alloc(wave * oc) : nullptr;

    for (int64_t w0 = 0; w0 < n; w0 += wave) {
        const int64_t wn = std::min(wave, n - w0);
        globalPool().parallelFor(wn, [&](int64_t begin, int64_t end) {
            auto &warena = ScratchArena::tls();
            auto wguard = warena.scope();
            float *col = warena.alloc(krows * max_band_cols);
            float *gcol = warena.alloc(krows * max_band_cols);
            float *pa_col =
                warena.alloc(gemmPackedASize(krows, max_band_cols));
            float *pb_got =
                warena.alloc(gemmPackedBSize(max_band_cols, oc));
            float *pb_go =
                warena.alloc(gemmPackedBSize(oc, max_band_cols));
            for (int64_t wi = begin; wi < end; ++wi) {
                const int64_t in = w0 + wi;
                const float *go = grad_out.data() + in * oc * ospatial;
                const float *img = x.data() + in * c * ih * iw;
                float *gx_img = grad_x.data() + in * c * ih * iw;
                float *gw_img = gw_acc + wi * krows * oc;
                for (int64_t bi = 0; bi < n_bands; ++bi) {
                    const SplitBandItem &band =
                        bands[static_cast<size_t>(bi)];
                    const SplitPiece1d &ph =
                        scheme.h.pieces[static_cast<size_t>(band.hi)];
                    const int64_t rows = band.oy1 - band.oy0;
                    const int64_t nb = rows * out_w;
                    const float *go_band =
                        go + (ph.out_start + band.oy0) * out_w;
                    // Shadow claims: the band's grad_out rows of
                    // every output channel and its shared panel read;
                    // input reads and grad_x scatters are recorded
                    // inside the view kernels.
                    shadowSetItem(in * n_bands + bi);
                    shadowRecordSpan(go_band, {0, oc, ospatial, 1, 0, nb},
                                     false);
                    shadowRecord(wt_panels, gemmPackedASize(krows, oc),
                                 false);
                    for (int pi = 0; pi < scheme.w.parts(); ++pi) {
                        const SplitPiece1d &pw =
                            scheme.w.pieces[static_cast<size_t>(pi)];
                        const PatchView view{ph.in_start, pw.in_start,
                                             ph.inLen(), pw.inLen()};
                        im2colViewStrided(
                            img, c, ih, iw, view,
                            patchWindow(win, scheme, band.hi, pi),
                            band.oy0, band.oy1, col + pw.out_start, nb,
                            out_w);
                    }
                    // wgrad: gw_img (krows x oc, grad_w transposed)
                    // accumulates this band's columns x grad_out^T
                    // product; beta = 1 chains bands ascending.
                    gemmPackA(krows, nb, 1.0f, col, pa_col);
                    gemmPackBStrided(nb, oc, go_band, /*rs=*/1,
                                     /*cs=*/ospatial, pb_got);
                    gemmPackedAB(krows, oc, nb, pa_col, pb_got,
                                 bi == 0 ? 0.0f : 1.0f, gw_img, oc);
                    // dgrad: gcol = W^T x grad_out band, scattered
                    // per width patch in ascending order.
                    gemmPackB(oc, nb, go_band, /*ldb=*/ospatial, pb_go);
                    gemmPackedAB(krows, nb, oc, wt_panels, pb_go,
                                 0.0f, gcol, nb);
                    for (int pi = 0; pi < scheme.w.parts(); ++pi) {
                        const SplitPiece1d &pw =
                            scheme.w.pieces[static_cast<size_t>(pi)];
                        const PatchView view{ph.in_start, pw.in_start,
                                             ph.inLen(), pw.inLen()};
                        col2imViewStrided(
                            gcol + pw.out_start, c, ih, iw, view,
                            patchWindow(win, scheme, band.hi, pi),
                            band.oy0, band.oy1, gx_img, nb, out_w);
                    }
                }
                if (has_bias) {
                    float *gb = gb_acc + wi * oc;
                    shadowSetItem(n * n_bands + in);
                    shadowRecord(go, oc * ospatial, false);
                    std::fill(gb, gb + oc, 0.0f);
                    addRowSums(go, oc, ospatial, gb);
                }
            }
        });
        for (int64_t wi = 0; wi < wn; ++wi) {
            const int64_t in = w0 + wi;
            shadowSetItem(n * n_bands + n + in);
            shadowRecord(grad_w.data(), oc * krows, true);
            if (has_bias)
                shadowRecord(grad_b.data(), oc, true);
            // gw_img is [krows x oc]; grad_w is [oc x krows].
            const float *gw = gw_acc + wi * krows * oc;
            float *dst = grad_w.data();
            for (int64_t o = 0; o < oc; ++o)
                for (int64_t r = 0; r < krows; ++r)
                    dst[o * krows + r] += gw[r * oc + o];
            if (has_bias) {
                const float *gb = gb_acc + wi * oc;
                for (int64_t o = 0; o < oc; ++o)
                    grad_b.at(o) += gb[o];
            }
        }
    }
}

} // namespace scnn
