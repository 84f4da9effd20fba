#include "core/split_op.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "analysis/parallel_model.h"
#include "analysis/shadow_access.h"
#include "kernels/conv2d.h"
#include "kernels/gemm.h"
#include "kernels/im2col.h"
#include "kernels/microkernel.h"
#include "kernels/pool2d.h"
#include "kernels/winograd.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/scratch_arena.h"
#include "util/thread_annotations.h"
#include "util/threadpool.h"

namespace scnn {

// ---------------------------------------------------------------------------
// Fused zero-copy split execution.
//
// Materializing each patch pays a pad2d input copy, a fresh output
// tensor, and two concat passes — pure memory traffic — and runs one
// small GEMM per patch. The fused path instead makes the GEMM shape
// equal to the unsplit convolution's. A work
// item is an output-row *band* of one patch-row group (all patches
// sharing a split-H piece): every patch stages its halo-aware im2col
// columns into one shared column matrix whose columns are ordered by
// parent output position (im2colViewStrided with col_ld = the band's
// full column count, row_step = the parent output width), the matrix
// is packed into B panels once (gemmPackB) and consumed across every
// output-channel block without repacking (gemmPackedAB), and C is
// the parent output itself (ldc = the parent channel stride) — no
// bounce buffer, no copy pass. Weight panels come from a keyed
// per-(layer, split) cache instead of being repacked per call.
//
// Determinism: the work list is a function of shapes alone (the row
// band is a fixed constant), every item writes a disjoint output
// region, and each item's arithmetic is scheduling-independent — so
// outputs are bitwise identical for any thread count. Under the
// scalar microkernel each output element accumulates k ascending
// from a zeroed start exactly like conv2dForward on a materialized
// patch, so the two produce identical bytes; the fused batched-GEMM
// Winograd path likewise reproduces conv2dForwardWinograd's bytes.
// ---------------------------------------------------------------------------

namespace {

uint64_t
hashFloats(const float *p, int64_t count)
{
    // FNV-1a over the raw bytes: cheap relative to a pack (one
    // sequential read, no writes) and exhaustive, so in-place weight
    // updates can never serve stale panels.
    const unsigned char *bytes =
        reinterpret_cast<const unsigned char *>(p);
    const int64_t nbytes = count * int64_t(sizeof(float));
    uint64_t h = 1469598103934665603ull;
    for (int64_t i = 0; i < nbytes; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** A cached packed-panel buffer plus the shared_ptr keeping it alive
 * while a worker reads it (eviction only drops the cache's ref). */
struct PanelRef
{
    std::shared_ptr<std::vector<float>> keepalive;
    const float *panels = nullptr;
};

/** Which packed layout a cache entry holds. One weight tensor can be
 * cached under several kinds at once: the forward GEMM A panels, the
 * Winograd U tensor, and the backward dgrad panels (W^T packed as A,
 * krows x oc) are distinct layouts keyed separately. */
enum class PanelKind { GemmA, Winograd, Dgrad };

/**
 * Keyed LRU cache of packed weight panels, shared process-wide.
 *
 * Key: weight base pointer + panel shape + kernel choice + active
 * microkernel (packed layouts are microkernel-dependent). A full
 * content hash validates every hit. Capacity is a handful of layers;
 * an inference loop over a fixed net hits every call after the first
 * pass, which is what turns "pack once per call" into "pack once per
 * (layer, split)".
 */
class WeightPanelCache
{
public:
    template <typename PackFn>
    PanelRef
    lookupOrPack(const float *w, int64_t wcount, int64_t m, int64_t k,
                 PanelKind kind, int64_t panel_floats, PackFn &&pack)
    {
        const uint64_t h = hashFloats(w, wcount);
        const char *kernel = activeMicrokernel().name;
        MutexLock lock(mu_);
        ++tick_;
        for (auto &e : entries_) {
            if (e.wptr == w && e.m == m && e.k == k &&
                e.kind == kind && e.kernel == kernel) {
                e.tick = tick_;
                if (e.hash == h) {
                    ++hits_;
                    return {e.buf, e.panels};
                }
                // Same layer slot, new contents (in-place update):
                // repack into the existing entry.
                ++misses_;
                pack(e.panels);
                e.hash = h;
                return {e.buf, e.panels};
            }
        }
        ++misses_;
        Entry e;
        e.wptr = w;
        e.m = m;
        e.k = k;
        e.kind = kind;
        e.kernel = kernel;
        e.hash = h;
        e.tick = tick_;
        // Over-allocate so the panel base can be 64-byte aligned for
        // the microkernel's SIMD loads.
        e.buf = std::make_shared<std::vector<float>>(
            static_cast<size_t>(panel_floats + 16));
        auto addr = reinterpret_cast<uintptr_t>(e.buf->data());
        e.panels = reinterpret_cast<float *>((addr + 63) & ~uintptr_t{63});
        pack(e.panels);
        if (entries_.size() >= kCapacity) {
            size_t oldest = 0;
            for (size_t i = 1; i < entries_.size(); ++i)
                if (entries_[i].tick < entries_[oldest].tick)
                    oldest = i;
            ++evictions_;
            entries_[oldest] = std::move(e);
            return {entries_[oldest].buf, entries_[oldest].panels};
        }
        entries_.push_back(std::move(e));
        return {entries_.back().buf, entries_.back().panels};
    }

    SplitWeightCacheStats
    stats()
    {
        MutexLock lock(mu_);
        return {hits_, misses_, evictions_,
                static_cast<int64_t>(entries_.size())};
    }

    void
    clear()
    {
        MutexLock lock(mu_);
        entries_.clear();
        hits_ = misses_ = evictions_ = 0;
        tick_ = 0;
    }

private:
    struct Entry
    {
        const float *wptr = nullptr;
        int64_t m = 0;
        int64_t k = 0;
        PanelKind kind = PanelKind::GemmA;
        const char *kernel = nullptr;
        uint64_t hash = 0;
        std::shared_ptr<std::vector<float>> buf;
        float *panels = nullptr;
        int64_t tick = 0;
    };
    static constexpr size_t kCapacity = 8;

    Mutex mu_;
    std::vector<Entry> entries_ SCNN_GUARDED_BY(mu_);
    int64_t hits_ SCNN_GUARDED_BY(mu_) = 0;
    int64_t misses_ SCNN_GUARDED_BY(mu_) = 0;
    int64_t evictions_ SCNN_GUARDED_BY(mu_) = 0;
    int64_t tick_ SCNN_GUARDED_BY(mu_) = 0;
};

WeightPanelCache &
weightCache()
{
    static WeightPanelCache cache;
    return cache;
}

} // namespace

SplitWeightCacheStats
splitWeightCacheStats()
{
    return weightCache().stats();
}

void
splitWeightCacheClear()
{
    weightCache().clear();
}

Tensor
splitConv2dForwardFused(const Tensor &x, const Tensor &weight,
                        const Tensor &bias, const Window2d &win,
                        const SplitScheme2d &scheme, bool use_winograd)
{
    SCNN_REQUIRE(x.shape().rank() == 4, "split conv input must be NCHW");
    SCNN_REQUIRE(weight.shape().rank() == 4,
                 "split conv weight must be [OC, C, kh, kw]");
    const int64_t n = x.shape().dim(0);
    const int64_t c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2);
    const int64_t iw = x.shape().dim(3);
    const int64_t oc = weight.shape().dim(0);
    SCNN_REQUIRE(weight.shape().dim(1) == c,
                 "split conv channel mismatch");
    SCNN_REQUIRE(weight.shape().dim(2) == win.kh &&
                     weight.shape().dim(3) == win.kw,
                 "split conv kernel extent mismatch");
    SCNN_REQUIRE(!use_winograd || winogradApplicable(win),
                 "winograd split path needs a 3x3 stride-1 window");
    checkSchemeGeometry(win, scheme);

    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    const int64_t krows = c * win.kh * win.kw;
    const bool has_bias = bias.numel() > 0;
    if (has_bias)
        SCNN_REQUIRE(bias.numel() == oc,
                     "split conv bias size mismatch");

    // The band decomposition comes from the shared helper the SA6xx
    // analyzer also models.
    const std::vector<SplitBandItem> bands =
        splitConvBandItems(scheme.h);

    // Weight panels: packed at most once per (layer, split) — served
    // from the keyed cache on every later call, shared read-only by
    // all workers.
    PanelRef wref;
    if (use_winograd)
        wref = weightCache().lookupOrPack(
            weight.data(), oc * krows, oc, c, PanelKind::Winograd,
            winogradPackedUSize(oc, c), [&](float *dst) {
                winogradPackWeights(weight.data(), oc, c, dst);
            });
    else
        wref = weightCache().lookupOrPack(
            weight.data(), oc * krows, oc, krows, PanelKind::GemmA,
            gemmPackedASize(oc, krows), [&](float *dst) {
                gemmPackA(oc, krows, 1.0f, weight.data(), dst);
            });

    Tensor out = Tensor::uninitialized(Shape{n, oc, out_h, out_w});
    const float *bias_ptr = has_bias ? bias.data() : nullptr;
    const int64_t n_bands = static_cast<int64_t>(bands.size());
    const int64_t max_band_cols = maxBandRows(bands) * out_w;
    const int64_t panel_floats = use_winograd
                                     ? winogradPackedUSize(oc, c)
                                     : gemmPackedASize(oc, krows);

    // Shadow-access validation (SCNN_SHADOW_ACCESS=1): model this
    // exact execution and, after the parallel section, check every
    // claim the kernels recorded against the static prediction.
    const auto shadow =
        shadowAccessEnabled()
            ? openShadowSession(
                  buildSplitConvPlan(n, c, ih, iw, oc, win, scheme),
                  {{"output", out.data()},
                   {"input", x.data()},
                   {"weight_panels", wref.panels}})
            : nullptr;

    globalPool().parallelFor(n * n_bands, [&](int64_t begin,
                                              int64_t end) {
        auto &warena = ScratchArena::tls();
        auto wguard = warena.scope();
        float *col = nullptr;
        float *pb = nullptr;
        if (!use_winograd) {
            col = warena.alloc(krows * max_band_cols);
            pb = warena.alloc(gemmPackedBSize(krows, max_band_cols));
        }
        for (int64_t i = begin; i < end; ++i) {
            const int64_t in = i / n_bands;
            const SplitBandItem &band =
                bands[static_cast<size_t>(i % n_bands)];
            const SplitPiece1d &ph = scheme.h.pieces[band.hi];
            const float *img = x.data() + in * c * ih * iw;
            float *out_img = out.data() + in * oc * out_h * out_w;

            if (shadow) {
                shadowSetItem(i);
                // The band's whole output claim (both kernel paths
                // write exactly these rows of every channel) and its
                // shared read of the packed panels. Input halo reads
                // are recorded inside the patch kernels.
                shadowRecordSpan(
                    out_img + (ph.out_start + band.oy0) * out_w,
                    {0, oc, out_h * out_w, 1, 0,
                     (band.oy1 - band.oy0) * out_w},
                    true);
                shadowRecord(wref.panels, panel_floats, false);
            }

            if (use_winograd) {
                for (int wi = 0; wi < scheme.w.parts(); ++wi) {
                    const SplitPiece1d &pw = scheme.w.pieces[wi];
                    const PatchView view{ph.in_start, pw.in_start,
                                         ph.inLen(), pw.inLen()};
                    conv2dWinogradPatch(
                        img, c, ih, iw, view,
                        patchWindow(win, scheme, band.hi, wi),
                        wref.panels, oc, bias_ptr, band.oy0 / 2,
                        (band.oy1 + 1) / 2, out_img, out_h, out_w,
                        ph.out_start, pw.out_start);
                }
                continue;
            }

            // Stage every patch's columns of this band into the
            // shared column matrix, ordered by parent output
            // position: window-element row r of output (oy, ox_glob)
            // sits at col[r*nb + (oy - oy0)*out_w + ox_glob].
            const int64_t rows = band.oy1 - band.oy0;
            const int64_t nb = rows * out_w;
            for (int wi = 0; wi < scheme.w.parts(); ++wi) {
                const SplitPiece1d &pw = scheme.w.pieces[wi];
                const PatchView view{ph.in_start, pw.in_start,
                                     ph.inLen(), pw.inLen()};
                im2colViewStrided(
                    img, c, ih, iw, view,
                    patchWindow(win, scheme, band.hi, wi), band.oy0,
                    band.oy1, col + pw.out_start, nb, out_w);
            }
            // One unsplit-shaped GEMM for the whole band: B panels
            // packed once, consumed by every output-channel block, C
            // written straight into the parent output.
            gemmPackB(krows, nb, col, nb, pb);
            float *cbase =
                out_img + (ph.out_start + band.oy0) * out_w;
            const int64_t ldc = out_h * out_w;
            gemmPackedAB(oc, nb, krows, wref.panels, pb, 0.0f, cbase,
                         ldc);
            if (has_bias)
                for (int64_t o = 0; o < oc; ++o) {
                    float *crow = cbase + o * ldc;
                    const float b = bias_ptr[o];
                    for (int64_t j = 0; j < nb; ++j)
                        crow[j] += b;
                }
        }
    });
    checkShadowSession(shadow, "split conv");
    return out;
}

namespace {

/** Debug hook shared by the split dispatchers: statically prove the
 * decomposition race-free before running it. Batch is modeled as
 * min(n, 2) images — image footprints are identical translates, so
 * two prove every inter-image pair (same convention as
 * analyzeParallelExecution). */
void
lintSplitPlan(const ParallelPlan &plan, const char *what)
{
    const std::vector<Diagnostic> diags = analyzeParallelPlan(plan);
    SCNN_CHECK(diags.empty(),
               "parallel-safety lint: " << diags.size()
                                        << " finding(s) in " << what
                                        << "; first: "
                                        << diags.front().toString());
}

} // namespace

Tensor
splitConv2dForward(const Tensor &x, const Tensor &weight,
                   const Tensor &bias, const Window2d &win,
                   const SplitScheme2d &scheme)
{
    if (lintParallelEnabled())
        lintSplitPlan(buildSplitConvPlan(
                          std::min<int64_t>(x.shape().dim(0), 2),
                          x.shape().dim(1), x.shape().dim(2),
                          x.shape().dim(3), weight.shape().dim(0),
                          win, scheme),
                      "split conv");
    const bool wino =
        winogradApplicable(win) &&
        winogradCostModelWins(x.shape().dim(1), weight.shape().dim(0));
    return splitConv2dForwardFused(x, weight, bias, win, scheme, wino);
}

namespace {

/** Shared loop of the split-pool forwards: one work item per
 * (image, patch), each writing a disjoint block of the parent
 * output (and of @p argmax, sized like it when given) through the
 * halo-aware patch kernel, which receives the item's image index. */
template <typename PatchKernel>
Tensor
splitPool2dForwardImpl(const Tensor &x, const Window2d &win,
                       const SplitScheme2d &scheme, const char *what,
                       std::vector<int64_t> *argmax, PatchKernel &&kernel)
{
    SCNN_REQUIRE(x.shape().rank() == 4, "split pool input must be NCHW");
    checkSchemeGeometry(win, scheme);
    const int64_t n = x.shape().dim(0);
    const int64_t c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2);
    const int64_t iw = x.shape().dim(3);
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    SCNN_REQUIRE(out_h > 0 && out_w > 0, "empty split pool output");
    if (lintParallelEnabled())
        lintSplitPlan(buildSplitPoolPlan(std::min<int64_t>(n, 2), c, ih,
                                         iw, win, scheme),
                      what);

    const int hp = scheme.h.parts();
    const int wp = scheme.w.parts();
    const int64_t parts = int64_t(hp) * wp;

    // Every output element belongs to exactly one patch block, so the
    // allocation skips its zero-fill; items write disjoint regions.
    Tensor out = Tensor::uninitialized(Shape{n, c, out_h, out_w});
    if (argmax)
        argmax->resize(static_cast<size_t>(out.numel()));

    const auto shadow =
        shadowAccessEnabled()
            ? openShadowSession(buildSplitPoolPlan(n, c, ih, iw, win, scheme),
                                {{"output", out.data()}, {"input", x.data()}})
            : nullptr;

    globalPool().parallelFor(n * parts, [&](int64_t begin,
                                            int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
            if (shadow)
                shadowSetItem(i); // patch kernels record the claims
            const int64_t in = i / parts;
            const int hi = static_cast<int>((i % parts) / wp);
            const int wi = static_cast<int>(i % wp);
            const SplitPiece1d &ph = scheme.h.pieces[hi];
            const SplitPiece1d &pw = scheme.w.pieces[wi];
            const PatchView view{ph.in_start, pw.in_start, ph.inLen(),
                                 pw.inLen()};
            kernel(in, x.data() + in * c * ih * iw, c, ih, iw, view,
                   patchWindow(win, scheme, hi, wi),
                   out.data() + in * c * out_h * out_w, out_h, out_w,
                   ph.out_start, pw.out_start);
        }
    });
    checkShadowSession(shadow, "split pool");
    return out;
}

} // namespace

Tensor
splitMaxPool2dForward(const Tensor &x, const Window2d &win,
                      const SplitScheme2d &scheme,
                      std::vector<int64_t> &argmax)
{
    return splitPool2dForwardImpl(
        x, win, scheme, "split max-pool", &argmax,
        [&](int64_t in, const float *img, int64_t c, int64_t ih,
            int64_t iw, const PatchView &view, const Window2d &local,
            float *out, int64_t out_oh, int64_t out_ow, int64_t oy0,
            int64_t ox0) {
            // argmax mirrors the output layout and holds indices into
            // the whole input tensor.
            maxPool2dPatch(img, c, ih, iw, view, local, out, out_oh,
                           out_ow, oy0, ox0,
                           argmax.data() + in * c * out_oh * out_ow,
                           in * c * ih * iw);
        });
}

Tensor
splitAvgPool2dForward(const Tensor &x, const Window2d &win,
                      const SplitScheme2d &scheme)
{
    return splitPool2dForwardImpl(
        x, win, scheme, "split avg-pool", nullptr,
        [](int64_t, const float *img, int64_t c, int64_t ih, int64_t iw,
           const PatchView &view, const Window2d &local, float *out,
           int64_t out_oh, int64_t out_ow, int64_t oy0, int64_t ox0) {
            avgPool2dPatch(img, c, ih, iw, view, local, out, out_oh,
                           out_ow, oy0, ox0);
        });
}

void
splitConv2dBackward(const Tensor &x, const Tensor &weight,
                    const Tensor &grad_out, const Window2d &win,
                    const SplitScheme2d &scheme, Tensor &grad_x,
                    Tensor &grad_w, Tensor &grad_b)
{
    SCNN_REQUIRE(x.shape().rank() == 4 && weight.shape().rank() == 4,
                 "split conv backward needs NCHW input and OIHW weight");
    const int64_t n = x.shape().dim(0);
    const int64_t c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2);
    const int64_t iw = x.shape().dim(3);
    const int64_t oc = weight.shape().dim(0);
    const int64_t krows = c * win.kh * win.kw;
    SCNN_REQUIRE(weight.numel() == oc * krows,
                 "split conv weight does not match the input");
    if (lintParallelEnabled())
        lintSplitPlan(buildSplitConvBackwardPlan(std::min<int64_t>(n, 2),
                                                 c, ih, iw, oc, win,
                                                 scheme),
                      "split conv backward");

    // dgrad operand: W^T packed A panels, A(i, p) = weight[p*krows+i],
    // served from the keyed cache under a dgrad key, so one layer
    // caches its forward and backward layouts side by side.
    const PanelRef wref = weightCache().lookupOrPack(
        weight.data(), oc * krows, krows, oc, PanelKind::Dgrad,
        gemmPackedASize(krows, oc), [&](float *dst) {
            gemmPackAStrided(krows, oc, 1.0f, weight.data(), /*rs=*/1,
                             /*cs=*/krows, dst);
        });

    grad_x = Tensor(x.shape()); // zero: halo scatters accumulate
    const auto shadow =
        shadowAccessEnabled()
            ? openShadowSession(
                  buildSplitConvBackwardPlan(n, c, ih, iw, oc, win, scheme),
                  {{"grad_x", grad_x.data()},
                   {"grad_out", grad_out.data()},
                   {"input", x.data()},
                   {"weight_panels", wref.panels},
                   {"grad_w", grad_w.data()}})
            : nullptr;
    if (shadow && grad_b.numel() > 0)
        shadow->bind("grad_b", grad_b.data());
    conv2dBackwardPatches(x, wref.panels, grad_out, win, scheme, grad_x,
                          grad_w, grad_b);
    checkShadowSession(shadow, "split conv backward");
}

namespace {

/**
 * Shared loop of the split pool backwards: one image per worker,
 * the image's patches scattered serially ascending so halo targets
 * (k > s windows straddling a patch seam) accumulate in a fixed
 * order. @p scatter adds patch (hi, wi) of image @p in into grad_x
 * through the patch's view.
 */
template <typename Scatter>
Tensor
splitPool2dBackwardImpl(const Shape &in_shape, const Tensor &grad_out,
                        const Window2d &win, const SplitScheme2d &scheme,
                        const char *what, Scatter &&scatter)
{
    SCNN_REQUIRE(in_shape.rank() == 4, "split pool input must be NCHW");
    SCNN_CHECK(scheme.h.parts() > 0 && scheme.w.parts() > 0,
               "empty split scheme");
    const int64_t n = in_shape.dim(0);
    const int64_t c = in_shape.dim(1);
    const int64_t ih = in_shape.dim(2);
    const int64_t iw = in_shape.dim(3);
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    SCNN_CHECK(grad_out.shape() == Shape({n, c, out_h, out_w}),
               "split pool grad_out shape mismatch: "
                   << grad_out.shape().toString());
    if (lintParallelEnabled())
        lintSplitPlan(buildSplitPoolBackwardPlan(std::min<int64_t>(n, 2),
                                                 c, ih, iw, win, scheme),
                      what);

    const int hp = scheme.h.parts();
    const int wp = scheme.w.parts();
    const int64_t parts = int64_t(hp) * wp;

    Tensor grad_x(in_shape); // zero: scatter-add target

    const auto shadow =
        shadowAccessEnabled()
            ? openShadowSession(
                  buildSplitPoolBackwardPlan(n, c, ih, iw, win, scheme),
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
                    shadowSetItem(in * parts + pi);
                    // The patch's input-hull write and output-block
                    // read — the spans the SA6xx backward model
                    // predicts for this item.
                    const int64_t first =
                        ph.in_start * iw + pw.in_start;
                    const int64_t last =
                        (c - 1) * ih * iw +
                        (ph.in_start + ph.inLen() - 1) * iw +
                        pw.in_start + pw.inLen();
                    shadowRecord(grad_x.data() + in * c * ih * iw +
                                     first,
                                 last - first, true);
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
    checkShadowSession(shadow, "split pool backward");
    return grad_x;
}

} // namespace

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
    return splitPool2dBackwardImpl(
        in_shape, grad_out, Window2d{}, scheme, "split max-pool backward",
        [&](Tensor &gx, int64_t in, int hi, int wi) {
            const SplitPiece1d &ph = scheme.h.pieces[hi];
            const SplitPiece1d &pw = scheme.w.pieces[wi];
            // The forward argmax is absolute into the whole input
            // tensor, and every argmax of an output in this block
            // lies inside the patch's input rectangle (Eqs. 1-2).
            for (int64_t ic = 0; ic < c; ++ic)
                for (int64_t oy = ph.out_start; oy < ph.out_end; ++oy)
                    for (int64_t ox = pw.out_start; ox < pw.out_end;
                         ++ox) {
                        const int64_t oi =
                            ((in * c + ic) * out_h + oy) * out_w + ox;
                        const int64_t idx =
                            argmax[static_cast<size_t>(oi)];
                        if (idx >= 0)
                            gx.at(idx) += grad_out.at(oi);
                    }
        });
}

Tensor
splitAvgPool2dBackward(const Shape &in_shape, const Tensor &grad_out,
                       const Window2d &win,
                       const SplitScheme2d &scheme)
{
    const int64_t c = in_shape.dim(1);
    const int64_t ih = in_shape.dim(2);
    const int64_t iw = in_shape.dim(3);
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    return splitPool2dBackwardImpl(
        in_shape, grad_out, win, scheme, "split avg-pool backward",
        [&](Tensor &gx, int64_t in, int hi, int wi) {
            // grad_out is read in place at the parent strides.
            const SplitPiece1d &ph = scheme.h.pieces[hi];
            const SplitPiece1d &pw = scheme.w.pieces[wi];
            avgPool2dPatchBackward(
                grad_out.data() +
                    (in * c * out_h + ph.out_start) * out_w + pw.out_start,
                out_h, out_w, c, ih, iw,
                {ph.in_start, pw.in_start, ph.inLen(), pw.inLen()},
                patchWindow(win, scheme, hi, wi),
                gx.data() + in * c * ih * iw);
        });
}

} // namespace scnn
