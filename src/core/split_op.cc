#include "core/split_op.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "analysis/parallel_model.h"
#include "analysis/shadow_access.h"
#include "kernels/conv2d.h"
#include "kernels/gemm.h"
#include "kernels/microkernel.h"
#include "kernels/pool2d.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/threadpool.h"

namespace scnn {

// ---------------------------------------------------------------------------
// Split execution over the band engine.
//
// The split conv kernels are kernels/conv2d.h's band engine run over
// the scheme's patch views: patches are never materialized, every
// patch stages its halo-aware im2col columns into its work item's
// shared column matrix, and one GEMM per item runs at (at least) the
// unsplit convolution's shape. What this file adds is the split
// entry points' bookkeeping: weight panels come from a keyed
// per-(layer, split) cache instead of being repacked per call, and
// the debug hooks (SA6xx lint, shadow-access sessions) wrap each
// call.
// ---------------------------------------------------------------------------

uint64_t
splitWeightCacheHash(const float *p, int64_t count)
{
    // FNV-1a-style over 64-bit words, four independent lanes so the
    // multiply chains overlap: exhaustive (in-place weight updates can
    // never serve stale panels) and cheaper than the pack it saves.
    constexpr uint64_t kPrime = 1099511628211ull;
    uint64_t lane[4] = {1469598103934665603ull, 0x9e3779b97f4a7c15ull,
                        0xc2b2ae3d27d4eb4full, 0x165667b19e3779f9ull};
    const int64_t words = count / 2;
    int64_t i = 0;
    for (; i + 4 <= words; i += 4)
        for (int l = 0; l < 4; ++l) {
            uint64_t v;
            std::memcpy(&v, p + 2 * (i + l), sizeof v);
            lane[l] = (lane[l] ^ v) * kPrime;
        }
    for (; i < words; ++i) {
        uint64_t v;
        std::memcpy(&v, p + 2 * i, sizeof v);
        lane[0] = (lane[0] ^ v) * kPrime;
    }
    if (count % 2 != 0) {
        uint32_t v;
        std::memcpy(&v, p + count - 1, sizeof v);
        lane[1] = (lane[1] ^ v) * kPrime;
    }
    uint64_t h = static_cast<uint64_t>(count);
    for (const uint64_t l : lane)
        h = (h ^ l) * kPrime;
    return h;
}

namespace {

/** A cached packed-panel buffer plus the shared_ptr keeping it alive
 * while a worker reads it (eviction only drops the cache's ref). */
struct PanelRef
{
    std::shared_ptr<std::vector<float>> keepalive;
    const float *panels = nullptr;
};

/** Which packed layout a cache entry holds. One weight tensor is
 * cached under both at once: the forward GEMM A panels and the
 * backward dgrad panels (W^T packed as A, krows x oc) are distinct
 * layouts keyed separately. */
enum class PanelKind { GemmA, Dgrad };

/**
 * Keyed LRU cache of packed weight panels, shared process-wide.
 *
 * Key: weight base pointer + panel shape + layout kind + active
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
        const uint64_t h = splitWeightCacheHash(w, wcount);
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

namespace {

/** Debug hook shared by the split dispatchers: statically prove the
 * decomposition race-free before running it. Batch is modeled as two
 * work units (min(n, 2) images for the pools, convModelBatch for the
 * conv) — unit footprints are identical translates, so two prove
 * every inter-unit pair (same convention as
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
    SCNN_REQUIRE(x.shape().rank() == 4 && weight.shape().rank() == 4,
                 "split conv needs NCHW input and OIHW weight");
    const int64_t n = x.shape().dim(0);
    const int64_t c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2);
    const int64_t iw = x.shape().dim(3);
    const int64_t oc = weight.shape().dim(0);
    const int64_t krows = c * win.kh * win.kw;
    SCNN_REQUIRE(weight.numel() == oc * krows,
                 "split conv weight does not match the input");
    if (lintParallelEnabled())
        lintSplitPlan(buildSplitConvPlan(convModelBatch(n, krows, scheme),
                                         c, ih, iw, oc, win, scheme),
                      "split conv");

    // Weight panels: packed at most once per (layer, split) — served
    // from the keyed cache on every later call, shared read-only by
    // all workers.
    const PanelRef wref = weightCache().lookupOrPack(
        weight.data(), oc * krows, oc, krows, PanelKind::GemmA,
        gemmPackedASize(oc, krows), [&](float *dst) {
            gemmPackA(oc, krows, 1.0f, weight.data(), dst);
        });

    // Shadow-access validation (SCNN_SHADOW_ACCESS=1): model this
    // exact execution and check every claim the kernel records
    // against the static prediction. The output is bound once the
    // kernel allocated it, before any claim is checked.
    auto shadow = shadowAccessEnabled()
                      ? openShadowSession(
                            buildSplitConvPlan(n, c, ih, iw, oc, win,
                                               scheme),
                            {{"input", x.data()},
                             {"weight_panels", wref.panels}})
                      : nullptr;
    Tensor out =
        conv2dForwardPatches(x, weight, wref.panels, bias, win, scheme);
    if (shadow)
        shadow->bind("output", out.data());
    checkShadowSession(shadow, "split conv");
    return out;
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
        lintSplitPlan(buildSplitConvBackwardPlan(
                          convModelBatch(n, krows, scheme), c, ih, iw, oc,
                          win, scheme),
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
