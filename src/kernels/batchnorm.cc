#include "kernels/batchnorm.h"

#include <cmath>
#include <memory>

#include "analysis/shadow_access.h"
#include "kernels/rowops.h"
#include "util/logging.h"
#include "util/threadpool.h"

namespace scnn {

namespace {

/** @p patches must lie inside and cover the spatial plane. */
void
checkPatches(const Shape &s, const std::vector<PatchView> &patches)
{
    SCNN_REQUIRE(s.rank() == 4, "batchnorm input must be NCHW");
    int64_t area = 0;
    for (const PatchView &v : patches) {
        SCNN_REQUIRE(v.ih > 0 && v.iw > 0 && v.r0 >= 0 && v.c0 >= 0 &&
                         v.r0 + v.ih <= s.dim(2) && v.c0 + v.iw <= s.dim(3),
                     "batchnorm patch outside the parent plane");
        area += v.ih * v.iw;
    }
    SCNN_REQUIRE(s.dim(0) > 0 && area == s.dim(2) * s.dim(3),
                 "batchnorm patches do not tile a non-empty batch");
}

/** Visit the row segments (tensor offset, length) of patch @p v in
 * channel @p ic, image by image, top to bottom — the order the
 * unsplit kernel walks the patch materialized. */
template <typename Fn>
void
forEachRow(const Shape &s, const PatchView &v, int64_t ic, Fn &&fn)
{
    const int64_t c = s.dim(1), ih = s.dim(2), iw = s.dim(3);
    for (int64_t in = 0; in < s.dim(0); ++in)
        for (int64_t y = 0; y < v.ih; ++y)
            fn((in * c + ic) * ih * iw + v.parentOffset(y, 0, iw), v.iw);
}

/** Claim channel @p ic of every image in each plane, as work item
 * @p item (writes for the planes in @p written). */
void
recordChannel(int64_t item, const Shape &s, int64_t ic,
              std::initializer_list<const float *> read,
              std::initializer_list<const float *> written)
{
    shadowSetItem(item);
    const int64_t hw = s.dim(2) * s.dim(3);
    const StridedSpan plane{ic * hw, s.dim(0), s.dim(1) * hw, 1, 0, hw};
    for (const float *p : read)
        shadowRecordSpan(p, plane, false);
    for (const float *p : written)
        shadowRecordSpan(p, plane, true);
}

/** The whole plane as the single patch of an unsplit layer. */
std::vector<PatchView>
fullPlane(const Shape &s)
{
    SCNN_REQUIRE(s.rank() == 4, "batchnorm input must be NCHW");
    return {PatchView::full(s.dim(2), s.dim(3))};
}

} // namespace

Tensor
splitBatchNormForwardStats(const Tensor &x,
                           const std::vector<PatchView> &patches,
                           const Tensor &gamma, const Tensor &beta,
                           float eps, BatchNormCache &cache)
{
    const Shape &s = x.shape();
    checkPatches(s, patches);
    const int64_t c = s.dim(1);
    const int64_t parts = static_cast<int64_t>(patches.size());
    SCNN_REQUIRE(gamma.numel() == c && beta.numel() == c,
                 "batchnorm parameter size mismatch");
    cache.mean = Tensor(Shape{parts * c});
    cache.batch_var = Tensor(Shape{parts * c});
    cache.inv_std = Tensor(Shape{parts * c});
    cache.x_hat = Tensor::uninitialized(s);
    Tensor out = Tensor::uninitialized(s);
    const auto shadow =
        parts > 1 && shadowAccessEnabled()
            ? openShadowSession(buildSplitBatchNormPlan(s.dim(0), c, s.dim(2),
                                                        s.dim(3), patches),
                                {{"input", x.data()},
                                 {"output", out.data()},
                                 {"x_hat", cache.x_hat.data()}})
            : nullptr;

    globalPool().parallelFor(c, [&](int64_t cb, int64_t ce) {
        for (int64_t ic = cb; ic < ce; ++ic) {
            if (shadow)
                recordChannel(ic, s, ic, {x.data()},
                              {out.data(), cache.x_hat.data()});
            for (int64_t p = 0; p < parts; ++p) {
                const PatchView &v = patches[static_cast<size_t>(p)];
                const int64_t count = s.dim(0) * v.ih * v.iw;
                double sum = 0.0, sq = 0.0;
                forEachRow(s, v, ic, [&](int64_t off, int64_t len) {
                    accumulateSumSqD(x.data() + off, len, sum, sq);
                });
                const double mean = sum / count;
                const double var = sq / count - mean * mean;
                const float inv_std =
                    1.0f / std::sqrt(static_cast<float>(var) + eps);
                cache.mean.at(p * c + ic) = static_cast<float>(mean);
                cache.batch_var.at(p * c + ic) = static_cast<float>(var);
                cache.inv_std.at(p * c + ic) = inv_std;

                const float g = gamma.at(ic);
                const float b = beta.at(ic);
                forEachRow(s, v, ic, [&](int64_t off, int64_t len) {
                    const float *src = x.data() + off;
                    float *xh = cache.x_hat.data() + off;
                    float *dst = out.data() + off;
                    for (int64_t i = 0; i < len; ++i) {
                        xh[i] = (src[i] - static_cast<float>(mean)) * inv_std;
                        dst[i] = g * xh[i] + b;
                    }
                });
            }
        }
    });
    checkShadowSession(shadow, "split batchnorm");
    return out;
}

Tensor
splitBatchNormBackward(const Tensor &grad_out,
                       const std::vector<PatchView> &patches,
                       const Tensor &gamma, const BatchNormCache &cache,
                       Tensor &grad_gamma, Tensor &grad_beta)
{
    const Shape &s = grad_out.shape();
    checkPatches(s, patches);
    const int64_t c = s.dim(1);
    const int64_t parts = static_cast<int64_t>(patches.size());
    SCNN_CHECK(cache.inv_std.numel() == parts * c && cache.x_hat.shape() == s,
               "batchnorm cache does not match the backward input");
    Tensor grad_x = Tensor::uninitialized(s);
    const auto shadow =
        parts > 1 && shadowAccessEnabled()
            ? openShadowSession(buildSplitBatchNormPlan(s.dim(0), c, s.dim(2),
                                                        s.dim(3), patches),
                                {{"grad_out", grad_out.data()},
                                 {"x_hat", cache.x_hat.data()},
                                 {"grad_x", grad_x.data()}})
            : nullptr;

    globalPool().parallelFor(c, [&](int64_t cb, int64_t ce) {
        for (int64_t ic = cb; ic < ce; ++ic) {
            // In the plan, backward items follow the forward channel
            // items and the per-patch running-stat updates.
            if (shadow)
                recordChannel(c + parts + ic, s, ic,
                              {grad_out.data(), cache.x_hat.data()},
                              {grad_x.data()});
            for (int64_t p = 0; p < parts; ++p) {
                const PatchView &v = patches[static_cast<size_t>(p)];
                const int64_t count = s.dim(0) * v.ih * v.iw;
                // Reductions: sum(dy), sum(dy * x_hat).
                double sum_dy = 0.0, sum_dy_xhat = 0.0;
                forEachRow(s, v, ic, [&](int64_t off, int64_t len) {
                    accumulateSumDotD(grad_out.data() + off,
                                      cache.x_hat.data() + off, len, sum_dy,
                                      sum_dy_xhat);
                });
                grad_beta.at(ic) += static_cast<float>(sum_dy);
                grad_gamma.at(ic) += static_cast<float>(sum_dy_xhat);

                const float g = gamma.at(ic);
                const float inv_std = cache.inv_std.at(p * c + ic);
                const float mean_dy = static_cast<float>(sum_dy / count);
                const float mean_dy_xhat =
                    static_cast<float>(sum_dy_xhat / count);
                forEachRow(s, v, ic, [&](int64_t off, int64_t len) {
                    const float *dy = grad_out.data() + off;
                    const float *xh = cache.x_hat.data() + off;
                    float *dx = grad_x.data() + off;
                    for (int64_t i = 0; i < len; ++i)
                        dx[i] = g * inv_std *
                                (dy[i] - mean_dy - xh[i] * mean_dy_xhat);
                });
            }
        }
    });
    checkShadowSession(shadow, "split batchnorm backward");
    return grad_x;
}

void
applyBatchNormRunningUpdate(const BatchNormCache &cache, float momentum,
                            Tensor &running_mean, Tensor &running_var)
{
    const int64_t c = running_mean.numel();
    SCNN_CHECK(c > 0 && running_var.numel() == c &&
                   cache.mean.numel() % c == 0,
               "batchnorm running stat size mismatch");
    for (int64_t row = 0; row < cache.mean.numel(); row += c)
        for (int64_t ic = 0; ic < c; ++ic) {
            running_mean.at(ic) = (1.0f - momentum) * running_mean.at(ic) +
                                  momentum * cache.mean.at(row + ic);
            running_var.at(ic) = (1.0f - momentum) * running_var.at(ic) +
                                 momentum * cache.batch_var.at(row + ic);
        }
}

Tensor
batchNormForward(const Tensor &x, const Tensor &gamma, const Tensor &beta,
                 Tensor &running_mean, Tensor &running_var,
                 float momentum, float eps, BatchNormCache &cache)
{
    Tensor out = splitBatchNormForwardStats(x, fullPlane(x.shape()), gamma,
                                            beta, eps, cache);
    applyBatchNormRunningUpdate(cache, momentum, running_mean,
                                running_var);
    return out;
}

Tensor
batchNormInference(const Tensor &x, const Tensor &gamma,
                   const Tensor &beta, const Tensor &running_mean,
                   const Tensor &running_var, float eps)
{
    const Shape &s = x.shape();
    const PatchView plane = fullPlane(s).front();
    Tensor out = Tensor::uninitialized(s);
    for (int64_t ic = 0; ic < s.dim(1); ++ic) {
        const float inv_std =
            1.0f / std::sqrt(running_var.at(ic) + eps);
        const float g = gamma.at(ic);
        const float b = beta.at(ic);
        const float m = running_mean.at(ic);
        forEachRow(s, plane, ic, [&](int64_t off, int64_t len) {
            const float *src = x.data() + off;
            float *dst = out.data() + off;
            for (int64_t i = 0; i < len; ++i)
                dst[i] = g * (src[i] - m) * inv_std + b;
        });
    }
    return out;
}

Tensor
batchNormBackward(const Tensor &grad_out, const Tensor &gamma,
                  const BatchNormCache &cache, Tensor &grad_gamma,
                  Tensor &grad_beta)
{
    return splitBatchNormBackward(grad_out, fullPlane(grad_out.shape()),
                                  gamma, cache, grad_gamma, grad_beta);
}

} // namespace scnn
