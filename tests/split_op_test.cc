/**
 * @file
 * Property tests for split-op execution (Eqs. 4-7): shape
 * preservation, exact equivalence for natural splits (k == s),
 * interior equivalence for overlapping windows (k > s), the 2-D
 * four-patch construction of Figure 2, and the fused zero-copy
 * kernels (conv, pooling, batchnorm) against the per-patch oracle
 * (split_oracle.h).
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "split_oracle.h"

#include "kernels/conv2d.h"
#include "kernels/microkernel.h"
#include "kernels/pool2d.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace scnn {
namespace {

SplitScheme2d
makeScheme(const Window2d &win, int64_t ih, int64_t iw, int nh, int nw,
           InputSplitPolicy policy = InputSplitPolicy::Center)
{
    return splitWindowOp2d(win, ih, iw,
                           evenOutputSplit(win.outH(ih), nh),
                           evenOutputSplit(win.outW(iw), nw), policy);
}

/** Pin the microkernel selection for a test body (see
 * gemm_blocked_test.cc). */
class ScopedSimd
{
  public:
    explicit ScopedSimd(bool enabled) : prev_(simdEnabled())
    {
        setSimdEnabled(enabled);
    }
    ~ScopedSimd() { setSimdEnabled(prev_); }

  private:
    bool prev_;
};

TEST(SplitOp, OutputShapeMatchesUnsplit)
{
    Rng rng(1);
    Tensor x(Shape{2, 3, 17, 19});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape{4, 3, 3, 3});
    w.fillNormal(rng, 0.0f, 0.5f);
    const Window2d win = Window2d::square(3, 1, 1);
    const auto scheme = makeScheme(win, 17, 19, 3, 4);
    Tensor split = splitConv2dForward(x, w, Tensor(), win, scheme);
    Tensor ref = conv2dForward(x, w, Tensor(), win);
    EXPECT_EQ(split.shape(), ref.shape());
}

TEST(SplitOp, NaturalSplitPoolIsExactlyEquivalent)
{
    // k == s (2x2/2 max pool): splitting is non-intrusive.
    Rng rng(2);
    Tensor x(Shape{2, 3, 16, 16});
    x.fillNormal(rng, 0.0f, 1.0f);
    const Window2d win = Window2d::square(2, 2, 0);
    const auto scheme = makeScheme(win, 16, 16, 2, 2);
    std::vector<int64_t> split_argmax, argmax;
    Tensor split = splitMaxPool2dForward(x, win, scheme, split_argmax);
    Tensor ref = maxPool2dForward(x, win, argmax);
    EXPECT_TRUE(allClose(split, ref, 0.0f));
    EXPECT_EQ(split_argmax, argmax);
}

TEST(SplitOp, NaturalSplitConvIsExactlyEquivalent)
{
    Rng rng(3);
    Tensor x(Shape{1, 2, 12, 12});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape{3, 2, 2, 2});
    w.fillNormal(rng, 0.0f, 0.5f);
    Tensor b(Shape{3});
    b.fillNormal(rng, 0.0f, 0.1f);
    const Window2d win = Window2d::square(2, 2, 0);
    const auto scheme = makeScheme(win, 12, 12, 3, 2);
    Tensor split = splitConv2dForward(x, w, b, win, scheme);
    Tensor ref = conv2dForward(x, w, b, win);
    EXPECT_LT(maxAbsDiff(split, ref), 1e-5f);
}

TEST(SplitOp, NaturalSplitAvgPoolWithPaddingIsEquivalent)
{
    // Even with original padding, k == s natural splits keep the
    // same zero-padding semantics patch-locally.
    Rng rng(4);
    Tensor x(Shape{1, 2, 14, 14});
    x.fillNormal(rng, 0.0f, 1.0f);
    const Window2d win = Window2d::square(2, 2, 1);
    const auto scheme = makeScheme(win, 14, 14, 2, 2);
    Tensor split = splitAvgPool2dForward(x, win, scheme);
    Tensor ref = avgPool2dForward(x, win);
    EXPECT_LT(maxAbsDiff(split, ref), 1e-6f);
}

/**
 * For overlapping windows (k > s), outputs whose windows stay inside
 * one patch must match the unsplit op exactly; boundary outputs may
 * differ (the intentional semantic change of Split-CNN).
 */
class InteriorEquivalence
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, int, InputSplitPolicy>>
{
};

TEST_P(InteriorEquivalence, InteriorOutputsMatchUnsplit)
{
    const auto [k, s, p, n, policy] = GetParam();
    if (k < s)
        GTEST_SKIP();
    Rng rng(5);
    const int64_t ih = 24, iw = 24;
    Tensor x(Shape{1, 2, ih, iw});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape{2, 2, k, k});
    w.fillNormal(rng, 0.0f, 0.5f);
    const Window2d win = Window2d::square(k, s, p);
    if (win.outH(ih) < n)
        GTEST_SKIP();
    const auto scheme = makeScheme(win, ih, iw, n, n, policy);

    Tensor split = splitConv2dForward(x, w, Tensor(), win, scheme);
    Tensor ref = conv2dForward(x, w, Tensor(), win);
    ASSERT_EQ(split.shape(), ref.shape());

    // An output (oy, ox) is interior iff its window footprint
    // [oy*s - p, oy*s - p + k) lies inside the patch's input range on
    // both axes (padding rows of the original op count as inside for
    // the first/last patch).
    auto interior_1d = [&](const SplitScheme1d &sch, int64_t o,
                           int64_t extent) {
        for (const auto &piece : sch.pieces) {
            if (o < piece.out_start || o >= piece.out_end)
                continue;
            const int64_t w_lo = o * s - p;
            const int64_t w_hi = w_lo + k; // exclusive
            const int64_t patch_lo =
                piece.in_start == 0 ? w_lo : piece.in_start;
            const int64_t patch_hi =
                piece.in_end == extent ? w_hi : piece.in_end;
            return w_lo >= patch_lo && w_hi <= patch_hi;
        }
        return false;
    };

    int64_t interior_count = 0;
    for (int64_t oy = 0; oy < ref.shape().dim(2); ++oy) {
        if (!interior_1d(scheme.h, oy, ih))
            continue;
        for (int64_t ox = 0; ox < ref.shape().dim(3); ++ox) {
            if (!interior_1d(scheme.w, ox, iw))
                continue;
            ++interior_count;
            for (int64_t oc = 0; oc < 2; ++oc)
                EXPECT_NEAR(split.at4(0, oc, oy, ox),
                            ref.at4(0, oc, oy, ox), 1e-4f)
                    << "interior output (" << oy << ", " << ox << ")";
        }
    }
    EXPECT_GT(interior_count, 0) << "test exercised nothing";
}

INSTANTIATE_TEST_SUITE_P(
    Conv, InteriorEquivalence,
    ::testing::Combine(::testing::Values(3, 5),    // k
                       ::testing::Values(1, 2),    // s
                       ::testing::Values(0, 1, 2), // p
                       ::testing::Values(2, 3),    // n splits per axis
                       ::testing::Values(InputSplitPolicy::LowerBound,
                                         InputSplitPolicy::Center,
                                         InputSplitPolicy::UpperBound)));

TEST(SplitOp, FourPatchFigure2Construction)
{
    // Figure 2: 2x2 spatial patches, operated on independently.
    Rng rng(6);
    Tensor x(Shape{1, 3, 32, 32});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape{8, 3, 3, 3});
    w.fillNormal(rng, 0.0f, 0.3f);
    const Window2d win = Window2d::square(3, 1, 1);
    const auto scheme = makeScheme(win, 32, 32, 2, 2);
    EXPECT_EQ(scheme.parts(), 4);
    Tensor split = splitConv2dForward(x, w, Tensor(), win, scheme);
    EXPECT_EQ(split.shape(), Shape({1, 8, 32, 32}));
    // Patches are genuinely independent: zeroing one input patch only
    // changes the corresponding output quadrant.
    Tensor x2 = x;
    for (int64_t c = 0; c < 3; ++c)
        for (int64_t y = scheme.h.pieces[1].in_start; y < 32; ++y)
            for (int64_t xx = scheme.w.pieces[1].in_start; xx < 32; ++xx)
                x2.at4(0, c, y, xx) = 0.0f;
    Tensor split2 = splitConv2dForward(x2, w, Tensor(), win, scheme);
    // Quadrant (0, 0) of the output is untouched.
    for (int64_t c = 0; c < 8; ++c)
        for (int64_t y = 0; y < scheme.h.pieces[1].out_start; ++y)
            for (int64_t xx = 0; xx < scheme.w.pieces[1].out_start; ++xx)
                EXPECT_EQ(split.at4(0, c, y, xx),
                          split2.at4(0, c, y, xx));
}

TEST(SplitOp, SlicePatchMatchesManualCrop)
{
    Tensor x(Shape{1, 1, 8, 8});
    for (int64_t i = 0; i < 64; ++i)
        x.at(i) = static_cast<float>(i);
    const Window2d win = Window2d::square(2, 2, 0);
    const auto scheme = makeScheme(win, 8, 8, 2, 2);
    Tensor patch = oracle::slicePatch(x, scheme, 1, 0);
    EXPECT_EQ(patch.shape(), Shape({1, 1, 4, 4}));
    EXPECT_EQ(patch.at4(0, 0, 0, 0), x.at4(0, 0, 4, 0));
}

/**
 * Halo-geometry sweep for the fused zero-copy path: every case pits
 * the view-based execution against the per-patch oracle on the same
 * scheme.
 *
 * - under the scalar microkernel, fused im2col+GEMM is
 *   bitwise-identical to materializing each patch and running
 *   conv2dForward on it (same per-element accumulation order; the
 *   view reads the exact bytes the pad2d copy would have staged, and
 *   scheme paddings zero-fill the same positions);
 * - fused-vs-materialized always agrees within float tolerance under
 *   whichever microkernel the environment picked.
 */
struct HaloCase
{
    const char *name;
    int64_t ih, iw; ///< input extents
    int64_t k, s, p; ///< square kernel/stride/pad
    int nh, nw;      ///< split parts per axis
};

const HaloCase kHaloCases[] = {
    {"borders_1px", 9, 9, 3, 1, 1, 3, 3},   // 1px output borders
    {"uneven", 17, 19, 3, 1, 1, 3, 4},      // uneven patch extents
    {"stride2", 18, 22, 3, 2, 1, 2, 3},     // strided windows
    {"big_halo", 16, 16, 5, 1, 2, 2, 2},    // 2-row halos
    {"no_pad", 14, 12, 3, 1, 0, 2, 2},      // halo only, no zeros
    {"tiny_patches", 7, 7, 3, 1, 1, 3, 3},  // patches of 2-3 rows
};

TEST(SplitOp, FusedIm2colMatchesMaterializedIm2col)
{
    uint32_t seed = 40;
    for (const auto &hc : kHaloCases) {
        Rng rng(++seed);
        Tensor x(Shape{2, 3, hc.ih, hc.iw});
        x.fillNormal(rng, 0.0f, 1.0f);
        Tensor w(Shape{4, 3, hc.k, hc.k});
        w.fillNormal(rng, 0.0f, 0.4f);
        Tensor b(Shape{4});
        b.fillNormal(rng, 0.0f, 0.4f);
        const Window2d win =
            Window2d::square(hc.k, hc.s, hc.p);
        const auto scheme =
            makeScheme(win, hc.ih, hc.iw, hc.nh, hc.nw);
        // The per-patch oracle: the unsplit kernel on every
        // materialized patch.
        auto materialized = [&] {
            return oracle::runSplitOp(
                x, win, scheme,
                [&](const Tensor &patch, const Window2d &local) {
                    return conv2dForward(patch, w, b, local);
                });
        };
        {
            // Bitwise under the scalar reference kernel.
            ScopedSimd pin(false);
            Tensor fused = splitConv2dForward(x, w, b, win, scheme);
            Tensor sref = materialized();
            ASSERT_EQ(fused.shape(), sref.shape()) << hc.name;
            EXPECT_TRUE(allClose(fused, sref, 0.0f)) << hc.name;
        }
        // Epsilon-close whichever kernel the environment picked.
        Tensor fused = splitConv2dForward(x, w, b, win, scheme);
        EXPECT_TRUE(allClose(fused, materialized(), 1e-4f))
            << hc.name;
    }
}

TEST(SplitOp, FusedMatchesMaterializedWithinTolerance)
{
    uint32_t seed = 80;
    for (const auto &hc : kHaloCases) {
        Rng rng(++seed);
        Tensor x(Shape{2, 3, hc.ih, hc.iw});
        x.fillNormal(rng, 0.0f, 1.0f);
        Tensor w(Shape{4, 3, hc.k, hc.k});
        w.fillNormal(rng, 0.0f, 0.4f);
        const Window2d win =
            Window2d::square(hc.k, hc.s, hc.p);
        const auto scheme =
            makeScheme(win, hc.ih, hc.iw, hc.nh, hc.nw);
        Tensor fused = splitConv2dForward(x, w, Tensor(), win, scheme);
        Tensor ref = oracle::runSplitOp(
            x, win, scheme,
            [&](const Tensor &patch, const Window2d &local) {
                return conv2dForward(patch, w, Tensor(), local);
            });
        ASSERT_EQ(fused.shape(), ref.shape()) << hc.name;
        EXPECT_TRUE(allClose(fused, ref, 1e-4f)) << hc.name;
    }
}

/**
 * Fused zero-copy split pooling vs the per-patch oracle, over the
 * same halo-geometry sweep as the conv tests (1px borders, uneven
 * patch grids, stride-2, 2-row halos) plus natural pool shapes. The
 * patch kernels replay maxPool2dForward / avgPool2dForward's clip
 * tests and tap order on parent memory, so equality is bitwise — max
 * selection is order-sensitive and avg accumulation order fixed, no
 * epsilon needed — and the max-pool argmax routes to the same input
 * element.
 */
const HaloCase kPoolCases[] = {
    {"borders_1px", 9, 9, 3, 1, 1, 3, 3},
    {"uneven", 17, 19, 3, 1, 1, 3, 4},
    {"stride2", 18, 22, 3, 2, 1, 2, 3},
    {"big_halo", 16, 16, 5, 1, 2, 2, 2},
    {"no_pad", 14, 12, 3, 1, 0, 2, 2},
    {"tiny_patches", 7, 7, 3, 1, 1, 3, 3},
    {"natural_2x2", 16, 16, 2, 2, 0, 2, 2},
    {"natural_pad", 14, 14, 2, 2, 1, 2, 2},
    {"pool3_stride2", 21, 17, 3, 2, 1, 3, 2},
};

TEST(SplitPool, FusedMaxBitwiseMatchesMaterialized)
{
    uint32_t seed = 200;
    for (const auto &hc : kPoolCases) {
        Rng rng(++seed);
        Tensor x(Shape{2, 3, hc.ih, hc.iw});
        x.fillNormal(rng, 0.0f, 1.0f);
        const Window2d win = Window2d::square(hc.k, hc.s, hc.p);
        const auto scheme =
            makeScheme(win, hc.ih, hc.iw, hc.nh, hc.nw);
        std::vector<int64_t> argmax, ref_argmax;
        Tensor fused = splitMaxPool2dForward(x, win, scheme, argmax);
        Tensor ref =
            oracle::splitMaxPoolForward(x, win, scheme, ref_argmax);
        ASSERT_EQ(fused.shape(), ref.shape()) << hc.name;
        EXPECT_TRUE(allClose(fused, ref, 0.0f)) << hc.name;
        EXPECT_EQ(argmax, ref_argmax) << hc.name;
    }
}

TEST(SplitPool, FusedAvgBitwiseMatchesMaterialized)
{
    uint32_t seed = 220;
    for (const auto &hc : kPoolCases) {
        Rng rng(++seed);
        Tensor x(Shape{2, 3, hc.ih, hc.iw});
        x.fillNormal(rng, 0.0f, 1.0f);
        const Window2d win = Window2d::square(hc.k, hc.s, hc.p);
        const auto scheme =
            makeScheme(win, hc.ih, hc.iw, hc.nh, hc.nw);
        Tensor fused = splitAvgPool2dForward(x, win, scheme);
        Tensor ref = oracle::runSplitOp(
            x, win, scheme,
            [](const Tensor &patch, const Window2d &local) {
                return avgPool2dForward(patch, local);
            });
        ASSERT_EQ(fused.shape(), ref.shape()) << hc.name;
        EXPECT_TRUE(allClose(fused, ref, 0.0f)) << hc.name;
    }
}

/** All-padding windows (possible on heavily padded tiny patches)
 * must write 0 through the fused path exactly like the reference. */
TEST(SplitPool, FusedMaxHandlesAllPaddingWindows)
{
    Rng rng(250);
    Tensor x(Shape{1, 2, 6, 6});
    x.fillNormal(rng, 0.0f, 1.0f);
    // k=2/s=2/p=2 on a 6x6 input: the corner windows see only
    // padding.
    const Window2d win = Window2d::square(2, 2, 2);
    const auto scheme = makeScheme(win, 6, 6, 2, 2);
    std::vector<int64_t> argmax, ref_argmax;
    Tensor fused = splitMaxPool2dForward(x, win, scheme, argmax);
    Tensor ref = oracle::splitMaxPoolForward(x, win, scheme, ref_argmax);
    EXPECT_TRUE(allClose(fused, ref, 0.0f));
    EXPECT_EQ(argmax, ref_argmax);
    EXPECT_EQ(fused.at4(0, 0, 0, 0), 0.0f);
    EXPECT_EQ(argmax[0], -1);
}

/** One split BN call over uneven patches computes, patch by patch,
 * exactly what the unsplit kernels compute on each materialized
 * patch: output, x_hat, statistics, grad_x, and the parameter
 * gradients and running statistics accumulated in patch order. */
TEST(SplitBatchNorm, PatchesMatchMaterializedPatchesBitwise)
{
    Rng rng(260);
    const int64_t c = 4;
    const float eps = 1e-5f, momentum = 0.1f;
    Tensor x(Shape{3, c, 11, 10});
    x.fillNormal(rng, 2.0f, 1.5f);
    Tensor gamma(Shape{c}), beta(Shape{c});
    gamma.fillUniform(rng, 0.5f, 1.5f);
    beta.fillNormal(rng, 0.0f, 0.5f);
    Tensor go(x.shape());
    go.fillNormal(rng, 0.0f, 1.0f);
    const auto scheme = makeScheme(Window2d::square(3, 1, 1), 11, 10, 2, 3);
    const auto views = splitPatchViews(scheme);

    BatchNormCache cache;
    const Tensor out =
        splitBatchNormForwardStats(x, views, gamma, beta, eps, cache);
    ASSERT_EQ(cache.mean.numel(), scheme.parts() * c);
    Tensor gg(Shape{c}), gb(Shape{c});
    const Tensor gx =
        splitBatchNormBackward(go, views, gamma, cache, gg, gb);
    Tensor rm(Shape{c}), rv(Shape{c}, 1.0f);
    applyBatchNormRunningUpdate(cache, momentum, rm, rv);

    Tensor gg_ref(Shape{c}), gb_ref(Shape{c});
    Tensor rm_ref(Shape{c}), rv_ref(Shape{c}, 1.0f);
    for (int hi = 0; hi < scheme.h.parts(); ++hi)
        for (int wi = 0; wi < scheme.w.parts(); ++wi) {
            const int64_t p = hi * scheme.w.parts() + wi;
            BatchNormCache pc;
            const Tensor pout = batchNormForward(
                oracle::slicePatch(x, scheme, hi, wi), gamma, beta, rm_ref,
                rv_ref, momentum, eps, pc);
            EXPECT_TRUE(allClose(oracle::slicePatch(out, scheme, hi, wi),
                                 pout, 0.0f))
                << p;
            EXPECT_TRUE(
                allClose(oracle::slicePatch(cache.x_hat, scheme, hi, wi),
                         pc.x_hat, 0.0f))
                << p;
            for (int64_t ic = 0; ic < c; ++ic) {
                EXPECT_EQ(cache.mean.at(p * c + ic), pc.mean.at(ic)) << p;
                EXPECT_EQ(cache.batch_var.at(p * c + ic),
                          pc.batch_var.at(ic))
                    << p;
                EXPECT_EQ(cache.inv_std.at(p * c + ic), pc.inv_std.at(ic))
                    << p;
            }
            const Tensor pgx = batchNormBackward(
                oracle::slicePatch(go, scheme, hi, wi), gamma, pc, gg_ref,
                gb_ref);
            EXPECT_TRUE(
                allClose(oracle::slicePatch(gx, scheme, hi, wi), pgx, 0.0f))
                << p;
        }
    EXPECT_TRUE(allClose(gg, gg_ref, 0.0f));
    EXPECT_TRUE(allClose(gb, gb_ref, 0.0f));
    EXPECT_TRUE(allClose(rm, rm_ref, 0.0f));
    EXPECT_TRUE(allClose(rv, rv_ref, 0.0f));
}

TEST(SplitOp, StochasticSchemeStillTilesOutput)
{
    Rng rng(7);
    Tensor x(Shape{1, 2, 32, 32});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape{2, 2, 3, 3});
    w.fillNormal(rng, 0.0f, 0.3f);
    const Window2d win = Window2d::square(3, 1, 1);
    for (int trial = 0; trial < 10; ++trial) {
        auto oh = stochasticOutputSplit(win.outH(32), 4, 0.2, rng);
        auto ow = stochasticOutputSplit(win.outW(32), 4, 0.2, rng);
        auto scheme = splitWindowOp2d(win, 32, 32, oh, ow);
        Tensor out = splitConv2dForward(x, w, Tensor(), win, scheme);
        EXPECT_EQ(out.shape(), Shape({1, 2, 32, 32}));
    }
}

} // namespace
} // namespace scnn
