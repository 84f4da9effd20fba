/**
 * @file
 * Band-fused split backward pass: bitwise parity with the oracles in
 * split_oracle.h (per-patch dgrad, bounce-buffered replay of the
 * fused wgrad order) over the halo geometry grid, correctness against
 * the unsplit backward where the split semantics coincide, the
 * adjoint identity against the fused forward, the oracle after an
 * in-place weight update, SA609 static proofs for the
 * backward plans, and shadow-access validation of the fused kernels
 * against the model.
 *
 * Every test lives in the SplitBackward suite so the TSan and
 * shadow-validation CI jobs can select the whole file with a
 * `:SplitBackward*` filter.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "analysis/parallel_model.h"
#include "analysis/shadow_access.h"
#include "kernels/conv2d.h"
#include "kernels/microkernel.h"
#include "kernels/pool2d.h"
#include "halo_cases.h"
#include "split_oracle.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace scnn {
namespace {

SplitScheme2d
makeScheme(const Window2d &win, int64_t ih, int64_t iw, int nh, int nw)
{
    return splitWindowOp2d(win, ih, iw,
                           evenOutputSplit(win.outH(ih), nh),
                           evenOutputSplit(win.outW(iw), nw),
                           InputSplitPolicy::Center);
}

/** Pin the microkernel selection for a test body. */
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

/** Force shadow recording on for a test body. */
class ScopedShadow
{
  public:
    ScopedShadow() { setShadowAccessForTesting(1); }
    ~ScopedShadow() { setShadowAccessForTesting(-1); }
};

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    if (!(a.shape() == b.shape()))
        return false;
    return std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) *
                           sizeof(float)) == 0;
}

TEST(SplitBackward, ConvFusedMatchesMaterializedBitwise)
{
    // Bitwise under either microkernel, on reads that never address
    // a patch inside its parent — a mismatch isolates the zero-copy
    // machinery (masked whole-row im2col staging and col2im scatter,
    // strided grad_out packing, W^T panels), over every input policy
    // (halo_cases.h). dgrad against the per-patch oracle
    // (conv2dBackward on every materialized patch): both stage the
    // same columns and contract W^T in the same order, and patch
    // inputs are disjoint, so the scatter adds nothing twice. wgrad
    // and the bias against the bounce-buffered replay of the fused
    // reduction order (bands chained per image, images in order).
    uint32_t seed = 60;
    for (const bool simd : {false, true}) {
        if (simd && !simdAvailable())
            continue;
        ScopedSimd pin(simd);
        for (const auto &hc : kHaloCases) {
            for (const bool bias : {false, true}) {
                Rng rng(++seed);
                Tensor x(Shape{2, 3, hc.ih, hc.iw});
                x.fillNormal(rng, 0.0f, 1.0f);
                Tensor w(Shape{4, 3, hc.k, hc.k});
                w.fillNormal(rng, 0.0f, 0.4f);
                const Window2d win = hc.win();
                const auto scheme = hc.scheme();
                Tensor go(Shape{2, 4, win.outH(hc.ih),
                                win.outW(hc.iw)});
                go.fillNormal(rng, 0.0f, 1.0f);

                Tensor gx_f, gb_f, gx_m, gb_m, gb_r;
                Tensor gw_f(w.shape()), gw_m(w.shape()), gw_r(w.shape());
                if (bias) {
                    gb_f = Tensor(Shape{4});
                    gb_m = Tensor(Shape{4});
                    gb_r = Tensor(Shape{4});
                }
                splitConv2dBackward(x, w, go, win, scheme, gx_f, gw_f,
                                    gb_f);
                oracle::splitConvBackward(x, w, go, win, scheme, gx_m,
                                          gw_m, gb_m);
                oracle::splitConvWgradFusedOrder(x, go, win, scheme,
                                                 gw_r, gb_r);
                EXPECT_TRUE(bitwiseEqual(gx_f, gx_m))
                    << hc.name << " grad_x, simd=" << simd;
                EXPECT_TRUE(bitwiseEqual(gw_f, gw_r))
                    << hc.name << " grad_w, simd=" << simd;
                if (bias) {
                    EXPECT_TRUE(bitwiseEqual(gb_f, gb_r))
                        << hc.name << " grad_b, simd=" << simd;
                }
            }
        }
    }
}

TEST(SplitBackward, ConvMatchesComposedPerPatchReference)
{
    uint32_t seed = 80;
    for (const auto &hc : kHaloCases) {
        Rng rng(++seed);
        Tensor x(Shape{2, 3, hc.ih, hc.iw});
        x.fillNormal(rng, 0.0f, 1.0f);
        Tensor w(Shape{4, 3, hc.k, hc.k});
        w.fillNormal(rng, 0.0f, 0.4f);
        const Window2d win = hc.win();
        const auto scheme = hc.scheme();
        Tensor go(Shape{2, 4, win.outH(hc.ih), win.outW(hc.iw)});
        go.fillNormal(rng, 0.0f, 1.0f);

        Tensor gx, gb(Shape{4});
        Tensor gw(w.shape());
        splitConv2dBackward(x, w, go, win, scheme, gx, gw, gb);

        Tensor rgx, rgw(w.shape()), rgb(Shape{4});
        oracle::splitConvBackward(x, w, go, win, scheme, rgx, rgw, rgb);
        EXPECT_LT(maxAbsDiff(gx, rgx), 1e-3f) << hc.name;
        EXPECT_LT(maxAbsDiff(gw, rgw), 5e-3f) << hc.name;
        EXPECT_LT(maxAbsDiff(gb, rgb), 1e-3f) << hc.name;
    }
}

TEST(SplitBackward, NaturalSplitConvMatchesUnsplitBackward)
{
    // k == s: splitting is non-intrusive, so the split backward must
    // agree with the unsplit conv2dBackward (up to summation order).
    Rng rng(31);
    Tensor x(Shape{2, 2, 12, 12});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape{3, 2, 2, 2});
    w.fillNormal(rng, 0.0f, 0.5f);
    const Window2d win = Window2d::square(2, 2, 0);
    const auto scheme = makeScheme(win, 12, 12, 3, 2);
    Tensor go(Shape{2, 3, win.outH(12), win.outW(12)});
    go.fillNormal(rng, 0.0f, 1.0f);

    Tensor gx_s, gb_s(Shape{3}), gx_u, gb_u(Shape{3});
    Tensor gw_s(w.shape()), gw_u(w.shape());
    splitConv2dBackward(x, w, go, win, scheme, gx_s, gw_s, gb_s);
    conv2dBackward(x, w, go, win, gx_u, gw_u, gb_u);
    EXPECT_LT(maxAbsDiff(gx_s, gx_u), 1e-4f);
    EXPECT_LT(maxAbsDiff(gw_s, gw_u), 1e-3f);
    EXPECT_LT(maxAbsDiff(gb_s, gb_u), 1e-4f);
}

TEST(SplitBackward, ConvIsAdjointOfFusedForward)
{
    // The split conv is linear in x (w fixed) and in w (x fixed), so
    // the backward must satisfy <go, F(x, w)> = <grad_x, x> and
    // <go, F(x, w)> = <grad_w, w> — an independent check against the
    // fused forward, covering the halo semantics end to end.
    for (const auto &hc : kHaloCases) {
        Rng rng(97);
        Tensor x(Shape{2, 3, hc.ih, hc.iw});
        x.fillNormal(rng, 0.0f, 1.0f);
        Tensor w(Shape{4, 3, hc.k, hc.k});
        w.fillNormal(rng, 0.0f, 0.4f);
        const Window2d win = hc.win();
        const auto scheme = hc.scheme();
        const Tensor out =
            splitConv2dForward(x, w, Tensor(), win, scheme);
        Tensor go(out.shape());
        Rng grng(98);
        go.fillNormal(grng, 0.0f, 1.0f);

        Tensor gx, gb;
        Tensor gw(w.shape());
        splitConv2dBackward(x, w, go, win, scheme, gx, gw, gb);

        double lhs = 0.0, via_x = 0.0, via_w = 0.0;
        for (int64_t i = 0; i < out.numel(); ++i)
            lhs += static_cast<double>(go.at(i)) * out.at(i);
        for (int64_t i = 0; i < x.numel(); ++i)
            via_x += static_cast<double>(gx.at(i)) * x.at(i);
        for (int64_t i = 0; i < w.numel(); ++i)
            via_w += static_cast<double>(gw.at(i)) * w.at(i);
        const double tol = 1e-3 * (1.0 + std::abs(lhs));
        EXPECT_NEAR(lhs, via_x, tol) << hc.name;
        EXPECT_NEAR(lhs, via_w, tol) << hc.name;
    }
}

TEST(SplitBackward, MaxPoolFusedMatchesMaterializedAndUnsplit)
{
    uint32_t seed = 120;
    for (const auto &hc : kHaloCases) {
        Rng rng(++seed);
        Tensor x(Shape{2, 3, hc.ih, hc.iw});
        x.fillNormal(rng, 0.0f, 1.0f);
        const Window2d win = hc.win();
        const auto scheme = hc.scheme();
        std::vector<int64_t> split_argmax;
        const Tensor out =
            splitMaxPool2dForward(x, win, scheme, split_argmax);
        Tensor go(out.shape());
        go.fillNormal(rng, 0.0f, 1.0f);

        // The split forward's argmax routes exactly like each
        // materialized patch's own forward + backward.
        const Tensor fused = splitMaxPool2dBackward(
            x.shape(), go, split_argmax, scheme);
        const Tensor mat =
            oracle::splitMaxPoolBackward(x, go, win, scheme);
        EXPECT_TRUE(bitwiseEqual(fused, mat)) << hc.name;

        // Fed the unsplit forward's argmax instead: patches tile the
        // output exactly and every output element scatters to its
        // unique argmax, so the split backward matches the unsplit
        // one up to summation order at shared argmax targets.
        std::vector<int64_t> argmax;
        maxPool2dForward(x, win, argmax);
        const Tensor routed = splitMaxPool2dBackward(
            x.shape(), go, argmax, scheme);
        const Tensor unsplit =
            maxPool2dBackward(x.shape(), go, argmax);
        EXPECT_LT(maxAbsDiff(routed, unsplit), 1e-5f) << hc.name;
    }
}

TEST(SplitBackward, AvgPoolFusedMatchesMaterializedBitwise)
{
    uint32_t seed = 140;
    for (const auto &hc : kHaloCases) {
        Rng rng(++seed);
        const Window2d win = hc.win();
        const auto scheme = hc.scheme();
        Tensor go(Shape{2, 3, win.outH(hc.ih), win.outW(hc.iw)});
        go.fillNormal(rng, 0.0f, 1.0f);

        const Tensor fused = splitAvgPool2dBackward(
            Shape{2, 3, hc.ih, hc.iw}, go, win, scheme);
        const Tensor mat = oracle::splitAvgPoolBackward(
            Shape{2, 3, hc.ih, hc.iw}, go, win, scheme);
        EXPECT_TRUE(bitwiseEqual(fused, mat)) << hc.name;
    }
}

TEST(SplitBackward, AvgPoolIsAdjointOfFusedForward)
{
    // The split avg-pool is linear in x, so its backward must satisfy
    // <go, P(x)> = <P^T(go), x> — checked against the fused forward
    // over the halo geometries, where windows straddling a seam are
    // clipped to their patch.
    uint32_t seed = 160;
    for (const auto &hc : kHaloCases) {
        Rng rng(++seed);
        Tensor x(Shape{2, 3, hc.ih, hc.iw});
        x.fillNormal(rng, 0.0f, 1.0f);
        const Window2d win = hc.win();
        const auto scheme = hc.scheme();
        const Tensor out = splitAvgPool2dForward(x, win, scheme);
        Tensor go(out.shape());
        go.fillNormal(rng, 0.0f, 1.0f);
        const Tensor gx =
            splitAvgPool2dBackward(x.shape(), go, win, scheme);
        ASSERT_EQ(gx.shape(), x.shape()) << hc.name;

        double lhs = 0.0, rhs = 0.0;
        for (int64_t i = 0; i < out.numel(); ++i)
            lhs += static_cast<double>(go.at(i)) * out.at(i);
        for (int64_t i = 0; i < x.numel(); ++i)
            rhs += static_cast<double>(gx.at(i)) * x.at(i);
        EXPECT_NEAR(lhs, rhs, 1e-4 * (1.0 + std::abs(lhs))) << hc.name;
    }
}

TEST(SplitBackward, NaturalSplitAvgPoolMatchesUnsplitBackward)
{
    // k == s with original padding: windows never cross a patch
    // boundary, so the patch-clipped taps coincide with the unsplit
    // count-include-pad taps.
    Rng rng(33);
    const Window2d win = Window2d::square(2, 2, 1);
    const auto scheme = makeScheme(win, 14, 14, 2, 2);
    Tensor go(Shape{1, 2, win.outH(14), win.outW(14)});
    go.fillNormal(rng, 0.0f, 1.0f);

    const Tensor split =
        splitAvgPool2dBackward(Shape{1, 2, 14, 14}, go, win, scheme);
    const Tensor unsplit =
        avgPool2dBackward(Shape{1, 2, 14, 14}, go, win);
    EXPECT_LT(maxAbsDiff(split, unsplit), 1e-6f);
}

// --- weights updated in place between calls --------------------------

TEST(SplitBackward, InPlaceWeightUpdateMatchesOracle)
{
    // A training step updates every weight tensor in place. Each split
    // conv call packs its panels from the weight's current contents,
    // so the forward and backward after an update must equal the
    // per-patch oracle on the new weights, bitwise.
    Rng rng(300);
    Tensor x(Shape{2, 3, 16, 16});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape{4, 3, 3, 3});
    w.fillNormal(rng, 0.0f, 0.4f);
    const Window2d win = Window2d::square(3, 1, 1);
    const auto scheme = makeScheme(win, 16, 16, 2, 2);
    Tensor go(Shape{2, 4, 16, 16});
    go.fillNormal(rng, 0.0f, 1.0f);

    auto check = [&](const char *when) {
        const Tensor y = splitConv2dForward(x, w, Tensor(), win, scheme);
        const Tensor ref = oracle::runSplitOp(
            x, win, scheme, [&](const Tensor &patch, const Window2d &local) {
                return conv2dForward(patch, w, Tensor(), local);
            });
        EXPECT_TRUE(bitwiseEqual(y, ref)) << when << " forward";
        // grad_x is the weight-dependent gradient (W^T panels).
        Tensor gx, gb, gw(w.shape());
        splitConv2dBackward(x, w, go, win, scheme, gx, gw, gb);
        Tensor rgx, rgb, rgw(w.shape());
        oracle::splitConvBackward(x, w, go, win, scheme, rgx, rgw, rgb);
        EXPECT_TRUE(bitwiseEqual(gx, rgx)) << when << " grad_x";
        return y;
    };
    const Tensor before = check("before the update");
    for (int64_t i = 0; i < w.numel(); ++i)
        w.at(i) += 0.25f;
    const Tensor after = check("after the update");
    EXPECT_GT(maxAbsDiff(before, after), 0.0f);
}

// --- SA609 static proofs and shadow validation ------------------------

TEST(SplitBackward, PlansAreCleanAcrossGeometries)
{
    struct Case
    {
        int64_t k, s, p, ih, iw;
        int nh, nw;
    };
    for (const Case &cs : {Case{3, 1, 1, 16, 16, 2, 2},
                           Case{3, 2, 1, 17, 19, 2, 3},
                           Case{5, 1, 2, 12, 12, 3, 2},
                           Case{1, 1, 0, 8, 8, 2, 2},
                           Case{7, 2, 3, 32, 32, 4, 4}}) {
        const Window2d win = Window2d::square(cs.k, cs.s, cs.p);
        const auto scheme =
            makeScheme(win, cs.ih, cs.iw, cs.nh, cs.nw);
        const auto conv_diags =
            analyzeParallelPlan(buildSplitConvBackwardPlan(
                2, 3, cs.ih, cs.iw, 4, win, scheme));
        EXPECT_FALSE(hasErrors(conv_diags))
            << "conv k=" << cs.k << " s=" << cs.s << " grid=" << cs.nh
            << "x" << cs.nw << '\n'
            << renderDiagnosticsText(conv_diags);
        const auto pool_diags =
            analyzeParallelPlan(buildSplitPoolBackwardPlan(
                2, 3, cs.ih, cs.iw, scheme));
        EXPECT_FALSE(hasErrors(pool_diags))
            << "pool k=" << cs.k << " s=" << cs.s << " grid=" << cs.nh
            << "x" << cs.nw << '\n'
            << renderDiagnosticsText(pool_diags);
    }
}

/** Backward plans with two wgrad reduction units: two banded images
 * (64 channels put one image's columns past the image-group budget),
 * and two image groups of the 3-channel layer. */
std::vector<ParallelPlan>
twoUnitBackwardPlans()
{
    const Window2d win = Window2d::square(3, 1, 1);
    const auto scheme = makeScheme(win, 16, 16, 2, 2);
    EXPECT_FALSE(convWork(1, 64 * 9, 16, scheme.h).grouped);
    const int64_t group = convWork(64, 27, 16, scheme.h).group;
    EXPECT_GT(group, 1) << "the 3-channel layer must group images";
    return {buildSplitConvBackwardPlan(2, 64, 16, 16, 4, win, scheme),
            buildSplitConvBackwardPlan(2 * group, 3, 16, 16, 4, win,
                                       scheme)};
}

TEST(SplitBackward, CollapsedEpochsSurfaceAsSA609)
{
    // Flattening every item into one epoch makes the halo
    // scatter-adds (and the grad_w reductions of different units)
    // concurrent — exactly the ordered-accumulation violation SA609
    // exists to catch.
    for (ParallelPlan plan : twoUnitBackwardPlans()) {
        for (auto &item : plan.items)
            item.epoch = 0;
        const auto diags = analyzeParallelPlan(plan);
        ASSERT_TRUE(hasErrors(diags));
        bool found = false;
        for (const auto &d : diags)
            found = found || d.code == "SA609";
        EXPECT_TRUE(found) << renderDiagnosticsText(diags);
    }
}

TEST(SplitBackward, ReversedSerialOrderSurfacesAsSA609)
{
    // Keeping the epochs distinct but flipping the serial (seq)
    // order of the per-unit grad_w reductions breaks the "epoch
    // order agrees with serial order" half of the contract.
    for (ParallelPlan plan : twoUnitBackwardPlans()) {
        std::vector<ParallelItem *> reduces;
        for (auto &item : plan.items)
            if (item.name.find("reduce") != std::string::npos)
                reduces.push_back(&item);
        ASSERT_EQ(reduces.size(), 2u);
        std::swap(reduces[0]->seq, reduces[1]->seq);
        const auto diags = analyzeParallelPlan(plan);
        ASSERT_TRUE(hasErrors(diags));
        bool found = false;
        for (const auto &d : diags)
            found = found || d.code == "SA609";
        EXPECT_TRUE(found) << renderDiagnosticsText(diags);
    }
}

TEST(SplitBackward, ShadowValidatesFusedBackwardAgainstModel)
{
    ScopedShadow shadow;
    shadowAccessResetStats();
    Rng rng(53);
    Tensor x(Shape{2, 3, 17, 19});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape{4, 3, 3, 3});
    w.fillNormal(rng, 0.0f, 0.5f);

    // Stride-1 overlapping windows and a downsampling geometry, with
    // and without bias, plus both fused pool backwards.
    for (const int64_t stride : {int64_t{1}, int64_t{2}}) {
        const Window2d win = Window2d::square(3, stride, 1);
        const auto scheme = makeScheme(win, 17, 19, 2, 3);
        Tensor go(Shape{2, 4, win.outH(17), win.outW(19)});
        go.fillNormal(rng, 0.0f, 1.0f);
        Tensor gx, gb(Shape{4});
        Tensor gw(w.shape());
        splitConv2dBackward(x, w, go, win, scheme, gx, gw, gb);

        std::vector<int64_t> argmax;
        Tensor pout = maxPool2dForward(x, win, argmax);
        Tensor pgo(pout.shape());
        pgo.fillNormal(rng, 0.0f, 1.0f);
        splitMaxPool2dBackward(x.shape(), pgo, argmax, scheme);
        splitAvgPool2dBackward(x.shape(), pgo, win, scheme);
    }

    const ShadowAccessStats stats = shadowAccessStats();
    EXPECT_GE(stats.sessions_checked, 6);
    EXPECT_GT(stats.records_checked, 0);
    EXPECT_EQ(stats.violations, 0);
}

} // namespace
} // namespace scnn
