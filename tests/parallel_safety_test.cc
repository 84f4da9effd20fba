/**
 * @file
 * SA6xx parallel-execution safety suite: the static write-set model
 * proves the real split/pool/executor decompositions race-free, and
 * the shadow-access validator confirms the kernels' recorded claims
 * stay inside the static predictions (any escape is SA607).
 */
#include "analysis/parallel_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "analysis/shadow_access.h"
#include "halo_cases.h"
#include "core/splitter.h"
#include "kernels/batchnorm.h"
#include "kernels/conv2d.h"
#include "kernels/im2col.h"
#include "kernels/pool2d.h"
#include "kernels/window.h"
#include "models/models.h"
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

/** Force shadow recording on for a test body. */
class ScopedShadow
{
  public:
    ScopedShadow() { setShadowAccessForTesting(1); }
    ~ScopedShadow() { setShadowAccessForTesting(-1); }
};

// --- Static proofs over representative geometries --------------------

TEST(ParallelSafety, ConvPlansAreCleanAcrossGeometries)
{
    struct Case
    {
        int64_t k, s, p, ih, iw;
        int nh, nw;
    };
    // Stride 1 and 2, even/odd extents, 1px borders, deep grids —
    // the same halo geometries the equivalence tests sweep.
    for (const Case &cs : {Case{3, 1, 1, 16, 16, 2, 2},
                           Case{3, 2, 1, 17, 19, 2, 3},
                           Case{5, 1, 2, 12, 12, 3, 2},
                           Case{1, 1, 0, 8, 8, 2, 2},
                           Case{7, 2, 3, 32, 32, 4, 4}}) {
        const Window2d win = Window2d::square(cs.k, cs.s, cs.p);
        const auto scheme =
            makeScheme(win, cs.ih, cs.iw, cs.nh, cs.nw);
        const auto diags = analyzeParallelPlan(
            buildSplitConvPlan(2, 3, cs.ih, cs.iw, 4, win, scheme));
        EXPECT_FALSE(hasErrors(diags))
            << "k=" << cs.k << " s=" << cs.s << " grid=" << cs.nh
            << "x" << cs.nw << '\n'
            << renderDiagnosticsText(diags);
    }
}

TEST(ParallelSafety, PoolAndExecutorPlansAreClean)
{
    const Window2d win = Window2d::square(2, 2, 0);
    const auto pool_diags = analyzeParallelPlan(buildSplitPoolPlan(
        2, 3, 16, 16, makeScheme(win, 16, 16, 2, 2)));
    EXPECT_FALSE(hasErrors(pool_diags))
        << renderDiagnosticsText(pool_diags);

    for (const char *model : {"vgg19", "resnet18"}) {
        Graph g = buildModel(
            model,
            {.batch = 2, .image = 32, .classes = 10, .width = 0.25});
        const auto diags = analyzeParallelExecution(g, 2, 2);
        EXPECT_FALSE(hasErrors(diags))
            << model << ":\n"
            << renderDiagnosticsText(diags);
    }
}

TEST(ParallelSafety, SplitBatchNormPlansAreClean)
{
    // Uneven grids, a single full patch (the unsplit kernel), and a
    // deep grid: channel items tile every output, and the per-patch
    // running-stat updates serialize in patch order.
    struct Case
    {
        int64_t h, w;
        int nh, nw;
    };
    for (const Case &cs : {Case{16, 16, 2, 2}, Case{17, 19, 3, 4},
                           Case{8, 8, 1, 1}, Case{32, 32, 4, 4}}) {
        const Window2d win = Window2d::square(3, 1, 1);
        const auto scheme = makeScheme(win, cs.h, cs.w, cs.nh, cs.nw);
        const auto diags = analyzeParallelPlan(buildSplitBatchNormPlan(
            2, 5, cs.h, cs.w, splitPatchViews(scheme)));
        EXPECT_FALSE(hasErrors(diags))
            << "grid=" << cs.nh << "x" << cs.nw << '\n'
            << renderDiagnosticsText(diags);
    }
}

TEST(ParallelSafety, SplitGraphRegionNodesAreClean)
{
    // The lowered schedule of real split graphs and every region
    // node's kernels under the scheme it runs.
    for (const char *model : {"vgg19", "resnet18"})
        for (const int grid : {2, 4}) {
            const Graph split = splitCnnTransform(
                buildModel(model, {.batch = 2,
                                   .image = 32,
                                   .classes = 10,
                                   .width = 0.25}),
                {.depth = 0.5, .splits_h = grid, .splits_w = grid});
            const auto diags = analyzeParallelExecution(split, 2, 2);
            EXPECT_FALSE(hasErrors(diags))
                << model << " " << grid << "x" << grid << ":\n"
                << renderDiagnosticsText(diags);
        }
}

// --- Shadow validator: kernels vs static model -----------------------

TEST(ParallelSafety, ShadowValidatesFusedConvAgainstModel)
{
    ScopedShadow shadow;
    shadowAccessResetStats();
    Rng rng(7);
    Tensor x(Shape{2, 3, 17, 19});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape{4, 3, 3, 3});
    w.fillNormal(rng, 0.0f, 0.5f);
    Tensor bias(Shape{4});
    bias.fillNormal(rng, 0.0f, 0.1f);
    const Window2d win = Window2d::square(3, 1, 1);
    // Stride-1 (im2col or Winograd) and a downsampling geometry.
    splitConv2dForward(x, w, bias, win, makeScheme(win, 17, 19, 2, 3));
    const Window2d win2 = Window2d::square(3, 2, 1);
    splitConv2dForward(x, w, bias, win2,
                       makeScheme(win2, 17, 19, 2, 2));

    const ShadowAccessStats stats = shadowAccessStats();
    EXPECT_GE(stats.sessions_checked, 2);
    EXPECT_GT(stats.records_checked, 0);
    EXPECT_EQ(stats.violations, 0);
}

/** The band hull the conv kernels claim and the SA6xx conv plans
 * predict (bandInputRows) bounds what the staging really reads and
 * the dgrad scatter really writes: rows outside it are NaN-poisoned
 * and must not reach the columns, and must stay untouched by the
 * scatter. The shadow recorder only sees the claimed hull, so this
 * pins the hull to the element accesses. */
TEST(ParallelSafety, BandInputRowsBoundStagingAndScatter)
{
    const int64_t c = 2;
    for (const HaloCase &hc : kHaloCases) {
        const Window2d win = hc.win();
        const SplitScheme2d scheme = hc.scheme();
        const int64_t ow = win.outW(hc.iw);
        const ConvWork work =
            convWork(1, c * win.kh * win.kw, ow, scheme.h);
        for (const SplitBandItem &band : work.bands) {
            const SplitPiece1d &ph =
                scheme.h.pieces[static_cast<size_t>(band.hi)];
            const PatchView rows = bandInputRows(win, scheme.h, band, hc.iw);
            auto inRows = [&](int64_t i) {
                const int64_t y = (i / hc.iw) % hc.ih;
                return y >= rows.r0 && y < rows.r0 + rows.ih;
            };
            const int64_t cols = (band.oy1 - band.oy0) * ow;
            std::vector<float> x(static_cast<size_t>(c * hc.ih * hc.iw));
            for (size_t i = 0; i < x.size(); ++i)
                x[i] = inRows(static_cast<int64_t>(i))
                           ? 1.0f
                           : std::numeric_limits<float>::quiet_NaN();
            std::vector<float> col(
                static_cast<size_t>(c * win.kh * win.kw * cols), 1.0f);
            im2colViewStrided(x.data(), c, hc.ih, hc.iw, win, scheme.w,
                              ph.in_start, ph.in_end, band.oy0, band.oy1,
                              col.data(), cols, ow);
            for (const float v : col)
                ASSERT_FALSE(std::isnan(v)) << hc.name << " band " << band.oy0;
            std::vector<float> gx(x.size(), 0.0f);
            col2imViewStrided(col.data(), c, hc.ih, hc.iw, win, scheme.w,
                              ph.in_start, ph.in_end, band.oy0, band.oy1,
                              gx.data(), cols, ow);
            for (size_t i = 0; i < gx.size(); ++i)
                if (!inRows(static_cast<int64_t>(i)))
                    ASSERT_EQ(gx[i], 0.0f) << hc.name << " band " << band.oy0;
        }
    }
}

TEST(ParallelSafety, ShadowValidatesFusedPoolAgainstModel)
{
    ScopedShadow shadow;
    shadowAccessResetStats();
    Rng rng(11);
    Tensor x(Shape{2, 3, 16, 16});
    x.fillNormal(rng, 0.0f, 1.0f);
    const Window2d win = Window2d::square(2, 2, 0);
    const auto scheme = makeScheme(win, 16, 16, 2, 2);
    std::vector<int64_t> argmax;
    splitMaxPool2dForward(x, win, scheme, argmax);
    splitAvgPool2dForward(x, win, scheme);

    const ShadowAccessStats stats = shadowAccessStats();
    EXPECT_GE(stats.sessions_checked, 2);
    EXPECT_GT(stats.records_checked, 0);
    EXPECT_EQ(stats.violations, 0);
}

TEST(ParallelSafety, UnsplitBatchNormLeavesTheSessionAlone)
{
    // The executor runs unsplit batchnorm, conv and pool nodes side by
    // side in its parallel waves with recording on. A one-patch call
    // must neither open the process's one session nor record into one
    // held elsewhere. A session held open here stands in for the
    // concurrent node.
    ScopedShadow shadow;
    Rng rng(5);
    Tensor x(Shape{2, 3, 6, 6});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor gamma(Shape{3}), beta(Shape{3});
    gamma.fill(1.0f);
    Tensor rmean(Shape{3}), rvar(Shape{3});
    ShadowSession held(
        buildSplitBatchNormPlan(2, 3, 6, 6, {PatchView::full(6, 6)}));
    BatchNormCache cache;
    Tensor out;
    EXPECT_NO_THROW(out = batchNormForward(x, gamma, beta, rmean, rvar,
                                           0.1f, 1e-5f, cache));
    Tensor grad_gamma(Shape{3}), grad_beta(Shape{3});
    EXPECT_NO_THROW(
        batchNormBackward(out, gamma, cache, grad_gamma, grad_beta));

    Tensor w(Shape{4, 3, 3, 3}), b(Shape{4});
    w.fillNormal(rng, 0.0f, 0.3f);
    const Window2d cwin = Window2d::square(3, 1, 1);
    Tensor y;
    EXPECT_NO_THROW(y = conv2dForward(x, w, b, cwin));
    Tensor gx, gw(w.shape()), gb(b.shape());
    EXPECT_NO_THROW(conv2dBackward(x, w, y, cwin, gx, gw, gb));

    const Window2d pwin = Window2d::square(3, 2, 1);
    std::vector<int64_t> argmax;
    Tensor pmax, pavg;
    EXPECT_NO_THROW(pmax = maxPool2dForward(x, pwin, argmax));
    EXPECT_NO_THROW(maxPool2dBackward(x.shape(), pmax, argmax));
    EXPECT_NO_THROW(pavg = avgPool2dForward(x, pwin));
    EXPECT_NO_THROW(avgPool2dBackward(x.shape(), pavg, pwin));
    EXPECT_EQ(held.recordCount(), 0);
}

/** A deliberate out-of-footprint record must surface as SA607. */
TEST(ParallelSafety, ShadowEscapeIsSA607)
{
    ScopedShadow shadow;
    ParallelPlan plan;
    plan.name = "toy";
    ParallelRegion region;
    region.name = "out";
    region.size = 8;
    plan.regions.push_back(region);
    ParallelItem item;
    item.name = "item0";
    ParallelAccess acc;
    acc.region = 0;
    acc.write = true;
    acc.span = StridedSpan::interval(0, 4); // item owns [0, 4) only
    item.accesses.push_back(acc);
    plan.items.push_back(item);

    std::vector<float> buf(8, 0.0f);
    ShadowSession session(std::move(plan));
    session.bind("out", buf.data());
    shadowSetItem(0);
    shadowRecord(buf.data(), 4, true);     // inside the prediction
    shadowRecord(buf.data() + 2, 4, true); // escapes into [4, 6)
    const auto diags = session.check();
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].code, "SA607");
    EXPECT_NE(diags[0].message.find("item0"), std::string::npos);
}

/** Writes outside every predicted span of the wrong kind: a read
 * landing in the write set is legal, a write landing in the read set
 * is not. */
TEST(ParallelSafety, ShadowDirectionMattersForContainment)
{
    ScopedShadow shadow;
    ParallelPlan plan;
    plan.name = "toy";
    ParallelRegion region;
    region.name = "buf";
    region.size = 8;
    region.read_only = false;
    plan.regions.push_back(region);
    ParallelItem item;
    item.name = "item0";
    ParallelAccess wr;
    wr.region = 0;
    wr.write = true;
    wr.span = StridedSpan::interval(0, 2);
    item.accesses.push_back(wr);
    ParallelAccess rd;
    rd.region = 0;
    rd.write = false;
    rd.span = StridedSpan::interval(4, 2);
    item.accesses.push_back(rd);
    plan.items.push_back(item);

    std::vector<float> buf(8, 0.0f);
    ShadowSession session(std::move(plan));
    session.bind("buf", buf.data());
    shadowSetItem(0);
    shadowRecord(buf.data(), 2, false); // read inside write set: ok
    shadowRecord(buf.data() + 4, 2, true); // write in read set: SA607
    const auto diags = session.check();
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].code, "SA607");
}

TEST(ParallelSafety, LintParallelGateFollowsEnv)
{
    // The dispatcher gate re-reads the environment every call.
    setenv("SCNN_LINT_PARALLEL", "1", 1);
    EXPECT_TRUE(lintParallelEnabled());
    setenv("SCNN_LINT_PARALLEL", "0", 1);
    EXPECT_FALSE(lintParallelEnabled());
    unsetenv("SCNN_LINT_PARALLEL");
}

} // namespace
} // namespace scnn
