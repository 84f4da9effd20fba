/**
 * @file
 * Tests for the whole-model Split-CNN transformation: structural
 * properties, parameter-table preservation, numerical agreement of
 * the literal per-patch graph with the eager single-op splitter and
 * with the executor's lowered region, patch independence, region
 * recovery, and end-to-end transforms of the zoo models (including
 * ResNet residual regions).
 */
#include "core/splitter.h"

#include <gtest/gtest.h>

#include "core/split_op.h"
#include "models/models.h"
#include "split_oracle.h"
#include "tensor/tensor_ops.h"
#include "train/executor.h"
#include "util/rng.h"

namespace scnn {
namespace {

/** input -> conv(3x3, p1) -> relu -> pool(2x2/2), cut after pool. */
Graph
convReluPool(int64_t batch, int64_t image)
{
    GraphBuilder b;
    TensorId x = b.input(Shape{batch, 3, image, image});
    x = b.conv2d(x, 6, Window2d::square(3, 1, 1), true, "conv1");
    x = b.relu(x, "relu1");
    x = b.maxPool(x, Window2d::square(2, 2, 0), "pool1");
    b.markCutPoint(x);
    x = b.flatten(x);
    x = b.linear(x, 10, true, "fc");
    return b.build();
}

TEST(Splitter, DepthZeroIsIdentityTransform)
{
    Graph g = convReluPool(1, 16);
    SplitReport report;
    Graph split = splitCnnTransform(g, {.depth = 0.0}, nullptr, &report);
    EXPECT_EQ(report.patches, 1);
    EXPECT_EQ(split.nodes().size(), g.nodes().size());
}

TEST(Splitter, OneByOneGridIsIdentityTransform)
{
    Graph g = convReluPool(1, 16);
    SplitReport report;
    Graph split = splitCnnTransform(
        g, {.depth = 1.0, .splits_h = 1, .splits_w = 1}, nullptr,
        &report);
    EXPECT_EQ(report.patches, 1);
    EXPECT_EQ(split.nodes().size(), g.nodes().size());
}

TEST(Splitter, PreservesParameterTable)
{
    Graph g = buildVgg19({.batch = 1, .image = 32, .width = 0.25});
    Graph split = splitCnnTransform(
        g, {.depth = 0.5, .splits_h = 2, .splits_w = 2});
    ASSERT_EQ(split.params().size(), g.params().size());
    for (size_t i = 0; i < g.params().size(); ++i) {
        EXPECT_EQ(split.params()[i].shape, g.params()[i].shape);
        EXPECT_EQ(split.params()[i].name, g.params()[i].name);
    }
}

TEST(Splitter, OutputShapeUnchanged)
{
    Graph g = buildResNet18({.batch = 2, .image = 32, .width = 0.25});
    Graph split = splitCnnTransform(
        g, {.depth = 0.5, .splits_h = 2, .splits_w = 2});
    EXPECT_EQ(split.tensor(split.outputTensor()).shape,
              g.tensor(g.outputTensor()).shape);
}

TEST(Splitter, SplitGraphMatchesEagerSplitOp)
{
    // A single conv region: the literal slice -> conv -> concat
    // reading of the transformed graph (the oracle interpreter) must
    // agree with the split conv kernel run on the scheme the
    // transform was asked for, and the executor's lowered region must
    // reproduce that join.
    GraphBuilder b;
    TensorId x = b.input(Shape{1, 3, 20, 20});
    x = b.conv2d(x, 4, Window2d::square(3, 1, 1), true, "conv1");
    b.markCutPoint(x);
    x = b.flatten(x);
    x = b.linear(x, 5, true, "fc");
    Graph g = b.build();

    SplitOptions opt{.depth = 1.0, .splits_h = 2, .splits_w = 2};
    Graph split = splitCnnTransform(g, opt);

    Rng rng(11);
    ParamStore params(g, rng);
    ASSERT_TRUE(params.compatibleWith(split));

    Tensor input(Shape{1, 3, 20, 20});
    Rng drng(12);
    input.fillNormal(drng, 0.0f, 1.0f);

    // Find the join (Concat along H) output in the split graph.
    TensorId join = kInvalidTensor;
    for (const auto &n : split.nodes())
        if (n.kind == OpKind::Concat && n.concat_dim == 2)
            join = n.output;
    ASSERT_NE(join, kInvalidTensor);

    oracle::GraphCache literal;
    oracle::graphForward(split, params, input, false, literal);
    const Tensor &literal_join = *literal.values[static_cast<size_t>(join)];

    const Window2d win = Window2d::square(3, 1, 1);
    const auto scheme = splitWindowOp2d(
        win, 20, 20, evenOutputSplit(win.outH(20), 2),
        evenOutputSplit(win.outW(20), 2), opt.policy);
    Tensor eager = splitConv2dForward(input, params.value(0),
                                      params.value(1), win, scheme);
    EXPECT_LT(maxAbsDiff(literal_join, eager), 1e-5f);

    Executor ex_split(split, params);
    ForwardCache cache;
    ex_split.forward(input, false, &cache);
    EXPECT_LT(maxAbsDiff(*cache.values[static_cast<size_t>(join)],
                         literal_join),
              1e-5f);
}

TEST(Splitter, NaturalRegionIsExactlyEquivalent)
{
    // A region made only of k == s ops splits losslessly: the split
    // graph computes the same function as the original.
    GraphBuilder b;
    TensorId x = b.input(Shape{2, 3, 16, 16});
    x = b.conv2d(x, 8, Window2d::square(2, 2, 0), true, "conv1");
    x = b.relu(x, "relu1");
    x = b.maxPool(x, Window2d::square(2, 2, 0), "pool1");
    b.markCutPoint(x);
    x = b.flatten(x);
    x = b.linear(x, 10, true, "fc");
    Graph g = b.build();

    Graph split = splitCnnTransform(
        g, {.depth = 1.0, .splits_h = 2, .splits_w = 2});

    Rng rng(21);
    ParamStore params(g, rng);
    Tensor input(Shape{2, 3, 16, 16});
    Rng drng(22);
    input.fillNormal(drng, 0.0f, 1.0f);

    Executor ex_g(g, params), ex_s(split, params);
    Tensor out_g = ex_g.forward(input, false, nullptr);
    Tensor out_s = ex_s.forward(input, false, nullptr);
    EXPECT_LT(maxAbsDiff(out_g, out_s), 1e-4f);
}

TEST(Splitter, PatchesAreIndependent)
{
    // Perturbing one input patch must not change the other patches'
    // slice of the join tensor.
    Graph g = convReluPool(1, 16);
    Graph split = splitCnnTransform(
        g, {.depth = 1.0, .splits_h = 2, .splits_w = 2});

    Rng rng(31);
    ParamStore params(split, rng);
    Executor ex(split, params);

    Tensor input(Shape{1, 3, 16, 16});
    Rng drng(32);
    input.fillNormal(drng, 0.0f, 1.0f);
    ForwardCache c1;
    ex.forward(input, false, &c1);

    // Perturb the bottom-right input quadrant.
    Tensor input2 = input;
    for (int64_t c = 0; c < 3; ++c)
        for (int64_t y = 8; y < 16; ++y)
            for (int64_t x = 8; x < 16; ++x)
                input2.at4(0, c, y, x) += 1.0f;
    ForwardCache c2;
    ex.forward(input2, false, &c2);

    TensorId join = kInvalidTensor;
    for (const auto &n : split.nodes())
        if (n.kind == OpKind::Concat && n.concat_dim == 2)
            join = n.output;
    ASSERT_NE(join, kInvalidTensor);
    const Tensor &j1 = *c1.values[static_cast<size_t>(join)];
    const Tensor &j2 = *c2.values[static_cast<size_t>(join)];
    // Top-left quadrant of the 8x8 join tensor is bit-identical.
    for (int64_t c = 0; c < 6; ++c)
        for (int64_t y = 0; y < 4; ++y)
            for (int64_t x = 0; x < 4; ++x)
                EXPECT_EQ(j1.at4(0, c, y, x), j2.at4(0, c, y, x));
    // ...and the bottom-right one changed.
    EXPECT_GT(maxAbsDiff(j1, j2), 1e-3f);
}

TEST(Splitter, ResNetRegionWithResidualsTransforms)
{
    Graph g = buildResNet18({.batch = 1, .image = 32, .width = 0.25});
    for (double depth : {0.25, 0.5, 0.75}) {
        SplitReport report;
        Graph split = splitCnnTransform(
            g, {.depth = depth, .splits_h = 2, .splits_w = 2}, nullptr,
            &report);
        EXPECT_GT(report.convs_split, 0) << "depth " << depth;
        split.validate();

        // The transformed model still runs end to end.
        Rng rng(41);
        ParamStore params(split, rng);
        Executor ex(split, params);
        Tensor input(Shape{1, 3, 32, 32});
        Rng drng(42);
        input.fillNormal(drng, 0.0f, 1.0f);
        Tensor out = ex.forward(input, false, nullptr);
        EXPECT_EQ(out.shape(), Shape({1, 10}));
    }
}

TEST(Splitter, ResNet50BottleneckRegionTransforms)
{
    Graph g = buildResNet50({.batch = 1, .image = 32, .width = 0.125});
    SplitReport report;
    Graph split = splitCnnTransform(
        g, {.depth = 0.8, .splits_h = 2, .splits_w = 2}, nullptr,
        &report);
    EXPECT_GT(report.achieved_depth, 0.6);
    split.validate();
}

TEST(Splitter, AchievedDepthTracksRequestedDepth)
{
    Graph g = buildVgg19({.batch = 1, .image = 32, .width = 0.25});
    for (double depth : {0.125, 0.25, 0.375, 0.5}) {
        SplitReport report;
        splitCnnTransform(g, {.depth = depth}, nullptr, &report);
        EXPECT_NEAR(report.achieved_depth, depth, 0.1)
            << "requested depth " << depth;
    }
}

TEST(Splitter, StochasticSchemesVaryAcrossCalls)
{
    Graph g = convReluPool(1, 32);
    Rng rng(51);
    SplitOptions opt{.depth = 1.0,
                     .splits_h = 2,
                     .splits_w = 2,
                     .stochastic = true,
                     .omega = 0.2};
    std::set<std::string> shapes_seen;
    for (int i = 0; i < 12; ++i) {
        Graph split = splitCnnTransform(g, opt, &rng);
        std::string sig;
        for (const auto &n : split.nodes())
            if (n.kind == OpKind::Slice)
                sig += std::to_string(n.h_end) + "," +
                       std::to_string(n.w_end) + ";";
        shapes_seen.insert(sig);
    }
    EXPECT_GT(shapes_seen.size(), 2u);
}

TEST(Splitter, StochasticRequiresRng)
{
    Graph g = convReluPool(1, 16);
    EXPECT_THROW(splitCnnTransform(g, {.depth = 1.0, .stochastic = true}),
                 std::exception);
}

TEST(Splitter, SharedWeightsReceiveGradientsFromAllPatches)
{
    Graph g = convReluPool(1, 16);
    Graph split = splitCnnTransform(
        g, {.depth = 1.0, .splits_h = 2, .splits_w = 2});

    Rng rng(61);
    ParamStore params(split, rng);
    Executor ex(split, params);
    Tensor input(Shape{1, 3, 16, 16});
    Rng drng(62);
    input.fillNormal(drng, 0.0f, 1.0f);

    ForwardCache cache;
    Tensor out = ex.forward(input, true, &cache);
    params.zeroGrad();
    ex.backward(cache, Tensor(out.shape(), 1.0f));

    // conv1 weight grad (param 0) must be nonzero: every patch
    // contributed through the shared parameter id.
    float norm = 0.0f;
    const Tensor &gw = params.grad(0);
    for (int64_t i = 0; i < gw.numel(); ++i)
        norm += std::abs(gw.at(i));
    EXPECT_GT(norm, 0.0f);
}


TEST(Splitter, RectangularInputsAndAsymmetricGrids)
{
    // H != W inputs with non-square patch grids (2x3, 3x1).
    GraphBuilder b;
    TensorId x = b.input(Shape{1, 3, 24, 36});
    x = b.conv2d(x, 4, Window2d::square(3, 1, 1), true, "conv1");
    x = b.relu(x, "relu1");
    b.markCutPoint(x);
    x = b.flatten(x);
    x = b.linear(x, 5, true, "fc");
    Graph g = b.build();

    for (auto [h, w] : {std::pair{2, 3}, std::pair{3, 1},
                        std::pair{1, 4}}) {
        SplitReport report;
        Graph split = splitCnnTransform(
            g, {.depth = 1.0, .splits_h = h, .splits_w = w}, nullptr,
            &report);
        EXPECT_EQ(report.patches, h * w);
        split.validate();
        Rng rng(71);
        ParamStore params(split, rng);
        Executor ex(split, params);
        Tensor input(Shape{1, 3, 24, 36});
        Rng drng(72);
        input.fillNormal(drng, 0.0f, 1.0f);
        Tensor out = ex.forward(input, false, nullptr);
        EXPECT_EQ(out.shape(), Shape({1, 5}));
    }
}

TEST(Splitter, RecoverSplitRegionReadsBackTheTransform)
{
    GraphBuilder b;
    TensorId x = b.input(Shape{1, 3, 20, 22});
    x = b.conv2d(x, 4, Window2d::square(3, 1, 1), true, "conv1");
    x = b.relu(x, "relu1");
    b.markCutPoint(x);
    x = b.flatten(x);
    x = b.linear(x, 5, true, "fc");
    Graph g = b.build();
    EXPECT_FALSE(recoverSplitRegion(g).has_value());

    SplitOptions opt{.depth = 1.0, .splits_h = 2, .splits_w = 3};
    Graph split = splitCnnTransform(g, opt);
    const auto region = recoverSplitRegion(split);
    ASSERT_TRUE(region.has_value());
    EXPECT_EQ(region->input, split.inputTensor());
    EXPECT_EQ(region->slices.size(), 6u);
    ASSERT_EQ(region->layers.size(), 2u); // conv1, relu1
    EXPECT_EQ(split.tensor(region->join).shape, Shape({1, 4, 20, 22}));

    // The conv layer's scheme is the one the transform derived.
    const Window2d win = Window2d::square(3, 1, 1);
    const auto want = splitWindowOp2d(win, 20, 22,
                                      evenOutputSplit(20, 2),
                                      evenOutputSplit(22, 3), opt.policy);
    const SplitRegionLayer &conv = region->layers[0];
    EXPECT_EQ(conv.inputs, std::vector<int>{-1});
    EXPECT_EQ(conv.win, win);
    ASSERT_EQ(conv.scheme.h.parts(), 2);
    ASSERT_EQ(conv.scheme.w.parts(), 3);
    EXPECT_EQ(conv.scheme.h.toString(), want.h.toString());
    EXPECT_EQ(conv.scheme.w.toString(), want.w.toString());
    EXPECT_EQ(region->layers[1].inputs, std::vector<int>{0});
    for (const SplitRegionLayer &layer : region->layers)
        for (size_t p = 1; p < layer.clones.size(); ++p)
            EXPECT_EQ(split.node(layer.clones[p]).params,
                      split.node(layer.clones[0]).params);
}

TEST(Splitter, RecoverSplitRegionRecognizesModelRegions)
{
    // Residual forks, 1x1/2 shortcuts and bottlenecks: one layer per
    // split node of the source graph.
    for (const char *model : {"vgg19", "resnet18", "resnet50"}) {
        Graph g = buildModel(model, {.batch = 1,
                                     .image = 32,
                                     .classes = 10,
                                     .width = 0.125});
        SplitReport report;
        Graph split = splitCnnTransform(
            g, {.depth = 0.5, .splits_h = 2, .splits_w = 2}, nullptr,
            &report);
        const auto region = recoverSplitRegion(split);
        ASSERT_TRUE(region.has_value()) << model;
        int convs = 0;
        for (const SplitRegionLayer &layer : region->layers) {
            EXPECT_EQ(layer.clones.size(), 4u);
            convs += split.node(layer.clones[0]).kind == OpKind::Conv2d;
        }
        EXPECT_EQ(convs, report.convs_split) << model;
        // Every per-patch node belongs to exactly one layer.
        EXPECT_EQ(split.nodes().size(),
                  g.nodes().size() + region->layers.size() * 3 +
                      region->slices.size() + region->joins.size())
            << model;
    }
}

TEST(Splitter, RecoverSplitRegionRejectsMixedPatches)
{
    // An Add joining two different patches is no patch clone.
    GraphBuilder b;
    TensorId x = b.input(Shape{1, 3, 16, 16});
    TensorId top = b.slice(x, 0, 8, 0, 16, "top");
    TensorId bottom = b.slice(x, 8, 16, 0, 16, "bottom");
    TensorId sum = b.add({b.relu(top), b.relu(bottom)}, "mix");
    x = b.concat({sum, sum}, 2, "join");
    x = b.flatten(x);
    x = b.linear(x, 2, true, "fc");
    Graph g = b.build();
    EXPECT_THROW(recoverSplitRegion(g), std::exception);
}

TEST(ChooseCutPoint, PicksNearestConvCount)
{
    Graph g = buildVgg19({.batch = 1, .image = 32, .width = 0.25});
    const int idx = chooseCutPoint(g, 0.5);
    ASSERT_GE(idx, 0);
    const auto &cp = g.cutPoints()[static_cast<size_t>(idx)];
    EXPECT_EQ(cp.convs_before, 8); // 50% of 16 convs
}

} // namespace
} // namespace scnn
