/**
 * @file
 * Training-stack tests: SGD semantics, LR schedule, synthetic
 * dataset properties, and learnability smoke tests (baseline and
 * split modes beat chance on the synthetic task).
 */
#include "train/trainer.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "data/synthetic.h"
#include "train/sgd.h"

namespace scnn {
namespace {

TEST(StepLrSchedule, DecaysAtMilestones)
{
    StepLrSchedule s(0.1f, {150, 250}, 0.1f);
    EXPECT_FLOAT_EQ(s.lrAt(0), 0.1f);
    EXPECT_FLOAT_EQ(s.lrAt(149), 0.1f);
    EXPECT_FLOAT_EQ(s.lrAt(150), 0.01f);
    EXPECT_FLOAT_EQ(s.lrAt(250), 0.001f);
}

TEST(Sgd, UpdatesFollowMomentumFormula)
{
    GraphBuilder b;
    TensorId x = b.input(Shape{1, 1, 2, 2});
    x = b.flatten(x);
    b.linear(x, 1, false, "fc");
    Graph g = b.build();

    Rng rng(1);
    ParamStore params(g, rng);
    params.value(0).fill(1.0f);

    Sgd sgd(g, {.lr = 0.5f, .momentum = 0.9f, .weight_decay = 0.0f});
    params.grad(0).fill(2.0f);
    sgd.step(params);
    // v = 2, w = 1 - 0.5*2 = 0.
    EXPECT_FLOAT_EQ(params.value(0).at(0), 0.0f);
    params.grad(0).fill(0.0f);
    sgd.step(params);
    // v = 0.9*2 = 1.8, w = 0 - 0.9 = -0.9.
    EXPECT_FLOAT_EQ(params.value(0).at(0), -0.9f);
}

/** The raw-pointer update loop must produce exactly the bytes of the
 * written-out per-element formula, over several steps with momentum,
 * weight decay and non-trivial values. */
TEST(Sgd, StepIsBitwiseTheWrittenOutFormula)
{
    GraphBuilder b;
    TensorId x = b.input(Shape{2, 3, 4, 4});
    x = b.conv2d(x, 5, Window2d::square(3, 1, 1), true, "conv");
    x = b.flatten(x);
    b.linear(x, 7, true, "fc");
    Graph g = b.build();

    Rng rng(4);
    ParamStore params(g, rng);
    const SgdConfig cfg{.lr = 0.037f, .momentum = 0.9f,
                        .weight_decay = 3e-4f};
    Sgd sgd(g, cfg);
    // The formula's state: a copy of every value and a velocity.
    std::vector<std::vector<float>> w, v;
    for (size_t p = 0; p < params.size(); ++p) {
        const Tensor &t = params.value(static_cast<ParamId>(p));
        w.emplace_back(t.data(), t.data() + t.numel());
        v.emplace_back(static_cast<size_t>(t.numel()), 0.0f);
    }
    for (int step = 0; step < 3; ++step) {
        for (size_t p = 0; p < params.size(); ++p) {
            Tensor &gr = params.grad(static_cast<ParamId>(p));
            gr.fillNormal(rng, 0.0f, 1.0f);
            for (int64_t i = 0; i < gr.numel(); ++i) {
                float &wi = w[p][static_cast<size_t>(i)];
                float &vi = v[p][static_cast<size_t>(i)];
                const float grad = gr.at(i) + cfg.weight_decay * wi;
                vi = cfg.momentum * vi + grad;
                wi -= cfg.lr * vi;
            }
        }
        sgd.step(params);
        for (size_t p = 0; p < params.size(); ++p) {
            const Tensor &t = params.value(static_cast<ParamId>(p));
            ASSERT_EQ(std::memcmp(t.data(), w[p].data(),
                                  w[p].size() * sizeof(float)),
                      0)
                << "param " << p << " step " << step;
        }
    }
}

TEST(Sgd, WeightDecayPullsTowardZero)
{
    GraphBuilder b;
    TensorId x = b.input(Shape{1, 1, 2, 2});
    x = b.flatten(x);
    b.linear(x, 1, false, "fc");
    Graph g = b.build();

    Rng rng(2);
    ParamStore params(g, rng);
    params.value(0).fill(10.0f);
    Sgd sgd(g, {.lr = 0.1f, .momentum = 0.0f, .weight_decay = 0.5f});
    params.grad(0).fill(0.0f);
    sgd.step(params);
    EXPECT_FLOAT_EQ(params.value(0).at(0), 9.5f);
}

TEST(Sgd, SkipsBatchNormBuffers)
{
    GraphBuilder b;
    TensorId x = b.input(Shape{2, 2, 4, 4});
    b.batchNorm(x, "bn");
    Graph g = b.build();
    Rng rng(3);
    ParamStore params(g, rng);
    Sgd sgd(g, {.lr = 1.0f, .momentum = 0.0f, .weight_decay = 0.0f});
    // Fill all grads including buffers; buffers must not move.
    for (size_t p = 0; p < params.size(); ++p)
        params.grad(static_cast<ParamId>(p)).fill(1.0f);
    const float rm_before = params.value(2).at(0);
    sgd.step(params);
    EXPECT_EQ(params.value(2).at(0), rm_before);
    // gamma (trainable) did move.
    EXPECT_NE(params.value(0).at(0), 1.0f);
}

TEST(SyntheticDataset, ShapesAndLabelRanges)
{
    SyntheticDataset data({.classes = 10,
                           .image = 16,
                           .train_samples = 64,
                           .test_samples = 32});
    std::vector<int64_t> labels;
    Tensor batch = data.trainBatch({0, 1, 2, 3}, labels);
    EXPECT_EQ(batch.shape(), Shape({4, 3, 16, 16}));
    ASSERT_EQ(labels.size(), 4u);
    for (auto l : labels) {
        EXPECT_GE(l, 0);
        EXPECT_LT(l, 10);
    }
}

TEST(SyntheticDataset, DeterministicAcrossConstructions)
{
    SyntheticSpec spec{.image = 16, .train_samples = 16,
                       .test_samples = 8};
    SyntheticDataset a(spec), b(spec);
    std::vector<int64_t> la, lb;
    Tensor xa = a.testBatch(0, 8, la);
    Tensor xb = b.testBatch(0, 8, lb);
    EXPECT_EQ(la, lb);
    for (int64_t i = 0; i < xa.numel(); ++i)
        ASSERT_EQ(xa.at(i), xb.at(i));
}

TEST(SyntheticDataset, ClassesAreSeparable)
{
    // Nearest-template classification should beat chance by a lot —
    // sanity that labels carry signal.
    SyntheticDataset data({.classes = 4,
                           .image = 16,
                           .train_samples = 128,
                           .test_samples = 64,
                           .noise = 0.4f});
    // Build per-class mean images from train data.
    std::vector<int64_t> labels;
    std::vector<int> all(128);
    for (int i = 0; i < 128; ++i)
        all[static_cast<size_t>(i)] = i;
    Tensor xs = data.trainBatch(all, labels);
    const int64_t stride = 3 * 16 * 16;
    std::vector<std::vector<double>> mean(
        4, std::vector<double>(static_cast<size_t>(stride), 0.0));
    std::vector<int> counts(4, 0);
    for (int64_t i = 0; i < 128; ++i) {
        const auto c = static_cast<size_t>(labels[i]);
        ++counts[c];
        for (int64_t j = 0; j < stride; ++j)
            mean[c][static_cast<size_t>(j)] += xs.at(i * stride + j);
    }
    for (size_t c = 0; c < 4; ++c)
        for (auto &v : mean[c])
            v /= std::max(1, counts[c]);

    std::vector<int64_t> tl;
    Tensor ts = data.testBatch(0, 64, tl);
    int correct = 0;
    for (int64_t i = 0; i < 64; ++i) {
        double best = 1e18;
        int64_t best_c = 0;
        for (int64_t c = 0; c < 4; ++c) {
            double d = 0.0;
            for (int64_t j = 0; j < stride; ++j) {
                const double diff =
                    ts.at(i * stride + j) -
                    mean[static_cast<size_t>(c)][static_cast<size_t>(j)];
                d += diff * diff;
            }
            if (d < best) {
                best = d;
                best_c = c;
            }
        }
        correct += (best_c == tl[static_cast<size_t>(i)]);
    }
    // Chance is 16/64; shifts blur the class means, so nearest-mean
    // is a weak classifier — but it must still clearly beat chance.
    EXPECT_GT(correct, 26) << "nearest-mean gets " << correct << "/64";
}

TEST(SyntheticDataset, ShuffledEpochIsAPermutation)
{
    SyntheticDataset data({.train_samples = 50, .test_samples = 8});
    Rng rng(9);
    auto order = data.shuffledEpoch(rng);
    std::set<int> unique(order.begin(), order.end());
    EXPECT_EQ(unique.size(), 50u);
    EXPECT_EQ(*unique.begin(), 0);
    EXPECT_EQ(*unique.rbegin(), 49);
}

Graph
smokeModel(int64_t batch)
{
    GraphBuilder b;
    TensorId x = b.input(Shape{batch, 3, 16, 16});
    x = b.conv2d(x, 8, Window2d::square(3, 1, 1), false, "c1");
    x = b.batchNorm(x, "bn1");
    x = b.relu(x, "r1");
    b.markCutPoint(x);
    x = b.maxPool(x, Window2d::square(2, 2, 0), "p1");
    b.markCutPoint(x);
    x = b.conv2d(x, 16, Window2d::square(3, 1, 1), false, "c2");
    x = b.batchNorm(x, "bn2");
    x = b.relu(x, "r2");
    b.markCutPoint(x);
    x = b.globalAvgPool(x, "gap");
    x = b.flatten(x);
    x = b.linear(x, 4, true, "fc");
    return b.build();
}

TEST(Trainer, BaselineLearnsSyntheticTask)
{
    SyntheticDataset data({.classes = 4,
                           .image = 16,
                           .train_samples = 256,
                           .test_samples = 64,
                           .noise = 0.4f});
    TrainConfig cfg;
    cfg.mode = TrainMode::Baseline;
    cfg.epochs = 6;
    cfg.batch = 32;
    cfg.sgd = {.lr = 0.05f, .momentum = 0.9f, .weight_decay = 1e-4f};
    auto result = trainModel(smokeModel(cfg.batch), cfg, data);
    // Chance is 75% error on 4 classes.
    EXPECT_LT(result.best_test_error, 40.0f);
}

TEST(Trainer, SplitModeRunsAndLearns)
{
    SyntheticDataset data({.classes = 4,
                           .image = 16,
                           .train_samples = 256,
                           .test_samples = 64,
                           .noise = 0.4f});
    TrainConfig cfg;
    cfg.mode = TrainMode::SplitCnn;
    cfg.split = {.depth = 0.6, .splits_h = 2, .splits_w = 2};
    cfg.epochs = 6;
    cfg.batch = 32;
    cfg.sgd = {.lr = 0.05f, .momentum = 0.9f, .weight_decay = 1e-4f};
    auto result = trainModel(smokeModel(cfg.batch), cfg, data);
    EXPECT_GT(result.split_report.convs_split, 0);
    EXPECT_LT(result.best_test_error, 50.0f);
}

TEST(Trainer, StochasticSplitRunsAndEvaluatesUnsplit)
{
    SyntheticDataset data({.classes = 4,
                           .image = 16,
                           .train_samples = 128,
                           .test_samples = 64,
                           .noise = 0.4f});
    TrainConfig cfg;
    cfg.mode = TrainMode::StochasticSplit;
    cfg.split = {.depth = 0.6,
                 .splits_h = 2,
                 .splits_w = 2,
                 .omega = 0.2};
    cfg.epochs = 4;
    cfg.batch = 32;
    cfg.sgd = {.lr = 0.05f, .momentum = 0.9f, .weight_decay = 1e-4f};
    auto result = trainModel(smokeModel(cfg.batch), cfg, data);
    EXPECT_EQ(result.epochs.size(), 4u);
    EXPECT_LT(result.best_test_error, 75.0f); // beats chance
}

} // namespace
} // namespace scnn
