/**
 * @file
 * The executor's lowered split regions against the literal per-patch
 * graph interpreter (split_oracle.h): lowering replaces every Slice,
 * per-patch clone and Concat with one region node per layer, and
 * training through it must reproduce the per-patch graph — logits,
 * loss, the join tensor and BN running stats bitwise under the
 * scalar microkernel, parameter gradients within a relative bound
 * (wgrad reduces over whole image bands instead of per patch, and
 * split BN sums gamma/beta gradients in ascending patch order). The
 * lowered step is also bitwise across thread counts under either
 * microkernel, and its region nodes pass the SA6xx lint and the
 * shadow-access validator.
 *
 * The tests live in the Executor suite so the TSan and
 * shadow-validation CI jobs select them with `Executor.*`.
 */
#include "train/executor.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "analysis/parallel_model.h"
#include "analysis/shadow_access.h"
#include "core/splitter.h"
#include "kernels/activations.h"
#include "kernels/microkernel.h"
#include "models/models.h"
#include "split_oracle.h"
#include "util/threadpool.h"

namespace scnn {
namespace {

/** Relative bound on parameter gradients vs the oracle. */
constexpr float kGradTol = 1e-4f;

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

class ScopedThreads
{
  public:
    explicit ScopedThreads(int n) : prev_(globalThreads())
    {
        setGlobalThreads(n);
    }
    ~ScopedThreads() { setGlobalThreads(prev_); }

  private:
    int prev_;
};

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) ==
               0;
}

/** A deterministic batch for @p g's input. */
Tensor
inputFor(const Graph &g, std::vector<int64_t> &labels)
{
    const Shape &s = g.tensor(g.inputTensor()).shape;
    Tensor x(s);
    Rng rng(101);
    x.fillNormal(rng, 0.0f, 1.0f);
    const int64_t classes = g.tensor(g.outputTensor()).shape.dim(1);
    labels.clear();
    for (int64_t i = 0; i < s.dim(0); ++i)
        labels.push_back(i % classes);
    return x;
}

/** What one training step leaves behind. */
struct StepResult
{
    Tensor logits;
    float loss = 0.0f;
    std::optional<Tensor> join; ///< the split region's join value
};

StepResult
executorStep(const Graph &g, ParamStore &params)
{
    std::vector<int64_t> labels;
    const Tensor x = inputFor(g, labels);
    Executor ex(g, params);
    ForwardCache cache;
    StepResult r;
    r.logits = ex.forward(x, /*training=*/true, &cache);
    Tensor probs;
    r.loss = softmaxXentForward(r.logits, labels, probs);
    params.zeroGrad();
    ex.backward(cache, softmaxXentBackward(probs, labels));
    if (const auto region = recoverSplitRegion(g))
        r.join = cache.values[static_cast<size_t>(region->join)];
    return r;
}

StepResult
oracleStep(const Graph &g, ParamStore &params)
{
    std::vector<int64_t> labels;
    const Tensor x = inputFor(g, labels);
    oracle::GraphCache cache;
    StepResult r;
    r.logits = oracle::graphForward(g, params, x, /*training=*/true, cache);
    Tensor probs;
    r.loss = softmaxXentForward(r.logits, labels, probs);
    params.zeroGrad();
    oracle::graphBackward(g, params, cache,
                          softmaxXentBackward(probs, labels));
    if (const auto region = recoverSplitRegion(g))
        r.join = cache.values[static_cast<size_t>(region->join)];
    return r;
}

ModelConfig
smallConfig()
{
    return {.batch = 2, .image = 32, .classes = 10, .width = 0.25};
}

Graph
splitModel(const char *model, int grid, bool stochastic = false)
{
    SplitOptions opt{.depth = 0.5, .splits_h = grid, .splits_w = grid};
    opt.stochastic = stochastic;
    Rng rng(17);
    return splitCnnTransform(buildModel(model, smallConfig()), opt,
                             stochastic ? &rng : nullptr);
}

/** One training step through the executor and through the oracle,
 * from identical parameters, under the scalar microkernel. */
void
expectMatchesOracle(const Graph &split)
{
    ScopedSimd scalar(false);
    Rng ra(7), rb(7);
    ParamStore pe(split, ra), po(split, rb);
    const StepResult got = executorStep(split, pe);
    const StepResult want = oracleStep(split, po);

    EXPECT_TRUE(bitwiseEqual(got.logits, want.logits));
    EXPECT_EQ(std::memcmp(&got.loss, &want.loss, sizeof(float)), 0)
        << got.loss << " vs " << want.loss;
    ASSERT_TRUE(got.join.has_value()) << "join value not cached";
    EXPECT_TRUE(bitwiseEqual(*got.join, *want.join));
    for (ParamId id = 0; id < static_cast<ParamId>(pe.size()); ++id) {
        const ParamInfo &info = split.param(id);
        // Values include the BN running stats the step updated.
        EXPECT_TRUE(bitwiseEqual(pe.value(id), po.value(id)))
            << info.name << " value";
        if (info.requires_grad) {
            EXPECT_LT(oracle::relMaxDiff(pe.grad(id), po.grad(id)),
                      kGradTol)
                << info.name << " grad";
        }
    }
}

TEST(Executor, LoweredVgg19Split2x2MatchesOracle)
{
    expectMatchesOracle(splitModel("vgg19", 2));
}

TEST(Executor, LoweredVgg19Split4x4MatchesOracle)
{
    expectMatchesOracle(splitModel("vgg19", 4));
}

TEST(Executor, LoweredResNet18Split2x2MatchesOracle)
{
    // The region holds the 1x1/2 down.conv (k < s) and residual Adds.
    expectMatchesOracle(splitModel("resnet18", 2));
}

TEST(Executor, LoweredStochasticSplitMatchesOracle)
{
    expectMatchesOracle(splitModel("resnet18", 2, /*stochastic=*/true));
}

TEST(Executor, LoweredOverlappingMaxPoolMatchesOracle)
{
    // A k > s max-pool (3x3/2, pad 1) inside the region: windows
    // straddle patch seams, so forward argmax and backward routing
    // both depend on the patch-clipped windows.
    GraphBuilder b;
    TensorId x = b.input(Shape{2, 3, 20, 18});
    x = b.conv2d(x, 6, Window2d::square(3, 1, 1), true, "conv1");
    x = b.batchNorm(x, "bn1");
    x = b.relu(x, "relu1");
    x = b.maxPool(x, Window2d::square(3, 2, 1), "pool1");
    x = b.conv2d(x, 4, Window2d::square(3, 1, 1), false, "conv2");
    b.markCutPoint(x);
    x = b.flatten(x);
    x = b.linear(x, 5, true, "fc");
    const Graph g = b.build();
    for (const int grid : {2, 3})
        expectMatchesOracle(splitCnnTransform(
            g, {.depth = 1.0, .splits_h = grid, .splits_w = grid}));
}

TEST(Executor, LoweredSplitBitwiseAcrossThreads)
{
    for (const char *model : {"vgg19", "resnet18"}) {
        const Graph split = splitModel(model, model[0] == 'v' ? 4 : 2);
        for (const bool simd : {false, true}) {
            if (simd && !simdAvailable())
                continue;
            ScopedSimd pin(simd);
            std::optional<ParamStore> ref;
            StepResult ref_step;
            for (const int threads : {1, 2, 4}) {
                ScopedThreads guard(threads);
                Rng rng(9);
                ParamStore p(split, rng);
                const StepResult step = executorStep(split, p);
                if (!ref) {
                    ref.emplace(std::move(p));
                    ref_step = step;
                    continue;
                }
                EXPECT_TRUE(bitwiseEqual(step.logits, ref_step.logits))
                    << model << " simd=" << simd << " " << threads
                    << " threads";
                for (ParamId id = 0; id < static_cast<ParamId>(p.size());
                     ++id) {
                    EXPECT_TRUE(bitwiseEqual(p.value(id), ref->value(id)))
                        << model << " param " << id << " " << threads
                        << " threads";
                    EXPECT_TRUE(bitwiseEqual(p.grad(id), ref->grad(id)))
                        << model << " grad " << id << " " << threads
                        << " threads";
                }
            }
        }
    }
}

TEST(Executor, LoweringLeavesNoPatchNodes)
{
    // A lowered split graph has the unsplit graph's node count: one
    // region node per split layer, carrying the layer's 4x4 scheme,
    // and no Slice or Concat.
    const Graph base = buildModel("vgg19", smallConfig());
    const Graph split = splitModel("vgg19", 4);
    const LoweredGraph lowered = lowerGraph(split);
    const auto region = recoverSplitRegion(split);
    ASSERT_TRUE(region.has_value());
    EXPECT_EQ(lowered.nodes.size(), base.nodes().size());
    size_t region_nodes = 0;
    for (const ExecNode &e : lowered.nodes) {
        const OpKind kind = split.node(e.node).kind;
        EXPECT_NE(kind, OpKind::Slice);
        EXPECT_NE(kind, OpKind::Concat);
        region_nodes += e.isRegion();
        if (e.isRegion()) {
            EXPECT_EQ(static_cast<int>(e.clones.size()), 16)
                << split.node(e.node).name;
            EXPECT_EQ(e.scheme.parts(), 16) << split.node(e.node).name;
        }
    }
    EXPECT_EQ(region_nodes, region->layers.size());
}

TEST(Executor, UnsplitNodesCarryTheWholeImageScheme)
{
    // Every conv, pool and BN node runs the split kernels: an unsplit
    // one over a one-piece scheme that tiles its input and output with
    // the window's own paddings, a region node over its layer's
    // scheme as recoverSplitRegion reads it back.
    for (const char *model : {"resnet18", "vgg19"}) {
        const Graph split = splitModel(model, 2);
        const LoweredGraph lowered = lowerGraph(split);
        const auto region = recoverSplitRegion(split);
        ASSERT_TRUE(region.has_value()) << model;
        size_t layer = 0, unsplit = 0;
        for (const ExecNode &e : lowered.nodes) {
            const Node &n = split.node(e.node);
            if (e.isRegion()) {
                const SplitScheme2d &want = region->layers[layer++].scheme;
                EXPECT_EQ(e.scheme.h.toString(), want.h.toString())
                    << model << " " << n.name;
                EXPECT_EQ(e.scheme.w.toString(), want.w.toString())
                    << model << " " << n.name;
                continue;
            }
            if (!isWindowOp(n.kind) && n.kind != OpKind::BatchNorm) {
                EXPECT_EQ(e.scheme.parts(), 0) << model << " " << n.name;
                continue;
            }
            ++unsplit;
            const Shape &in =
                lowered.slot_shapes[static_cast<size_t>(e.inputs[0])];
            const Shape &out =
                lowered.slot_shapes[static_cast<size_t>(e.output)];
            ASSERT_EQ(e.scheme.parts(), 1) << model << " " << n.name;
            const SplitPiece1d &ph = e.scheme.h.pieces[0];
            const SplitPiece1d &pw = e.scheme.w.pieces[0];
            EXPECT_EQ(ph.in_start, 0);
            EXPECT_EQ(ph.in_end, in.dim(2)) << model << " " << n.name;
            EXPECT_EQ(ph.out_start, 0);
            EXPECT_EQ(ph.out_end, out.dim(2)) << model << " " << n.name;
            EXPECT_EQ(ph.pad_b, n.win.ph_b);
            EXPECT_EQ(ph.pad_e, n.win.ph_e);
            EXPECT_EQ(pw.in_start, 0);
            EXPECT_EQ(pw.in_end, in.dim(3)) << model << " " << n.name;
            EXPECT_EQ(pw.out_start, 0);
            EXPECT_EQ(pw.out_end, out.dim(3)) << model << " " << n.name;
            EXPECT_EQ(pw.pad_b, n.win.pw_b);
            EXPECT_EQ(pw.pad_e, n.win.pw_e);
        }
        EXPECT_EQ(layer, region->layers.size()) << model;
        EXPECT_GT(unsplit, 0u) << model;
    }
}

TEST(Executor, LoweredRegionNodesLintAndShadowClean)
{
    // Construction under SCNN_LINT_PARALLEL=1 proves the wave plan
    // and every region node's split-kernel plans race-free (it throws
    // on a finding); a training step under the shadow recorder checks
    // every region kernel's accesses against those plans.
    const Graph split = splitModel("resnet18", 2);
    const char *prev = std::getenv("SCNN_LINT_PARALLEL");
    const std::string saved = prev ? prev : "";
    setenv("SCNN_LINT_PARALLEL", "1", 1);
    setShadowAccessForTesting(1);
    shadowAccessResetStats();
    Rng rng(5);
    ParamStore params(split, rng);
    EXPECT_NO_THROW(executorStep(split, params));
    const ShadowAccessStats stats = shadowAccessStats();
    setShadowAccessForTesting(-1);
    if (prev)
        setenv("SCNN_LINT_PARALLEL", saved.c_str(), 1);
    else
        unsetenv("SCNN_LINT_PARALLEL");

    // Forward and backward of every region conv, pool and BN node.
    int64_t kernels = 0;
    for (const ExecNode &e : lowerGraph(split).nodes) {
        const OpKind kind = split.node(e.node).kind;
        kernels += e.isRegion() && (isWindowOp(kind) ||
                                    kind == OpKind::BatchNorm);
    }
    ASSERT_GT(kernels, 0);
    EXPECT_GE(stats.sessions_checked, 2 * kernels);
    EXPECT_GT(stats.records_checked, 0);
    EXPECT_EQ(stats.violations, 0);
}

} // namespace
} // namespace scnn
