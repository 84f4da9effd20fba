/**
 * @file
 * The band engine's image groups: convs whose per-image column matrix
 * is small (the 8x8, 4x4 and 2x2 maps a deep split prefix leaves)
 * stage several images side by side per work item. Forward and dgrad
 * must stay bitwise equal to the per-patch oracle — grouping only
 * moves columns, never an element's K order — and wgrad bitwise equal
 * to the oracle's replay of the documented group order, at 1/2/4
 * threads under both microkernels. The SA6xx plans and the shadow
 * recorder cover the group items.
 *
 * The suites are the ones the TSan (SplitOp, SplitBackward*) and
 * shadow-validate (…, ParallelSafety) CI filters already select.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "analysis/parallel_model.h"
#include "analysis/shadow_access.h"
#include "kernels/conv2d.h"
#include "kernels/microkernel.h"
#include "kernels/pool2d.h"
#include "split_oracle.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace scnn {
namespace {

/** Pin the pool size and the microkernel for a scope. */
class ScopedConfig
{
  public:
    ScopedConfig(int threads, bool simd)
        : threads_(globalThreads()), simd_(simdEnabled())
    {
        setGlobalThreads(threads);
        setSimdEnabled(simd);
    }
    ~ScopedConfig()
    {
        setGlobalThreads(threads_);
        setSimdEnabled(simd_);
    }

  private:
    int threads_;
    bool simd_;
};

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) ==
               0;
}

/** One grouped conv: batch-8 input, window, and output-grid splits. */
struct GroupCase
{
    int64_t c, hw;   ///< input channels, square input extent
    int64_t oc;      ///< output channels
    int64_t k, s, p; ///< square kernel / stride / pad
    int parts;       ///< parts x parts split (1 = unsplit)
    bool bias;

    std::string
    name() const
    {
        return "8x" + std::to_string(c) + "x" + std::to_string(hw) + "x" +
               std::to_string(hw) + " k" + std::to_string(k) + "s" +
               std::to_string(s) + " " + std::to_string(parts) + "x" +
               std::to_string(parts) + (bias ? " bias" : "");
    }
};

std::vector<GroupCase>
groupCases()
{
    std::vector<GroupCase> cases;
    // The small maps of a VGG-19 split prefix at 1/4 width, 3x3/1.
    for (const auto &[c, hw] : {std::pair<int64_t, int64_t>{128, 2},
                                {128, 4},
                                {64, 8}})
        for (const int parts : {1, 2, 4})
            if (parts <= hw)
                for (const bool bias : {false, true})
                    cases.push_back({c, hw, c, 3, 1, 1, parts, bias});
    // Strided 3x3 and 1x1 (ResNet shortcut) windows.
    cases.push_back({64, 8, 64, 3, 2, 1, 2, true});
    cases.push_back({64, 8, 32, 1, 1, 0, 2, false});
    cases.push_back({64, 8, 32, 1, 2, 0, 2, true});
    return cases;
}

SplitScheme2d
caseScheme(const GroupCase &gc, const Window2d &win)
{
    const WindowParams1d op{gc.k, gc.s, gc.p, gc.p};
    const int64_t out = win.outH(gc.hw);
    const int parts = std::min<int>(gc.parts, static_cast<int>(out));
    SplitScheme2d scheme;
    scheme.h = splitWindowOp(op, gc.hw, evenOutputSplit(out, parts),
                             InputSplitPolicy::Center,
                             /*allow_downsample=*/true);
    scheme.w = scheme.h;
    return scheme;
}

/** Everything one backward call produces. */
struct Grads
{
    Tensor gx, gw, gb;
};

TEST(SplitOp, GroupedForwardBitwiseMatchesOracle)
{
    uint32_t seed = 900;
    for (const GroupCase &gc : groupCases()) {
        Rng rng(++seed);
        Tensor x(Shape{8, gc.c, gc.hw, gc.hw});
        x.fillNormal(rng, 0.0f, 1.0f);
        Tensor w(Shape{gc.oc, gc.c, gc.k, gc.k});
        w.fillNormal(rng, 0.0f, 0.1f);
        Tensor b;
        if (gc.bias) {
            b = Tensor(Shape{gc.oc});
            b.fillNormal(rng, 0.0f, 0.1f);
        }
        const Window2d win = Window2d::square(gc.k, gc.s, gc.p);
        const SplitScheme2d scheme = caseScheme(gc, win);
        ASSERT_TRUE(
            convWork(8, gc.c * gc.k * gc.k, win.outW(gc.hw), scheme.h)
                .grouped)
            << gc.name() << " does not exercise image groups";
        for (const bool simd : {false, true}) {
            if (simd && !simdAvailable())
                continue;
            Tensor ref;
            {
                ScopedConfig cfg(1, simd);
                ref = oracle::runSplitOp(
                    x, win, scheme,
                    [&](const Tensor &patch, const Window2d &local) {
                        return conv2dForward(patch, w, b, local);
                    });
            }
            for (const int threads : {1, 2, 4}) {
                ScopedConfig cfg(threads, simd);
                EXPECT_TRUE(bitwiseEqual(
                    splitConv2dForward(x, w, b, win, scheme), ref))
                    << gc.name() << ", " << threads
                    << " threads, simd=" << simd;
                if (gc.parts == 1) {
                    EXPECT_TRUE(
                        bitwiseEqual(conv2dForward(x, w, b, win), ref))
                        << gc.name() << " unsplit, " << threads
                        << " threads, simd=" << simd;
                }
            }
        }
    }
}

TEST(SplitBackward, GroupedGradientsBitwiseMatchOracle)
{
    uint32_t seed = 950;
    for (const GroupCase &gc : groupCases()) {
        Rng rng(++seed);
        Tensor x(Shape{8, gc.c, gc.hw, gc.hw});
        x.fillNormal(rng, 0.0f, 1.0f);
        Tensor w(Shape{gc.oc, gc.c, gc.k, gc.k});
        w.fillNormal(rng, 0.0f, 0.1f);
        const Window2d win = Window2d::square(gc.k, gc.s, gc.p);
        const SplitScheme2d scheme = caseScheme(gc, win);
        const int64_t oh = win.outH(gc.hw);
        Tensor go(Shape{8, gc.oc, oh, oh});
        go.fillNormal(rng, 0.0f, 1.0f);
        auto fresh = [&] {
            Grads g;
            g.gw = Tensor(w.shape());
            if (gc.bias)
                g.gb = Tensor(Shape{gc.oc});
            return g;
        };
        for (const bool simd : {false, true}) {
            if (simd && !simdAvailable())
                continue;
            // dgrad: the per-patch oracle. wgrad and bias: the
            // bounce-buffered replay of the group order.
            Grads per_patch = fresh(), order = fresh();
            {
                ScopedConfig cfg(1, simd);
                oracle::splitConvBackward(x, w, go, win, scheme,
                                          per_patch.gx, per_patch.gw,
                                          per_patch.gb);
                oracle::splitConvWgradFusedOrder(x, go, win, scheme,
                                                 order.gw, order.gb);
            }
            for (const int threads : {1, 2, 4}) {
                ScopedConfig cfg(threads, simd);
                Grads got = fresh();
                splitConv2dBackward(x, w, go, win, scheme, got.gx, got.gw,
                                    got.gb);
                const std::string where = gc.name() + ", " +
                                          std::to_string(threads) +
                                          " threads, simd=" +
                                          std::to_string(simd);
                EXPECT_TRUE(bitwiseEqual(got.gx, per_patch.gx))
                    << where << " grad_x";
                EXPECT_TRUE(bitwiseEqual(got.gw, order.gw))
                    << where << " grad_w";
                if (gc.bias) {
                    EXPECT_TRUE(bitwiseEqual(got.gb, order.gb))
                        << where << " grad_b";
                }
                if (gc.parts == 1) {
                    Grads unsplit = fresh();
                    conv2dBackward(x, w, go, win, unsplit.gx, unsplit.gw,
                                   unsplit.gb);
                    EXPECT_TRUE(bitwiseEqual(unsplit.gx, per_patch.gx))
                        << where << " unsplit grad_x";
                    EXPECT_TRUE(bitwiseEqual(unsplit.gw, order.gw))
                        << where << " unsplit grad_w";
                }
            }
        }
    }
}

TEST(ParallelSafety, GroupedConvPlansAreClean)
{
    for (const GroupCase &gc : groupCases()) {
        const Window2d win = Window2d::square(gc.k, gc.s, gc.p);
        const SplitScheme2d scheme = caseScheme(gc, win);
        const int64_t krows = gc.c * gc.k * gc.k;
        // Two groups — the proof covers every inter-group pair — and
        // a batch with a short last group.
        const int64_t n_model = convModelBatch(4096, krows, scheme);
        const int64_t group =
            convWork(4096, krows, win.outW(gc.hw), scheme.h).group;
        ASSERT_EQ(n_model, 2 * group) << gc.name();
        for (const int64_t n : {n_model, n_model + 1}) {
            for (const ParallelPlan &plan :
                 {buildSplitConvPlan(n, gc.c, gc.hw, gc.hw, gc.oc, win,
                                     scheme),
                  buildSplitConvBackwardPlan(n, gc.c, gc.hw, gc.hw, gc.oc,
                                             win, scheme)}) {
                const auto diags = analyzeParallelPlan(plan);
                EXPECT_FALSE(hasErrors(diags))
                    << gc.name() << " n=" << n << " " << plan.name << '\n'
                    << renderDiagnosticsText(diags);
            }
        }
    }
}

TEST(ParallelSafety, GroupItemsWriteDisjointImageBlocks)
{
    // Two 8x128x2x2 groups forced into one epoch on overlapping
    // output: the exact-cover output model must flag the race.
    const Window2d win = Window2d::square(3, 1, 1);
    const GroupCase gc{128, 2, 128, 3, 1, 1, 2, false};
    const SplitScheme2d scheme = caseScheme(gc, win);
    ParallelPlan plan = buildSplitConvPlan(
        convModelBatch(64, 128 * 9, scheme), 128, 2, 2, 128, win, scheme);
    ASSERT_GE(plan.items.size(), 2u);
    // Retarget the second group's output writes onto the first's.
    for (ParallelAccess &a : plan.items[1].accesses)
        if (a.region == 0 && a.write)
            a.span = plan.items[0].accesses[0].span;
    const auto diags = analyzeParallelPlan(plan);
    bool race = false, gap = false;
    for (const auto &d : diags) {
        race = race || d.code == "SA601";
        gap = gap || d.code == "SA608";
    }
    EXPECT_TRUE(race && gap) << renderDiagnosticsText(diags);
}

TEST(SplitBackward, ShadowValidatesGroupedConvAgainstModel)
{
    setShadowAccessForTesting(1);
    shadowAccessResetStats();
    int sessions = 0;
    uint32_t seed = 990;
    for (const GroupCase &gc : groupCases()) {
        if (gc.parts == 1)
            continue; // the unsplit entry points open no session
        Rng rng(++seed);
        Tensor x(Shape{8, gc.c, gc.hw, gc.hw});
        x.fillNormal(rng, 0.0f, 1.0f);
        Tensor w(Shape{gc.oc, gc.c, gc.k, gc.k});
        w.fillNormal(rng, 0.0f, 0.1f);
        Tensor b;
        if (gc.bias)
            b = Tensor(Shape{gc.oc});
        const Window2d win = Window2d::square(gc.k, gc.s, gc.p);
        const SplitScheme2d scheme = caseScheme(gc, win);
        Tensor y = splitConv2dForward(x, w, b, win, scheme);
        Tensor gx, gw(w.shape());
        splitConv2dBackward(x, w, y, win, scheme, gx, gw, b);
        sessions += 2;
    }
    setShadowAccessForTesting(-1);
    const ShadowAccessStats stats = shadowAccessStats();
    EXPECT_GE(stats.sessions_checked, sessions);
    EXPECT_GT(stats.records_checked, 0);
    EXPECT_EQ(stats.violations, 0);
}

} // namespace
} // namespace scnn
