/**
 * @file
 * Determinism and correctness of the parallel execution engine: the
 * thread pool primitive itself, the scratch arena, and — the property
 * everything else rests on — bitwise-identical kernel, split-op and
 * executor results at 1, 2, 4 and 8 threads, plus the documented
 * SIMD-vs-scalar tolerance carve-out.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/split_op.h"
#include "core/splitter.h"
#include "kernels/conv2d.h"
#include "kernels/microkernel.h"
#include "kernels/pool2d.h"
#include "tensor/tensor_ops.h"
#include "train/executor.h"
#include "util/scratch_arena.h"
#include "util/threadpool.h"

namespace scnn {
namespace {

/** RAII global-pool resize so tests restore the serial default. */
struct ThreadGuard
{
    explicit ThreadGuard(int threads) { setGlobalThreads(threads); }
    ~ThreadGuard() { setGlobalThreads(1); }
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

TEST(ThreadPool, CoversRangeExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(1000, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i)
            hits[static_cast<size_t>(i)]++;
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline)
{
    ThreadPool pool(1);
    const auto caller = std::this_thread::get_id();
    pool.parallelFor(10, [&](int64_t, int64_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(3);
    EXPECT_THROW(pool.parallelFor(
                     8,
                     [&](int64_t b, int64_t) {
                         if (b == 0)
                             throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
}

TEST(ThreadPool, NestedCallsRunInlineWithoutDeadlock)
{
    ThreadPool pool(2);
    std::atomic<int> total{0};
    pool.parallelFor(4, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i)
            pool.parallelFor(5, [&](int64_t ib, int64_t ie) {
                total += static_cast<int>(ie - ib);
            });
    });
    EXPECT_EQ(total.load(), 20);
}

TEST(ThreadPool, ChunkPartitionIsStatic)
{
    // Chunk boundaries must depend only on (n, threads): collect and
    // verify the partition covers [0, n) in order-independent pieces.
    ThreadPool pool(4);
    std::vector<std::pair<int64_t, int64_t>> chunks(4);
    std::atomic<size_t> slot{0};
    pool.parallelFor(10, [&](int64_t b, int64_t e) {
        chunks[slot++] = {b, e};
    });
    std::sort(chunks.begin(), chunks.end());
    // 10 over 4 threads -> 3,3,2,2.
    EXPECT_EQ(chunks[0], (std::pair<int64_t, int64_t>{0, 3}));
    EXPECT_EQ(chunks[1], (std::pair<int64_t, int64_t>{3, 6}));
    EXPECT_EQ(chunks[2], (std::pair<int64_t, int64_t>{6, 8}));
    EXPECT_EQ(chunks[3], (std::pair<int64_t, int64_t>{8, 10}));
}

TEST(ScratchArena, ScopesRewindAndReuse)
{
    ScratchArena arena;
    float *first;
    {
        auto s1 = arena.scope();
        first = arena.alloc(100);
        first[0] = 1.0f;
        {
            auto s2 = arena.scope();
            float *inner = arena.alloc(200);
            EXPECT_NE(inner, first);
        }
    }
    {
        auto s1 = arena.scope();
        float *again = arena.alloc(100);
        EXPECT_EQ(again, first); // capacity reused, same spot
    }
    const int64_t cap = arena.capacityBytes();
    {
        auto s = arena.scope();
        arena.alloc(50);
        arena.alloc(60);
    }
    EXPECT_EQ(arena.capacityBytes(), cap); // no growth on reuse
}

TEST(ScratchArena, AllocationsAreCacheLineAligned)
{
    ScratchArena arena;
    auto s = arena.scope();
    for (int i = 0; i < 8; ++i) {
        float *p = arena.alloc(17); // deliberately odd size
        EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);
    }
}

TEST(ScratchArena, GrowsAcrossBlocks)
{
    ScratchArena arena;
    auto s = arena.scope();
    float *big = arena.alloc(1 << 20); // forces a dedicated block
    big[0] = 1.0f;
    big[(1 << 20) - 1] = 2.0f;
    EXPECT_GE(arena.capacityBytes(),
              static_cast<int64_t>(sizeof(float)) * (1 << 20));
}

/** Forward + backward conv at a given thread count. */
void
runConv(int threads, Tensor &out, Tensor &gx, Tensor &gw, Tensor &gb)
{
    ThreadGuard guard(threads);
    Rng rng(7);
    Tensor x(Shape{6, 3, 13, 11});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape{5, 3, 3, 3});
    w.fillNormal(rng, 0.0f, 0.5f);
    Tensor b(Shape{5});
    b.fillNormal(rng, 0.0f, 0.5f);
    const Window2d win = Window2d::square(3, 1, 1);

    out = conv2dForward(x, w, b, win);
    Tensor go(out.shape());
    Rng grng(8);
    go.fillNormal(grng, 0.0f, 1.0f);
    gw = Tensor(w.shape());
    gb = Tensor(b.shape());
    conv2dBackward(x, w, go, win, gx, gw, gb);
}

TEST(ParallelDeterminism, ConvForwardBackwardBitwiseAcrossThreads)
{
    Tensor out1, gx1, gw1, gb1;
    runConv(1, out1, gx1, gw1, gb1);
    for (int threads : {2, 4}) {
        Tensor out, gx, gw, gb;
        runConv(threads, out, gx, gw, gb);
        EXPECT_TRUE(bitwiseEqual(out, out1)) << threads << " threads";
        EXPECT_TRUE(bitwiseEqual(gx, gx1)) << threads << " threads";
        EXPECT_TRUE(bitwiseEqual(gw, gw1)) << threads << " threads";
        EXPECT_TRUE(bitwiseEqual(gb, gb1)) << threads << " threads";
    }
}

TEST(ParallelDeterminism, SplitConvBitwiseAcrossThreads)
{
    Rng rng(11);
    Tensor x(Shape{2, 3, 17, 19});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape{4, 3, 3, 3});
    w.fillNormal(rng, 0.0f, 0.5f);
    const Window2d win = Window2d::square(3, 1, 1);
    const auto scheme = splitWindowOp2d(
        win, 17, 19, evenOutputSplit(win.outH(17), 3),
        evenOutputSplit(win.outW(19), 4));

    Tensor ref;
    {
        ThreadGuard g(1);
        ref = splitConv2dForward(x, w, Tensor(), win, scheme);
    }
    for (int threads : {2, 4}) {
        ThreadGuard g(threads);
        Tensor got = splitConv2dForward(x, w, Tensor(), win, scheme);
        EXPECT_TRUE(bitwiseEqual(got, ref)) << threads << " threads";
    }
}

TEST(ParallelDeterminism, PoolBitwiseAcrossThreads)
{
    Rng rng(13);
    Tensor x(Shape{5, 4, 12, 14});
    x.fillNormal(rng, 0.0f, 1.0f);
    const Window2d pwin = Window2d::square(2, 2, 0);

    Tensor pool1;
    std::vector<int64_t> am1;
    {
        ThreadGuard g(1);
        pool1 = maxPool2dForward(x, pwin, am1);
    }
    for (int threads : {2, 4}) {
        ThreadGuard g(threads);
        std::vector<int64_t> am;
        Tensor pool = maxPool2dForward(x, pwin, am);
        EXPECT_TRUE(bitwiseEqual(pool, pool1));
        EXPECT_EQ(am, am1);
    }
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

/** The fused zero-copy split conv must produce the same bytes at any
 * pool size — its work list is a function of shapes alone, and every
 * item writes a disjoint output region. Both microkernels are swept
 * across 1/2/4/8 threads. */
TEST(ParallelDeterminism, FusedSplitConvBitwiseAcrossThreads)
{
    Rng rng(17);
    Tensor x(Shape{2, 3, 34, 30});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape{8, 3, 3, 3});
    w.fillNormal(rng, 0.0f, 0.4f);
    Tensor b(Shape{8});
    b.fillNormal(rng, 0.0f, 0.4f);
    const Window2d win = Window2d::square(3, 1, 1);
    const auto scheme = splitWindowOp2d(
        win, 34, 30, evenOutputSplit(win.outH(34), 2),
        evenOutputSplit(win.outW(30), 2));

    for (const bool simd : {false, true}) {
        if (simd && !simdAvailable())
            continue;
        ScopedSimd pin(simd);
        Tensor ref;
        {
            ThreadGuard g(1);
            ref = splitConv2dForward(x, w, b, win, scheme);
        }
        for (int threads : {2, 4, 8}) {
            ThreadGuard g(threads);
            Tensor got = splitConv2dForward(x, w, b, win, scheme);
            EXPECT_TRUE(bitwiseEqual(got, ref))
                << threads << " threads, simd=" << simd;
        }
    }
}

/** The determinism carve-out on a real workload (vgg19 conv3-class
 * shape): the SIMD split conv need not match scalar bitwise but must
 * stay within 1e-5 relative tolerance. */
TEST(ParallelDeterminism, FusedSplitConvSimdMatchesScalarClosely)
{
    if (!simdAvailable())
        GTEST_SKIP() << "no SIMD kernel on this build/CPU";
    Rng rng(19);
    // vgg19 conv3_1 geometry at a reduced batch: 256 channels in,
    // 256 out, 56x56 spatial, 3x3/1 windows, 2x2 split.
    Tensor x(Shape{1, 256, 56, 56});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape{256, 256, 3, 3});
    w.fillNormal(rng, 0.0f, 0.05f);
    Tensor b(Shape{256});
    b.fillNormal(rng, 0.0f, 0.05f);
    const Window2d win = Window2d::square(3, 1, 1);
    const auto scheme = splitWindowOp2d(
        win, 56, 56, evenOutputSplit(win.outH(56), 2),
        evenOutputSplit(win.outW(56), 2));

    Tensor scalar_out, simd_out;
    {
        ScopedSimd pin(false);
        scalar_out = splitConv2dForward(x, w, b, win, scheme);
    }
    {
        ScopedSimd pin(true);
        simd_out = splitConv2dForward(x, w, b, win, scheme);
    }
    ASSERT_EQ(scalar_out.shape(), simd_out.shape());
    // Relative to the accumulation magnitude: k = 256*9 products of
    // ~N(0,1)*N(0,0.05) terms, so |out| is O(2); 1e-5 relative is a
    // tight bound for a reordered float sum of that length.
    double max_rel = 0.0;
    for (int64_t i = 0; i < scalar_out.numel(); ++i) {
        const double ref = scalar_out.at(i);
        const double got = simd_out.at(i);
        const double rel = std::fabs(got - ref) /
                           std::max(1.0, std::fabs(ref));
        max_rel = std::max(max_rel, rel);
    }
    EXPECT_LT(max_rel, 1e-5);
}

TEST(ParallelDeterminism, SplitConvBackwardBitwiseAcrossThreads)
{
    // The wave decomposition serializes every overlapping
    // accumulation (a worker owns its image's bands; per-image wgrad
    // partials reduce in image order after each wave), so dgrad,
    // wgrad and bias gradients are bitwise-identical for any thread
    // count under either microkernel.
    Rng rng(23);
    Tensor x(Shape{5, 3, 20, 18});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape{6, 3, 3, 3});
    w.fillNormal(rng, 0.0f, 0.4f);
    const Window2d win = Window2d::square(3, 1, 1);
    const auto scheme = splitWindowOp2d(
        win, 20, 18, evenOutputSplit(win.outH(20), 2),
        evenOutputSplit(win.outW(18), 3));
    Tensor go(Shape{5, 6, win.outH(20), win.outW(18)});
    go.fillNormal(rng, 0.0f, 1.0f);

    for (const bool simd : {false, true}) {
        if (simd && !simdAvailable())
            continue;
        ScopedSimd pin(simd);
        Tensor gx1, gb1(Shape{6});
        Tensor gw1(w.shape());
        {
            ThreadGuard g(1);
            splitConv2dBackward(x, w, go, win, scheme, gx1, gw1, gb1);
        }
        for (int threads : {2, 4, 8}) {
            ThreadGuard g(threads);
            Tensor gx, gb(Shape{6});
            Tensor gw(w.shape());
            splitConv2dBackward(x, w, go, win, scheme, gx, gw, gb);
            EXPECT_TRUE(bitwiseEqual(gx, gx1))
                << threads << " threads, simd=" << simd;
            EXPECT_TRUE(bitwiseEqual(gw, gw1))
                << threads << " threads, simd=" << simd;
            EXPECT_TRUE(bitwiseEqual(gb, gb1))
                << threads << " threads, simd=" << simd;
        }
    }
}

TEST(ParallelDeterminism, SplitPoolBackwardBitwiseAcrossThreads)
{
    // Image-parallel scatter with patches serial ascending inside
    // each image: halo accumulation order is pinned per image, so
    // both fused pool backwards are bitwise across thread counts.
    Rng rng(29);
    Tensor x(Shape{5, 4, 17, 15});
    x.fillNormal(rng, 0.0f, 1.0f);
    const Window2d win = Window2d::square(3, 1, 1);
    const auto scheme = splitWindowOp2d(
        win, 17, 15, evenOutputSplit(win.outH(17), 2),
        evenOutputSplit(win.outW(15), 2));
    std::vector<int64_t> argmax;
    const Tensor out = maxPool2dForward(x, win, argmax);
    Tensor go(out.shape());
    go.fillNormal(rng, 0.0f, 1.0f);

    Tensor max1, avg1;
    {
        ThreadGuard g(1);
        max1 = splitMaxPool2dBackward(x.shape(), go, argmax, scheme);
        avg1 = splitAvgPool2dBackward(x.shape(), go, win, scheme);
    }
    for (int threads : {2, 4, 8}) {
        ThreadGuard g(threads);
        const Tensor maxg = splitMaxPool2dBackward(
            x.shape(), go, argmax, scheme);
        const Tensor avgg =
            splitAvgPool2dBackward(x.shape(), go, win, scheme);
        EXPECT_TRUE(bitwiseEqual(maxg, max1)) << threads << " threads";
        EXPECT_TRUE(bitwiseEqual(avgg, avg1)) << threads << " threads";
    }
}

/** One training forward/backward on a split graph; returns logits and
 * leaves gradients + BN running stats in the param store. */
Tensor
runSplitGraphStep(int threads, const Graph &split, ParamStore &params,
                  const Tensor &input, ForwardCache &cache)
{
    ThreadGuard guard(threads);
    Executor ex(split, params);
    Tensor logits = ex.forward(input, /*training=*/true, &cache);
    Tensor go(logits.shape(), 1.0f);
    ex.backward(cache, go);
    return logits;
}

TEST(ParallelDeterminism, SplitGraphExecutorBitwiseAcrossThreads)
{
    // Small conv/BN/pool net, split 2x2 — BN patch clones share
    // running stats, exercising the deferred-update path.
    GraphBuilder b;
    TensorId x = b.input(Shape{2, 3, 16, 16});
    x = b.conv2d(x, 4, Window2d::square(3, 1, 1), true, "conv1");
    x = b.batchNorm(x, "bn1");
    x = b.relu(x, "relu1");
    x = b.conv2d(x, 4, Window2d::square(3, 1, 1), false, "conv2");
    x = b.maxPool(x, Window2d::square(2, 2, 0), "pool1");
    b.markCutPoint(x);
    x = b.flatten(x);
    x = b.linear(x, 5, true, "fc");
    Graph g = b.build();

    SplitOptions opts;
    opts.depth = 1.0;
    opts.splits_h = 2;
    opts.splits_w = 2;
    Graph split = splitCnnTransform(g, opts, nullptr);

    Tensor input(Shape{2, 3, 16, 16});
    Rng drng(3);
    input.fillNormal(drng, 0.0f, 1.0f);

    // Reference at 1 thread.
    Rng rng1(5);
    ParamStore p1(split, rng1);
    ForwardCache c1;
    p1.zeroGrad();
    Tensor logits1 = runSplitGraphStep(1, split, p1, input, c1);

    for (int threads : {2, 4}) {
        Rng rng(5);
        ParamStore p(split, rng);
        ForwardCache c;
        p.zeroGrad();
        Tensor logits = runSplitGraphStep(threads, split, p, input, c);
        EXPECT_TRUE(bitwiseEqual(logits, logits1))
            << threads << " threads";
        for (ParamId id = 0;
             id < static_cast<ParamId>(p.size()); ++id) {
            EXPECT_TRUE(bitwiseEqual(p.value(id), p1.value(id)))
                << "param value " << id << " at " << threads
                << " threads"; // includes BN running stats
            EXPECT_TRUE(bitwiseEqual(p.grad(id), p1.grad(id)))
                << "param grad " << id << " at " << threads
                << " threads";
        }
    }
}

TEST(TensorStorage, UninitializedHasShapeAndIsWritable)
{
    Tensor t = Tensor::uninitialized(Shape{3, 4});
    EXPECT_EQ(t.numel(), 12);
    for (int64_t i = 0; i < t.numel(); ++i)
        t.at(i) = static_cast<float>(i);
    EXPECT_EQ(t.at(11), 11.0f);
}

TEST(TensorStorage, ZeroInitConstructorsStillZero)
{
    Tensor a(Shape{2, 3});
    for (int64_t i = 0; i < a.numel(); ++i)
        EXPECT_EQ(a.at(i), 0.0f);
    Tensor b(Shape{2, 3}, 2.5f);
    for (int64_t i = 0; i < b.numel(); ++i)
        EXPECT_EQ(b.at(i), 2.5f);
}

TEST(TensorStorage, RvalueReshapeMovesStorage)
{
    Tensor t(Shape{2, 6});
    t.at(7) = 3.0f;
    const float *before = t.data();
    Tensor r = std::move(t).reshape(Shape{3, 4});
    EXPECT_EQ(r.data(), before); // no copy
    EXPECT_EQ(r.at(7), 3.0f);
    EXPECT_EQ(r.shape(), Shape({3, 4}));
}

TEST(TensorStorage, LvalueReshapeCopies)
{
    Tensor t(Shape{2, 6});
    t.at(5) = 4.0f;
    Tensor r = t.reshape(Shape{12});
    EXPECT_NE(r.data(), t.data());
    EXPECT_EQ(r.at(5), 4.0f);
    EXPECT_EQ(t.at(5), 4.0f); // source intact
}

} // namespace
} // namespace scnn
