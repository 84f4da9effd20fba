/**
 * @file
 * Kernel microbenchmarks (google-benchmark): GEMM, im2col
 * convolution, pooling, batchnorm, the weight-panel cache's content
 * hash against the pack it saves, and the split/concat tensor ops
 * that implement Split-CNN's Slice/Concat graph nodes. Not a paper
 * figure — sanity numbers for the CPU execution engine.
 */
#include <benchmark/benchmark.h>

#include "core/split_op.h"
#include "kernels/batchnorm.h"
#include "kernels/conv2d.h"
#include "kernels/gemm.h"
#include "kernels/pool2d.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace scnn {
namespace {

using GemmFn = void (*)(int64_t, int64_t, int64_t, float, const float *,
                        const float *, float, float *);

void
runGemmBench(benchmark::State &state, GemmFn fn)
{
    const int64_t n = state.range(0);
    Rng rng(1);
    std::vector<float> a(n * n), b(n * n), c(n * n);
    for (auto &v : a)
        v = rng.normal();
    for (auto &v : b)
        v = rng.normal();
    for (auto _ : state) {
        fn(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}

/** Runtime-dispatched kernel (what the engine actually calls). */
void
BM_Gemm(benchmark::State &state)
{
    runGemmBench(state, gemm);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void
BM_GemmNaive(benchmark::State &state)
{
    runGemmBench(state, gemmNaive);
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128)->Arg(256);

void
BM_GemmBlocked(benchmark::State &state)
{
    runGemmBench(state, gemmBlocked);
}
BENCHMARK(BM_GemmBlocked)->Arg(64)->Arg(128)->Arg(256);

void
BM_GemmTNBlocked(benchmark::State &state)
{
    runGemmBench(state, gemmTNBlocked);
}
BENCHMARK(BM_GemmTNBlocked)->Arg(64)->Arg(128)->Arg(256);

void
BM_GemmNTBlocked(benchmark::State &state)
{
    runGemmBench(state, gemmNTBlocked);
}
BENCHMARK(BM_GemmNTBlocked)->Arg(64)->Arg(128)->Arg(256);

void
BM_Conv2dForward(benchmark::State &state)
{
    const int64_t c = state.range(0);
    Rng rng(2);
    Tensor x(Shape{1, c, 32, 32});
    Tensor w(Shape{c, c, 3, 3});
    x.fillNormal(rng, 0.0f, 1.0f);
    w.fillNormal(rng, 0.0f, 0.1f);
    const Window2d win = Window2d::square(3, 1, 1);
    for (auto _ : state) {
        Tensor out = conv2dForward(x, w, Tensor(), win);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_Conv2dForward)->Arg(8)->Arg(16)->Arg(32);

void
BM_SplitConv2dForward(benchmark::State &state)
{
    // The same conv executed patch-wise (2x2 split): quantifies the
    // per-patch overhead of Split-CNN's eager executor.
    const int64_t c = state.range(0);
    Rng rng(3);
    Tensor x(Shape{1, c, 32, 32});
    Tensor w(Shape{c, c, 3, 3});
    x.fillNormal(rng, 0.0f, 1.0f);
    w.fillNormal(rng, 0.0f, 0.1f);
    const Window2d win = Window2d::square(3, 1, 1);
    const auto scheme =
        splitWindowOp2d(win, 32, 32, evenOutputSplit(32, 2),
                        evenOutputSplit(32, 2));
    for (auto _ : state) {
        Tensor out = splitConv2dForward(x, w, Tensor(), win, scheme);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_SplitConv2dForward)->Arg(8)->Arg(16)->Arg(32);

/** A 128x1152 weight (128 output channels, 128x3x3 inputs): what a
 * split-cache hit costs (the content hash) against what it saves
 * (packing the GEMM A panels). */
void
BM_WeightCacheHash(benchmark::State &state)
{
    Rng rng(7);
    Tensor w(Shape{128, 128, 3, 3});
    w.fillNormal(rng, 0.0f, 0.1f);
    for (auto _ : state)
        benchmark::DoNotOptimize(splitWeightCacheHash(w.data(), w.numel()));
    state.SetBytesProcessed(state.iterations() * w.numel() *
                            int64_t(sizeof(float)));
}
BENCHMARK(BM_WeightCacheHash);

void
BM_WeightPackA(benchmark::State &state)
{
    Rng rng(7);
    Tensor w(Shape{128, 128, 3, 3});
    w.fillNormal(rng, 0.0f, 0.1f);
    std::vector<float> panels(
        static_cast<size_t>(gemmPackedASize(128, 1152) + 16));
    // 64-byte aligned, as the packers require.
    auto addr = reinterpret_cast<uintptr_t>(panels.data());
    float *pa = reinterpret_cast<float *>((addr + 63) & ~uintptr_t{63});
    for (auto _ : state) {
        gemmPackA(128, 1152, 1.0f, w.data(), pa);
        benchmark::DoNotOptimize(pa);
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() * w.numel() *
                            int64_t(sizeof(float)));
}
BENCHMARK(BM_WeightPackA);

void
BM_MaxPool(benchmark::State &state)
{
    Rng rng(4);
    Tensor x(Shape{8, 32, 32, 32});
    x.fillNormal(rng, 0.0f, 1.0f);
    const Window2d win = Window2d::square(2, 2, 0);
    std::vector<int64_t> argmax;
    for (auto _ : state) {
        Tensor out = maxPool2dForward(x, win, argmax);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_MaxPool);

void
BM_BatchNormForward(benchmark::State &state)
{
    Rng rng(5);
    Tensor x(Shape{16, 32, 16, 16});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor gamma(Shape{32}, 1.0f), beta(Shape{32});
    Tensor rm(Shape{32}), rv(Shape{32}, 1.0f);
    BatchNormCache cache;
    for (auto _ : state) {
        Tensor out = batchNormForward(x, gamma, beta, rm, rv, 0.1f,
                                      1e-5f, cache);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_BatchNormForward);

void
BM_SplitConcatRoundTrip(benchmark::State &state)
{
    Rng rng(6);
    Tensor x(Shape{8, 64, 32, 32});
    x.fillNormal(rng, 0.0f, 1.0f);
    for (auto _ : state) {
        auto parts = splitDim(x, 3, {0, 8, 16, 24});
        Tensor back = concatDim(parts, 3);
        benchmark::DoNotOptimize(back.data());
    }
    state.SetBytesProcessed(state.iterations() * x.bytes() * 2);
}
BENCHMARK(BM_SplitConcatRoundTrip);

} // namespace
} // namespace scnn

BENCHMARK_MAIN();
