/**
 * @file
 * Kernel performance report: measures the blocked GEMM against the
 * naive reference and under each microkernel, im2col convolution
 * forward, and the fused zero-copy split conv across thread counts
 * and split depths, then writes machine-readable results to
 * BENCH_kernels.json (path overridable as argv[1]).
 *
 * Workloads are width-reduced stand-ins for the Figure 8 layers (the
 * real fig08 harness drives the device *simulator*; this one times
 * the actual CPU engine). Run from a Release/-O2 build; CI diffs the
 * JSON against the committed copy in the perf-regression gate and
 * uploads it as an artifact.
 *
 * Every split measurement records the thread count it actually ran
 * with, and each split depth reports split_overhead_ratio =
 * split ms / unsplit ms at the same thread count — the number the
 * zero-copy rewrite exists to keep near 1.0. The split_backward
 * sweep applies the same protocol to the band-fused backward pass
 * (dgrad + wgrad + bias vs the unsplit conv2dBackward). The
 * small_spatial_conv rows time the unsplit forward + backward of the
 * 4x4 and 2x2 layers a deep split prefix leaves behind, where the
 * band engine groups images into one GEMM (reported, not gated).
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "kernels/conv2d.h"
#include "kernels/im2col.h"
#include "kernels/gemm.h"
#include "kernels/microkernel.h"
#include "kernels/pool2d.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace scnn {
namespace {

/** Median-of-repeats wall time of fn(), in seconds. */
template <typename Fn>
double
timeIt(Fn &&fn, int repeats = 5)
{
    fn(); // warm caches and the scratch arena
    std::vector<double> times;
    times.reserve(static_cast<size_t>(repeats));
    for (int r = 0; r < repeats; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        times.push_back(
            std::chrono::duration<double>(t1 - t0).count());
    }
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
}

using GemmFn = void (*)(int64_t, int64_t, int64_t, float, const float *,
                        const float *, float, float *);

struct GemmResult
{
    const char *kind;
    int64_t size;
    double naive_gflops;
    double blocked_gflops;
};

/** GF/s of one n x n x n call of @p fn under the active microkernel. */
double
gemmGflops(GemmFn fn, int64_t n)
{
    Rng rng(1);
    std::vector<float> a(static_cast<size_t>(n * n));
    std::vector<float> b(static_cast<size_t>(n * n));
    std::vector<float> c(static_cast<size_t>(n * n));
    for (auto &v : a)
        v = rng.normal();
    for (auto &v : b)
        v = rng.normal();
    // Repeat inside the timed region so small sizes aren't all noise.
    const int inner = n >= 256 ? 4 : 32;
    const double t = timeIt([&] {
        for (int i = 0; i < inner; ++i)
            fn(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    });
    return 2.0 * n * n * n * inner / t / 1e9;
}

GemmResult
benchGemm(const char *kind, GemmFn naive, GemmFn blocked, int64_t n)
{
    return {kind, n, gemmGflops(naive, n), gemmGflops(blocked, n)};
}

/** One split-conv measurement: fused split at a given depth and
 * thread count, plus the unsplit conv at the same thread count. */
struct SplitResult
{
    int depth;   ///< depth x depth spatial split
    int threads; ///< pool size the measurement ran with
    double split_ms;
    double unsplit_ms;

    double overheadRatio() const { return split_ms / unsplit_ms; }
};

} // namespace
} // namespace scnn

int
main(int argc, char **argv)
{
    using namespace scnn;
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_kernels.json";
    const unsigned hw_threads = std::thread::hardware_concurrency();

    // --- GEMM: naive vs blocked --------------------------------------
    std::vector<GemmResult> gemms;
    for (int64_t n : {64, 128, 256}) {
        gemms.push_back(benchGemm("NN", gemmNaive, gemmBlocked, n));
        gemms.push_back(
            benchGemm("TN", gemmTNNaive, gemmTNBlocked, n));
        gemms.push_back(
            benchGemm("NT", gemmNTNaive, gemmNTBlocked, n));
    }

    // --- blocked GEMM under each microkernel --------------------------
    // 256^3 NN under the scalar reference and (when the CPU has it) the
    // AVX2/FMA tile. The AVX2 tile does 8-wide FMAs against the scalar
    // kernel's 4-wide mul+add; when its accumulators spill to the stack
    // the ratio falls to ~1.4, and check_bench.py fails it below 2.
    const bool simd_default = simdEnabled();
    setSimdEnabled(false);
    const double scalar_gflops = gemmGflops(gemmBlocked, 256);
    double avx2_gflops = 0.0;
    if (simdAvailable()) {
        setSimdEnabled(true);
        avx2_gflops = gemmGflops(gemmBlocked, 256);
    }
    setSimdEnabled(simd_default);

    // --- conv2d forward (fig08-style layer, width-reduced) -----------
    // VGG-19 conv3 block at 1/8 width: 16x56x56 input, 3x3 kernels.
    Rng rng(2);
    Tensor cx(Shape{4, 16, 56, 56});
    Tensor cw(Shape{16, 16, 3, 3});
    cx.fillNormal(rng, 0.0f, 1.0f);
    cw.fillNormal(rng, 0.0f, 0.1f);
    const Window2d cwin = Window2d::square(3, 1, 1);
    setGlobalThreads(1);
    const double conv_ms = timeIt([&] {
                               Tensor out = conv2dForward(
                                   cx, cw, Tensor(), cwin);
                           }) *
                           1e3;

    // --- fused split conv: depth x thread sweep -----------------------
    const int thread_counts[] = {1, 2, 4, 8};
    const int depths[] = {2, 4};
    std::vector<SplitResult> splits;
    for (int depth : depths) {
        const auto scheme = splitWindowOp2d(
            cwin, 56, 56, evenOutputSplit(cwin.outH(56), depth),
            evenOutputSplit(cwin.outW(56), depth));
        for (int threads : thread_counts) {
            setGlobalThreads(threads);
            SplitResult r;
            r.depth = depth;
            r.threads = threads;
            // More repeats than the GEMM section: the overhead
            // ratio is a quotient of two medians, so both sides need
            // a stable one (the CI gate thresholds this number).
            r.split_ms = timeIt(
                             [&] {
                                 Tensor out = splitConv2dForward(
                                     cx, cw, Tensor(), cwin, scheme);
                             },
                             11) *
                         1e3;
            r.unsplit_ms = timeIt(
                               [&] {
                                   Tensor out = conv2dForward(
                                       cx, cw, Tensor(), cwin);
                               },
                               11) *
                           1e3;
            splits.push_back(r);
        }
    }
    setGlobalThreads(1);

    // --- small-spatial conv: image-grouped GEMMs ---------------------
    // The tail layers of a VGG-19 split prefix at 1/4 width: 128
    // channels in and out on 4x4 and 2x2 maps, batch 8, 3x3 pad 1, 1
    // thread. One image's column matrix is tiny here, so the band
    // engine stages several images side by side per GEMM.
    struct SmallConvResult
    {
        int64_t hw;
        double fwd_ms, bwd_ms, gflops;
    };
    std::vector<SmallConvResult> small_convs;
    for (const int64_t hw : {int64_t{4}, int64_t{2}}) {
        Rng srng(3);
        Tensor sx(Shape{8, 128, hw, hw});
        Tensor sw(Shape{128, 128, 3, 3});
        Tensor sgo(Shape{8, 128, hw, hw});
        sx.fillNormal(srng, 0.0f, 1.0f);
        sw.fillNormal(srng, 0.0f, 0.1f);
        sgo.fillNormal(srng, 0.0f, 1.0f);
        SmallConvResult r;
        r.hw = hw;
        r.fwd_ms = timeIt(
                       [&] {
                           Tensor out =
                               conv2dForward(sx, sw, Tensor(), cwin);
                       },
                       11) *
                   1e3;
        r.bwd_ms = timeIt(
                       [&] {
                           Tensor gx, gb;
                           Tensor gw(sw.shape());
                           conv2dBackward(sx, sw, sgo, cwin, gx, gw, gb);
                       },
                       11) *
                   1e3;
        // Forward is one GEMM's worth of flops, backward two (dgrad
        // and wgrad).
        const double gemm_flops = 2.0 * 8 * 128 * (128 * 9) * hw * hw;
        r.gflops = 3.0 * gemm_flops / ((r.fwd_ms + r.bwd_ms) * 1e-3) / 1e9;
        small_convs.push_back(r);
    }

    // --- strided im2col staging ---------------------------------------
    // Stride-2 staging used to walk every element behind a bounds
    // branch; it now memsets the flanks and gathers the middle over a
    // hoisted valid range, mirroring the stride-1 memcpy path. Report
    // the column fill rate at both strides (GB/s of produced column
    // data, 64x56x56 input, 3x3 kernel, pad 1, 1 thread) over the
    // whole-image scheme: row clip [0, ih), no width cuts.
    double i2c_s1_gbps = 0.0, i2c_s2_gbps = 0.0;
    {
        const int64_t bc = 64, bih = 56, biw = 56;
        Rng irng(5);
        Tensor ix(Shape{1, bc, bih, biw});
        ix.fillNormal(irng, 0.0f, 1.0f);
        auto fillRate = [&](const Window2d &w) {
            const int64_t oh = w.outH(bih), ow = w.outW(biw);
            const int64_t krows = bc * w.kh * w.kw;
            std::vector<float> col(
                static_cast<size_t>(krows * oh * ow));
            const SplitScheme1d whole = wholeImageScheme(w, bih, biw).w;
            const double s = timeIt(
                [&] {
                    im2colViewStrided(ix.data(), bc, bih, biw, w, whole, 0,
                                      bih, 0, oh, col.data(), oh * ow, ow);
                },
                11);
            return static_cast<double>(krows * oh * ow) *
                   sizeof(float) / (s * 1e9);
        };
        i2c_s1_gbps = fillRate(Window2d::square(3, 1, 1));
        i2c_s2_gbps = fillRate(Window2d::square(3, 2, 1));
    }

    // --- fused split pooling: depth x thread sweep --------------------
    // 3x3 stride-2 max pool over the conv input; overhead ratio is
    // fused split pool / unsplit pool at the same thread count.
    const Window2d pwin = Window2d::square(3, 2, 1);
    std::vector<SplitResult> pool_splits;
    for (int depth : depths) {
        const auto scheme = splitWindowOp2d(
            pwin, 56, 56, evenOutputSplit(pwin.outH(56), depth),
            evenOutputSplit(pwin.outW(56), depth));
        for (int threads : thread_counts) {
            setGlobalThreads(threads);
            SplitResult r;
            r.depth = depth;
            r.threads = threads;
            r.split_ms = timeIt(
                             [&] {
                                 std::vector<int64_t> argmax;
                                 Tensor out = splitMaxPool2dForward(
                                     cx, pwin, scheme, argmax);
                             },
                             11) *
                         1e3;
            r.unsplit_ms = timeIt(
                               [&] {
                                   std::vector<int64_t> argmax;
                                   Tensor out = maxPool2dForward(
                                       cx, pwin, argmax);
                               },
                               11) *
                           1e3;
            pool_splits.push_back(r);
        }
    }
    setGlobalThreads(1);

    // --- band-fused split backward: depth x thread sweep --------------
    // Same conv3-style layer as the forward sweep; the fused split
    // backward (dgrad + wgrad + bias) is timed against the unsplit
    // conv2dBackward at the same thread count. Both sides run the
    // identical band-pipelined GEMM engine and each packs its W^T
    // panels once per call, so the ratio isolates the split
    // bookkeeping (per-patch staging, halo scatter) the zero-copy
    // rewrite exists to keep near 1.0.
    std::vector<SplitResult> backward_splits;
    {
        Rng brng(4);
        Tensor bgo(Shape{4, 16, 56, 56});
        bgo.fillNormal(brng, 0.0f, 1.0f);
        for (int depth : depths) {
            const auto scheme = splitWindowOp2d(
                cwin, 56, 56, evenOutputSplit(cwin.outH(56), depth),
                evenOutputSplit(cwin.outW(56), depth));
            for (int threads : thread_counts) {
                setGlobalThreads(threads);
                SplitResult r;
                r.depth = depth;
                r.threads = threads;
                r.split_ms =
                    timeIt(
                        [&] {
                            Tensor gx, gb;
                            Tensor gw(cw.shape());
                            splitConv2dBackward(cx, cw, bgo, cwin,
                                                scheme, gx, gw, gb);
                        },
                        11) *
                    1e3;
                r.unsplit_ms =
                    timeIt(
                        [&] {
                            Tensor gx, gb;
                            Tensor gw(cw.shape());
                            conv2dBackward(cx, cw, bgo, cwin, gx, gw,
                                           gb);
                        },
                        11) *
                    1e3;
                backward_splits.push_back(r);
            }
        }
        setGlobalThreads(1);
    }

    auto findIn = [](const std::vector<SplitResult> &v, int depth,
                     int threads) -> const SplitResult & {
        for (const auto &r : v)
            if (r.depth == depth && r.threads == threads)
                return r;
        std::fprintf(stderr, "missing measurement\n");
        std::abort();
    };
    auto findSplit = [&](int depth, int threads) -> const SplitResult & {
        return findIn(splits, depth, threads);
    };

    // --- report -------------------------------------------------------
    FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"simd_kernel\": \"%s\",\n", simdKernelName());
    std::fprintf(f, "  \"hardware_threads\": %u,\n", hw_threads);
    std::fprintf(f, "  \"gemm\": [\n");
    for (size_t i = 0; i < gemms.size(); ++i) {
        const auto &g = gemms[i];
        std::fprintf(f,
                     "    {\"kind\": \"%s\", \"size\": %lld, "
                     "\"naive_gflops\": %.2f, \"blocked_gflops\": "
                     "%.2f, \"speedup\": %.2f}%s\n",
                     g.kind, static_cast<long long>(g.size),
                     g.naive_gflops, g.blocked_gflops,
                     g.blocked_gflops / g.naive_gflops,
                     i + 1 < gemms.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    char avx2_field[32] = "null";
    if (simdAvailable())
        std::snprintf(avx2_field, sizeof(avx2_field), "%.2f", avx2_gflops);
    std::fprintf(f,
                 "  \"microkernel_gflops\": {\"workload\": \"256^3 NN "
                 "gemmBlocked, 1 thread\", \"scalar\": %.2f, "
                 "\"avx2\": %s},\n",
                 scalar_gflops, avx2_field);
    std::fprintf(f,
                 "  \"conv2d_forward\": {\"workload\": "
                 "\"4x16x56x56 * 16x16x3x3 (vgg19 conv3 @ 1/8 "
                 "width)\", \"threads\": 1, \"ms\": %.3f},\n",
                 conv_ms);
    std::fprintf(f, "  \"split_conv\": [\n");
    for (size_t i = 0; i < splits.size(); ++i) {
        const auto &r = splits[i];
        std::fprintf(
            f,
            "    {\"split\": \"%dx%d\", \"threads\": %d, "
            "\"split_ms\": %.3f, \"unsplit_ms\": %.3f, "
            "\"split_overhead_ratio\": %.3f}%s\n",
            r.depth, r.depth, r.threads, r.split_ms, r.unsplit_ms,
            r.overheadRatio(), i + 1 < splits.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"split_conv_summary\": {\n");
    for (size_t i = 0; i < std::size(depths); ++i) {
        const int depth = depths[i];
        const SplitResult &t1 = findSplit(depth, 1);
        const SplitResult &t4 = findSplit(depth, 4);
        std::fprintf(
            f,
            "    \"%dx%d\": {\"split_overhead_ratio_1t\": %.3f, "
            "\"speedup_4t\": %.2f}%s\n",
            depth, depth, t1.overheadRatio(),
            t1.split_ms / t4.split_ms,
            i + 1 < std::size(depths) ? "," : "");
    }
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"small_spatial_conv\": [\n");
    for (size_t i = 0; i < small_convs.size(); ++i) {
        const auto &r = small_convs[i];
        std::fprintf(f,
                     "    {\"workload\": \"8x128x%lldx%lld * 128x128x3x3, "
                     "1 thread\", \"forward_ms\": %.3f, "
                     "\"backward_ms\": %.3f, \"gflops\": %.2f}%s\n",
                     static_cast<long long>(r.hw),
                     static_cast<long long>(r.hw), r.fwd_ms, r.bwd_ms,
                     r.gflops, i + 1 < small_convs.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"im2col_strided\": {\"workload\": \"64x56x56, "
                 "3x3 pad 1, full view, 1 thread\", "
                 "\"stride1_fill_gbps\": %.2f, \"stride2_fill_gbps\": "
                 "%.2f},\n",
                 i2c_s1_gbps, i2c_s2_gbps);
    std::fprintf(f, "  \"split_pool\": [\n");
    for (size_t i = 0; i < pool_splits.size(); ++i) {
        const auto &r = pool_splits[i];
        std::fprintf(
            f,
            "    {\"split\": \"%dx%d\", \"threads\": %d, "
            "\"split_ms\": %.3f, \"unsplit_ms\": %.3f, "
            "\"split_pool_overhead_ratio\": %.3f}%s\n",
            r.depth, r.depth, r.threads, r.split_ms, r.unsplit_ms,
            r.overheadRatio(), i + 1 < pool_splits.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"split_pool_summary\": {\n");
    for (size_t i = 0; i < std::size(depths); ++i) {
        const int depth = depths[i];
        const SplitResult &t1 = findIn(pool_splits, depth, 1);
        const SplitResult &t4 = findIn(pool_splits, depth, 4);
        std::fprintf(
            f,
            "    \"%dx%d\": {\"split_pool_overhead_ratio_1t\": %.3f, "
            "\"speedup_4t\": %.2f}%s\n",
            depth, depth, t1.overheadRatio(),
            t1.split_ms / t4.split_ms,
            i + 1 < std::size(depths) ? "," : "");
    }
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"split_backward\": [\n");
    for (size_t i = 0; i < backward_splits.size(); ++i) {
        const auto &r = backward_splits[i];
        std::fprintf(
            f,
            "    {\"split\": \"%dx%d\", \"threads\": %d, "
            "\"split_ms\": %.3f, \"unsplit_ms\": %.3f, "
            "\"split_backward_overhead_ratio\": %.3f}%s\n",
            r.depth, r.depth, r.threads, r.split_ms, r.unsplit_ms,
            r.overheadRatio(),
            i + 1 < backward_splits.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"split_backward_summary\": {\n");
    for (size_t i = 0; i < std::size(depths); ++i) {
        const int depth = depths[i];
        const SplitResult &t1 = findIn(backward_splits, depth, 1);
        const SplitResult &t4 = findIn(backward_splits, depth, 4);
        std::fprintf(
            f,
            "    \"%dx%d\": {\"split_backward_overhead_ratio_1t\": "
            "%.3f, \"speedup_4t\": %.2f}%s\n",
            depth, depth, t1.overheadRatio(),
            t1.split_ms / t4.split_ms,
            i + 1 < std::size(depths) ? "," : "");
    }
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);

    std::printf("wrote %s\n", out_path.c_str());
    std::printf("simd kernel: %s, hardware threads: %u\n",
                simdKernelName(), hw_threads);
    for (const auto &g : gemms)
        std::printf("gemm %s %lld: naive %.2f GF/s, blocked %.2f "
                    "GF/s (%.2fx)\n",
                    g.kind, static_cast<long long>(g.size),
                    g.naive_gflops, g.blocked_gflops,
                    g.blocked_gflops / g.naive_gflops);
    std::printf("gemm 256 NN blocked: scalar %.2f GF/s, avx2 %.2f "
                "GF/s\n",
                scalar_gflops, avx2_gflops);
    std::printf("conv2d fwd (1t): %.3f ms\n", conv_ms);
    for (const auto &r : splits)
        std::printf("split %dx%d @ %dt: split %.3f ms, unsplit %.3f "
                    "ms, overhead %.2fx\n",
                    r.depth, r.depth, r.threads, r.split_ms,
                    r.unsplit_ms, r.overheadRatio());
    for (const auto &r : small_convs)
        std::printf("small conv 8x128x%lldx%lld (1t): forward %.3f ms, "
                    "backward %.3f ms, %.2f GFLOP/s\n",
                    static_cast<long long>(r.hw),
                    static_cast<long long>(r.hw), r.fwd_ms, r.bwd_ms,
                    r.gflops);
    std::printf("im2col fill rate (1t): stride 1 %.2f GB/s, stride 2 "
                "%.2f GB/s\n",
                i2c_s1_gbps, i2c_s2_gbps);
    for (const auto &r : pool_splits)
        std::printf("split pool %dx%d @ %dt: split %.3f ms, unsplit "
                    "%.3f ms, overhead %.2fx\n",
                    r.depth, r.depth, r.threads, r.split_ms,
                    r.unsplit_ms, r.overheadRatio());
    for (const auto &r : backward_splits)
        std::printf("split backward %dx%d @ %dt: split %.3f ms, "
                    "unsplit %.3f ms, overhead %.2fx\n",
                    r.depth, r.depth, r.threads, r.split_ms,
                    r.unsplit_ms, r.overheadRatio());
    return 0;
}
