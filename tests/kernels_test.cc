/**
 * @file
 * Kernel correctness: reference checks for conv/pool/batchnorm/linear
 * forward, numeric-gradient checks for every backward kernel, and the
 * im2col/col2im adjoint property.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <vector>

#include "kernels/activations.h"
#include "kernels/batchnorm.h"
#include "kernels/conv2d.h"
#include "kernels/gemm.h"
#include "kernels/im2col.h"
#include "kernels/linear.h"
#include "kernels/microkernel.h"
#include "kernels/pool2d.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace scnn {
namespace {

/** Central-difference numeric gradient of a scalar function of t. */
Tensor
numericGrad(Tensor &t, const std::function<float()> &loss,
            float eps = 1e-2f)
{
    Tensor grad(t.shape());
    for (int64_t i = 0; i < t.numel(); ++i) {
        const float orig = t.at(i);
        t.at(i) = orig + eps;
        const float hi = loss();
        t.at(i) = orig - eps;
        const float lo = loss();
        t.at(i) = orig;
        grad.at(i) = (hi - lo) / (2.0f * eps);
    }
    return grad;
}

/** Sum-of-output loss; its output gradient is all-ones. */
float
sumAll(const Tensor &t)
{
    float acc = 0.0f;
    for (int64_t i = 0; i < t.numel(); ++i)
        acc += t.at(i);
    return acc;
}

TEST(Gemm, MatchesNaiveReference)
{
    Rng rng(1);
    const int64_t m = 5, n = 7, k = 4;
    std::vector<float> a(m * k), b(k * n), c(m * n, 0.5f),
        ref(m * n, 0.5f);
    for (auto &v : a)
        v = rng.normal();
    for (auto &v : b)
        v = rng.normal();
    gemm(m, n, k, 2.0f, a.data(), b.data(), 3.0f, c.data());
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (int64_t p = 0; p < k; ++p)
                acc += a[i * k + p] * b[p * n + j];
            ref[i * n + j] = 2.0f * acc + 3.0f * ref[i * n + j];
        }
    for (size_t i = 0; i < ref.size(); ++i)
        EXPECT_NEAR(c[i], ref[i], 1e-4f);
}

TEST(Gemm, TransposedVariantsAgree)
{
    Rng rng(2);
    const int64_t m = 3, n = 4, k = 5;
    std::vector<float> a(m * k), at(k * m), b(k * n), bt(n * k);
    for (int64_t i = 0; i < m; ++i)
        for (int64_t p = 0; p < k; ++p) {
            const float v = rng.normal();
            a[i * k + p] = v;
            at[p * m + i] = v;
        }
    for (int64_t p = 0; p < k; ++p)
        for (int64_t j = 0; j < n; ++j) {
            const float v = rng.normal();
            b[p * n + j] = v;
            bt[j * k + p] = v;
        }
    std::vector<float> c1(m * n), c2(m * n), c3(m * n);
    gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c1.data());
    gemmTN(m, n, k, 1.0f, at.data(), b.data(), 0.0f, c2.data());
    gemmNT(m, n, k, 1.0f, a.data(), bt.data(), 0.0f, c3.data());
    for (int64_t i = 0; i < m * n; ++i) {
        EXPECT_NEAR(c1[i], c2[i], 1e-4f);
        EXPECT_NEAR(c1[i], c3[i], 1e-4f);
    }
}

TEST(Im2col, AdjointProperty)
{
    // <im2col(x), c> == <x, col2im(c)> for random x, c, band by band
    // over the whole-image scheme and split schemes under every input
    // policy, so the masked col2im is pinned as the adjoint of the
    // masked im2col.
    struct Case
    {
        Window2d win;
        int64_t ih, iw;
        int nh, nw;
    };
    const Case cases[] = {
        {{3, 2, 1, 1, 1, 0, 1, 1}, 6, 5, 1, 1},
        {{3, 2, 1, 1, 1, 0, 1, 1}, 9, 11, 2, 3},
        {Window2d::square(3, 2, 1), 13, 15, 3, 3},
        {Window2d::square(5, 1, 2), 10, 12, 2, 3},
        {Window2d::square(2, 2, 0), 8, 10, 2, 2},
    };
    Rng rng(3);
    const int64_t c = 2;
    for (const Case &tc : cases)
        for (const InputSplitPolicy policy :
             {InputSplitPolicy::LowerBound, InputSplitPolicy::Center,
              InputSplitPolicy::UpperBound}) {
            const Window2d &win = tc.win;
            const SplitScheme2d scheme = splitWindowOp2d(
                win, tc.ih, tc.iw, evenOutputSplit(win.outH(tc.ih), tc.nh),
                evenOutputSplit(win.outW(tc.iw), tc.nw), policy);
            const int64_t ow = win.outW(tc.iw);
            std::vector<float> x(c * tc.ih * tc.iw);
            for (auto &v : x)
                v = rng.normal();
            for (const SplitPiece1d &ph : scheme.h.pieces) {
                const int64_t rows = ph.outLen();
                const int64_t cols = c * win.kh * win.kw * rows * ow;
                std::vector<float> col(cols), cc(cols),
                    xi(c * tc.ih * tc.iw, 0.0f);
                for (auto &v : cc)
                    v = rng.normal();
                im2colViewStrided(x.data(), c, tc.ih, tc.iw, win, scheme.w,
                                  ph.in_start, ph.in_end, ph.out_start,
                                  ph.out_end, col.data(), rows * ow, ow);
                col2imViewStrided(cc.data(), c, tc.ih, tc.iw, win, scheme.w,
                                  ph.in_start, ph.in_end, ph.out_start,
                                  ph.out_end, xi.data(), rows * ow, ow);
                double lhs = 0.0, rhs = 0.0;
                for (int64_t i = 0; i < cols; ++i)
                    lhs += double(col[i]) * cc[i];
                for (size_t i = 0; i < x.size(); ++i)
                    rhs += double(x[i]) * xi[i];
                EXPECT_NEAR(lhs, rhs, 1e-3) << win.toString();
            }
        }
}

TEST(Conv2d, ForwardMatchesDirectReference)
{
    Rng rng(4);
    Tensor x(Shape{2, 3, 5, 6});
    Tensor w(Shape{4, 3, 3, 3});
    Tensor b(Shape{4});
    x.fillNormal(rng, 0.0f, 1.0f);
    w.fillNormal(rng, 0.0f, 0.5f);
    b.fillNormal(rng, 0.0f, 0.5f);
    const Window2d win = Window2d::square(3, 1, 1);
    Tensor out = conv2dForward(x, w, b, win);
    ASSERT_EQ(out.shape(), Shape({2, 4, 5, 6}));
    // Direct convolution reference.
    for (int64_t in = 0; in < 2; ++in)
        for (int64_t o = 0; o < 4; ++o)
            for (int64_t oy = 0; oy < 5; ++oy)
                for (int64_t ox = 0; ox < 6; ++ox) {
                    float acc = b.at(o);
                    for (int64_t ic = 0; ic < 3; ++ic)
                        for (int64_t ky = 0; ky < 3; ++ky)
                            for (int64_t kx = 0; kx < 3; ++kx) {
                                const int64_t iy = oy - 1 + ky;
                                const int64_t ix = ox - 1 + kx;
                                if (iy < 0 || iy >= 5 || ix < 0 ||
                                    ix >= 6)
                                    continue;
                                acc += x.at4(in, ic, iy, ix) *
                                       w.at4(o, ic, ky, kx);
                            }
                    EXPECT_NEAR(out.at4(in, o, oy, ox), acc, 1e-3f);
                }
}

TEST(Conv2d, AsymmetricPaddingShapes)
{
    Tensor x(Shape{1, 1, 7, 7});
    Tensor w(Shape{1, 1, 3, 3});
    const Window2d win{3, 3, 2, 2, 1, 0, 0, 2};
    Tensor out = conv2dForward(x, w, Tensor(), win);
    EXPECT_EQ(out.shape().dim(2), win.outH(7));
    EXPECT_EQ(out.shape().dim(3), win.outW(7));
}

TEST(Conv2d, StridedOneByOneShortcutMatchesDirectReference)
{
    // ResNet's 1x1/2 projection shortcut has k < s, which the paper's
    // split formulation excludes; unsplit, it still runs the split
    // engine over the whole-image scheme. Forward and both gradients
    // against the direct subsampled reference.
    Rng rng(12);
    const int64_t n = 2, c = 3, oc = 4, ih = 7, iw = 8;
    Tensor x(Shape{n, c, ih, iw});
    Tensor w(Shape{oc, c, 1, 1});
    Tensor b(Shape{oc});
    x.fillNormal(rng, 0.0f, 1.0f);
    w.fillNormal(rng, 0.0f, 0.5f);
    b.fillNormal(rng, 0.0f, 0.5f);
    const Window2d win = Window2d::square(1, 2, 0);
    EXPECT_NO_THROW(checkSchemeGeometry(win, wholeImageScheme(win, ih, iw)));
    Tensor out = conv2dForward(x, w, b, win);
    const int64_t oh = win.outH(ih), ow = win.outW(iw);
    ASSERT_EQ(out.shape(), Shape({n, oc, oh, ow}));
    Tensor go(out.shape());
    go.fillNormal(rng, 0.0f, 1.0f);
    Tensor gx, gw(w.shape()), gb(b.shape());
    conv2dBackward(x, w, go, win, gx, gw, gb);
    ASSERT_EQ(gx.shape(), x.shape());

    Tensor gx_ref(x.shape()), gw_ref(w.shape()), gb_ref(b.shape());
    for (int64_t in = 0; in < n; ++in)
        for (int64_t o = 0; o < oc; ++o)
            for (int64_t oy = 0; oy < oh; ++oy)
                for (int64_t ox = 0; ox < ow; ++ox) {
                    const float g = go.at4(in, o, oy, ox);
                    float acc = b.at(o);
                    for (int64_t ic = 0; ic < c; ++ic) {
                        const float xv = x.at4(in, ic, 2 * oy, 2 * ox);
                        acc += xv * w.at4(o, ic, 0, 0);
                        gx_ref.at4(in, ic, 2 * oy, 2 * ox) +=
                            g * w.at4(o, ic, 0, 0);
                        gw_ref.at4(o, ic, 0, 0) += g * xv;
                    }
                    gb_ref.at(o) += g;
                    EXPECT_NEAR(out.at4(in, o, oy, ox), acc, 1e-4f);
                }
    // Odd rows and columns are skipped by every window: their
    // gradient is exactly zero.
    EXPECT_LT(maxAbsDiff(gx, gx_ref), 1e-4f);
    EXPECT_EQ(gx.at4(0, 0, 1, 0), 0.0f);
    EXPECT_EQ(gx.at4(1, 2, 6, 7), 0.0f);
    EXPECT_LT(maxAbsDiff(gw, gw_ref), 1e-3f);
    EXPECT_LT(maxAbsDiff(gb, gb_ref), 1e-4f);
}

TEST(Conv2d, BackwardMatchesNumericGradient)
{
    Rng rng(5);
    Tensor x(Shape{1, 2, 5, 5});
    Tensor w(Shape{3, 2, 3, 3});
    Tensor b(Shape{3});
    x.fillNormal(rng, 0.0f, 1.0f);
    w.fillNormal(rng, 0.0f, 0.5f);
    b.fillNormal(rng, 0.0f, 0.5f);
    const Window2d win{3, 3, 2, 2, 1, 1, 1, 1};

    auto loss = [&]() { return sumAll(conv2dForward(x, w, b, win)); };
    Tensor out = conv2dForward(x, w, b, win);
    Tensor grad_out(out.shape(), 1.0f);
    Tensor gx, gw(w.shape()), gb(b.shape());
    conv2dBackward(x, w, grad_out, win, gx, gw, gb);

    EXPECT_LT(maxAbsDiff(gx, numericGrad(x, loss)), 2e-2f);
    EXPECT_LT(maxAbsDiff(gw, numericGrad(w, loss)), 2e-2f);
    EXPECT_LT(maxAbsDiff(gb, numericGrad(b, loss)), 2e-2f);
}

TEST(MaxPool2d, ForwardAndBackward)
{
    Tensor x(Shape{1, 1, 4, 4});
    for (int64_t i = 0; i < 16; ++i)
        x.at(i) = static_cast<float>(i);
    std::vector<int64_t> argmax;
    const Window2d win = Window2d::square(2, 2, 0);
    Tensor out = maxPool2dForward(x, win, argmax);
    EXPECT_EQ(out.shape(), Shape({1, 1, 2, 2}));
    EXPECT_EQ(out.at4(0, 0, 0, 0), 5.0f);
    EXPECT_EQ(out.at4(0, 0, 1, 1), 15.0f);

    Tensor grad_out(out.shape(), 1.0f);
    Tensor gx = maxPool2dBackward(x.shape(), grad_out, argmax);
    EXPECT_EQ(gx.at4(0, 0, 1, 1), 1.0f);
    EXPECT_EQ(gx.at4(0, 0, 0, 0), 0.0f);
    EXPECT_EQ(sumAll(gx), 4.0f);
}

TEST(MaxPool2d, PaddingNeverWinsTheMax)
{
    // Padding taps are skipped, not read as zeros: an all-negative
    // input keeps its own maxima under partly padded windows. Windows
    // that see only padding write 0 with argmax -1 and route no
    // gradient.
    Tensor x(Shape{1, 1, 3, 3});
    for (int64_t i = 0; i < 9; ++i)
        x.at(i) = -static_cast<float>(i + 1);
    const Window2d win{2, 2, 2, 2, 1, 3, 1, 3};
    std::vector<int64_t> argmax;
    Tensor out = maxPool2dForward(x, win, argmax);
    ASSERT_EQ(out.shape(), Shape({1, 1, 3, 3}));
    const float want[9] = {-1, -2, 0, -4, -5, 0, 0, 0, 0};
    const int64_t want_argmax[9] = {0, 1, -1, 3, 4, -1, -1, -1, -1};
    for (int64_t i = 0; i < 9; ++i) {
        EXPECT_EQ(out.at(i), want[i]) << i;
        EXPECT_EQ(argmax[static_cast<size_t>(i)], want_argmax[i]) << i;
    }

    Tensor gx = maxPool2dBackward(x.shape(), Tensor(out.shape(), 1.0f),
                                  argmax);
    const float want_gx[9] = {1, 1, 0, 1, 1, 0, 0, 0, 0};
    for (int64_t i = 0; i < 9; ++i)
        EXPECT_EQ(gx.at(i), want_gx[i]) << i;
}

TEST(AvgPool2d, BackwardMatchesNumericGradient)
{
    Rng rng(6);
    Tensor x(Shape{1, 2, 6, 6});
    x.fillNormal(rng, 0.0f, 1.0f);
    const Window2d win{3, 3, 3, 3, 1, 2, 1, 2};
    auto loss = [&]() { return sumAll(avgPool2dForward(x, win)); };
    Tensor out = avgPool2dForward(x, win);
    Tensor gx = avgPool2dBackward(x.shape(), Tensor(out.shape(), 1.0f),
                                  win);
    EXPECT_LT(maxAbsDiff(gx, numericGrad(x, loss)), 1e-2f);
}

TEST(GlobalAvgPool, ForwardBackward)
{
    Tensor x(Shape{2, 3, 4, 4}, 2.0f);
    Tensor out = globalAvgPoolForward(x);
    EXPECT_EQ(out.shape(), Shape({2, 3, 1, 1}));
    EXPECT_FLOAT_EQ(out.at(0), 2.0f);
    Tensor gx = globalAvgPoolBackward(x.shape(),
                                      Tensor(out.shape(), 16.0f));
    EXPECT_FLOAT_EQ(gx.at(0), 1.0f);
}

TEST(BatchNorm, ForwardNormalizes)
{
    Rng rng(7);
    Tensor x(Shape{4, 3, 5, 5});
    x.fillNormal(rng, 3.0f, 2.0f);
    Tensor gamma(Shape{3}, 1.0f), beta(Shape{3}, 0.0f);
    Tensor rm(Shape{3}), rv(Shape{3}, 1.0f);
    BatchNormCache cache;
    Tensor out =
        batchNormForward(x, gamma, beta, rm, rv, 0.1f, 1e-5f, cache);
    // Per-channel output mean ~ 0, var ~ 1.
    const int64_t spatial = 25, n = 4;
    for (int64_t c = 0; c < 3; ++c) {
        double sum = 0.0, sq = 0.0;
        for (int64_t in = 0; in < n; ++in)
            for (int64_t s = 0; s < spatial; ++s) {
                const float v = out.at((in * 3 + c) * spatial + s);
                sum += v;
                sq += double(v) * v;
            }
        EXPECT_NEAR(sum / (n * spatial), 0.0, 1e-4);
        EXPECT_NEAR(sq / (n * spatial), 1.0, 1e-2);
    }
}

TEST(BatchNorm, BackwardMatchesNumericGradient)
{
    Rng rng(8);
    Tensor x(Shape{2, 2, 3, 3});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor gamma(Shape{2}), beta(Shape{2});
    gamma.fillUniform(rng, 0.5f, 1.5f);
    beta.fillNormal(rng, 0.0f, 0.5f);

    auto run = [&]() {
        Tensor rm(Shape{2}), rv(Shape{2}, 1.0f);
        BatchNormCache cache;
        return batchNormForward(x, gamma, beta, rm, rv, 0.1f, 1e-5f,
                                cache);
    };
    auto loss = [&]() {
        Tensor out = run();
        // Weighted sum so the gradient is non-uniform.
        float acc = 0.0f;
        for (int64_t i = 0; i < out.numel(); ++i)
            acc += out.at(i) * static_cast<float>((i % 5) - 2);
        return acc;
    };

    Tensor rm(Shape{2}), rv(Shape{2}, 1.0f);
    BatchNormCache cache;
    Tensor out =
        batchNormForward(x, gamma, beta, rm, rv, 0.1f, 1e-5f, cache);
    Tensor grad_out(out.shape());
    for (int64_t i = 0; i < grad_out.numel(); ++i)
        grad_out.at(i) = static_cast<float>((i % 5) - 2);
    Tensor gg(Shape{2}), gb(Shape{2});
    Tensor gx = batchNormBackward(grad_out, gamma, cache, gg, gb);

    EXPECT_LT(maxAbsDiff(gx, numericGrad(x, loss, 1e-2f)), 5e-2f);
    EXPECT_LT(maxAbsDiff(gg, numericGrad(gamma, loss, 1e-2f)), 5e-2f);
    EXPECT_LT(maxAbsDiff(gb, numericGrad(beta, loss, 1e-2f)), 5e-2f);
}

TEST(BatchNorm, InferenceUsesRunningStats)
{
    Tensor x(Shape{1, 1, 2, 2}, 4.0f);
    Tensor gamma(Shape{1}, 2.0f), beta(Shape{1}, 1.0f);
    Tensor rm(Shape{1}, 4.0f), rv(Shape{1}, 1.0f);
    Tensor out = batchNormInference(x, gamma, beta, rm, rv, 0.0f);
    for (int64_t i = 0; i < 4; ++i)
        EXPECT_NEAR(out.at(i), 1.0f, 1e-5f); // (4-4)/1*2+1
}

TEST(Linear, ForwardBackward)
{
    Rng rng(9);
    Tensor x(Shape{3, 4}), w(Shape{2, 4}), b(Shape{2});
    x.fillNormal(rng, 0.0f, 1.0f);
    w.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);
    auto loss = [&]() { return sumAll(linearForward(x, w, b)); };
    Tensor out = linearForward(x, w, b);
    ASSERT_EQ(out.shape(), Shape({3, 2}));
    Tensor gx, gw(w.shape()), gb(b.shape());
    linearBackward(x, w, Tensor(out.shape(), 1.0f), gx, gw, gb);
    EXPECT_LT(maxAbsDiff(gx, numericGrad(x, loss)), 1e-2f);
    EXPECT_LT(maxAbsDiff(gw, numericGrad(w, loss)), 1e-2f);
    EXPECT_LT(maxAbsDiff(gb, numericGrad(b, loss)), 1e-2f);
}

/** HMMS runs ReLU in place: the output overwrites the input's storage,
 * so backward sees only the output. Writing y over x's buffer and
 * taking the gradient from that buffer must give the input's gradient
 * (mask x > 0, zero at the kink). */
TEST(Relu, ForwardBackwardAndInplace)
{
    const float xs[] = {-1.0f, 2.0f, 0.0f, -3.0f, 0.5f};
    Tensor x(Shape{5});
    for (int64_t i = 0; i < 5; ++i)
        x.at(i) = xs[i];
    const Tensor y = reluForward(x);
    EXPECT_EQ(y.at(0), 0.0f);
    EXPECT_EQ(y.at(1), 2.0f);
    EXPECT_EQ(y.at(2), 0.0f);
    EXPECT_EQ(y.at(3), 0.0f);
    EXPECT_EQ(y.at(4), 0.5f);

    Tensor shared = x; // the one buffer x and y share under HMMS
    for (int64_t i = 0; i < 5; ++i)
        shared.at(i) = y.at(i);
    const Tensor g = reluBackward(shared, Tensor(y.shape(), 1.0f));
    for (int64_t i = 0; i < 5; ++i)
        EXPECT_EQ(g.at(i), xs[i] > 0.0f ? 1.0f : 0.0f) << "i " << i;
}

/** ReLU under both microkernels, bit for bit against the written-out
 * formulas: forward x > 0 ? x : +0, backward y > 0 ? g : +0. Lengths
 * 0-37 put every value both in the 8-wide body and in the scalar tail;
 * inputs and gradients mix NaN (both signs, with a payload), +-0,
 * +-inf, denormals and ordinary values. */
TEST(Relu, RowsMatchWrittenOutFormulasBitwise)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const float den = std::numeric_limits<float>::denorm_min();
    float payload_nan;
    const uint32_t payload_bits = 0x7fc12345u;
    std::memcpy(&payload_nan, &payload_bits, 4);
    const float tiny = std::numeric_limits<float>::min();
    const float pool[] = {nan,    -nan,    payload_nan, 0.0f,  -0.0f,
                          inf,    -inf,    den,         -den,  1e-40f,
                          -1e-40f, tiny,   1.5f,        -2.5f, 3.0f,
                          -0.125f, 7.0f};
    const int64_t np = static_cast<int64_t>(std::size(pool));
    auto bits = [](float v) {
        uint32_t u;
        std::memcpy(&u, &v, 4);
        return u;
    };
    struct RestoreSimd
    {
        bool prev = simdEnabled();
        ~RestoreSimd() { setSimdEnabled(prev); }
    } restore;
    for (const bool simd : {false, true}) {
        if (simd && !simdAvailable())
            continue;
        setSimdEnabled(simd);
        for (int64_t len = 0; len <= 37; ++len) {
            Tensor x(Shape{len}), g(Shape{len});
            for (int64_t i = 0; i < len; ++i) {
                x.at(i) = pool[(i * 7 + len) % np];
                g.at(i) = pool[(i * 5 + 3 * len + 1) % np];
            }
            const Tensor y = reluForward(x);
            // Backward reads its mask from any tensor, not only a
            // forward output, so feed it the raw specials too.
            const Tensor gx = reluBackward(x, g);
            ASSERT_EQ(y.shape(), x.shape());
            ASSERT_EQ(gx.shape(), x.shape());
            for (int64_t i = 0; i < len; ++i) {
                const float xv = x.at(i);
                const float want_y = xv > 0.0f ? xv : 0.0f;
                const float want_g = xv > 0.0f ? g.at(i) : 0.0f;
                ASSERT_EQ(bits(want_y), bits(y.at(i)))
                    << "forward len " << len << " i " << i << " x "
                    << xv << " simd " << simd;
                ASSERT_EQ(bits(want_g), bits(gx.at(i)))
                    << "backward len " << len << " i " << i << " y "
                    << xv << " g " << g.at(i) << " simd " << simd;
            }
        }
    }
}

TEST(SoftmaxXent, LossAndGradient)
{
    Rng rng(10);
    Tensor logits(Shape{4, 5});
    logits.fillNormal(rng, 0.0f, 2.0f);
    std::vector<int64_t> labels = {0, 3, 2, 4};
    Tensor probs;
    const float loss0 = softmaxXentForward(logits, labels, probs);
    EXPECT_GT(loss0, 0.0f);
    // Probabilities are a distribution per row.
    for (int64_t i = 0; i < 4; ++i) {
        float row = 0.0f;
        for (int64_t j = 0; j < 5; ++j)
            row += probs.at(i * 5 + j);
        EXPECT_NEAR(row, 1.0f, 1e-5f);
    }
    auto loss = [&]() {
        Tensor p;
        return softmaxXentForward(logits, labels, p);
    };
    Tensor g = softmaxXentBackward(probs, labels);
    EXPECT_LT(maxAbsDiff(g, numericGrad(logits, loss, 1e-2f)), 1e-3f);
}

TEST(SoftmaxXent, PerfectPredictionHasLowLoss)
{
    Tensor logits(Shape{2, 3});
    logits.at(0) = 20.0f; // class 0 for row 0
    logits.at(5) = 20.0f; // class 2 for row 1
    Tensor probs;
    const float loss =
        softmaxXentForward(logits, {0, 2}, probs);
    EXPECT_LT(loss, 1e-4f);
}

} // namespace
} // namespace scnn
