/**
 * @file
 * The band engine against a direct convolution: forward, grad_x,
 * grad_w and grad_b of conv2dForward / conv2dBackward agree with
 * written-out loops across batch sizes (one image, or an image group),
 * channel counts, odd spatial extents, paddings and bias, and under
 * the asymmetric pads a split leaves on patch borders.
 */
#include <gtest/gtest.h>

#include <tuple>

#include "kernels/conv2d.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace scnn {
namespace {

/** Input row/col read by output position @p o and kernel tap @p k. */
int64_t
inputIndex(int64_t o, int64_t k, int64_t stride, int64_t pad_b)
{
    return o * stride - pad_b + k;
}

/** Direct forward convolution, accumulated in double. */
Tensor
directForward(const Tensor &x, const Tensor &w, const Tensor &b,
              const Window2d &win)
{
    const int64_t n = x.shape().dim(0), c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2), iw = x.shape().dim(3);
    const int64_t oc = w.shape().dim(0);
    const int64_t oh = win.outH(ih), ow = win.outW(iw);
    Tensor out(Shape{n, oc, oh, ow});
    for (int64_t in = 0; in < n; ++in)
        for (int64_t o = 0; o < oc; ++o)
            for (int64_t oy = 0; oy < oh; ++oy)
                for (int64_t ox = 0; ox < ow; ++ox) {
                    double acc = b.numel() ? b.at(o) : 0.0;
                    for (int64_t ic = 0; ic < c; ++ic)
                        for (int64_t ky = 0; ky < win.kh; ++ky)
                            for (int64_t kx = 0; kx < win.kw; ++kx) {
                                const int64_t iy =
                                    inputIndex(oy, ky, win.sh, win.ph_b);
                                const int64_t ix =
                                    inputIndex(ox, kx, win.sw, win.pw_b);
                                if (iy < 0 || iy >= ih || ix < 0 ||
                                    ix >= iw)
                                    continue;
                                acc += double(x.at4(in, ic, iy, ix)) *
                                       w.at4(o, ic, ky, kx);
                            }
                    out.at4(in, o, oy, ox) = static_cast<float>(acc);
                }
    return out;
}

/** Direct backward convolution: every gradient from the same loops. */
void
directBackward(const Tensor &x, const Tensor &w, const Tensor &grad_out,
               const Window2d &win, Tensor &grad_x, Tensor &grad_w,
               Tensor &grad_b)
{
    const int64_t n = x.shape().dim(0), c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2), iw = x.shape().dim(3);
    const int64_t oc = w.shape().dim(0);
    const int64_t oh = grad_out.shape().dim(2);
    const int64_t ow = grad_out.shape().dim(3);
    std::vector<double> gx(x.numel(), 0.0), gw(w.numel(), 0.0),
        gb(oc, 0.0);
    for (int64_t in = 0; in < n; ++in)
        for (int64_t o = 0; o < oc; ++o)
            for (int64_t oy = 0; oy < oh; ++oy)
                for (int64_t ox = 0; ox < ow; ++ox) {
                    const double g = grad_out.at4(in, o, oy, ox);
                    gb[o] += g;
                    for (int64_t ic = 0; ic < c; ++ic)
                        for (int64_t ky = 0; ky < win.kh; ++ky)
                            for (int64_t kx = 0; kx < win.kw; ++kx) {
                                const int64_t iy =
                                    inputIndex(oy, ky, win.sh, win.ph_b);
                                const int64_t ix =
                                    inputIndex(ox, kx, win.sw, win.pw_b);
                                if (iy < 0 || iy >= ih || ix < 0 ||
                                    ix >= iw)
                                    continue;
                                const int64_t xi =
                                    ((in * c + ic) * ih + iy) * iw + ix;
                                const int64_t wi =
                                    ((o * c + ic) * win.kh + ky) *
                                        win.kw +
                                    kx;
                                gx[xi] += g * w.at(wi);
                                gw[wi] += g * x.at(xi);
                            }
                }
    grad_x = Tensor(x.shape());
    grad_w = Tensor(w.shape());
    grad_b = Tensor(Shape{oc});
    for (int64_t i = 0; i < x.numel(); ++i)
        grad_x.at(i) = static_cast<float>(gx[i]);
    for (int64_t i = 0; i < w.numel(); ++i)
        grad_w.at(i) = static_cast<float>(gw[i]);
    for (int64_t i = 0; i < oc; ++i)
        grad_b.at(i) = static_cast<float>(gb[i]);
}

/**
 * Runs the band engine's forward and backward on @p x and compares
 * every output with the direct loops.
 */
void
expectMatchesDirect(const Tensor &x, const Tensor &w, const Tensor &b,
                    const Window2d &win, Rng &rng)
{
    Tensor out = conv2dForward(x, w, b, win);
    Tensor ref = directForward(x, w, b, win);
    ASSERT_EQ(out.shape(), ref.shape());
    EXPECT_LT(maxAbsDiff(out, ref), 1e-3f);

    Tensor grad_out(out.shape());
    grad_out.fillNormal(rng, 0.0f, 1.0f);
    Tensor gx, gw(w.shape());
    Tensor gb = b.numel() ? Tensor(b.shape()) : Tensor();
    conv2dBackward(x, w, grad_out, win, gx, gw, gb);
    Tensor rx, rw, rb;
    directBackward(x, w, grad_out, win, rx, rw, rb);
    ASSERT_EQ(gx.shape(), x.shape());
    EXPECT_LT(maxAbsDiff(gx, rx), 1e-3f);
    EXPECT_LT(maxAbsDiff(gw, rw), 1e-3f);
    if (b.numel()) {
        EXPECT_LT(maxAbsDiff(gb, rb), 1e-3f);
    }
}

class ConvSweep
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, int, int, bool>>
{
};

TEST_P(ConvSweep, MatchesDirectConvolution)
{
    const auto [n, c, oc, hw, pad, bias] = GetParam();
    Rng rng(static_cast<uint64_t>(n * 131 + c * 31 + hw));
    Tensor x(Shape{n, c, hw, hw});
    Tensor w(Shape{oc, c, 3, 3});
    x.fillNormal(rng, 0.0f, 1.0f);
    w.fillNormal(rng, 0.0f, 0.5f);
    Tensor b;
    if (bias) {
        b = Tensor(Shape{oc});
        b.fillNormal(rng, 0.0f, 0.5f);
    }
    expectMatchesDirect(x, w, b, Window2d::square(3, 1, pad), rng);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvSweep,
    ::testing::Combine(::testing::Values(1, 2),      // batch
                       ::testing::Values(1, 3, 8),   // in channels
                       ::testing::Values(1, 4),      // out channels
                       ::testing::Values(4, 7, 12),  // spatial (odd!)
                       ::testing::Values(0, 1),      // padding
                       ::testing::Bool()));          // bias

TEST(ConvSweep, SplitStylePaddingMatchesDirect)
{
    Rng rng(9);
    Tensor x(Shape{1, 2, 9, 11});
    Tensor w(Shape{3, 2, 3, 3});
    x.fillNormal(rng, 0.0f, 1.0f);
    w.fillNormal(rng, 0.0f, 0.5f);
    const Window2d win{3, 3, 1, 1, 1, 0, 0, 1}; // split-style pads
    expectMatchesDirect(x, w, Tensor(), win, rng);
}

} // namespace
} // namespace scnn
