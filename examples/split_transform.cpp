/**
 * @file
 * A guided tour of the Split-CNN mathematics (paper Section 3):
 *
 *  - Eqs. 1-2 legal input-split interval for a window op,
 *  - per-patch padding computation (corrected Eq. 5),
 *  - exact equivalence for the natural split (k == s),
 *  - interior-vs-boundary behaviour for overlapping windows,
 *  - stochastic splitting (Section 3.3).
 *
 * Run: ./example_split_transform
 */
#include <cstdio>

#include "core/split_op.h"
#include "kernels/split_scheme.h"
#include "kernels/conv2d.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

using namespace scnn;

int
main()
{
    // A 1-D window op: k=3, s=1, p=1 over a 16-wide input.
    WindowParams1d op{3, 1, 1, 1};
    const int64_t w = 16;
    const int64_t l = op.outExtent(w);
    std::printf("op k=%lld s=%lld p=(%lld,%lld), input %lld -> output "
                "%lld\n",
                (long long)op.k, (long long)op.s, (long long)op.p_b,
                (long long)op.p_e, (long long)w, (long long)l);

    auto o_starts = evenOutputSplit(l, 4);
    std::printf("output split O = (");
    for (size_t i = 0; i < o_starts.size(); ++i)
        std::printf("%s%lld", i ? ", " : "", (long long)o_starts[i]);
    std::printf(")\n");

    for (size_t i = 1; i < o_starts.size(); ++i)
        std::printf("  boundary %zu: lb(I)=%lld ub(I)=%lld (Eqs. "
                    "1-2)\n",
                    i, (long long)splitLowerBound(op, o_starts[i]),
                    (long long)splitUpperBound(op, o_starts[i]));

    for (auto policy : {InputSplitPolicy::LowerBound,
                        InputSplitPolicy::Center,
                        InputSplitPolicy::UpperBound}) {
        auto scheme = splitWindowOp(op, w, o_starts, policy);
        const char *name =
            policy == InputSplitPolicy::LowerBound ? "lower"
            : policy == InputSplitPolicy::Center   ? "center"
                                                   : "upper";
        std::printf("policy %-6s -> %s\n", name,
                    scheme.toString().c_str());
    }

    // Natural split: a 2x2/2 pooling-style op splits losslessly.
    {
        Rng rng(1);
        Tensor x(Shape{1, 3, 16, 16});
        x.fillNormal(rng, 0.0f, 1.0f);
        Tensor weights(Shape{4, 3, 2, 2});
        weights.fillNormal(rng, 0.0f, 0.5f);
        const Window2d win = Window2d::square(2, 2, 0);
        const auto scheme = splitWindowOp2d(
            win, 16, 16, evenOutputSplit(win.outH(16), 2),
            evenOutputSplit(win.outW(16), 2));
        Tensor split =
            splitConv2dForward(x, weights, Tensor(), win, scheme);
        Tensor ref = conv2dForward(x, weights, Tensor(), win);
        std::printf("\nnatural split (k==s): max |split - unsplit| = "
                    "%.2e (exact)\n",
                    maxAbsDiff(split, ref));
    }

    // Overlapping windows: boundaries differ, interiors match.
    {
        Rng rng(2);
        Tensor x(Shape{1, 3, 16, 16});
        x.fillNormal(rng, 0.0f, 1.0f);
        Tensor weights(Shape{4, 3, 3, 3});
        weights.fillNormal(rng, 0.0f, 0.5f);
        const Window2d win = Window2d::square(3, 1, 1);
        const auto scheme = splitWindowOp2d(
            win, 16, 16, evenOutputSplit(win.outH(16), 2),
            evenOutputSplit(win.outW(16), 2));
        Tensor split =
            splitConv2dForward(x, weights, Tensor(), win, scheme);
        Tensor ref = conv2dForward(x, weights, Tensor(), win);
        std::printf("overlapping windows (k=3, s=1): max diff = %.3f "
                    "(boundary rows only -- the intentional semantic "
                    "change)\n",
                    maxAbsDiff(split, ref));
        // Show it is confined to the patch boundary.
        float interior = 0.0f;
        for (int64_t c = 0; c < 4; ++c)
            for (int64_t y = 0; y < 16; ++y)
                for (int64_t xx = 0; xx < 16; ++xx) {
                    const bool boundary =
                        (y >= 6 && y <= 9) || (xx >= 6 && xx <= 9);
                    if (!boundary)
                        interior = std::max(
                            interior,
                            std::abs(split.at4(0, c, y, xx) -
                                     ref.at4(0, c, y, xx)));
                }
        std::printf("  ... away from boundaries: max diff = %.2e\n",
                    interior);
    }

    // Stochastic splitting: a fresh scheme per minibatch.
    {
        Rng rng(3);
        std::printf("\nstochastic splits of extent 32 into 4 "
                    "(omega=0.2):\n");
        for (int t = 0; t < 5; ++t) {
            auto starts = stochasticOutputSplit(32, 4, 0.2, rng);
            std::printf("  draw %d: (%lld, %lld, %lld, %lld)\n", t,
                        (long long)starts[0], (long long)starts[1],
                        (long long)starts[2], (long long)starts[3]);
        }
    }
    return 0;
}
