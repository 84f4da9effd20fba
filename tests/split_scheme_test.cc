/**
 * @file
 * Unit and property tests for the Section 3.1 split-scheme math:
 * Eqs. 1-2 bounds, corrected padding formulas, patch output counts,
 * and even/stochastic output partitions.
 */
#include "kernels/split_scheme.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "util/rng.h"

namespace scnn {
namespace {

TEST(SplitScheme, BoundsMatchPaperEquations)
{
    // Eq. 1: lb(I_i) = O_i * s - p_b ; Eq. 2: ub = (O_i-1)s + k - p_b.
    WindowParams1d op{3, 1, 1, 1}; // k=3, s=1, p=1
    EXPECT_EQ(splitLowerBound(op, 4), 4 * 1 - 1);
    EXPECT_EQ(splitUpperBound(op, 4), 3 * 1 + 3 - 1);
}

TEST(SplitScheme, NaturalSplitWhenKernelEqualsStride)
{
    // k == s: lb == ub, splitting is "natural and non-intrusive".
    WindowParams1d op{2, 2, 0, 0};
    for (int64_t o_i : {1, 2, 3, 7})
        EXPECT_EQ(splitLowerBound(op, o_i), splitUpperBound(op, o_i));
}

TEST(SplitScheme, LowerBoundChoiceGivesZeroBeginPadding)
{
    // Interpretation text of Eq. 5: I_i = lb => p_{i,b} = 0.
    WindowParams1d op{3, 1, 1, 1};
    const int64_t w = 32;
    auto starts = evenOutputSplit(op.outExtent(w), 4);
    auto scheme =
        splitWindowOp(op, w, starts, InputSplitPolicy::LowerBound);
    for (int i = 1; i < scheme.parts(); ++i)
        EXPECT_EQ(scheme.pieces[i].pad_b, 0) << "piece " << i;
}

TEST(SplitScheme, UpperBoundChoiceGivesKMinusSBeginPadding)
{
    WindowParams1d op{3, 1, 1, 1};
    const int64_t w = 32;
    auto starts = evenOutputSplit(op.outExtent(w), 4);
    auto scheme =
        splitWindowOp(op, w, starts, InputSplitPolicy::UpperBound);
    for (int i = 1; i < scheme.parts(); ++i)
        EXPECT_EQ(scheme.pieces[i].pad_b, op.k - op.s) << "piece " << i;
}

TEST(SplitScheme, FirstAndLastPatchKeepOriginalPadding)
{
    WindowParams1d op{5, 2, 2, 2};
    const int64_t w = 33;
    auto starts = evenOutputSplit(op.outExtent(w), 3);
    auto scheme = splitWindowOp(op, w, starts);
    EXPECT_EQ(scheme.pieces.front().pad_b, op.p_b);
    EXPECT_EQ(scheme.pieces.back().pad_e, op.p_e);
}

TEST(SplitScheme, PatchesTileInputAndOutputExactly)
{
    WindowParams1d op{3, 2, 1, 1};
    const int64_t w = 37;
    const int64_t l = op.outExtent(w);
    auto scheme = splitWindowOp(op, w, evenOutputSplit(l, 4));
    int64_t in_cursor = 0, out_cursor = 0;
    for (const auto &p : scheme.pieces) {
        EXPECT_EQ(p.in_start, in_cursor);
        EXPECT_EQ(p.out_start, out_cursor);
        in_cursor = p.in_end;
        out_cursor = p.out_end;
    }
    EXPECT_EQ(in_cursor, w);
    EXPECT_EQ(out_cursor, l);
}

/** Property sweep: every legal (k, s, p, W, N, policy) combination
 *  yields patches whose local output extents sum to the unsplit one. */
class SplitSchemeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(SplitSchemeSweep, LocalOutputExtentsAreConsistent)
{
    const auto [k, s, p, n] = GetParam();
    if (k < s)
        GTEST_SKIP() << "paper mandates k >= s";
    WindowParams1d op{k, s, p, p};
    const int64_t w = 40;
    const int64_t l = op.outExtent(w);
    if (l < n)
        GTEST_SKIP() << "not enough outputs to split";
    for (auto policy :
         {InputSplitPolicy::LowerBound, InputSplitPolicy::Center,
          InputSplitPolicy::UpperBound}) {
        auto scheme = splitWindowOp(op, w, evenOutputSplit(l, n), policy);
        int64_t total_out = 0;
        for (const auto &piece : scheme.pieces) {
            const WindowParams1d local{op.k, op.s, piece.pad_b,
                                       piece.pad_e};
            EXPECT_EQ(local.outExtent(piece.inLen()), piece.outLen());
            total_out += piece.outLen();
        }
        EXPECT_EQ(total_out, l);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, SplitSchemeSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 7), // k
                       ::testing::Values(1, 2, 3),       // s
                       ::testing::Values(0, 1, 2, 3),    // p
                       ::testing::Values(2, 3, 4, 6)));  // n splits

TEST(SplitScheme, InputStartsWithinPaperBounds)
{
    WindowParams1d op{5, 2, 2, 2};
    const int64_t w = 63;
    const int64_t l = op.outExtent(w);
    auto o_starts = evenOutputSplit(l, 5);
    for (auto policy :
         {InputSplitPolicy::LowerBound, InputSplitPolicy::Center,
          InputSplitPolicy::UpperBound}) {
        auto i_starts = computeInputSplitScheme(op, w, o_starts, policy);
        for (size_t i = 1; i < i_starts.size(); ++i) {
            EXPECT_GE(i_starts[i], splitLowerBound(op, o_starts[i]));
            EXPECT_LE(i_starts[i], splitUpperBound(op, o_starts[i]));
        }
    }
}

TEST(EvenOutputSplit, IsBalanced)
{
    auto starts = evenOutputSplit(10, 4);
    ASSERT_EQ(starts.size(), 4u);
    EXPECT_EQ(starts[0], 0);
    // Part lengths differ by at most one.
    std::vector<int64_t> lens;
    for (size_t i = 0; i < starts.size(); ++i) {
        const int64_t end = (i + 1 < starts.size()) ? starts[i + 1] : 10;
        lens.push_back(end - starts[i]);
    }
    const auto [mn, mx] = std::minmax_element(lens.begin(), lens.end());
    EXPECT_LE(*mx - *mn, 1);
}

TEST(EvenOutputSplit, RejectsImpossibleSplit)
{
    EXPECT_THROW(evenOutputSplit(3, 4), std::exception);
}

TEST(StochasticOutputSplit, SamplesWithinWiggleBounds)
{
    Rng rng(42);
    const int64_t l = 32;
    const int n = 4;
    const double omega = 0.2;
    for (int trial = 0; trial < 200; ++trial) {
        auto starts = stochasticOutputSplit(l, n, omega, rng);
        ASSERT_EQ(starts.size(), static_cast<size_t>(n));
        EXPECT_EQ(starts[0], 0);
        for (int i = 1; i < n; ++i) {
            EXPECT_GT(starts[i], starts[i - 1]);
            EXPECT_LT(starts[i], l);
            // Section 3.3 interval (pre-clamping).
            const double lo = std::ceil((i - omega) * l / n);
            const double hi = std::floor((i + omega) * l / n);
            EXPECT_GE(starts[i], static_cast<int64_t>(lo));
            EXPECT_LE(starts[i], static_cast<int64_t>(hi));
        }
    }
}

TEST(StochasticOutputSplit, ZeroWiggleIsDeterministicEvenSplit)
{
    Rng rng(7);
    // omega = 0 forces s_i == i*L/N whenever that is an integer.
    auto starts = stochasticOutputSplit(32, 4, 0.0, rng);
    EXPECT_EQ(starts, (std::vector<int64_t>{0, 8, 16, 24}));
}

TEST(StochasticOutputSplit, ProducesVariedSchemes)
{
    Rng rng(3);
    std::set<std::vector<int64_t>> seen;
    for (int trial = 0; trial < 50; ++trial)
        seen.insert(stochasticOutputSplit(64, 4, 0.2, rng));
    EXPECT_GT(seen.size(), 5u) << "stochastic splitting looks constant";
}

TEST(SplitScheme, RejectsDownsamplingConvolutions)
{
    // k < s is excluded by the paper's formulation.
    WindowParams1d op{1, 2, 0, 0};
    EXPECT_THROW(splitWindowOp(op, 16, {0, 4}), std::exception);
}

TEST(SplitScheme, RejectsNonMonotoneOutputStarts)
{
    WindowParams1d op{3, 1, 1, 1};
    EXPECT_THROW(splitWindowOp(op, 16, {0, 8, 4}), std::exception);
    EXPECT_THROW(splitWindowOp(op, 16, {1, 8}), std::exception);
}

} // namespace
} // namespace scnn
