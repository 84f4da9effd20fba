/**
 * @file
 * Blocked-vs-naive GEMM equivalence: randomized relative-tolerance
 * checks over an alpha/beta grid and awkward (prime, non-square)
 * sizes, plus the stronger bitwise guarantee the execution engine
 * relies on to keep figure outputs byte-stable.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "kernels/gemm.h"
#include "kernels/microkernel.h"
#include "util/rng.h"

namespace scnn {
namespace {

/** Pin the microkernel selection for a test body, restoring the
 * default (environment-driven) choice afterwards. */
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

struct GemmCase
{
    int64_t m, n, k;
};

/** 64-byte-aligned float buffer: packed panels are consumed with
 * aligned SIMD loads (the gemm.h contract), which a plain
 * std::vector does not guarantee. */
struct AlignedBuf
{
    explicit AlignedBuf(int64_t n)
        : raw(static_cast<size_t>(n + 16), 0.0f)
    {
        auto addr = reinterpret_cast<uintptr_t>(raw.data());
        p = reinterpret_cast<float *>((addr + 63) & ~uintptr_t{63});
    }
    std::vector<float> raw;
    float *p;
};

/** Prime and otherwise edge-unfriendly sizes: every microkernel edge
 * case (partial MR rows, partial NR columns, short K) is hit. */
const GemmCase kCases[] = {
    {1, 1, 1},   {3, 5, 7},    {4, 8, 16},  {13, 17, 19},
    {31, 29, 37}, {64, 64, 64}, {61, 67, 71}, {128, 96, 80},
    {97, 101, 103}, {256, 256, 256}, {5, 300, 2}, {300, 5, 2},
};

const float kAlphas[] = {0.0f, 1.0f, 0.5f};
const float kBetas[] = {0.0f, 1.0f, 0.5f};

void
fillRandom(std::vector<float> &v, Rng &rng)
{
    for (auto &x : v)
        x = rng.normal();
}

using GemmFn = void (*)(int64_t, int64_t, int64_t, float, const float *,
                        const float *, float, float *);

/**
 * Run naive and blocked variants on identical inputs and compare.
 * @p bitwise additionally demands exact bit equality.
 */
void
compareKernels(GemmFn naive, GemmFn blocked, int64_t m, int64_t n,
               int64_t k, float alpha, float beta, uint32_t seed,
               bool bitwise)
{
    Rng rng(seed);
    std::vector<float> a(static_cast<size_t>(m * k));
    std::vector<float> b(static_cast<size_t>(k * n));
    std::vector<float> c0(static_cast<size_t>(m * n));
    fillRandom(a, rng);
    fillRandom(b, rng);
    fillRandom(c0, rng);

    std::vector<float> c_naive = c0, c_blocked = c0;
    naive(m, n, k, alpha, a.data(), b.data(), beta, c_naive.data());
    blocked(m, n, k, alpha, a.data(), b.data(), beta,
            c_blocked.data());

    for (int64_t i = 0; i < m * n; ++i) {
        const float ref = c_naive[static_cast<size_t>(i)];
        const float got = c_blocked[static_cast<size_t>(i)];
        if (bitwise) {
            uint32_t rb, gb;
            std::memcpy(&rb, &ref, 4);
            std::memcpy(&gb, &got, 4);
            ASSERT_EQ(rb, gb)
                << "element " << i << " differs bitwise: " << ref
                << " vs " << got << " (m=" << m << " n=" << n
                << " k=" << k << " alpha=" << alpha
                << " beta=" << beta << ")";
        } else {
            const float tol =
                1e-4f * std::max(1.0f, std::fabs(ref));
            ASSERT_NEAR(ref, got, tol)
                << "element " << i << " (m=" << m << " n=" << n
                << " k=" << k << " alpha=" << alpha
                << " beta=" << beta << ")";
        }
    }
}

TEST(GemmBlocked, MatchesNaiveWithinTolerance)
{
    uint32_t seed = 100;
    for (const auto &cs : kCases)
        for (float alpha : kAlphas)
            for (float beta : kBetas) {
                compareKernels(gemmNaive, gemmBlocked, cs.m, cs.n,
                               cs.k, alpha, beta, ++seed, false);
                compareKernels(gemmTNNaive, gemmTNBlocked, cs.m, cs.n,
                               cs.k, alpha, beta, ++seed, false);
                compareKernels(gemmNTNaive, gemmNTBlocked, cs.m, cs.n,
                               cs.k, alpha, beta, ++seed, false);
            }
}

/** Under the *scalar* microkernel the blocked kernels replay the
 * naive per-element operation sequence exactly; the engine depends on
 * this to keep committed figure outputs byte-identical. The AVX2/FMA
 * kernel is the documented carve-out from this guarantee (see
 * SimdMatchesScalarWithinTolerance below), so bitwise tests pin the
 * scalar path. */
TEST(GemmBlocked, BitwiseIdenticalToNaive)
{
    ScopedSimd scalar(false);
    uint32_t seed = 900;
    for (const auto &cs : kCases)
        for (float alpha : kAlphas)
            for (float beta : kBetas) {
                compareKernels(gemmNaive, gemmBlocked, cs.m, cs.n,
                               cs.k, alpha, beta, ++seed, true);
                compareKernels(gemmTNNaive, gemmTNBlocked, cs.m, cs.n,
                               cs.k, alpha, beta, ++seed, true);
                compareKernels(gemmNTNaive, gemmNTBlocked, cs.m, cs.n,
                               cs.k, alpha, beta, ++seed, true);
            }
}

/** The dispatchers run the blocked kernels at every size, down to
 * 1x1x1, and must still agree with the naive reference bitwise under
 * the scalar microkernel. */
TEST(GemmBlocked, DispatchersBitwiseStable)
{
    ScopedSimd scalar(false);
    uint32_t seed = 1700;
    for (const auto &cs : kCases) {
        compareKernels(gemmNaive, gemm, cs.m, cs.n, cs.k, 1.0f, 0.0f,
                       ++seed, true);
        compareKernels(gemmTNNaive, gemmTN, cs.m, cs.n, cs.k, 1.0f,
                       1.0f, ++seed, true);
        compareKernels(gemmNTNaive, gemmNT, cs.m, cs.n, cs.k, 1.0f,
                       0.0f, ++seed, true);
    }
}

/** The determinism carve-out, stated as a test: the AVX2/FMA kernel
 * need not match scalar bitwise, but it must stay within a tight
 * relative tolerance, and it must itself be deterministic
 * (run-to-run identical bits). */
TEST(GemmBlocked, SimdMatchesScalarWithinTolerance)
{
    if (!simdAvailable())
        GTEST_SKIP() << "no SIMD kernel on this build/CPU";
    uint32_t seed = 4100;
    for (const auto &cs : kCases) {
        Rng rng(++seed);
        std::vector<float> a(static_cast<size_t>(cs.m * cs.k));
        std::vector<float> b(static_cast<size_t>(cs.k * cs.n));
        std::vector<float> c0(static_cast<size_t>(cs.m * cs.n));
        fillRandom(a, rng);
        fillRandom(b, rng);
        fillRandom(c0, rng);

        std::vector<float> c_scalar = c0;
        {
            ScopedSimd scalar(false);
            gemmBlocked(cs.m, cs.n, cs.k, 1.0f, a.data(), b.data(),
                        0.5f, c_scalar.data());
        }
        std::vector<float> c_simd = c0, c_simd2 = c0;
        {
            ScopedSimd simd(true);
            gemmBlocked(cs.m, cs.n, cs.k, 1.0f, a.data(), b.data(),
                        0.5f, c_simd.data());
            gemmBlocked(cs.m, cs.n, cs.k, 1.0f, a.data(), b.data(),
                        0.5f, c_simd2.data());
        }
        ASSERT_EQ(0, std::memcmp(c_simd.data(), c_simd2.data(),
                                 c_simd.size() * sizeof(float)))
            << "SIMD kernel not deterministic (m=" << cs.m
            << " n=" << cs.n << " k=" << cs.k << ")";
        for (int64_t i = 0; i < cs.m * cs.n; ++i) {
            const float ref = c_scalar[static_cast<size_t>(i)];
            const float got = c_simd[static_cast<size_t>(i)];
            const float tol =
                1e-5f * std::max(1.0f, std::fabs(ref)) *
                std::max<float>(1.0f, std::sqrt((float)cs.k));
            ASSERT_NEAR(ref, got, tol)
                << "element " << i << " (m=" << cs.m
                << " n=" << cs.n << " k=" << cs.k << ")";
        }
    }
}

/** Packing A once and replaying it through gemmPackedAB must produce
 * the same bytes as the one-shot blocked kernel — the conv engine's
 * per-layer weight panels depend on this. Checked under both
 * microkernels: the packed path walks the same KC slabs and tiles, so
 * even the FMA kernel rounds identically. */
TEST(GemmBlocked, PackedAReuseBitwiseMatchesBlocked)
{
    for (const bool simd : {false, true}) {
        if (simd && !simdAvailable())
            continue;
        ScopedSimd pin(simd);
        uint32_t seed = 5200;
        for (const auto &cs : kCases) {
            Rng rng(++seed);
            std::vector<float> a(static_cast<size_t>(cs.m * cs.k));
            std::vector<float> b(static_cast<size_t>(cs.k * cs.n));
            fillRandom(a, rng);
            fillRandom(b, rng);

            std::vector<float> c_ref(
                static_cast<size_t>(cs.m * cs.n), 0.0f);
            gemmBlocked(cs.m, cs.n, cs.k, 1.0f, a.data(), b.data(),
                        0.0f, c_ref.data());

            AlignedBuf pa(gemmPackedASize(cs.m, cs.k));
            gemmPackA(cs.m, cs.k, 1.0f, a.data(), pa.p);
            AlignedBuf pb(gemmPackedBSize(cs.k, cs.n));
            gemmPackB(cs.k, cs.n, b.data(), cs.n, pb.p);
            // Replay the packed panels twice: reuse must not mutate
            // them.
            for (int rep = 0; rep < 2; ++rep) {
                std::vector<float> c_packed(
                    static_cast<size_t>(cs.m * cs.n), 0.0f);
                gemmPackedAB(cs.m, cs.n, cs.k, pa.p, pb.p, 0.0f,
                             c_packed.data(), cs.n);
                ASSERT_EQ(0, std::memcmp(c_ref.data(),
                                         c_packed.data(),
                                         c_ref.size() *
                                             sizeof(float)))
                    << "packed-A replay " << rep << " differs (m="
                    << cs.m << " n=" << cs.n << " k=" << cs.k
                    << " simd=" << simd << ")";
            }
        }
    }
}

/** Packing B once and replaying it through gemmPackedAB must track
 * the one-shot blocked kernel: bitwise under the scalar microkernel
 * (the packed consumption replays blockedCore's per-element
 * accumulation order), epsilon-bounded under AVX2. The replay runs
 * twice over the same panels — a cache hit must see the bytes a miss
 * packed. */
TEST(PackedB, ReplayMatchesBlocked)
{
    for (const bool simd : {false, true}) {
        if (simd && !simdAvailable())
            continue;
        ScopedSimd pin(simd);
        uint32_t seed = 6200;
        for (const auto &cs : kCases) {
            Rng rng(++seed);
            std::vector<float> a(static_cast<size_t>(cs.m * cs.k));
            std::vector<float> b(static_cast<size_t>(cs.k * cs.n));
            fillRandom(a, rng);
            fillRandom(b, rng);

            std::vector<float> c_ref(
                static_cast<size_t>(cs.m * cs.n), 0.0f);
            gemmBlocked(cs.m, cs.n, cs.k, 1.0f, a.data(), b.data(),
                        0.0f, c_ref.data());

            AlignedBuf pa(gemmPackedASize(cs.m, cs.k));
            gemmPackA(cs.m, cs.k, 1.0f, a.data(), pa.p);
            AlignedBuf pb(gemmPackedBSize(cs.k, cs.n));
            gemmPackB(cs.k, cs.n, b.data(), cs.n, pb.p);
            for (int rep = 0; rep < 2; ++rep) {
                std::vector<float> c_packed(
                    static_cast<size_t>(cs.m * cs.n), 0.0f);
                gemmPackedAB(cs.m, cs.n, cs.k, pa.p, pb.p, 0.0f,
                             c_packed.data(), cs.n);
                if (!simd) {
                    ASSERT_EQ(0, std::memcmp(c_ref.data(),
                                             c_packed.data(),
                                             c_ref.size() *
                                                 sizeof(float)))
                        << "packed-B replay " << rep
                        << " differs bitwise (m=" << cs.m
                        << " n=" << cs.n << " k=" << cs.k << ")";
                } else {
                    for (int64_t i = 0; i < cs.m * cs.n; ++i) {
                        const float ref =
                            c_ref[static_cast<size_t>(i)];
                        const float got =
                            c_packed[static_cast<size_t>(i)];
                        const float tol =
                            1e-5f * std::max(1.0f, std::fabs(ref)) *
                            std::max<float>(
                                1.0f, std::sqrt((float)cs.k));
                        ASSERT_NEAR(ref, got, tol)
                            << "element " << i << " (m=" << cs.m
                            << " n=" << cs.n << " k=" << cs.k
                            << " rep=" << rep << ")";
                    }
                }
            }
        }
    }
}

/** The AVX2 tile, pinned bit for bit: each C element is beta * C
 * (beta in {0, 1}) followed by one correctly rounded fma per k step in
 * ascending order — KC slab boundaries store and reload C exactly, so
 * they do not show. Full 6x16 tiles and edge tiles (m, n off the tile
 * grid, m past one MC block), depths inside one slab, exactly one
 * slab and across two. A register-allocation change that reorders or
 * fuses differently fails here, not as a drift in a figure. */
TEST(PackedB, Avx2TileIsTheWrittenOutFmaChain)
{
    if (!simdAvailable())
        GTEST_SKIP() << "no AVX2 kernel on this build/CPU";
    ScopedSimd simd(true);
    const int64_t shapes[][2] = {{6, 16}, {12, 32}, {7, 17},
                                 {13, 5},  {1, 40}, {130, 21}};
    uint32_t seed = 7300;
    for (const auto &mn : shapes) {
        const int64_t m = mn[0], n = mn[1];
        for (const int64_t k : {1, 5, 256, 300}) {
            for (const float beta : {0.0f, 1.0f}) {
                Rng rng(++seed);
                std::vector<float> a(static_cast<size_t>(m * k));
                std::vector<float> b(static_cast<size_t>(k * n));
                std::vector<float> c(static_cast<size_t>(m * n));
                fillRandom(a, rng);
                fillRandom(b, rng);
                fillRandom(c, rng);

                std::vector<float> want = c;
                for (int64_t i = 0; i < m; ++i)
                    for (int64_t j = 0; j < n; ++j) {
                        float acc = beta == 0.0f
                                        ? 0.0f
                                        : want[static_cast<size_t>(
                                              i * n + j)];
                        for (int64_t p = 0; p < k; ++p)
                            acc = std::fma(
                                a[static_cast<size_t>(i * k + p)],
                                b[static_cast<size_t>(p * n + j)],
                                acc);
                        want[static_cast<size_t>(i * n + j)] = acc;
                    }

                AlignedBuf pa(gemmPackedASize(m, k));
                gemmPackA(m, k, 1.0f, a.data(), pa.p);
                AlignedBuf pb(gemmPackedBSize(k, n));
                gemmPackB(k, n, b.data(), n, pb.p);
                gemmPackedAB(m, n, k, pa.p, pb.p, beta, c.data(), n);
                for (int64_t i = 0; i < m * n; ++i) {
                    uint32_t wb, gb;
                    std::memcpy(&wb, &want[static_cast<size_t>(i)], 4);
                    std::memcpy(&gb, &c[static_cast<size_t>(i)], 4);
                    ASSERT_EQ(wb, gb)
                        << "element (" << i / n << ", " << i % n
                        << ") m=" << m << " n=" << n << " k=" << k
                        << " beta=" << beta;
                }
            }
        }
    }
}

/** gemmPackedAB with a C row stride wider than N must write exactly
 * the same bytes into the strided rows and leave the gap columns
 * untouched — the split executor writes GEMM results straight into
 * parent-output rows this way. */
TEST(PackedB, StridedCMatchesDense)
{
    ScopedSimd scalar(false);
    const int64_t m = 13, n = 23, k = 31, ldc = 40;
    Rng rng(8400);
    std::vector<float> a(static_cast<size_t>(m * k));
    std::vector<float> b(static_cast<size_t>(k * n));
    fillRandom(a, rng);
    fillRandom(b, rng);
    AlignedBuf pa(gemmPackedASize(m, k));
    gemmPackA(m, k, 1.0f, a.data(), pa.p);
    AlignedBuf pb(gemmPackedBSize(k, n));
    gemmPackB(k, n, b.data(), n, pb.p);

    std::vector<float> c_dense(static_cast<size_t>(m * n), 0.0f);
    gemmPackedAB(m, n, k, pa.p, pb.p, 0.0f, c_dense.data(), n);
    std::vector<float> c_strided(static_cast<size_t>(m * ldc),
                                 -7.0f);
    gemmPackedAB(m, n, k, pa.p, pb.p, 0.0f, c_strided.data(), ldc);
    for (int64_t i = 0; i < m; ++i) {
        ASSERT_EQ(0, std::memcmp(
                         c_dense.data() + i * n,
                         c_strided.data() + i * ldc,
                         static_cast<size_t>(n) * sizeof(float)))
            << "row " << i << " differs";
        for (int64_t j = n; j < ldc; ++j)
            ASSERT_EQ(-7.0f,
                      c_strided[static_cast<size_t>(i * ldc + j)])
                << "gap column (" << i << ", " << j
                << ") was clobbered";
    }
}

/** setSimdEnabled() must flip the reported kernel name (and is a
 * no-op when no SIMD kernel exists). */
TEST(GemmBlocked, SimdKernelNameFollowsOverride)
{
    {
        ScopedSimd scalar(false);
        EXPECT_STREQ(simdKernelName(), "scalar");
    }
    ScopedSimd simd(true);
    if (simdAvailable())
        EXPECT_STREQ(simdKernelName(), "avx2");
    else
        EXPECT_STREQ(simdKernelName(), "scalar");
}

} // namespace
} // namespace scnn
