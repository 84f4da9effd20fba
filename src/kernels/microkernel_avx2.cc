/**
 * @file
 * AVX2/FMA microkernel: a 6x16 register tile (12 accumulator ymm
 * registers, two B vectors, one broadcast) plus vectorized row
 * helpers (bias add, branch-free ReLU forward and backward). This
 * translation unit is the only one compiled with -mavx2 -mfma (see
 * src/CMakeLists.txt); everything else stays at
 * the portable baseline so the binary still runs on pre-AVX2 CPUs —
 * microkernelAvx2() returns nullptr unless the running CPU reports
 * both features.
 *
 * Determinism carve-out: vfmadd keeps the infinitely-precise product
 * before the add, so this kernel's results differ from the scalar
 * reference in the last ulps. They are still a pure function of the
 * problem (no thread-count or scheduling dependence): each C element
 * is accumulated by exactly one tile invocation per KC slab in
 * ascending p, and slab boundaries depend only on (m, n, k).
 */
#include "kernels/microkernel.h"

#if defined(SCNN_BUILD_AVX2)

#include <cstring>
#include <immintrin.h>

namespace scnn {

namespace {

constexpr int64_t MR = 6;  ///< tile rows
constexpr int64_t NR = 16; ///< tile cols (two 8-float ymm vectors)

/**
 * The tile's 12 accumulators are named locals, not an acc[MR][2]
 * array: GCC at -O2 does not unroll the r loops of the array form, so
 * the array stays on the stack and every FMA becomes a load, an FMA
 * and a store (~22 GF/s). Named, the 12 accumulators, two B vectors
 * and one broadcast fill 15 of the 16 ymm registers whatever the
 * compiler's unroll heuristics decide. Per element the sequence is
 * unchanged: C loaded, fma(a, b, acc) for p ascending, C stored.
 */
void
tileAvx2(int64_t kc, const float *__restrict pa,
         const float *__restrict pb, float *__restrict c, int64_t ldc)
{
    __m256 c00 = _mm256_loadu_ps(c + 0 * ldc);
    __m256 c01 = _mm256_loadu_ps(c + 0 * ldc + 8);
    __m256 c10 = _mm256_loadu_ps(c + 1 * ldc);
    __m256 c11 = _mm256_loadu_ps(c + 1 * ldc + 8);
    __m256 c20 = _mm256_loadu_ps(c + 2 * ldc);
    __m256 c21 = _mm256_loadu_ps(c + 2 * ldc + 8);
    __m256 c30 = _mm256_loadu_ps(c + 3 * ldc);
    __m256 c31 = _mm256_loadu_ps(c + 3 * ldc + 8);
    __m256 c40 = _mm256_loadu_ps(c + 4 * ldc);
    __m256 c41 = _mm256_loadu_ps(c + 4 * ldc + 8);
    __m256 c50 = _mm256_loadu_ps(c + 5 * ldc);
    __m256 c51 = _mm256_loadu_ps(c + 5 * ldc + 8);
    for (int64_t p = 0; p < kc; ++p) {
        const __m256 b0 = _mm256_load_ps(pb);
        const __m256 b1 = _mm256_load_ps(pb + 8);
        __m256 a = _mm256_broadcast_ss(pa + 0);
        c00 = _mm256_fmadd_ps(a, b0, c00);
        c01 = _mm256_fmadd_ps(a, b1, c01);
        a = _mm256_broadcast_ss(pa + 1);
        c10 = _mm256_fmadd_ps(a, b0, c10);
        c11 = _mm256_fmadd_ps(a, b1, c11);
        a = _mm256_broadcast_ss(pa + 2);
        c20 = _mm256_fmadd_ps(a, b0, c20);
        c21 = _mm256_fmadd_ps(a, b1, c21);
        a = _mm256_broadcast_ss(pa + 3);
        c30 = _mm256_fmadd_ps(a, b0, c30);
        c31 = _mm256_fmadd_ps(a, b1, c31);
        a = _mm256_broadcast_ss(pa + 4);
        c40 = _mm256_fmadd_ps(a, b0, c40);
        c41 = _mm256_fmadd_ps(a, b1, c41);
        a = _mm256_broadcast_ss(pa + 5);
        c50 = _mm256_fmadd_ps(a, b0, c50);
        c51 = _mm256_fmadd_ps(a, b1, c51);
        pa += MR;
        pb += NR;
    }
    _mm256_storeu_ps(c + 0 * ldc, c00);
    _mm256_storeu_ps(c + 0 * ldc + 8, c01);
    _mm256_storeu_ps(c + 1 * ldc, c10);
    _mm256_storeu_ps(c + 1 * ldc + 8, c11);
    _mm256_storeu_ps(c + 2 * ldc, c20);
    _mm256_storeu_ps(c + 2 * ldc + 8, c21);
    _mm256_storeu_ps(c + 3 * ldc, c30);
    _mm256_storeu_ps(c + 3 * ldc + 8, c31);
    _mm256_storeu_ps(c + 4 * ldc, c40);
    _mm256_storeu_ps(c + 4 * ldc + 8, c41);
    _mm256_storeu_ps(c + 5 * ldc, c50);
    _mm256_storeu_ps(c + 5 * ldc + 8, c51);
}

void
copyRowAvx2(float *dst, const float *src, int64_t n)
{
    // memcpy already vectorizes well and is exact; keep it.
    std::memcpy(dst, src, static_cast<size_t>(n) * sizeof(float));
}

void
zeroRowAvx2(float *dst, int64_t n)
{
    std::memset(dst, 0, static_cast<size_t>(n) * sizeof(float));
}

void
addBiasRowAvx2(float *dst, int64_t n, float b)
{
    const __m256 vb = _mm256_set1_ps(b);
    int64_t j = 0;
    for (; j + 8 <= n; j += 8)
        _mm256_storeu_ps(dst + j,
                         _mm256_add_ps(_mm256_loadu_ps(dst + j), vb));
    for (; j < n; ++j)
        dst[j] += b;
}

void
reluRowAvx2(float *dst, const float *src, int64_t n)
{
    // maxps returns its second operand when either is NaN or both are
    // zeros, so max(x, +0) is exactly x > 0 ? x : +0.
    const __m256 zero = _mm256_setzero_ps();
    int64_t j = 0;
    for (; j + 8 <= n; j += 8)
        _mm256_storeu_ps(dst + j,
                         _mm256_max_ps(_mm256_loadu_ps(src + j), zero));
    for (; j < n; ++j)
        dst[j] = src[j] > 0.0f ? src[j] : 0.0f;
}

void
reluGradRowAvx2(float *dst, const float *y, const float *g, int64_t n)
{
    // 0 < y is false for NaN (ordered compare), and and(0, g) is +0,
    // so the mask select is exactly y > 0 ? g : +0.
    const __m256 zero = _mm256_setzero_ps();
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 pos =
            _mm256_cmp_ps(zero, _mm256_loadu_ps(y + j), _CMP_LT_OQ);
        _mm256_storeu_ps(dst + j,
                         _mm256_and_ps(pos, _mm256_loadu_ps(g + j)));
    }
    for (; j < n; ++j)
        dst[j] = y[j] > 0.0f ? g[j] : 0.0f;
}

} // namespace

const Microkernel *
microkernelAvx2()
{
    static const bool supported = [] {
#if defined(__GNUC__) || defined(__clang__)
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma");
#else
        return false;
#endif
    }();
    if (!supported)
        return nullptr;
    static const Microkernel kernel = {
        "avx2",      MR,          NR,
        tileAvx2,    copyRowAvx2, zeroRowAvx2, addBiasRowAvx2,
        reluRowAvx2, reluGradRowAvx2,
    };
    return &kernel;
}

} // namespace scnn

#else // !SCNN_BUILD_AVX2: non-x86 target or flag-less build.

namespace scnn {

const Microkernel *
microkernelAvx2()
{
    return nullptr;
}

} // namespace scnn

#endif
