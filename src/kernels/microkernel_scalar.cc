/**
 * @file
 * The bitwise-stable reference microkernel: a 4x8 register tile
 * written with compiler vector extensions (no FMA contraction at the
 * default build flags), moved here verbatim from the original
 * kernels/gemm.cc so the blocked GEMM keeps producing bits identical
 * to the naive seed kernels.
 */
#include "kernels/microkernel.h"

#include <cstring>

namespace scnn {

namespace {

constexpr int64_t MR = 4; ///< microkernel rows
constexpr int64_t NR = 8; ///< microkernel cols (two 4-float vectors)

#if defined(__GNUC__) || defined(__clang__)
#define SCNN_SCALAR_VEXT 1
typedef float v4f __attribute__((vector_size(16), may_alias));
typedef float v4fu __attribute__((vector_size(16), aligned(4), may_alias));
#endif

/**
 * C[0:MR, 0:NR] += pa * pb over kc steps, C row stride ldc. The tile
 * lives in registers; each step does mul-then-add per element in
 * ascending p, exactly the naive inner loop.
 */
#ifdef SCNN_SCALAR_VEXT
void
tileScalar(int64_t kc, const float *__restrict pa,
           const float *__restrict pb, float *__restrict c, int64_t ldc)
{
    v4f c00 = *reinterpret_cast<const v4fu *>(c + 0 * ldc);
    v4f c01 = *reinterpret_cast<const v4fu *>(c + 0 * ldc + 4);
    v4f c10 = *reinterpret_cast<const v4fu *>(c + 1 * ldc);
    v4f c11 = *reinterpret_cast<const v4fu *>(c + 1 * ldc + 4);
    v4f c20 = *reinterpret_cast<const v4fu *>(c + 2 * ldc);
    v4f c21 = *reinterpret_cast<const v4fu *>(c + 2 * ldc + 4);
    v4f c30 = *reinterpret_cast<const v4fu *>(c + 3 * ldc);
    v4f c31 = *reinterpret_cast<const v4fu *>(c + 3 * ldc + 4);
    for (int64_t p = 0; p < kc; ++p) {
        const v4f b0 = *reinterpret_cast<const v4f *>(pb);
        const v4f b1 = *reinterpret_cast<const v4f *>(pb + 4);
        const float a0 = pa[0];
        const float a1 = pa[1];
        const float a2 = pa[2];
        const float a3 = pa[3];
        const v4f va0 = {a0, a0, a0, a0};
        const v4f va1 = {a1, a1, a1, a1};
        const v4f va2 = {a2, a2, a2, a2};
        const v4f va3 = {a3, a3, a3, a3};
        c00 += va0 * b0;
        c01 += va0 * b1;
        c10 += va1 * b0;
        c11 += va1 * b1;
        c20 += va2 * b0;
        c21 += va2 * b1;
        c30 += va3 * b0;
        c31 += va3 * b1;
        pa += MR;
        pb += NR;
    }
    *reinterpret_cast<v4fu *>(c + 0 * ldc) = c00;
    *reinterpret_cast<v4fu *>(c + 0 * ldc + 4) = c01;
    *reinterpret_cast<v4fu *>(c + 1 * ldc) = c10;
    *reinterpret_cast<v4fu *>(c + 1 * ldc + 4) = c11;
    *reinterpret_cast<v4fu *>(c + 2 * ldc) = c20;
    *reinterpret_cast<v4fu *>(c + 2 * ldc + 4) = c21;
    *reinterpret_cast<v4fu *>(c + 3 * ldc) = c30;
    *reinterpret_cast<v4fu *>(c + 3 * ldc + 4) = c31;
}
#else
void
tileScalar(int64_t kc, const float *__restrict pa,
           const float *__restrict pb, float *__restrict c, int64_t ldc)
{
    float acc[MR][NR];
    for (int64_t r = 0; r < MR; ++r)
        for (int64_t j = 0; j < NR; ++j)
            acc[r][j] = c[r * ldc + j];
    for (int64_t p = 0; p < kc; ++p) {
        for (int64_t r = 0; r < MR; ++r) {
            const float av = pa[p * MR + r];
            for (int64_t j = 0; j < NR; ++j)
                acc[r][j] += av * pb[p * NR + j];
        }
    }
    for (int64_t r = 0; r < MR; ++r)
        for (int64_t j = 0; j < NR; ++j)
            c[r * ldc + j] = acc[r][j];
}
#endif

void
copyRowScalar(float *dst, const float *src, int64_t n)
{
    std::memcpy(dst, src, static_cast<size_t>(n) * sizeof(float));
}

void
zeroRowScalar(float *dst, int64_t n)
{
    std::memset(dst, 0, static_cast<size_t>(n) * sizeof(float));
}

void
addBiasRowScalar(float *dst, int64_t n, float b)
{
    for (int64_t j = 0; j < n; ++j)
        dst[j] += b;
}

/** v with its bits ANDed by the all-ones mask when s > 0 (false for
 * NaN) and by zero otherwise: exactly s > 0 ? v : +0, with no branch
 * on the data (a `?:` here compiles to comiss + ja, which
 * mispredicts about half the time on BN-normalized activations). */
float
selectPositive(float s, float v)
{
    const uint32_t mask = 0u - static_cast<uint32_t>(s > 0.0f);
    uint32_t u;
    std::memcpy(&u, &v, sizeof(u));
    u &= mask;
    std::memcpy(&v, &u, sizeof(v));
    return v;
}

void
reluRowScalar(float *__restrict dst, const float *__restrict src,
              int64_t n)
{
    for (int64_t j = 0; j < n; ++j)
        dst[j] = selectPositive(src[j], src[j]);
}

void
reluGradRowScalar(float *__restrict dst, const float *__restrict y,
                  const float *__restrict g, int64_t n)
{
    for (int64_t j = 0; j < n; ++j)
        dst[j] = selectPositive(y[j], g[j]);
}

} // namespace

const Microkernel &
microkernelScalar()
{
    static const Microkernel kernel = {
        "scalar",      MR,           NR,
        tileScalar,    copyRowScalar, zeroRowScalar, addBiasRowScalar,
        reluRowScalar, reluGradRowScalar,
    };
    return kernel;
}

} // namespace scnn
