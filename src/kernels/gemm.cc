#include "kernels/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "kernels/microkernel.h"
#include "util/scratch_arena.h"

namespace scnn {

// ---------------------------------------------------------------------------
// Naive reference kernels (the seed implementation, unchanged).
// ---------------------------------------------------------------------------

void
gemmNaive(int64_t m, int64_t n, int64_t k, float alpha, const float *a,
          const float *b, float beta, float *c)
{
    for (int64_t i = 0; i < m; ++i) {
        float *crow = c + i * n;
        if (beta == 0.0f) {
            for (int64_t j = 0; j < n; ++j)
                crow[j] = 0.0f;
        } else if (beta != 1.0f) {
            for (int64_t j = 0; j < n; ++j)
                crow[j] *= beta;
        }
        for (int64_t p = 0; p < k; ++p) {
            const float av = alpha * a[i * k + p];
            if (av == 0.0f)
                continue;
            const float *brow = b + p * n;
            for (int64_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
gemmTNNaive(int64_t m, int64_t n, int64_t k, float alpha, const float *a,
            const float *b, float beta, float *c)
{
    for (int64_t i = 0; i < m; ++i) {
        float *crow = c + i * n;
        if (beta == 0.0f) {
            for (int64_t j = 0; j < n; ++j)
                crow[j] = 0.0f;
        } else if (beta != 1.0f) {
            for (int64_t j = 0; j < n; ++j)
                crow[j] *= beta;
        }
        for (int64_t p = 0; p < k; ++p) {
            const float av = alpha * a[p * m + i];
            if (av == 0.0f)
                continue;
            const float *brow = b + p * n;
            for (int64_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
gemmNTNaive(int64_t m, int64_t n, int64_t k, float alpha, const float *a,
            const float *b, float beta, float *c)
{
    for (int64_t i = 0; i < m; ++i) {
        const float *arow = a + i * k;
        float *crow = c + i * n;
        for (int64_t j = 0; j < n; ++j) {
            const float *brow = b + j * k;
            float acc = 0.0f;
            for (int64_t p = 0; p < k; ++p)
                acc += arow[p] * brow[p];
            crow[j] = alpha * acc +
                      (beta == 0.0f ? 0.0f : beta * crow[j]);
        }
    }
}

// ---------------------------------------------------------------------------
// Cache-blocked kernels.
//
// BLIS-style structure: jc/pc/ic loops carve C into NC-wide column
// blocks, K into KC-deep slabs, and A into MC-tall row blocks. A is
// packed into mr-row panels (alpha folded in, matching the naive
// kernels' pre-rounded `av = alpha * a`), B into nr-column panels.
// The microkernel — selected at startup from kernels/microkernel.h —
// keeps an mr x nr tile of C in registers and walks one KC slab in
// ascending p. With the scalar microkernel the per-element operation
// sequence is identical to the naive kernels', so results match
// bit-for-bit on finite data; the AVX2/FMA microkernel is the
// documented carve-out (deterministic, epsilon-close to scalar).
// ---------------------------------------------------------------------------

namespace {

constexpr int64_t MC = 128; ///< A block rows (MC*KC floats ~ L2)
constexpr int64_t KC = 256; ///< K slab depth (panels fit L1)
constexpr int64_t NC = 1024; ///< B block cols

/** Upper bounds over every registered microkernel's tile shape, for
 * the stack-allocated edge-tile buffer. */
constexpr int64_t kMaxMR = 8;
constexpr int64_t kMaxNR = 16;

int64_t
roundUp(int64_t v, int64_t to)
{
    return (v + to - 1) / to * to;
}

/** The naive kernels' beta pass, hoisted over the whole matrix. */
void
applyBeta(int64_t m, int64_t n, float beta, float *c)
{
    if (beta == 1.0f)
        return;
    const int64_t total = m * n;
    if (beta == 0.0f) {
        std::memset(c, 0, static_cast<size_t>(total) * sizeof(float));
    } else {
        for (int64_t i = 0; i < total; ++i)
            c[i] *= beta;
    }
}

/**
 * Pack an mc x kc block of A (element (i,p) at a[i*rs + p*cs]) into
 * mr-row panels: pa[(ir/mr)*kc*mr + p*mr + r], scaled by @p scale
 * and zero-padded to a full mr rows.
 */
void
packA(int64_t mc, int64_t kc, const float *a, int64_t rs, int64_t cs,
      float scale, int64_t mr, float *__restrict pa)
{
    for (int64_t ir = 0; ir < mc; ir += mr) {
        const int64_t rows = std::min(mr, mc - ir);
        for (int64_t p = 0; p < kc; ++p) {
            for (int64_t r = 0; r < rows; ++r)
                *pa++ = scale * a[(ir + r) * rs + p * cs];
            for (int64_t r = rows; r < mr; ++r)
                *pa++ = 0.0f;
        }
    }
}

/**
 * Pack a kc x nc block of B (element (p,j) at b[p*rs + j*cs]) into
 * nr-column panels: pb[(jr/nr)*kc*nr + p*nr + j], zero-padded.
 */
void
packB(int64_t kc, int64_t nc, const float *b, int64_t rs, int64_t cs,
      int64_t nr, float *__restrict pb)
{
    for (int64_t jr = 0; jr < nc; jr += nr) {
        const int64_t cols = std::min(nr, nc - jr);
        for (int64_t p = 0; p < kc; ++p) {
            for (int64_t j = 0; j < cols; ++j)
                *pb++ = b[p * rs + (jr + j) * cs];
            for (int64_t j = cols; j < nr; ++j)
                *pb++ = 0.0f;
        }
    }
}

/** Partial tile: run the full microkernel on a zero-padded copy so
 * the valid elements see the exact same operation sequence. */
void
microTileEdge(const Microkernel &uk, int64_t kc, int64_t rows,
              int64_t cols, const float *pa, const float *pb, float *c,
              int64_t ldc)
{
    alignas(64) float tile[kMaxMR * kMaxNR];
    std::memset(tile, 0,
                static_cast<size_t>(uk.mr * uk.nr) * sizeof(float));
    for (int64_t r = 0; r < rows; ++r)
        for (int64_t j = 0; j < cols; ++j)
            tile[r * uk.nr + j] = c[r * ldc + j];
    uk.tile(kc, pa, pb, tile, uk.nr);
    for (int64_t r = 0; r < rows; ++r)
        for (int64_t j = 0; j < cols; ++j)
            c[r * ldc + j] = tile[r * uk.nr + j];
}

/**
 * C += scale(A) * B with generic element strides: A(i,p) at
 * a[i*a_rs + p*a_cs] (scaled by a_scale during packing), B(p,j) at
 * b[p*b_rs + j*b_cs]. C is m x n row-major and is accumulated into.
 */
void
blockedCore(int64_t m, int64_t n, int64_t k, const float *a, int64_t a_rs,
            int64_t a_cs, float a_scale, const float *b, int64_t b_rs,
            int64_t b_cs, float *c)
{
    const Microkernel &uk = activeMicrokernel();
    const int64_t mr = uk.mr;
    const int64_t nr = uk.nr;
    auto &arena = ScratchArena::tls();
    auto guard = arena.scope();
    const int64_t nc_cap = std::min(NC, roundUp(n, nr));
    const int64_t mc_cap = std::min(MC, roundUp(m, mr));
    const int64_t kc_cap = std::min(KC, k);
    float *pb = arena.alloc(kc_cap * nc_cap);
    float *pa = arena.alloc(roundUp(mc_cap, mr) * kc_cap);

    for (int64_t jc = 0; jc < n; jc += NC) {
        const int64_t nc = std::min(NC, n - jc);
        for (int64_t pc = 0; pc < k; pc += KC) {
            const int64_t kc = std::min(KC, k - pc);
            packB(kc, nc, b + pc * b_rs + jc * b_cs, b_rs, b_cs, nr,
                  pb);
            for (int64_t ic = 0; ic < m; ic += MC) {
                const int64_t mc = std::min(MC, m - ic);
                packA(mc, kc, a + ic * a_rs + pc * a_cs, a_rs, a_cs,
                      a_scale, mr, pa);
                for (int64_t jr = 0; jr < nc; jr += nr) {
                    const int64_t cols = std::min(nr, nc - jr);
                    const float *pbp = pb + (jr / nr) * kc * nr;
                    for (int64_t ir = 0; ir < mc; ir += mr) {
                        const int64_t rows = std::min(mr, mc - ir);
                        const float *pap = pa + (ir / mr) * kc * mr;
                        float *ct = c + (ic + ir) * n + jc + jr;
                        if (rows == mr && cols == nr)
                            uk.tile(kc, pap, pbp, ct, n);
                        else
                            microTileEdge(uk, kc, rows, cols, pap,
                                          pbp, ct, n);
                    }
                }
            }
        }
    }
}

} // namespace

void
gemmBlocked(int64_t m, int64_t n, int64_t k, float alpha, const float *a,
            const float *b, float beta, float *c)
{
    applyBeta(m, n, beta, c);
    blockedCore(m, n, k, a, /*a_rs=*/k, /*a_cs=*/1, alpha, b,
                /*b_rs=*/n, /*b_cs=*/1, c);
}

void
gemmTNBlocked(int64_t m, int64_t n, int64_t k, float alpha, const float *a,
              const float *b, float beta, float *c)
{
    applyBeta(m, n, beta, c);
    blockedCore(m, n, k, a, /*a_rs=*/1, /*a_cs=*/m, alpha, b,
                /*b_rs=*/n, /*b_cs=*/1, c);
}

void
gemmNTBlocked(int64_t m, int64_t n, int64_t k, float alpha, const float *a,
              const float *b, float beta, float *c)
{
    // The naive NT kernel accumulates each dot product from zero and
    // applies alpha/beta in an epilogue; mirror that exactly with a
    // zeroed accumulator matrix.
    auto &arena = ScratchArena::tls();
    auto guard = arena.scope();
    float *acc = arena.alloc(m * n);
    std::memset(acc, 0, static_cast<size_t>(m * n) * sizeof(float));
    blockedCore(m, n, k, a, /*a_rs=*/k, /*a_cs=*/1, 1.0f, b,
                /*b_rs=*/1, /*b_cs=*/k, acc);
    for (int64_t i = 0; i < m; ++i) {
        const float *arow = acc + i * n;
        float *crow = c + i * n;
        for (int64_t j = 0; j < n; ++j)
            crow[j] = alpha * arow[j] +
                      (beta == 0.0f ? 0.0f : beta * crow[j]);
    }
}

// ---------------------------------------------------------------------------
// Pre-packed A panels: pack a row-major A once per layer and reuse it
// across every patch/image GEMM of that layer (split conv packs the
// weight matrix exactly once instead of once per patch-tile).
// ---------------------------------------------------------------------------

namespace {

std::atomic<int64_t> g_pack_a_calls{0};

} // namespace

int64_t
gemmPackACalls()
{
    return g_pack_a_calls.load(std::memory_order_relaxed);
}

int64_t
gemmPackedASize(int64_t m, int64_t k)
{
    const int64_t mr = activeMicrokernel().mr;
    int64_t total = 0;
    for (int64_t pc = 0; pc < k; pc += KC) {
        const int64_t kc = std::min(KC, k - pc);
        for (int64_t ic = 0; ic < m; ic += MC)
            total += roundUp(std::min(MC, m - ic), mr) * kc;
    }
    return total;
}

void
gemmPackA(int64_t m, int64_t k, float alpha, const float *a, float *pa)
{
    gemmPackAStrided(m, k, alpha, a, /*rs=*/k, /*cs=*/1, pa);
}

void
gemmPackAStrided(int64_t m, int64_t k, float alpha, const float *a,
                 int64_t rs, int64_t cs, float *pa)
{
    g_pack_a_calls.fetch_add(1, std::memory_order_relaxed);
    const int64_t mr = activeMicrokernel().mr;
    for (int64_t pc = 0; pc < k; pc += KC) {
        const int64_t kc = std::min(KC, k - pc);
        for (int64_t ic = 0; ic < m; ic += MC) {
            const int64_t mc = std::min(MC, m - ic);
            packA(mc, kc, a + ic * rs + pc * cs, rs, cs, alpha, mr, pa);
            pa += roundUp(mc, mr) * kc;
        }
    }
}

// ---------------------------------------------------------------------------
// Pre-packed B panels: stage a KxN operand once in microkernel layout
// and multiply it against a packed A as often as needed. The layout is
// slab-major — for KC slab pc the block starts at pc * roundUp(n, nr)
// and holds the slab's nr-wide column panels back to back — so a
// consumer can address any (slab, panel) pair directly, unlike the
// jc-major transient layout blockedCore uses internally.
// ---------------------------------------------------------------------------

int64_t
gemmPackedBSize(int64_t k, int64_t n)
{
    return k * roundUp(n, activeMicrokernel().nr);
}

void
gemmPackB(int64_t k, int64_t n, const float *b, int64_t ldb, float *pb)
{
    const int64_t nr = activeMicrokernel().nr;
    const int64_t n_round = roundUp(n, nr);
    for (int64_t pc = 0; pc < k; pc += KC) {
        const int64_t kc = std::min(KC, k - pc);
        float *slab = pb + pc * n_round;
        for (int64_t j = 0; j * nr < n; ++j) {
            const int64_t jc = j * nr;
            const int64_t cols = std::min(nr, n - jc);
            float *dst = slab + j * kc * nr;
            const float *src = b + pc * ldb + jc;
            for (int64_t p = 0; p < kc; ++p) {
                for (int64_t jj = 0; jj < cols; ++jj)
                    *dst++ = src[p * ldb + jj];
                for (int64_t jj = cols; jj < nr; ++jj)
                    *dst++ = 0.0f;
            }
        }
    }
}

void
gemmPackBStrided(int64_t k, int64_t n, const float *b, int64_t rs,
                 int64_t cs, float *pb)
{
    const int64_t nr = activeMicrokernel().nr;
    const int64_t n_round = roundUp(n, nr);
    for (int64_t pc = 0; pc < k; pc += KC) {
        const int64_t kc = std::min(KC, k - pc);
        float *slab = pb + pc * n_round;
        for (int64_t j = 0; j * nr < n; ++j) {
            const int64_t jc = j * nr;
            const int64_t cols = std::min(nr, n - jc);
            float *dst = slab + j * kc * nr;
            const float *src = b + pc * rs + jc * cs;
            for (int64_t p = 0; p < kc; ++p) {
                for (int64_t jj = 0; jj < cols; ++jj)
                    *dst++ = src[p * rs + jj * cs];
                for (int64_t jj = cols; jj < nr; ++jj)
                    *dst++ = 0.0f;
            }
        }
    }
}

void
gemmPackedAB(int64_t m, int64_t n, int64_t k, const float *pa,
             const float *pb, float beta, float *c, int64_t ldc)
{
    const Microkernel &uk = activeMicrokernel();
    const int64_t mr = uk.mr;
    const int64_t nr = uk.nr;
    const int64_t n_round = roundUp(n, nr);

    // The naive kernels' beta pass, row by row over the strided C.
    if (beta != 1.0f) {
        for (int64_t i = 0; i < m; ++i) {
            float *crow = c + i * ldc;
            if (beta == 0.0f) {
                std::memset(crow, 0,
                            static_cast<size_t>(n) * sizeof(float));
            } else {
                for (int64_t j = 0; j < n; ++j)
                    crow[j] *= beta;
            }
        }
    }

    // KC slabs ascending, exactly blockedCore's per-element
    // accumulation order, with the packed-A cursor replaying
    // gemmPackA's (pc, ic) block walk.
    const float *pa_cursor = pa;
    for (int64_t pc = 0; pc < k; pc += KC) {
        const int64_t kc = std::min(KC, k - pc);
        const float *slab = pb + pc * n_round;
        for (int64_t ic = 0; ic < m; ic += MC) {
            const int64_t mc = std::min(MC, m - ic);
            const float *pablock = pa_cursor;
            pa_cursor += roundUp(mc, mr) * kc;
            for (int64_t j = 0; j * nr < n; ++j) {
                const int64_t cols = std::min(nr, n - j * nr);
                const float *pbp = slab + j * kc * nr;
                for (int64_t ir = 0; ir < mc; ir += mr) {
                    const int64_t rows = std::min(mr, mc - ir);
                    const float *pap = pablock + (ir / mr) * kc * mr;
                    float *ct = c + (ic + ir) * ldc + j * nr;
                    if (rows == mr && cols == nr)
                        uk.tile(kc, pap, pbp, ct, ldc);
                    else
                        microTileEdge(uk, kc, rows, cols, pap, pbp,
                                      ct, ldc);
                }
            }
        }
    }
}

void
gemm(int64_t m, int64_t n, int64_t k, float alpha, const float *a,
     const float *b, float beta, float *c)
{
    gemmBlocked(m, n, k, alpha, a, b, beta, c);
}

void
gemmTN(int64_t m, int64_t n, int64_t k, float alpha, const float *a,
       const float *b, float beta, float *c)
{
    gemmTNBlocked(m, n, k, alpha, a, b, beta, c);
}

void
gemmNT(int64_t m, int64_t n, int64_t k, float alpha, const float *a,
       const float *b, float beta, float *c)
{
    gemmNTBlocked(m, n, k, alpha, a, b, beta, c);
}

} // namespace scnn
