/**
 * @file
 * GEMM kernels behind convolution and linear layers.
 *
 * Two implementations share one contract:
 *
 * - The *naive* triple-loop kernels (`gemmNaive` et al.), the seed
 *   implementation, kept as the bit-exact reference.
 * - The *blocked* kernels (`gemmBlocked` et al.): packed A/B panels,
 *   MC/KC/NC cache blocking, and a register-tiled MRxNR microkernel
 *   written with compiler vector extensions.
 *
 * With the *scalar* microkernel (kernels/microkernel.h) the blocked
 * kernels preserve the naive kernels' per-element floating-point
 * accumulation order (beta first, then k ascending, alpha folded at
 * the same point), so for finite inputs the two produce
 * bitwise-identical results at the default build flags — which keeps
 * every committed figure output byte-stable. (The one divergence:
 * naive skips rows where alpha*A(i,p) == 0, so results can differ on
 * inputs containing Inf/NaN or signed zeros.) With the *avx2*
 * microkernel selected, FMA contraction makes blocked results
 * epsilon-close rather than bit-identical to naive — the documented
 * determinism carve-out; they remain deterministic for a given
 * problem at any thread count.
 *
 * `gemm`/`gemmTN`/`gemmNT` always run the blocked kernels, so every
 * call site rounds the same way for a given problem and microkernel;
 * the naive kernels are kept only as the test oracle.
 */
#ifndef SCNN_KERNELS_GEMM_H
#define SCNN_KERNELS_GEMM_H

#include <cstdint>

namespace scnn {

/**
 * C = alpha * A * B + beta * C.
 *
 * A is MxK row-major, B is KxN row-major, C is MxN row-major.
 */
void gemm(int64_t m, int64_t n, int64_t k, float alpha, const float *a,
          const float *b, float beta, float *c);

/**
 * C = alpha * A^T * B + beta * C.
 *
 * A is KxM row-major (used transposed), B is KxN, C is MxN.
 */
void gemmTN(int64_t m, int64_t n, int64_t k, float alpha, const float *a,
            const float *b, float beta, float *c);

/**
 * C = alpha * A * B^T + beta * C.
 *
 * A is MxK row-major, B is NxK row-major (used transposed), C is MxN.
 */
void gemmNT(int64_t m, int64_t n, int64_t k, float alpha, const float *a,
            const float *b, float beta, float *c);

/** @name Reference (seed) implementations — always available. */
///@{
void gemmNaive(int64_t m, int64_t n, int64_t k, float alpha,
               const float *a, const float *b, float beta, float *c);
void gemmTNNaive(int64_t m, int64_t n, int64_t k, float alpha,
                 const float *a, const float *b, float beta, float *c);
void gemmNTNaive(int64_t m, int64_t n, int64_t k, float alpha,
                 const float *a, const float *b, float beta, float *c);
///@}

/** @name Cache-blocked implementations — callable directly (bench). */
///@{
void gemmBlocked(int64_t m, int64_t n, int64_t k, float alpha,
                 const float *a, const float *b, float beta, float *c);
void gemmTNBlocked(int64_t m, int64_t n, int64_t k, float alpha,
                   const float *a, const float *b, float beta, float *c);
void gemmNTBlocked(int64_t m, int64_t n, int64_t k, float alpha,
                   const float *a, const float *b, float beta, float *c);
///@}

/**
 * @name Pre-packed A panels
 *
 * Pack a row-major MxK matrix A once (alpha folded in) and reuse the
 * panels across many gemmPackedAB calls with different B operands —
 * convolution packs its weight matrix once per layer instead of once
 * per band or image group. The packed layout depends on the active
 * microkernel, so pack and consume under the same SIMD selection.
 */
///@{
/** Floats required for the packed representation of an MxK A. */
int64_t gemmPackedASize(int64_t m, int64_t k);

/** Pack row-major A (MxK) scaled by alpha into @p pa
 * (gemmPackedASize(m, k) floats, 64-byte aligned for SIMD loads). */
void gemmPackA(int64_t m, int64_t k, float alpha, const float *a,
               float *pa);

/** Number of gemmPackA calls since process start (monotonic). The
 * end-to-end benchmark reports packs per training step with this
 * counter; it is cheap enough to keep in release builds. */
int64_t gemmPackACalls();

/**
 * gemmPackA with explicit element strides: A(i, p) is read from
 * a[i*rs + p*cs], so a transposed operand packs without a transpose
 * copy — the backward pass packs W^T (rs = 1, cs = K of the forward
 * weight matrix) straight from the forward weight tensor. Identical
 * block walk and panel layout to gemmPackA (gemmPackA is the
 * rs = k, cs = 1 special case), and counted by gemmPackACalls().
 */
void gemmPackAStrided(int64_t m, int64_t k, float alpha, const float *a,
                      int64_t rs, int64_t cs, float *pa);
///@}

/**
 * @name Pre-packed B panels
 *
 * Pack a KxN B operand once into microkernel panels and consume it
 * with a packed A — the conv engine stages each band's or image
 * group's im2col columns once and multiplies them against the
 * layer's packed weights. The layout is slab-major (KC slabs
 * ascending, nr-wide column panels within a slab); like packed A, it
 * depends on the active microkernel.
 */
///@{
/** Floats required for the packed representation of a KxN B. */
int64_t gemmPackedBSize(int64_t k, int64_t n);

/** Pack B (KxN, row stride @p ldb) into @p pb
 * (gemmPackedBSize(k, n) floats, 64-byte aligned for SIMD loads). */
void gemmPackB(int64_t k, int64_t n, const float *b, int64_t ldb,
               float *pb);

/**
 * gemmPackB with explicit element strides: B(p, j) is read from
 * b[p*rs + j*cs], so a transposed operand packs without a transpose
 * copy — wgrad packs grad_out^T (rs = 1, cs = the output spatial
 * stride) straight from the parent gradient tensor. Identical slab
 * walk and panel layout to gemmPackB (gemmPackB is the rs = ldb,
 * cs = 1 special case).
 */
void gemmPackBStrided(int64_t k, int64_t n, const float *b, int64_t rs,
                      int64_t cs, float *pb);

/** C = packedA * packedB + beta * C, with C row stride @p ldc.
 * Bit-identical to gemmBlocked for the same operands under the same
 * microkernel (same per-element accumulation order). */
void gemmPackedAB(int64_t m, int64_t n, int64_t k, const float *pa,
                  const float *pb, float beta, float *c, int64_t ldc);

///@}

} // namespace scnn

#endif // SCNN_KERNELS_GEMM_H
