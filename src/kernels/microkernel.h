/**
 * @file
 * Runtime-dispatched SIMD microkernels behind the blocked GEMM and
 * the im2col/rowops copy loops.
 *
 * Two implementations are registered at startup:
 *
 * - *scalar*: the bitwise-stable reference (compiler vector
 *   extensions, no FMA contraction). Results are bit-identical to the
 *   naive seed kernels — the path every committed figure output was
 *   produced with.
 * - *avx2*: an AVX2/FMA 6x16 register tile, built only on x86-64 and
 *   selected only when the CPU reports AVX2+FMA support. FMA changes
 *   float rounding, so this path is NOT bit-identical to scalar; it
 *   is guaranteed deterministic (same bits for a given problem on a
 *   given machine, for any thread count) and epsilon-close to the
 *   scalar result (see DESIGN.md, "bitwise-determinism carve-out").
 *
 * Selection happens once on first use: SCNN_SIMD=off (or =scalar)
 * forces the scalar path, anything else picks the best kernel the
 * CPU supports. Tests override programmatically via setSimdEnabled().
 *
 * The row helpers (copy/zero/bias-add/ReLU) are exact in every
 * variant — copying bytes, a single add per element and a compare
 * select round identically in scalar and SIMD form — so only the GEMM
 * tile kernel participates in the determinism carve-out.
 */
#ifndef SCNN_KERNELS_MICROKERNEL_H
#define SCNN_KERNELS_MICROKERNEL_H

#include <cstdint>

namespace scnn {

/**
 * One register-tiled GEMM inner kernel plus the row helpers the
 * im2col, bias and ReLU loops use. All function pointers are
 * non-null.
 */
struct Microkernel
{
    const char *name; ///< "scalar" or "avx2"
    int64_t mr;       ///< tile rows (A panel height)
    int64_t nr;       ///< tile cols (B panel width)

    /**
     * C[0:mr, 0:nr] += sum_p pa[p*mr + r] * pb[p*nr + j], with p
     * ascending; pa/pb are packed panels, C has row stride ldc.
     */
    void (*tile)(int64_t kc, const float *pa, const float *pb,
                 float *c, int64_t ldc);

    /** dst[0:n] = src[0:n] (exact; used by im2col row copies). */
    void (*copyRow)(float *dst, const float *src, int64_t n);

    /** dst[0:n] = 0 (exact). */
    void (*zeroRow)(float *dst, int64_t n);

    /** dst[j] += b for j in [0, n) — one add per element, so the
     * result is bit-identical in scalar and SIMD form. */
    void (*addBiasRow)(float *dst, int64_t n, float b);

    /** dst[j] = src[j] > 0 ? src[j] : +0 for j in [0, n): NaN, -0
     * and negatives give +0 (ReLU forward; exact, branch-free). */
    void (*reluRow)(float *dst, const float *src, int64_t n);

    /** dst[j] = y[j] > 0 ? g[j] : +0 for j in [0, n), from the
     * forward output y (ReLU backward; exact, branch-free). */
    void (*reluGradRow)(float *dst, const float *y, const float *g,
                        int64_t n);
};

/** The bitwise-stable reference kernel (always available). */
const Microkernel &microkernelScalar();

/** The AVX2/FMA kernel, or nullptr when the build target or the
 * running CPU does not support it. */
const Microkernel *microkernelAvx2();

/**
 * The active kernel: scalar when SIMD is disabled (SCNN_SIMD=off /
 * setSimdEnabled(false)) or unsupported, else the best SIMD kernel.
 */
const Microkernel &activeMicrokernel();

/** True when a SIMD kernel exists and is currently selected. */
bool simdEnabled();

/** True when the build + CPU could run a SIMD kernel at all. */
bool simdAvailable();

/**
 * Test/CLI hook overriding the SCNN_SIMD environment selection.
 * Enabling is a no-op when no SIMD kernel is available. Not
 * thread-safe; call only between kernel invocations.
 */
void setSimdEnabled(bool enabled);

/** Name of the active kernel ("scalar" or "avx2"). */
const char *simdKernelName();

} // namespace scnn

#endif // SCNN_KERNELS_MICROKERNEL_H
