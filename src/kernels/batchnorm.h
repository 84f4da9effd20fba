/**
 * @file
 * Batch normalization (per-channel, training and inference modes).
 */
#ifndef SCNN_KERNELS_BATCHNORM_H
#define SCNN_KERNELS_BATCHNORM_H

#include <vector>

#include "kernels/window.h"
#include "tensor/tensor.h"

namespace scnn {

/** Per-batch statistics cached by the forward pass for backward.
 * The split kernels keep one row of C statistics per patch, in patch
 * order ([P*C]); the unsplit kernels are the P = 1 case. */
struct BatchNormCache
{
    Tensor mean;      ///< per-channel batch mean, [P*C]
    Tensor batch_var; ///< per-channel (biased) batch variance, [P*C]
    Tensor inv_std;   ///< per-channel 1/sqrt(var + eps), [P*C]
    Tensor x_hat;     ///< normalized input, same shape as x
};

/**
 * Split-CNN training-mode forward without the running-statistics
 * update; an unsplit layer passes the whole plane as its one patch.
 * The per-patch clones of one BN layer run as one kernel over the
 * full-size parent tensor, each patch normalized with its own batch
 * statistics taken over its view (DESIGN 4b.7). @p patches must tile
 * the spatial extent of @p x. The cache holds one row of statistics
 * per patch, in @p patches order, so applyBatchNormRunningUpdate
 * compounds the running stats exactly as the clones' serial updates
 * would. Every patch's output, x_hat and statistics are bitwise what
 * the one-patch call computes on that patch materialized. Channels
 * fan out across the pool, so the result is bitwise-identical for
 * any thread count. Training mode never reads the running stats, so
 * the executor runs nodes sharing parameters concurrently and
 * applies the deferred updates serially afterwards.
 *
 * A call with more than one patch opens a shadow session
 * (SCNN_SHADOW_ACCESS=1) over buildSplitBatchNormPlan; a one-patch
 * call opens none, so unsplit nodes can share the executor's
 * parallel waves.
 */
Tensor splitBatchNormForwardStats(const Tensor &x,
                                  const std::vector<PatchView> &patches,
                                  const Tensor &gamma,
                                  const Tensor &beta, float eps,
                                  BatchNormCache &cache);

/** Backward of splitBatchNormForwardStats: each patch's gradient uses
 * its own statistics; grad_gamma / grad_beta accumulate the patches'
 * contributions in ascending patch order. */
Tensor splitBatchNormBackward(const Tensor &grad_out,
                              const std::vector<PatchView> &patches,
                              const Tensor &gamma,
                              const BatchNormCache &cache,
                              Tensor &grad_gamma, Tensor &grad_beta);

/** The running-statistics update, factored out so it can be
 * deferred: r = (1 - momentum) * r + momentum * stat per channel,
 * with stats taken from @p cache — one update per patch row of a
 * split cache, applied in ascending patch order. */
void applyBatchNormRunningUpdate(const BatchNormCache &cache,
                                 float momentum, Tensor &running_mean,
                                 Tensor &running_var);

/** Unsplit training-mode forward: splitBatchNormForwardStats over
 * the whole plane, then the running-statistics update. */
Tensor batchNormForward(const Tensor &x, const Tensor &gamma,
                        const Tensor &beta, Tensor &running_mean,
                        Tensor &running_var, float momentum, float eps,
                        BatchNormCache &cache);

/** Inference-mode batchnorm using running statistics. */
Tensor batchNormInference(const Tensor &x, const Tensor &gamma,
                          const Tensor &beta, const Tensor &running_mean,
                          const Tensor &running_var, float eps);

/** Unsplit backward: splitBatchNormBackward over the whole plane. */
Tensor batchNormBackward(const Tensor &grad_out, const Tensor &gamma,
                         const BatchNormCache &cache, Tensor &grad_gamma,
                         Tensor &grad_beta);

} // namespace scnn

#endif // SCNN_KERNELS_BATCHNORM_H
