/**
 * @file
 * Activation and loss kernels: ReLU and fused softmax cross-entropy.
 */
#ifndef SCNN_KERNELS_ACTIVATIONS_H
#define SCNN_KERNELS_ACTIVATIONS_H

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace scnn {

/** ReLU forward (out-of-place): x > 0 ? x : +0 per element, so NaN
 * and -0 map to +0. One pass through the active microkernel's
 * reluRow. */
Tensor reluForward(const Tensor &x);

/**
 * ReLU backward from the forward *output* (valid because
 * y > 0 <=> x > 0 and the kink at 0 carries zero gradient).
 */
Tensor reluBackward(const Tensor &y, const Tensor &grad_out);

/**
 * Fused softmax + cross-entropy loss.
 *
 * @param logits [N, K].
 * @param labels N class indices in [0, K).
 * @param probs [out] softmax probabilities, cached for backward.
 * @return mean cross-entropy loss over the batch.
 */
float softmaxXentForward(const Tensor &logits,
                         const std::vector<int64_t> &labels,
                         Tensor &probs);

/** Gradient of the mean loss w.r.t. logits: (p - onehot) / N. */
Tensor softmaxXentBackward(const Tensor &probs,
                           const std::vector<int64_t> &labels);

} // namespace scnn

#endif // SCNN_KERNELS_ACTIVATIONS_H
