#include "kernels/activations.h"

#include <cmath>

#include "kernels/microkernel.h"
#include "util/logging.h"

namespace scnn {

Tensor
reluForward(const Tensor &x)
{
    Tensor out = Tensor::uninitialized(x.shape());
    activeMicrokernel().reluRow(out.data(), x.data(), x.numel());
    return out;
}

Tensor
reluBackward(const Tensor &y, const Tensor &grad_out)
{
    SCNN_CHECK(y.shape() == grad_out.shape(),
               "relu backward shape mismatch");
    Tensor grad_x = Tensor::uninitialized(y.shape());
    activeMicrokernel().reluGradRow(grad_x.data(), y.data(),
                                    grad_out.data(), y.numel());
    return grad_x;
}

float
softmaxXentForward(const Tensor &logits,
                   const std::vector<int64_t> &labels, Tensor &probs)
{
    SCNN_REQUIRE(logits.shape().rank() == 2,
                 "softmax input must be [N, K]");
    const int64_t n = logits.shape().dim(0);
    const int64_t k = logits.shape().dim(1);
    SCNN_REQUIRE(static_cast<int64_t>(labels.size()) == n,
                 "label count mismatch");

    probs = Tensor(logits.shape());
    double total = 0.0;
    for (int64_t in = 0; in < n; ++in) {
        const float *row = logits.data() + in * k;
        float *prow = probs.data() + in * k;
        float mx = row[0];
        for (int64_t j = 1; j < k; ++j)
            mx = std::max(mx, row[j]);
        double denom = 0.0;
        for (int64_t j = 0; j < k; ++j) {
            prow[j] = std::exp(row[j] - mx);
            denom += prow[j];
        }
        const float inv = 1.0f / static_cast<float>(denom);
        for (int64_t j = 0; j < k; ++j)
            prow[j] *= inv;
        const int64_t y = labels[static_cast<size_t>(in)];
        SCNN_REQUIRE(y >= 0 && y < k, "label " << y << " out of range");
        total += -std::log(std::max(prow[y], 1e-12f));
    }
    return static_cast<float>(total / n);
}

Tensor
softmaxXentBackward(const Tensor &probs,
                    const std::vector<int64_t> &labels)
{
    const int64_t n = probs.shape().dim(0);
    const int64_t k = probs.shape().dim(1);
    Tensor grad(probs.shape());
    const float inv_n = 1.0f / static_cast<float>(n);
    for (int64_t in = 0; in < n; ++in) {
        const float *prow = probs.data() + in * k;
        float *grow = grad.data() + in * k;
        for (int64_t j = 0; j < k; ++j)
            grow[j] = prow[j] * inv_n;
        grow[labels[static_cast<size_t>(in)]] -= inv_n;
    }
    return grad;
}

} // namespace scnn
