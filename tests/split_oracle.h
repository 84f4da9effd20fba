/**
 * @file
 * The reference oracle for split execution: the literal
 * slice -> per-patch op -> concat reading of Eqs. 4-7, for single
 * ops and for whole Split-CNN graphs. Every patch is materialized
 * with pad2d and run through the unsplit kernels, exactly as a
 * transformed graph spells the computation out, so the fused
 * zero-copy split kernels and the executor's lowered split regions
 * are checked against an implementation that never addresses a patch
 * inside its parent tensor.
 *
 * Everything here runs serially on the calling thread.
 */
#ifndef SCNN_TESTS_SPLIT_ORACLE_H
#define SCNN_TESTS_SPLIT_ORACLE_H

#include <optional>
#include <vector>

#include "graph/graph.h"
#include "kernels/batchnorm.h"
#include "kernels/conv2d.h"
#include "kernels/pool2d.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "train/executor.h"

namespace scnn::oracle {

/** Copy the input patch (hi, wi) out of an NCHW tensor. */
Tensor slicePatch(const Tensor &x, const SplitScheme2d &scheme, int hi,
                  int wi);

/** Copy the output block of patch (hi, wi) out of an NCHW tensor
 * laid out like the split op's output. */
Tensor sliceOutputBlock(const Tensor &y, const SplitScheme2d &scheme,
                        int hi, int wi);

/**
 * Run a window op patch by patch and concatenate the results.
 *
 * @param op callable (const Tensor &patch, const Window2d &local)
 *        -> Tensor running the underlying operation on one patch.
 */
template <typename OpFn>
Tensor
runSplitOp(const Tensor &x, const Window2d &win,
           const SplitScheme2d &scheme, OpFn &&op)
{
    std::vector<Tensor> rows;
    for (int hi = 0; hi < scheme.h.parts(); ++hi) {
        std::vector<Tensor> cols;
        for (int wi = 0; wi < scheme.w.parts(); ++wi)
            cols.push_back(op(slicePatch(x, scheme, hi, wi),
                              patchWindow(win, scheme, hi, wi)));
        rows.push_back(concatDim(cols, 3));
    }
    return concatDim(rows, 2);
}

/** Split max-pool forward; @p argmax gets each output's max as a
 * linear index into @p x (-1 for an all-padding window). */
Tensor splitMaxPoolForward(const Tensor &x, const Window2d &win,
                           const SplitScheme2d &scheme,
                           std::vector<int64_t> &argmax);

/** Split conv backward: conv2dBackward on every materialized patch,
 * patch input gradients scatter-added into the parent, grad_w /
 * grad_b accumulated across patches in patch order. */
void splitConvBackward(const Tensor &x, const Tensor &w,
                       const Tensor &grad_out, const Window2d &win,
                       const SplitScheme2d &scheme, Tensor &grad_x,
                       Tensor &grad_w, Tensor &grad_b);

/**
 * The fused conv wgrad's reduction order on bounce-buffered reads,
 * over convWork's documented decomposition: per work item, each
 * patch's rectangle is copied out and its im2col columns are staged
 * from the copy into the item's shared column matrix (an image
 * group's images side by side), the item's grad_out rows are copied
 * into a contiguous buffer, and the item products chain (beta = 1)
 * over a reduction unit — a banded image's bands ascending, or the one
 * GEMM of an image group; unit partials then reduce into @p grad_w in
 * unit order, and each image's row sums into @p grad_b in image order.
 * Bitwise equal to splitConv2dBackward's grad_w / grad_b under either
 * microkernel, while reading no patch through its parent-tensor view.
 *
 * @param grad_w [out] accumulated into (shaped [OC, C, kh, kw]).
 * @param grad_b [out] accumulated into; empty when there is no bias.
 */
void splitConvWgradFusedOrder(const Tensor &x, const Tensor &grad_out,
                              const Window2d &win,
                              const SplitScheme2d &scheme, Tensor &grad_w,
                              Tensor &grad_b);

/** Split max-pool backward: per patch, the patch's own forward
 * argmax routes its grad_out block. */
Tensor splitMaxPoolBackward(const Tensor &x, const Tensor &grad_out,
                            const Window2d &win,
                            const SplitScheme2d &scheme);

/** Split avg-pool backward, per patch. */
Tensor splitAvgPoolBackward(const Shape &in_shape,
                            const Tensor &grad_out, const Window2d &win,
                            const SplitScheme2d &scheme);

/** max|got - ref| relative to max(1, max|ref|): the bound for
 * results whose reduction order differs from the oracle's (wgrad,
 * bias and BN parameter gradients). */
float relMaxDiff(const Tensor &got, const Tensor &ref);

/** Intermediates of one graph-interpreter forward pass. */
struct GraphCache
{
    std::vector<std::optional<Tensor>> values; ///< per TensorId
    std::vector<std::vector<int64_t>> argmax;  ///< per NodeId
    std::vector<BatchNormCache> bn;            ///< per NodeId
};

/**
 * The literal per-patch graph interpreter: every node of @p graph —
 * Slice, per-patch clone and Concat alike — in topological order,
 * with training-mode batchnorm updating its running stats as it
 * goes. Returns the graph output.
 */
Tensor graphForward(const Graph &graph, ParamStore &params,
                    const Tensor &input, bool training,
                    GraphCache &cache);

/** Back-propagate @p grad_output through graphForward's cache,
 * accumulating parameter gradients into @p params. */
void graphBackward(const Graph &graph, ParamStore &params,
                   const GraphCache &cache, const Tensor &grad_output);

} // namespace scnn::oracle

#endif // SCNN_TESTS_SPLIT_ORACLE_H
