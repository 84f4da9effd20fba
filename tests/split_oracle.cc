#include "split_oracle.h"

#include <algorithm>
#include <cmath>

#include "kernels/activations.h"
#include "kernels/conv2d.h"
#include "kernels/gemm.h"
#include "kernels/im2col.h"
#include "kernels/linear.h"
#include "kernels/pool2d.h"
#include "kernels/rowops.h"
#include "util/logging.h"
#include "util/scratch_arena.h"

namespace scnn::oracle {

Tensor
slicePatch(const Tensor &x, const SplitScheme2d &scheme, int hi, int wi)
{
    const SplitPiece1d &ph = scheme.h.pieces[static_cast<size_t>(hi)];
    const SplitPiece1d &pw = scheme.w.pieces[static_cast<size_t>(wi)];
    // Crop to [in_start, in_end) on both axes by padding negatively.
    return pad2d(x, -ph.in_start, ph.in_end - x.shape().dim(2),
                 -pw.in_start, pw.in_end - x.shape().dim(3));
}

Tensor
sliceOutputBlock(const Tensor &y, const SplitScheme2d &scheme, int hi,
                 int wi)
{
    const SplitPiece1d &ph = scheme.h.pieces[static_cast<size_t>(hi)];
    const SplitPiece1d &pw = scheme.w.pieces[static_cast<size_t>(wi)];
    return pad2d(y, -ph.out_start, ph.out_end - y.shape().dim(2),
                 -pw.out_start, pw.out_end - y.shape().dim(3));
}

Tensor
splitMaxPoolForward(const Tensor &x, const Window2d &win,
                    const SplitScheme2d &scheme,
                    std::vector<int64_t> &argmax)
{
    const int64_t n = x.shape().dim(0), c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2), iw = x.shape().dim(3);
    Tensor out = runSplitOp(
        x, win, scheme, [](const Tensor &patch, const Window2d &local) {
            std::vector<int64_t> unused;
            return maxPool2dForward(patch, local, unused);
        });
    const int64_t oh = out.shape().dim(2), ow = out.shape().dim(3);
    argmax.assign(static_cast<size_t>(out.numel()), -1);
    for (int hi = 0; hi < scheme.h.parts(); ++hi)
        for (int wi = 0; wi < scheme.w.parts(); ++wi) {
            const SplitPiece1d &ph = scheme.h.pieces[hi];
            const SplitPiece1d &pw = scheme.w.pieces[wi];
            std::vector<int64_t> local;
            maxPool2dForward(slicePatch(x, scheme, hi, wi),
                             patchWindow(win, scheme, hi, wi), local);
            // Map patch-tensor indices to parent-tensor indices.
            const int64_t pih = ph.inLen(), piw = pw.inLen();
            size_t li = 0;
            for (int64_t nc = 0; nc < n * c; ++nc)
                for (int64_t oy = ph.out_start; oy < ph.out_end; ++oy)
                    for (int64_t ox = pw.out_start; ox < pw.out_end;
                         ++ox, ++li) {
                        const int64_t idx = local[li];
                        if (idx < 0)
                            continue;
                        const int64_t y = (idx / piw) % pih;
                        const int64_t xx = idx % piw;
                        argmax[static_cast<size_t>((nc * oh + oy) * ow +
                                                   ox)] =
                            (nc * ih + ph.in_start + y) * iw +
                            pw.in_start + xx;
                    }
        }
    return out;
}

void
splitConvBackward(const Tensor &x, const Tensor &w, const Tensor &grad_out,
                  const Window2d &win, const SplitScheme2d &scheme,
                  Tensor &grad_x, Tensor &grad_w, Tensor &grad_b)
{
    grad_x = Tensor(x.shape());
    for (int hi = 0; hi < scheme.h.parts(); ++hi)
        for (int wi = 0; wi < scheme.w.parts(); ++wi) {
            Tensor gxp;
            conv2dBackward(slicePatch(x, scheme, hi, wi), w,
                           sliceOutputBlock(grad_out, scheme, hi, wi),
                           patchWindow(win, scheme, hi, wi), gxp, grad_w,
                           grad_b);
            addWindow2d(gxp, scheme.h.pieces[hi].in_start,
                        scheme.w.pieces[wi].in_start, grad_x);
        }
}

void
splitConvWgradFusedOrder(const Tensor &x, const Tensor &grad_out,
                         const Window2d &win, const SplitScheme2d &scheme,
                         Tensor &grad_w, Tensor &grad_b)
{
    const int64_t n = x.shape().dim(0), c = x.shape().dim(1);
    const int64_t oc = grad_w.shape().dim(0);
    const int64_t out_h = grad_out.shape().dim(2);
    const int64_t out_w = grad_out.shape().dim(3);
    const int64_t krows = c * win.kh * win.kw;
    const int64_t ospatial = out_h * out_w;
    const bool has_bias = grad_b.numel() > 0;
    const ConvWork work = convWork(n, krows, out_w, scheme.h);
    const int64_t max_cols = work.max_cols;
    // Every patch materialized with its paddings, so its columns come
    // from the unsplit call under a window with no padding.
    Window2d bare = win;
    bare.ph_b = bare.ph_e = bare.pw_b = bare.pw_e = 0;
    std::vector<Tensor> padded;
    for (int hi = 0; hi < scheme.h.parts(); ++hi)
        for (int wi = 0; wi < scheme.w.parts(); ++wi) {
            const Window2d local = patchWindow(win, scheme, hi, wi);
            padded.push_back(pad2d(slicePatch(x, scheme, hi, wi),
                                   local.ph_b, local.ph_e, local.pw_b,
                                   local.pw_e));
        }

    auto &arena = ScratchArena::tls();
    auto guard = arena.scope();
    float *col = arena.alloc(krows * max_cols);
    float *pa_col = arena.alloc(gemmPackedASize(krows, max_cols));
    float *pb_got = arena.alloc(gemmPackedBSize(max_cols, oc));
    float *go_buf = arena.alloc(oc * max_cols);
    float *gw_unit = arena.alloc(krows * oc);

    // Per reduction unit (an image's bands, or one image group), the
    // item products chain (beta = 1); the unit's partial then folds
    // into grad_w, units in order.
    const int64_t per_unit = work.itemsPerUnit();
    for (int64_t u = 0; u < work.units; ++u) {
        for (int64_t t = 0; t < per_unit; ++t) {
            const ConvWorkItem &item =
                work.items[static_cast<size_t>(u * per_unit + t)];
            const int64_t img_cols = item.rows * out_w;
            const int64_t cols = item.imgs * img_cols;
            for (int64_t j = 0; j < item.imgs; ++j) {
                for (int bi = item.band0; bi < item.band1; ++bi) {
                    const SplitBandItem &band =
                        work.bands[static_cast<size_t>(bi)];
                    const SplitPiece1d &ph = scheme.h.pieces[band.hi];
                    const int64_t off =
                        j * img_cols + (band.oy0 - item.row0) * out_w;
                    for (int pi = 0; pi < scheme.w.parts(); ++pi) {
                        const Tensor &patch = padded[static_cast<size_t>(
                            band.hi * scheme.w.parts() + pi)];
                        const int64_t pih = patch.shape().dim(2);
                        const int64_t piw = patch.shape().dim(3);
                        im2colViewStrided(
                            patch.data() + (item.img0 + j) * c * pih * piw,
                            c, pih, piw, bare,
                            wholeImageScheme(bare, pih, piw).w, 0, pih,
                            band.oy0 - ph.out_start,
                            band.oy1 - ph.out_start,
                            col + off + scheme.w.pieces[pi].out_start, cols,
                            out_w);
                    }
                }
                // The image's grad_out rows, copied contiguous.
                const float *go = grad_out.data() +
                                  (item.img0 + j) * oc * ospatial +
                                  item.row0 * out_w;
                for (int64_t o = 0; o < oc; ++o)
                    std::copy(go + o * ospatial, go + o * ospatial + img_cols,
                              go_buf + o * cols + j * img_cols);
            }
            gemmPackA(krows, cols, 1.0f, col, pa_col);
            gemmPackBStrided(cols, oc, go_buf, /*rs=*/1, /*cs=*/cols,
                             pb_got);
            gemmPackedAB(krows, oc, cols, pa_col, pb_got,
                         t == 0 ? 0.0f : 1.0f, gw_unit, oc);
        }
        // gw_unit is [krows x oc]; grad_w is [oc x krows].
        for (int64_t o = 0; o < oc; ++o)
            for (int64_t r = 0; r < krows; ++r)
                grad_w.data()[o * krows + r] += gw_unit[r * oc + o];
    }
    // Bias: each image's row sums, images in order.
    std::vector<float> gb_img(static_cast<size_t>(oc));
    for (int64_t in = 0; has_bias && in < n; ++in) {
        std::fill(gb_img.begin(), gb_img.end(), 0.0f);
        addRowSums(grad_out.data() + in * oc * ospatial, oc, ospatial,
                   gb_img.data());
        for (int64_t o = 0; o < oc; ++o)
            grad_b.data()[o] += gb_img[static_cast<size_t>(o)];
    }
}

Tensor
splitMaxPoolBackward(const Tensor &x, const Tensor &grad_out,
                     const Window2d &win, const SplitScheme2d &scheme)
{
    Tensor grad_x(x.shape());
    for (int hi = 0; hi < scheme.h.parts(); ++hi)
        for (int wi = 0; wi < scheme.w.parts(); ++wi) {
            const Tensor patch = slicePatch(x, scheme, hi, wi);
            std::vector<int64_t> argmax;
            maxPool2dForward(patch, patchWindow(win, scheme, hi, wi),
                             argmax);
            addWindow2d(maxPool2dBackward(
                            patch.shape(),
                            sliceOutputBlock(grad_out, scheme, hi, wi),
                            argmax),
                        scheme.h.pieces[hi].in_start,
                        scheme.w.pieces[wi].in_start, grad_x);
        }
    return grad_x;
}

Tensor
splitAvgPoolBackward(const Shape &in_shape, const Tensor &grad_out,
                     const Window2d &win, const SplitScheme2d &scheme)
{
    Tensor grad_x(in_shape);
    for (int hi = 0; hi < scheme.h.parts(); ++hi)
        for (int wi = 0; wi < scheme.w.parts(); ++wi) {
            const SplitPiece1d &ph = scheme.h.pieces[hi];
            const SplitPiece1d &pw = scheme.w.pieces[wi];
            addWindow2d(avgPool2dBackward(
                            Shape{in_shape.dim(0), in_shape.dim(1),
                                  ph.inLen(), pw.inLen()},
                            sliceOutputBlock(grad_out, scheme, hi, wi),
                            patchWindow(win, scheme, hi, wi)),
                        ph.in_start, pw.in_start, grad_x);
        }
    return grad_x;
}

float
relMaxDiff(const Tensor &got, const Tensor &ref)
{
    float scale = 1.0f;
    for (int64_t i = 0; i < ref.numel(); ++i)
        scale = std::max(scale, std::abs(ref.at(i)));
    return maxAbsDiff(got, ref) / scale;
}

Tensor
graphForward(const Graph &graph, ParamStore &params, const Tensor &input,
             bool training, GraphCache &c)
{
    c.values.assign(graph.tensors().size(), std::nullopt);
    c.argmax.assign(graph.nodes().size(), {});
    c.bn.assign(graph.nodes().size(), {});
    auto val = [&](TensorId t) -> const Tensor & {
        SCNN_CHECK(c.values[static_cast<size_t>(t)].has_value(),
                   "tensor t" << t << " not yet computed");
        return *c.values[static_cast<size_t>(t)];
    };

    for (NodeId id : graph.topoOrder()) {
        const Node &n = graph.node(id);
        Tensor out;
        switch (n.kind) {
          case OpKind::Input:
            out = input;
            break;
          case OpKind::Conv2d:
            out = conv2dForward(
                val(n.inputs[0]), params.value(n.params[0]),
                n.has_bias ? params.value(n.params[1]) : Tensor(), n.win);
            break;
          case OpKind::MaxPool2d:
            out = maxPool2dForward(val(n.inputs[0]), n.win,
                                   c.argmax[static_cast<size_t>(id)]);
            break;
          case OpKind::AvgPool2d:
            out = avgPool2dForward(val(n.inputs[0]), n.win);
            break;
          case OpKind::GlobalAvgPool:
            out = globalAvgPoolForward(val(n.inputs[0]));
            break;
          case OpKind::BatchNorm:
            if (training)
                out = batchNormForward(
                    val(n.inputs[0]), params.value(n.params[0]),
                    params.value(n.params[1]), params.value(n.params[2]),
                    params.value(n.params[3]), 0.1f, 1e-5f,
                    c.bn[static_cast<size_t>(id)]);
            else
                out = batchNormInference(
                    val(n.inputs[0]), params.value(n.params[0]),
                    params.value(n.params[1]), params.value(n.params[2]),
                    params.value(n.params[3]), 1e-5f);
            break;
          case OpKind::ReLU:
            out = reluForward(val(n.inputs[0]));
            break;
          case OpKind::Linear:
            out = linearForward(val(n.inputs[0]),
                                params.value(n.params[0]),
                                n.has_bias ? params.value(n.params[1])
                                           : Tensor());
            break;
          case OpKind::Flatten:
            out = val(n.inputs[0]).reshape(graph.tensor(n.output).shape);
            break;
          case OpKind::Add:
            out = val(n.inputs[0]);
            for (size_t i = 1; i < n.inputs.size(); ++i)
                axpy(1.0f, val(n.inputs[i]), out);
            break;
          case OpKind::Slice: {
            const Tensor &x = val(n.inputs[0]);
            out = pad2d(x, -n.h_start, n.h_end - x.shape().dim(2),
                        -n.w_start, n.w_end - x.shape().dim(3));
            break;
          }
          case OpKind::Concat: {
            std::vector<Tensor> parts;
            for (TensorId t : n.inputs)
                parts.push_back(val(t));
            out = concatDim(parts, n.concat_dim);
            break;
          }
        }
        c.values[static_cast<size_t>(n.output)] = std::move(out);
    }
    return *c.values[static_cast<size_t>(graph.outputTensor())];
}

void
graphBackward(const Graph &graph, ParamStore &params, const GraphCache &c,
              const Tensor &grad_output)
{
    std::vector<std::optional<Tensor>> grads(graph.tensors().size());
    grads[static_cast<size_t>(graph.outputTensor())] = grad_output;
    auto val = [&](TensorId t) -> const Tensor & {
        return *c.values[static_cast<size_t>(t)];
    };
    auto accum = [&](TensorId t, Tensor g) {
        auto &slot = grads[static_cast<size_t>(t)];
        if (slot.has_value())
            axpy(1.0f, g, *slot);
        else
            slot = std::move(g);
    };

    const std::vector<NodeId> topo = graph.topoOrder();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        const Node &n = graph.node(*it);
        auto &gslot = grads[static_cast<size_t>(n.output)];
        if (n.kind == OpKind::Input || !gslot.has_value())
            continue;
        const Tensor &go = *gslot;
        const Shape &in_shape = graph.tensor(n.inputs[0]).shape;
        switch (n.kind) {
          case OpKind::Input:
            break;
          case OpKind::Conv2d: {
            Tensor gx, gb_empty;
            conv2dBackward(val(n.inputs[0]), params.value(n.params[0]),
                           go, n.win, gx, params.grad(n.params[0]),
                           n.has_bias ? params.grad(n.params[1])
                                      : gb_empty);
            accum(n.inputs[0], std::move(gx));
            break;
          }
          case OpKind::MaxPool2d:
            accum(n.inputs[0],
                  maxPool2dBackward(in_shape, go,
                                    c.argmax[static_cast<size_t>(n.id)]));
            break;
          case OpKind::AvgPool2d:
            accum(n.inputs[0], avgPool2dBackward(in_shape, go, n.win));
            break;
          case OpKind::GlobalAvgPool:
            accum(n.inputs[0], globalAvgPoolBackward(in_shape, go));
            break;
          case OpKind::BatchNorm:
            accum(n.inputs[0],
                  batchNormBackward(go, params.value(n.params[0]),
                                    c.bn[static_cast<size_t>(n.id)],
                                    params.grad(n.params[0]),
                                    params.grad(n.params[1])));
            break;
          case OpKind::ReLU:
            accum(n.inputs[0], reluBackward(val(n.output), go));
            break;
          case OpKind::Linear: {
            Tensor gx, gb_empty;
            linearBackward(val(n.inputs[0]), params.value(n.params[0]), go,
                           gx, params.grad(n.params[0]),
                           n.has_bias ? params.grad(n.params[1])
                                      : gb_empty);
            accum(n.inputs[0], std::move(gx));
            break;
          }
          case OpKind::Flatten:
            accum(n.inputs[0], go.reshape(in_shape));
            break;
          case OpKind::Add:
            for (TensorId t : n.inputs)
                accum(t, go);
            break;
          case OpKind::Slice: {
            // Scatter-add the patch gradient into the parent.
            auto &slot = grads[static_cast<size_t>(n.inputs[0])];
            if (!slot.has_value())
                slot = Tensor(in_shape);
            addWindow2d(go, n.h_start, n.w_start, *slot);
            break;
          }
          case OpKind::Concat: {
            std::vector<int64_t> starts;
            int64_t cursor = 0;
            for (TensorId t : n.inputs) {
                starts.push_back(cursor);
                cursor += graph.tensor(t).shape.dim(n.concat_dim);
            }
            auto pieces = splitDim(go, n.concat_dim, starts);
            for (size_t i = 0; i < n.inputs.size(); ++i)
                accum(n.inputs[i], std::move(pieces[i]));
            break;
          }
        }
        gslot.reset();
    }
}

} // namespace scnn::oracle
