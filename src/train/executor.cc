#include "train/executor.h"

#include <algorithm>
#include <cmath>

#include "analysis/parallel_model.h"
#include "core/split_op.h"
#include "core/splitter.h"
#include "kernels/activations.h"
#include "kernels/conv2d.h"
#include "kernels/linear.h"
#include "kernels/pool2d.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"
#include "util/threadpool.h"

namespace scnn {

ParamStore::ParamStore(const Graph &graph, Rng &rng)
    : infos_(graph.params())
{
    values_.reserve(infos_.size());
    grads_.reserve(infos_.size());
    for (const auto &info : infos_) {
        Tensor value(info.shape);
        switch (info.init) {
          case ParamInit::Zero:
            break;
          case ParamInit::One:
            value.fill(1.0f);
            break;
          case ParamInit::KaimingConv: {
            const auto &d = info.shape.dims();
            SCNN_CHECK(d.size() == 4, "conv weight must be rank 4");
            const float fan_in =
                static_cast<float>(d[1] * d[2] * d[3]);
            value.fillNormal(rng, 0.0f, std::sqrt(2.0f / fan_in));
            break;
          }
          case ParamInit::KaimingLinear: {
            const auto &d = info.shape.dims();
            SCNN_CHECK(d.size() == 2, "linear weight must be rank 2");
            const float fan_in = static_cast<float>(d[1]);
            value.fillNormal(rng, 0.0f, std::sqrt(2.0f / fan_in));
            break;
          }
        }
        values_.push_back(std::move(value));
        grads_.push_back(Tensor(info.shape));
    }
}

Tensor &
ParamStore::value(ParamId id)
{
    SCNN_CHECK(id >= 0 && id < static_cast<ParamId>(values_.size()),
               "bad param id " << id);
    return values_[static_cast<size_t>(id)];
}

const Tensor &
ParamStore::value(ParamId id) const
{
    return const_cast<ParamStore *>(this)->value(id);
}

Tensor &
ParamStore::grad(ParamId id)
{
    SCNN_CHECK(id >= 0 && id < static_cast<ParamId>(grads_.size()),
               "bad param id " << id);
    return grads_[static_cast<size_t>(id)];
}

void
ParamStore::zeroGrad()
{
    for (auto &g : grads_)
        g.fill(0.0f);
}

bool
ParamStore::compatibleWith(const Graph &graph) const
{
    if (graph.params().size() != infos_.size())
        return false;
    for (size_t i = 0; i < infos_.size(); ++i)
        if (!(graph.params()[i].shape == infos_[i].shape))
            return false;
    return true;
}

LoweredGraph
lowerGraph(const Graph &graph)
{
    LoweredGraph lowered;
    for (const TensorInfo &t : graph.tensors())
        lowered.slot_shapes.push_back(t.shape);
    const std::optional<SplitRegion> region = recoverSplitRegion(graph);
    std::vector<bool> in_region(graph.nodes().size(), false);
    if (region) {
        for (NodeId id : region->slices)
            in_region[static_cast<size_t>(id)] = true;
        for (NodeId id : region->joins)
            in_region[static_cast<size_t>(id)] = true;
        for (const SplitRegionLayer &layer : region->layers)
            for (NodeId id : layer.clones)
                in_region[static_cast<size_t>(id)] = true;
    }

    bool region_emitted = false;
    for (NodeId id : graph.topoOrder()) {
        const Node &n = graph.node(id);
        if (!in_region[static_cast<size_t>(id)]) {
            ExecNode e;
            e.node = id;
            e.win = n.win;
            e.inputs.assign(n.inputs.begin(), n.inputs.end());
            e.output = n.output;
            lowered.nodes.push_back(std::move(e));
            continue;
        }
        if (region_emitted)
            continue;
        // The whole region runs where its first node sits: it reads
        // only the sliced tensor, which is produced before any Slice.
        region_emitted = true;
        std::vector<int64_t> layer_slot;
        for (size_t k = 0; k < region->layers.size(); ++k) {
            const SplitRegionLayer &layer = region->layers[k];
            int64_t slot = region->join;
            if (k + 1 < region->layers.size()) {
                slot = static_cast<int64_t>(lowered.slot_shapes.size());
                lowered.slot_shapes.push_back(layer.out_shape);
            }
            layer_slot.push_back(slot);
            ExecNode e;
            e.node = layer.clones[0];
            e.clones = layer.clones;
            e.scheme = layer.scheme;
            e.win = layer.win;
            for (int src : layer.inputs)
                e.inputs.push_back(
                    src < 0 ? region->input
                            : layer_slot[static_cast<size_t>(src)]);
            e.output = slot;
            lowered.nodes.push_back(std::move(e));
        }
    }
    return lowered;
}

std::vector<std::vector<size_t>>
computeExecutionWaves(const LoweredGraph &lowered)
{
    std::vector<int64_t> slot_level(lowered.slot_shapes.size(), 0);
    std::vector<std::vector<size_t>> waves;
    for (size_t i = 0; i < lowered.nodes.size(); ++i) {
        const ExecNode &e = lowered.nodes[i];
        int64_t level = 0;
        for (int64_t t : e.inputs)
            level = std::max(level,
                             slot_level[static_cast<size_t>(t)] + 1);
        slot_level[static_cast<size_t>(e.output)] = level;
        if (static_cast<size_t>(level) >= waves.size())
            waves.resize(static_cast<size_t>(level) + 1);
        waves[static_cast<size_t>(level)].push_back(i);
    }
    return waves;
}

Executor::Executor(const Graph &graph, ParamStore &params)
    : graph_(graph), params_(params), lowered_(lowerGraph(graph)),
      waves_(computeExecutionWaves(lowered_))
{
    SCNN_REQUIRE(params_.compatibleWith(graph_),
                 "parameter store incompatible with graph");
    // Debug hook: prove the wave schedule and every region node's
    // split kernels race-free before the first forward() runs them.
    // Training mode is the superset model (it adds the deferred BN
    // running-stat epochs).
    if (lintParallelEnabled()) {
        auto plans = buildRegionNodePlans(graph_);
        plans.emplace_back(-1, buildExecutorWavePlan(graph_, true));
        for (const auto &[node, plan] : plans) {
            const std::vector<Diagnostic> diags =
                analyzeParallelPlan(plan);
            SCNN_CHECK(diags.empty(),
                       "parallel-safety lint: "
                           << diags.size() << " finding(s) in "
                           << plan.name << "; first: "
                           << diags.front().toString());
        }
    }
}

Tensor
Executor::computeNode(const ExecNode &e, const Tensor &input,
                      bool training, ForwardCache &c)
{
    const Node &n = graph_.node(e.node);
    auto val = [&](size_t j) -> const Tensor & {
        const int64_t t = e.inputs[j];
        SCNN_CHECK(c.values[static_cast<size_t>(t)].has_value(),
                   "value slot " << t << " not yet computed");
        return *c.values[static_cast<size_t>(t)];
    };
    const Shape &out_shape =
        lowered_.slot_shapes[static_cast<size_t>(e.output)];

    Tensor out;
    switch (n.kind) {
      case OpKind::Input:
        SCNN_REQUIRE(input.shape() == out_shape,
                     "input shape " << input.shape().toString()
                                    << " != graph input "
                                    << out_shape.toString());
        out = input;
        break;
      case OpKind::Conv2d: {
        const Tensor &w = params_.value(n.params[0]);
        const Tensor b =
            n.has_bias ? params_.value(n.params[1]) : Tensor();
        out = e.isRegion()
                  ? splitConv2dForward(val(0), w, b, e.win, e.scheme)
                  : conv2dForward(val(0), w, b, e.win);
        break;
      }
      case OpKind::MaxPool2d: {
        auto &argmax = c.argmax[static_cast<size_t>(n.id)];
        out = e.isRegion()
                  ? splitMaxPool2dForward(val(0), e.win, e.scheme, argmax)
                  : maxPool2dForward(val(0), e.win, argmax);
        break;
      }
      case OpKind::AvgPool2d:
        out = e.isRegion()
                  ? splitAvgPool2dForward(val(0), e.win, e.scheme)
                  : avgPool2dForward(val(0), e.win);
        break;
      case OpKind::GlobalAvgPool:
        out = globalAvgPoolForward(val(0));
        break;
      case OpKind::BatchNorm: {
        const Tensor &gamma = params_.value(n.params[0]);
        const Tensor &beta = params_.value(n.params[1]);
        auto &bn = c.bn[static_cast<size_t>(n.id)];
        if (!training) // elementwise: per patch or whole, same bytes
            out = batchNormInference(val(0), gamma, beta,
                                     params_.value(n.params[2]),
                                     params_.value(n.params[3]), 1e-5f);
        else if (e.isRegion())
            out = splitBatchNormForwardStats(
                val(0), splitPatchViews(e.scheme), gamma, beta, 1e-5f,
                bn);
        else
            out = batchNormForwardStats(val(0), gamma, beta, 1e-5f, bn);
        break;
      }
      case OpKind::ReLU:
        out = reluForward(val(0));
        break;
      case OpKind::Linear:
        out = linearForward(val(0), params_.value(n.params[0]),
                            n.has_bias ? params_.value(n.params[1])
                                       : Tensor());
        break;
      case OpKind::Flatten:
        out = val(0).reshape(out_shape);
        break;
      case OpKind::Add:
        out = val(0);
        for (size_t i = 1; i < e.inputs.size(); ++i)
            axpy(1.0f, val(i), out);
        break;
      case OpKind::Slice:
      case OpKind::Concat:
        SCNN_PANIC("node " << n.name
                           << " should have been lowered into its "
                              "split region");
    }
    SCNN_CHECK(out.shape() == out_shape,
               "node " << n.name << " produced " << out.shape().toString()
                       << ", expected " << out_shape.toString());
    return out;
}

Tensor
Executor::forward(const Tensor &input, bool training, ForwardCache *cache)
{
    ForwardCache local;
    ForwardCache &c = cache ? *cache : local;
    c.values.assign(lowered_.slot_shapes.size(), std::nullopt);
    c.argmax.assign(graph_.nodes().size(), {});
    c.bn.assign(graph_.nodes().size(), {});

    auto run = [&](size_t i) {
        const ExecNode &e = lowered_.nodes[i];
        c.values[static_cast<size_t>(e.output)] =
            computeNode(e, input, training, c);
    };
    auto &pool = globalPool();
    for (const auto &wave : waves_) {
        // Nodes within a wave are independent and write disjoint
        // cache slots, so a wide wave fans out across the pool. A
        // wave runs serially on the caller instead when it has fewer
        // nodes than workers or holds a region node: nested
        // parallelFor calls run inline on their worker, so fanning
        // out would strand each node's internal kernel parallelism
        // (GEMM column tiles, split band and patch items) on one
        // thread. Outputs are unchanged either way: kernels are
        // bitwise-deterministic for any thread count.
        const bool serial =
            static_cast<int>(wave.size()) < pool.threads() ||
            std::any_of(wave.begin(), wave.end(), [&](size_t i) {
                return lowered_.nodes[i].isRegion();
            });
        if (serial) {
            for (size_t i : wave)
                run(i);
            continue;
        }
        pool.parallelFor(static_cast<int64_t>(wave.size()),
                         [&](int64_t begin, int64_t end) {
                             for (int64_t k = begin; k < end; ++k)
                                 run(wave[static_cast<size_t>(k)]);
                         });
    }
    // Batchnorm running-stat updates, applied serially in topological
    // order once every wave is done (a split layer's per-patch rows
    // in ascending patch order). Training-mode BN never reads running
    // stats, so outputs are unchanged and the updates compound
    // exactly as a serial walk over the per-patch graph's clones
    // would — whichever nodes shared a wave.
    if (training) {
        for (const ExecNode &e : lowered_.nodes) {
            const Node &n = graph_.node(e.node);
            if (n.kind == OpKind::BatchNorm)
                applyBatchNormRunningUpdate(
                    c.bn[static_cast<size_t>(n.id)], 0.1f,
                    params_.value(n.params[2]),
                    params_.value(n.params[3]));
        }
    }

    const TensorId out_id = graph_.outputTensor();
    SCNN_CHECK(c.values[static_cast<size_t>(out_id)].has_value(),
               "graph output not computed");
    return *c.values[static_cast<size_t>(out_id)];
}

void
Executor::backward(const ForwardCache &cache, const Tensor &grad_output)
{
    std::vector<std::optional<Tensor>> grads(lowered_.slot_shapes.size());
    const TensorId out_id = graph_.outputTensor();
    SCNN_REQUIRE(grad_output.shape() == graph_.tensor(out_id).shape,
                 "grad_output shape mismatch");
    grads[static_cast<size_t>(out_id)] = grad_output;

    auto val = [&](int64_t t) -> const Tensor & {
        return *cache.values[static_cast<size_t>(t)];
    };
    auto shapeOf = [&](int64_t t) -> const Shape & {
        return lowered_.slot_shapes[static_cast<size_t>(t)];
    };
    auto accum = [&](int64_t t, Tensor g) {
        auto &slot = grads[static_cast<size_t>(t)];
        if (slot.has_value())
            axpy(1.0f, g, *slot);
        else
            slot = std::move(g);
    };

    for (auto it = lowered_.nodes.rbegin(); it != lowered_.nodes.rend();
         ++it) {
        const ExecNode &e = *it;
        const Node &n = graph_.node(e.node);
        if (n.kind == OpKind::Input)
            continue;
        auto &gslot = grads[static_cast<size_t>(e.output)];
        if (!gslot.has_value())
            continue; // output never influenced the loss
        const Tensor &go = *gslot;
        const int64_t in0 = e.inputs[0];

        switch (n.kind) {
          case OpKind::Input:
            break;
          case OpKind::Conv2d: {
            Tensor gx;
            Tensor &gw = params_.grad(n.params[0]);
            Tensor gb_empty;
            Tensor &gb =
                n.has_bias ? params_.grad(n.params[1]) : gb_empty;
            const Tensor &w = params_.value(n.params[0]);
            if (e.isRegion())
                splitConv2dBackward(val(in0), w, go, e.win, e.scheme, gx,
                                    gw, gb);
            else
                conv2dBackward(val(in0), w, go, e.win, gx, gw, gb);
            accum(in0, std::move(gx));
            break;
          }
          case OpKind::MaxPool2d: {
            const auto &argmax = cache.argmax[static_cast<size_t>(n.id)];
            accum(in0, e.isRegion()
                           ? splitMaxPool2dBackward(shapeOf(in0), go,
                                                    argmax, e.scheme)
                           : maxPool2dBackward(shapeOf(in0), go, argmax));
            break;
          }
          case OpKind::AvgPool2d:
            accum(in0, e.isRegion()
                           ? splitAvgPool2dBackward(shapeOf(in0), go,
                                                    e.win, e.scheme)
                           : avgPool2dBackward(shapeOf(in0), go, e.win));
            break;
          case OpKind::GlobalAvgPool:
            accum(in0, globalAvgPoolBackward(shapeOf(in0), go));
            break;
          case OpKind::BatchNorm: {
            const Tensor &gamma = params_.value(n.params[0]);
            const BatchNormCache &bn = cache.bn[static_cast<size_t>(n.id)];
            Tensor &gg = params_.grad(n.params[0]);
            Tensor &gbeta = params_.grad(n.params[1]);
            accum(in0, e.isRegion()
                           ? splitBatchNormBackward(
                                 go, splitPatchViews(e.scheme), gamma, bn,
                                 gg, gbeta)
                           : batchNormBackward(go, gamma, bn, gg, gbeta));
            break;
          }
          case OpKind::ReLU:
            accum(in0, reluBackward(val(e.output), go));
            break;
          case OpKind::Linear: {
            Tensor gx;
            Tensor gb_empty;
            Tensor &gb =
                n.has_bias ? params_.grad(n.params[1]) : gb_empty;
            linearBackward(val(in0), params_.value(n.params[0]), go, gx,
                           params_.grad(n.params[0]), gb);
            accum(in0, std::move(gx));
            break;
          }
          case OpKind::Flatten:
            accum(in0, go.reshape(shapeOf(in0)));
            break;
          case OpKind::Add:
            for (int64_t t : e.inputs)
                accum(t, go);
            break;
          case OpKind::Slice:
          case OpKind::Concat:
            SCNN_PANIC("node " << n.name
                               << " should have been lowered into its "
                                  "split region");
        }
        gslot.reset(); // free the consumed gradient early
    }
}

} // namespace scnn
