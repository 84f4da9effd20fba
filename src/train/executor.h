/**
 * @file
 * Real (CPU) execution of a computation graph: parameter storage,
 * forward pass with intermediate caching, and back-propagation. This
 * engine runs the accuracy experiments (Figures 4-7, Table 1); the
 * timing experiments use the device simulator instead.
 *
 * A Split-CNN graph runs lowered: the patch clones of each split
 * layer execute as one node over full-size parent tensors through
 * the fused zero-copy split kernels (core/split_op.h), so no Slice,
 * Concat or per-patch kernel runs. The graph itself keeps its
 * per-patch form for the memory planner and the simulator.
 */
#ifndef SCNN_TRAIN_EXECUTOR_H
#define SCNN_TRAIN_EXECUTOR_H

#include <optional>
#include <vector>

#include "kernels/split_scheme.h"
#include "graph/graph.h"
#include "kernels/batchnorm.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace scnn {

/**
 * Storage for parameter values and gradients, keyed by ParamId.
 *
 * The Split-CNN transformation preserves the parameter table of the
 * original graph, so one ParamStore can be shared by the unsplit
 * graph, the split graph, and per-minibatch stochastic-split graphs
 * (the mechanism behind evaluating a Stochastic Split-CNN unsplit).
 */
class ParamStore
{
  public:
    /** Allocate and initialize parameters per the graph's table. */
    ParamStore(const Graph &graph, Rng &rng);

    Tensor &value(ParamId id);
    const Tensor &value(ParamId id) const;
    Tensor &grad(ParamId id);

    /** Zero all gradient tensors. */
    void zeroGrad();

    size_t size() const { return values_.size(); }

    /** True if @p graph has the identical parameter table. */
    bool compatibleWith(const Graph &graph) const;

  private:
    std::vector<ParamInfo> infos_;
    std::vector<Tensor> values_;
    std::vector<Tensor> grads_;
};

/** Per-step intermediate state kept between forward and backward. */
struct ForwardCache
{
    /** Forward values by value slot (see LoweredGraph): values[t] is
     * tensor t's value. In a split graph the sliced input and the
     * join hold full-size tensors and per-patch tensors stay empty. */
    std::vector<std::optional<Tensor>> values;
    /** Max-pool argmax per NodeId (a split layer's at its first
     * clone). */
    std::vector<std::vector<int64_t>> argmax;
    /** BatchNorm statistics per NodeId (a split layer's at its first
     * clone, one row per patch). */
    std::vector<BatchNormCache> bn;
};

/**
 * One node as the executor runs it: a graph node, or a *region node*
 * standing for the patch clones of one split-region layer. A region
 * node reads and writes full-size parent tensors and carries the
 * layer's scheme; its conv, pool and BN run through the split
 * kernels, its ReLU and Add elementwise over the parents.
 */
struct ExecNode
{
    /** The graph node (a region node: its first clone), which
     * supplies the op kind, parameters and bias flag. */
    NodeId node = -1;
    /** A region node's clones in patch order; empty otherwise. */
    std::vector<NodeId> clones;
    SplitScheme2d scheme; ///< a region node's split
    Window2d win;         ///< the window (a region node: unsplit)
    std::vector<int64_t> inputs; ///< value slots read
    int64_t output = -1;         ///< value slot written

    bool isRegion() const { return !clones.empty(); }
};

/**
 * A graph lowered for execution. Value slots [0, tensors) are the
 * graph's TensorIds; a split region's sliced input and join keep
 * theirs (they hold the full-size parents), and its other parent
 * tensors get the slots past them.
 */
struct LoweredGraph
{
    std::vector<ExecNode> nodes;    ///< topological order
    std::vector<Shape> slot_shapes; ///< shape of every value slot
};

/**
 * Lower @p graph: every node outside a split region maps to itself,
 * and the region recoverSplitRegion finds maps to one region node per
 * layer, in layer order, in place of its Slice, clone and join
 * nodes.
 */
LoweredGraph lowerGraph(const Graph &graph);

/**
 * Group the lowered nodes into dependency levels ("waves"): a node's
 * wave is 1 + the deepest wave among its input producers, so every
 * node in a wave depends only on earlier waves and nodes within one
 * wave can run concurrently. Waves list indices into lowered.nodes
 * and are a function of the graph alone (thread-count independent).
 * Exported so the SA6xx parallel-safety analyzer
 * (analysis/parallel_model.h) models the exact schedule the
 * executor runs.
 */
std::vector<std::vector<size_t>>
computeExecutionWaves(const LoweredGraph &lowered);

/**
 * Graph executor bound to a graph and a parameter store.
 */
class Executor
{
  public:
    Executor(const Graph &graph, ParamStore &params);

    /**
     * Run the forward pass.
     *
     * @param input value for the graph input tensor.
     * @param training true for batch-stat BN (and running-stat
     *        updates); false for inference-mode BN.
     * @param cache [out] intermediates for backward; may be null for
     *        inference.
     * @return the graph output tensor value (logits).
     */
    Tensor forward(const Tensor &input, bool training,
                   ForwardCache *cache);

    /**
     * Back-propagate @p grad_output (gradient w.r.t. the graph
     * output) and accumulate parameter gradients into the store.
     */
    void backward(const ForwardCache &cache, const Tensor &grad_output);

  private:
    /**
     * Evaluate one node from cached input values. Training-mode
     * batchnorm computes batch statistics only; forward() applies the
     * running-stat updates afterwards, serially.
     */
    Tensor computeNode(const ExecNode &e, const Tensor &input,
                       bool training, ForwardCache &c);

    const Graph &graph_;
    ParamStore &params_;
    LoweredGraph lowered_;
    /** lowered_.nodes in dependency waves (computeExecutionWaves);
     * the nodes of one wave may run concurrently. */
    std::vector<std::vector<size_t>> waves_;
};

} // namespace scnn

#endif // SCNN_TRAIN_EXECUTOR_H
