/**
 * @file
 * Whole-model Split-CNN transformation (Sections 3.2 and 4.1, step 1):
 * given a splitting depth d (fraction of convolutional layers to break
 * apart) and an (h, w) patch grid, rewrite a computation graph so that
 * the prefix up to the join point operates on independent spatial
 * patches: Input -> Slice xN -> per-patch clones (sharing parameters)
 * -> Concat -> unchanged suffix.
 *
 * Split schemes propagate backward from the join point: window ops map
 * their output partition O to an input partition I via Eqs. 1-2;
 * elementwise ops pass partitions through; at forks (residual blocks)
 * the first scheme assigned to a tensor wins and other consumers
 * adapt via the total padding formulas (possibly negative padding,
 * paper footnote 1).
 */
#ifndef SCNN_CORE_SPLITTER_H
#define SCNN_CORE_SPLITTER_H

#include <cstdint>
#include <optional>
#include <vector>

#include "kernels/split_scheme.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace scnn {

/** Hyper-parameters of the Split-CNN transformation (Section 5.2). */
struct SplitOptions
{
    /** Fraction of conv layers to split, in [0, 1]. */
    double depth = 0.5;
    /** Patch-grid extents: h x w patches (paper's 2-tuple (h, w)). */
    int splits_h = 2;
    int splits_w = 2;
    /** How to pick I within [lb, ub]. */
    InputSplitPolicy policy = InputSplitPolicy::Center;
    /** Sample the join partition stochastically (Section 3.3). */
    bool stochastic = false;
    /** Wiggle room for stochastic splitting; paper uses 0.2. */
    double omega = 0.2;
};

/** What the transformation actually did. */
struct SplitReport
{
    TensorId join_tensor = kInvalidTensor; ///< cut in the original graph
    int convs_split = 0;       ///< conv layers inside the split region
    int total_convs = 0;
    double achieved_depth = 0.0; ///< convs_split / total_convs
    int patches = 0;             ///< h * w
};

/**
 * Transform @p graph into a Split-CNN.
 *
 * The returned graph has an identical parameter table (patch clones
 * share the original weights), so a ParamStore built for either graph
 * works with both — which is how a Stochastic Split-CNN is trained
 * split and evaluated unsplit.
 *
 * @param graph source model (must carry cut points).
 * @param options split hyper-parameters. depth == 0, or a 1x1 grid,
 *        returns an untransformed copy.
 * @param rng randomness for stochastic splitting; required when
 *        options.stochastic, ignored otherwise.
 * @param report optional transformation summary.
 */
Graph splitCnnTransform(const Graph &graph, const SplitOptions &options,
                        Rng *rng = nullptr, SplitReport *report = nullptr);

/**
 * One layer of a split region: the patch clones of one node of the
 * source graph. The executor runs them as one node over full-size
 * parent tensors (the concatenation of the clones' tensors).
 */
struct SplitRegionLayer
{
    /** The clones in patch order (hi * w.parts() + wi); they share
     * the source node's kind, window extents and ParamIds. */
    std::vector<NodeId> clones;
    /** Per input: the region layer producing that parent tensor, or
     * -1 for the tensor the Slice nodes crop. */
    std::vector<int> inputs;
    /** Input partition, output partition and per-patch paddings
     * (zero paddings for elementwise layers). */
    SplitScheme2d scheme;
    /** The unsplit window: the first patch's begin paddings and the
     * last patch's end paddings (window layers only). */
    Window2d win;
    /** Shape of the full-size output parent tensor. */
    Shape out_shape;
};

/** The split region of a transformed graph, as recoverSplitRegion
 * reads it back. */
struct SplitRegion
{
    TensorId input = kInvalidTensor; ///< the tensor the Slices crop
    /** The final join Concat's output: the last layer's parent. */
    TensorId join = kInvalidTensor;
    std::vector<NodeId> slices; ///< in patch order
    std::vector<NodeId> joins;  ///< the join Concat nodes
    std::vector<SplitRegionLayer> layers; ///< in topological order
};

/**
 * Recover the split region of a splitCnnTransform output from the
 * graph alone: the patch grid from the Slice geometry, one layer per
 * position of the patch chains (clones share ParamIds and sit at the
 * same position in every chain), and each layer's scheme from the
 * clones' windows and shapes. Every clone is checked against its
 * layer and the patch grid, and the joins against the output
 * partition, so the result describes exactly the function the
 * per-patch graph computes.
 *
 * @return nullopt for a graph without Slice nodes; panics when its
 *         Slice/Concat nodes do not form such a region.
 */
std::optional<SplitRegion> recoverSplitRegion(const Graph &graph);

/**
 * Pick the cut point whose conv count best matches depth * convCount.
 * Returns the index into graph.cutPoints(), or -1 for "no split"
 * (depth too small to cover even the first cut).
 */
int chooseCutPoint(const Graph &graph, double depth);

} // namespace scnn

#endif // SCNN_CORE_SPLITTER_H
