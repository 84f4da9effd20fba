/**
 * @file
 * Split-scheme mathematics from Section 3.1 of the Split-CNN paper:
 * given a window-based operation Op(X, k, s, p) and an output
 * partition O, compute the legal input partition interval
 * [lb(I_i), ub(I_i)] (Eqs. 1-2), pick I within it, and derive the
 * per-patch paddings so that patch i produces exactly outputs
 * [O_i, O_{i+1}).
 *
 * Note on the paper's padding formula: the printed
 * p_{i,b} = I_i + p_b - (O_i - 1)s is inconsistent with Eqs. 1-2 (it
 * yields s instead of 0 for the natural split where k = s). We
 * implement the first-principles derivation p_{i,b} = I_i + p_b - O_i*s,
 * which reproduces the paper's own interpretation: choosing
 * I_i = lb gives zero begin-padding, choosing I_i = ub gives k - s.
 */
#ifndef SCNN_KERNELS_SPLIT_SCHEME_H
#define SCNN_KERNELS_SPLIT_SCHEME_H

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/window.h"
#include "util/rng.h"

namespace scnn {

/** 1-D window-based op parameters: Op(X, k, s, (p_b, p_e)). */
struct WindowParams1d
{
    int64_t k = 1;   ///< window extent
    int64_t s = 1;   ///< stride (paper mandates k >= s)
    int64_t p_b = 0; ///< padding before the spatial dimension
    int64_t p_e = 0; ///< padding after the spatial dimension

    /** Output extent for input extent @p w. */
    int64_t
    outExtent(int64_t w) const
    {
        return (w + p_b + p_e - k) / s + 1;
    }
};

/** One spatial patch of a split operation along one dimension. */
struct SplitPiece1d
{
    int64_t in_start;  ///< I_i: first input element of the patch
    int64_t in_end;    ///< I_{i+1} (exclusive)
    int64_t out_start; ///< O_i: first output element produced
    int64_t out_end;   ///< O_{i+1} (exclusive)
    int64_t pad_b;     ///< p_{i,b}
    int64_t pad_e;     ///< p_{i,e}

    int64_t inLen() const { return in_end - in_start; }
    int64_t outLen() const { return out_end - out_start; }
};

/** A complete 1-D split of a window-based op into N patches. */
struct SplitScheme1d
{
    std::vector<SplitPiece1d> pieces;

    int parts() const { return static_cast<int>(pieces.size()); }

    /** Input start indices, the paper's I tuple. */
    std::vector<int64_t> inputStarts() const;

    /** Output start indices, the paper's O tuple. */
    std::vector<int64_t> outputStarts() const;

    std::string toString() const;
};

/** How to choose I_i within [lb(I_i), ub(I_i)]. */
enum class InputSplitPolicy
{
    LowerBound, ///< I_i = lb: patch keeps all data for its own outputs
    UpperBound, ///< I_i = ub: patch keeps all data of the previous one
    Center      ///< midpoint, balancing lost context on both sides
};

/**
 * Eq. 1: lb(I_i) = O_i * s - p_b — split right before the first
 * element of the window producing output O_i.
 */
int64_t splitLowerBound(const WindowParams1d &op, int64_t o_i);

/**
 * Eq. 2: ub(I_i) = (O_i - 1) * s + k - p_b — split right after the
 * last element of the window producing output O_i - 1.
 */
int64_t splitUpperBound(const WindowParams1d &op, int64_t o_i);

/**
 * The paper's ComputeInputSplitScheme (Eq. 3): pick each I_i within
 * [lb, ub] (clamped to keep patches non-empty) following @p policy.
 *
 * @param op window-op parameters with k >= s.
 * @param w input spatial extent.
 * @param output_starts the O tuple; O_0 must be 0, strictly
 *        increasing, all < outExtent(w).
 * @return the I tuple (I_0 == 0).
 */
std::vector<int64_t> computeInputSplitScheme(
    const WindowParams1d &op, int64_t w,
    const std::vector<int64_t> &output_starts,
    InputSplitPolicy policy = InputSplitPolicy::Center,
    bool allow_downsample = false);

/**
 * The paper's ComputePadding (Eq. 5) with the corrected begin-padding
 * formula, assembled into a full per-patch scheme.
 *
 * @param op window-op parameters.
 * @param w input spatial extent.
 * @param output_starts the O tuple.
 * @param input_starts the I tuple (from computeInputSplitScheme).
 */
SplitScheme1d buildSplitScheme(const WindowParams1d &op, int64_t w,
                               const std::vector<int64_t> &output_starts,
                               const std::vector<int64_t> &input_starts,
                               bool allow_downsample = false);

/**
 * Convenience: computeInputSplitScheme + buildSplitScheme.
 *
 * @param allow_downsample accept k < s ops (e.g. ResNet's 1x1/2
 *        shortcut convolutions). The paper's formulation mandates
 *        k >= s; with this extension the legal interval for I_i
 *        collapses to the single point lb(I_i) (windows are disjoint,
 *        so that split is exact). Default off.
 */
SplitScheme1d splitWindowOp(const WindowParams1d &op, int64_t w,
                            const std::vector<int64_t> &output_starts,
                            InputSplitPolicy policy =
                                InputSplitPolicy::Center,
                            bool allow_downsample = false);

/**
 * An output partition into @p n parts as even as possible:
 * O_i = floor(i * l / n). Requires l >= n >= 1.
 */
std::vector<int64_t> evenOutputSplit(int64_t l, int n);

/**
 * Section 3.3 stochastic output partition: for i > 0,
 * s_i ~ DiscreteUniform(ceil((i - w) L / N), floor((i + w) L / N))
 * with wiggle room @p omega in [0, 0.5). Samples are clamped so the
 * scheme stays strictly increasing inside (0, l).
 */
std::vector<int64_t> stochasticOutputSplit(int64_t l, int n, double omega,
                                           Rng &rng);

/** A 2-D split scheme: independent splits along H and W. */
struct SplitScheme2d
{
    SplitScheme1d h;
    SplitScheme1d w;

    int parts() const { return h.parts() * w.parts(); }
};

/**
 * Build a 2-D split scheme for a window op over an ih x iw input.
 *
 * @param win 2-D window geometry (symmetric or asymmetric padding).
 * @param ih input height; @p iw input width.
 * @param out_h_starts output partition along H (O tuple).
 * @param out_w_starts output partition along W.
 * @param policy how to pick I within [lb, ub] on both axes.
 */
SplitScheme2d splitWindowOp2d(const Window2d &win, int64_t ih, int64_t iw,
                              const std::vector<int64_t> &out_h_starts,
                              const std::vector<int64_t> &out_w_starts,
                              InputSplitPolicy policy =
                                  InputSplitPolicy::Center);

/**
 * The unsplit layer as a split scheme (Eqs. 1-7 with one patch): the
 * whole ih x iw image is the patch, with the window's own paddings.
 * Every split kernel run over it computes the unsplit op.
 */
SplitScheme2d wholeImageScheme(const Window2d &win, int64_t ih,
                               int64_t iw);

/** The local window geometry for patch (hi, wi) of a scheme. */
Window2d patchWindow(const Window2d &win, const SplitScheme2d &scheme,
                     int hi, int wi);

/** Check that every patch's local window maps its input extents to
 * its output extents (panics otherwise). */
void checkSchemeGeometry(const Window2d &win, const SplitScheme2d &scheme);

/** The input rectangle of every patch, in patch order
 * (hi * w.parts() + wi): the views the split kernels read and write
 * the parent tensors through. */
std::vector<PatchView> splitPatchViews(const SplitScheme2d &scheme);

/** @name Conv work decomposition
 *
 * The conv kernels' units of parallel work, exported so the SA6xx
 * parallel-safety analyzer (analysis/parallel_model.h) models the
 * *same* decomposition the kernels execute: both sides call convWork,
 * so a change to the banding or the image grouping changes the proof
 * obligations with it.
 */
///@{

/** Output rows per conv work band. Fixed (never derived from the
 * thread count) so the band decomposition — and with it every byte
 * of the result — is identical at any pool size. */
constexpr int64_t kSplitConvRowBand = 16;

/** Float budget of one image group's column matrix. A conv whose
 * per-image column matrix (krows x out_h*out_w) fits the budget
 * stages every band of as many consecutive images as fit side by
 * side per work item, so its GEMMs run with many more columns
 * (forward, dgrad) or a deeper K (wgrad). Fixed like
 * kSplitConvRowBand: the grouping, and the wgrad summation order it
 * fixes, depend on the shapes alone. */
constexpr int64_t kConvGroupFloats = 64 * 1024;

/** One band of conv work: parent output rows [oy0, oy1) of H piece
 * hi, full width. */
struct SplitBandItem
{
    int hi;      ///< index into the H scheme's pieces
    int64_t oy0; ///< first parent output row (inclusive)
    int64_t oy1; ///< last parent output row (exclusive)
};

/** The parent rows @p band's taps read and its dgrad scatters into:
 * the window's reach from its output rows, clipped to its H piece's
 * input rows, full width (empty when every tap is padding). The conv
 * kernels record it as their shadow claim; the SA6xx conv plans
 * predict it. */
PatchView bandInputRows(const Window2d &win, const SplitScheme1d &h,
                        const SplitBandItem &band, int64_t iw);

/** One conv work item: bands [band0, band1) of images
 * [img0, img0 + imgs). The item's column matrix holds one block of
 * rows * out_w columns per image, images side by side, each block in
 * parent output order. */
struct ConvWorkItem
{
    int64_t img0; ///< first image
    int64_t imgs; ///< images staged side by side
    int band0;    ///< first band (index into ConvWork::bands)
    int band1;    ///< one past the last band
    int64_t row0; ///< first parent output row the bands cover
    int64_t rows; ///< parent output rows the bands cover
};

/** A conv's work items and wgrad reduction units. */
struct ConvWork
{
    /** The per-image band list: each H piece's output rows chopped
     * into kSplitConvRowBand-row bands, in (hi, oy0) order, so
     * consecutive bands cover consecutive parent output rows. */
    std::vector<SplitBandItem> bands;
    std::vector<ConvWorkItem> items;  ///< in (unit, band) order
    bool grouped = false; ///< items are image groups, not bands
    int64_t group = 1;    ///< images per group (1 when banded)
    int64_t units = 0;    ///< wgrad reduction units (images or groups)
    int64_t max_cols = 0; ///< the widest item's column count

    /** Items per reduction unit: an image's bands, or one group. */
    int64_t
    itemsPerUnit() const
    {
        return units > 0 ? static_cast<int64_t>(items.size()) / units : 0;
    }
};

/**
 * The decomposition splitConv2dForward, splitConv2dBackward and
 * the SA6xx conv plans share. When one image's column matrix
 * (@p krows x the output pixels) fits kConvGroupFloats, an item is a
 * group of min(n, kConvGroupFloats / (krows * pixels)) consecutive
 * images (the last group may be short) with all their bands, and the
 * group is the wgrad reduction unit. Otherwise an item is one band of one image,
 * items run in (image, band) order, and the image is the unit.
 */
ConvWork convWork(int64_t n, int64_t krows, int64_t out_w,
                  const SplitScheme1d &h);

///@}

} // namespace scnn

#endif // SCNN_KERNELS_SPLIT_SCHEME_H
