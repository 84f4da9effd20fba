/**
 * @file
 * The halo-geometry sweep the split conv and pool tests pit against
 * the per-patch oracle (split_oracle.h): 1px output borders, uneven
 * patch grids, strided windows, 2-row halos, tiny patches, and every
 * InputSplitPolicy over k in {1, 2, 3, 5} and s in {1, 2}. LowerBound
 * and UpperBound give the 0 and k - s begin paddings, where a patch's
 * taps differ most from the unsplit op's; the 1x1/2 row is ResNet's
 * downsampling shortcut (allow_downsample).
 */
#ifndef SCNN_TESTS_HALO_CASES_H
#define SCNN_TESTS_HALO_CASES_H

#include <cstdint>

#include "kernels/split_scheme.h"
#include "kernels/window.h"

namespace scnn {

/** One geometry: a square window over an ih x iw input split into
 * nh x nw even output parts. */
struct HaloCase
{
    const char *name;
    int64_t ih, iw;  ///< input extents
    int64_t k, s, p; ///< square kernel/stride/pad
    int nh, nw;      ///< split parts per axis
    InputSplitPolicy policy = InputSplitPolicy::Center;

    Window2d win() const { return Window2d::square(k, s, p); }

    /** The even output split under policy; a k < s window takes the
     * allow_downsample extension. */
    SplitScheme2d
    scheme() const
    {
        const WindowParams1d op{k, s, p, p};
        SplitScheme2d sc;
        sc.h = splitWindowOp(op, ih, evenOutputSplit(op.outExtent(ih), nh),
                             policy, k < s);
        sc.w = splitWindowOp(op, iw, evenOutputSplit(op.outExtent(iw), nw),
                             policy, k < s);
        return sc;
    }
};

inline constexpr InputSplitPolicy kLower = InputSplitPolicy::LowerBound;
inline constexpr InputSplitPolicy kUpper = InputSplitPolicy::UpperBound;

/** The conv sweep (the backward pool tests reuse it). */
inline const HaloCase kHaloCases[] = {
    {"borders_1px", 9, 9, 3, 1, 1, 3, 3},   // 1px output borders
    {"uneven", 17, 19, 3, 1, 1, 3, 4},      // uneven patch extents
    {"stride2", 18, 22, 3, 2, 1, 2, 3},     // strided windows
    {"big_halo", 16, 16, 5, 1, 2, 2, 2},    // 2-row halos
    {"no_pad", 14, 12, 3, 1, 0, 2, 2},      // halo only, no zeros
    {"tiny_patches", 7, 7, 3, 1, 1, 3, 3},  // patches of 2-3 rows
    {"lower_k3s1", 13, 11, 3, 1, 1, 3, 2, kLower},
    {"upper_k3s1", 13, 11, 3, 1, 1, 3, 2, kUpper},
    {"lower_k3s2", 18, 22, 3, 2, 1, 2, 3, kLower},
    {"upper_k3s2", 18, 22, 3, 2, 1, 2, 3, kUpper},
    {"lower_k5s1", 16, 15, 5, 1, 2, 3, 2, kLower},
    {"upper_k5s1", 16, 15, 5, 1, 2, 3, 2, kUpper},
    {"center_k5s2", 19, 21, 5, 2, 2, 2, 3},
    {"lower_k5s2", 19, 21, 5, 2, 2, 2, 3, kLower},
    {"upper_k5s2", 19, 21, 5, 2, 2, 2, 3, kUpper},
    {"center_k2s1", 12, 10, 2, 1, 0, 2, 3},
    {"lower_k2s1", 12, 10, 2, 1, 1, 2, 3, kLower},
    {"upper_k2s1", 12, 10, 2, 1, 1, 2, 3, kUpper},
    {"natural_k2s2", 16, 14, 2, 2, 0, 2, 2, kUpper},
    {"k1s1", 9, 10, 1, 1, 0, 3, 2, kLower},
    {"shortcut_1x1s2", 16, 14, 1, 2, 0, 2, 2},
};

} // namespace scnn

#endif // SCNN_TESTS_HALO_CASES_H
