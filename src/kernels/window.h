/**
 * @file
 * Window-based operation geometry shared by convolution and pooling:
 * kernel extents, strides, and (possibly asymmetric, possibly negative)
 * per-side padding. The Split-CNN transformation manipulates exactly
 * these parameters, so they are first-class here.
 */
#ifndef SCNN_KERNELS_WINDOW_H
#define SCNN_KERNELS_WINDOW_H

#include <cstdint>
#include <string>

namespace scnn {

/**
 * Geometry of a 2-D window-based op: Op(X, k, s, p) in the paper.
 *
 * Padding is per-side (begin/end of each spatial dimension) because
 * split patches receive asymmetric padding. Negative padding means
 * cropping (paper footnote 1).
 */
struct Window2d
{
    int64_t kh = 1; ///< kernel height
    int64_t kw = 1; ///< kernel width
    int64_t sh = 1; ///< vertical stride
    int64_t sw = 1; ///< horizontal stride
    int64_t ph_b = 0; ///< padding at the top (begin of H)
    int64_t ph_e = 0; ///< padding at the bottom (end of H)
    int64_t pw_b = 0; ///< padding at the left (begin of W)
    int64_t pw_e = 0; ///< padding at the right (end of W)

    /** Square-kernel convenience constructor with symmetric padding. */
    static Window2d
    square(int64_t k, int64_t s, int64_t p)
    {
        return Window2d{k, k, s, s, p, p, p, p};
    }

    /** Output extent along one spatial dimension. */
    static int64_t
    outExtent(int64_t in, int64_t k, int64_t s, int64_t p_b, int64_t p_e)
    {
        return (in + p_b + p_e - k) / s + 1;
    }

    /** Output height for an input of height @p ih. */
    int64_t outH(int64_t ih) const { return outExtent(ih, kh, sh, ph_b, ph_e); }

    /** Output width for an input of width @p iw. */
    int64_t outW(int64_t iw) const { return outExtent(iw, kw, sw, pw_b, pw_e); }

    bool operator==(const Window2d &) const = default;

    std::string toString() const;
};

/**
 * A rectangular patch of a parent image, addressed zero-copy: the
 * patch is parent[r0 : r0+ih, c0 : c0+iw]. Split batch norm reads and
 * writes its patches through these views, and the shadow recorder
 * claims them as contiguous hulls; the conv and pool kernels run the
 * unsplit window in parent coordinates instead.
 */
struct PatchView
{
    int64_t r0 = 0; ///< patch origin row in the parent
    int64_t c0 = 0; ///< patch origin column in the parent
    int64_t ih = 0; ///< patch height
    int64_t iw = 0; ///< patch width

    /** The whole parent image as a trivial view. */
    static PatchView
    full(int64_t ih, int64_t iw)
    {
        return PatchView{0, 0, ih, iw};
    }

    /** Linear offset of patch-local (y, x) in the parent image whose
     * row stride is @p parent_iw. Caller must ensure inBounds. */
    int64_t
    parentOffset(int64_t y, int64_t x, int64_t parent_iw) const
    {
        return (r0 + y) * parent_iw + (c0 + x);
    }
};

} // namespace scnn

#endif // SCNN_KERNELS_WINDOW_H
