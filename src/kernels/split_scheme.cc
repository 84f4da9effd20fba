#include "kernels/split_scheme.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.h"

namespace scnn {

std::vector<int64_t>
SplitScheme1d::inputStarts() const
{
    std::vector<int64_t> starts;
    starts.reserve(pieces.size());
    for (const auto &p : pieces)
        starts.push_back(p.in_start);
    return starts;
}

std::vector<int64_t>
SplitScheme1d::outputStarts() const
{
    std::vector<int64_t> starts;
    starts.reserve(pieces.size());
    for (const auto &p : pieces)
        starts.push_back(p.out_start);
    return starts;
}

std::string
SplitScheme1d::toString() const
{
    std::ostringstream os;
    for (size_t i = 0; i < pieces.size(); ++i) {
        const auto &p = pieces[i];
        if (i)
            os << ", ";
        os << "{in [" << p.in_start << ',' << p.in_end << ") out ["
           << p.out_start << ',' << p.out_end << ") pad (" << p.pad_b
           << ',' << p.pad_e << ")}";
    }
    return os.str();
}

int64_t
splitLowerBound(const WindowParams1d &op, int64_t o_i)
{
    return o_i * op.s - op.p_b;
}

int64_t
splitUpperBound(const WindowParams1d &op, int64_t o_i)
{
    return (o_i - 1) * op.s + op.k - op.p_b;
}

namespace {

void
validateOutputStarts(const WindowParams1d &op, int64_t w,
                     const std::vector<int64_t> &output_starts,
                     bool allow_downsample)
{
    SCNN_REQUIRE(allow_downsample || op.k >= op.s,
                 "Split-CNN mandates k >= s, got k=" << op.k
                                                     << " s=" << op.s);
    SCNN_REQUIRE(op.k >= 1 && op.s >= 1, "invalid window parameters");
    SCNN_REQUIRE(!output_starts.empty(), "empty output split scheme");
    SCNN_REQUIRE(output_starts[0] == 0,
                 "output split scheme must start at 0");
    const int64_t l = op.outExtent(w);
    SCNN_REQUIRE(l >= 1, "op produces empty output for extent " << w);
    for (size_t i = 1; i < output_starts.size(); ++i) {
        SCNN_REQUIRE(output_starts[i] > output_starts[i - 1],
                     "output split scheme must be strictly increasing");
        SCNN_REQUIRE(output_starts[i] < l,
                     "output split start " << output_starts[i]
                                           << " >= output extent " << l);
    }
}

} // namespace

std::vector<int64_t>
computeInputSplitScheme(const WindowParams1d &op, int64_t w,
                        const std::vector<int64_t> &output_starts,
                        InputSplitPolicy policy, bool allow_downsample)
{
    validateOutputStarts(op, w, output_starts, allow_downsample);
    const int n = static_cast<int>(output_starts.size());

    std::vector<int64_t> input_starts(n);
    input_starts[0] = 0;
    for (int i = 1; i < n; ++i) {
        const int64_t o_i = output_starts[i];
        int64_t lb = splitLowerBound(op, o_i);
        // For k < s (downsampling extension) windows are disjoint and
        // the only exact split point is lb itself.
        int64_t ub = op.k >= op.s ? splitUpperBound(op, o_i) : lb;
        SCNN_CHECK(lb <= ub, "lb > ub; requires k >= s");
        // Keep every patch non-empty and inside the input.
        lb = std::max(lb, input_starts[i - 1] + 1);
        ub = std::min(ub, w - (n - i)); // room for the remaining patches
        SCNN_REQUIRE(lb <= ub,
                     "no legal input split for output start "
                         << o_i << " (input extent " << w << ")");
        switch (policy) {
          case InputSplitPolicy::LowerBound:
            input_starts[i] = lb;
            break;
          case InputSplitPolicy::UpperBound:
            input_starts[i] = ub;
            break;
          case InputSplitPolicy::Center:
            input_starts[i] = (lb + ub + 1) / 2;
            break;
        }
    }
    return input_starts;
}

SplitScheme1d
buildSplitScheme(const WindowParams1d &op, int64_t w,
                 const std::vector<int64_t> &output_starts,
                 const std::vector<int64_t> &input_starts,
                 bool allow_downsample)
{
    validateOutputStarts(op, w, output_starts, allow_downsample);
    SCNN_REQUIRE(input_starts.size() == output_starts.size(),
                 "I and O tuple size mismatch");
    SCNN_REQUIRE(input_starts[0] == 0, "I_0 must be 0");
    const int n = static_cast<int>(output_starts.size());
    const int64_t l = op.outExtent(w);

    SplitScheme1d scheme;
    scheme.pieces.resize(n);
    for (int i = 0; i < n; ++i) {
        SplitPiece1d &piece = scheme.pieces[i];
        piece.in_start = input_starts[i];
        piece.in_end = (i + 1 < n) ? input_starts[i + 1] : w;
        piece.out_start = output_starts[i];
        piece.out_end = (i + 1 < n) ? output_starts[i + 1] : l;
        SCNN_REQUIRE(piece.in_end > piece.in_start,
                     "empty input patch " << i);

        // Corrected Eq. 5 begin padding (see file header): the window
        // for output O_i starts at global index O_i*s - p_b, so the
        // patch must be padded by I_i - (O_i*s - p_b) on the left.
        // For i == 0 this degenerates to p_b since I_0 = O_0 = 0.
        piece.pad_b = piece.in_start + op.p_b - piece.out_start * op.s;

        if (i + 1 < n) {
            // Eq. 5 end padding: the window for output O_{i+1} - 1
            // ends (exclusive) at (O_{i+1}-1)*s + k - p_b; pad the
            // patch up to that point.
            piece.pad_e = (piece.out_end - 1) * op.s + op.k - op.p_b -
                          piece.in_end;
        } else {
            piece.pad_e = op.p_e;
        }

        // Sanity: the padded patch yields exactly outLen() outputs.
        const WindowParams1d local{op.k, op.s, piece.pad_b, piece.pad_e};
        SCNN_CHECK(local.outExtent(piece.inLen()) == piece.outLen(),
                   "patch " << i << " produces "
                            << local.outExtent(piece.inLen())
                            << " outputs, expected " << piece.outLen());
    }
    return scheme;
}

SplitScheme1d
splitWindowOp(const WindowParams1d &op, int64_t w,
              const std::vector<int64_t> &output_starts,
              InputSplitPolicy policy, bool allow_downsample)
{
    return buildSplitScheme(op, w, output_starts,
                            computeInputSplitScheme(op, w, output_starts,
                                                    policy,
                                                    allow_downsample),
                            allow_downsample);
}

std::vector<int64_t>
evenOutputSplit(int64_t l, int n)
{
    SCNN_REQUIRE(n >= 1, "split count must be >= 1");
    SCNN_REQUIRE(l >= n, "cannot split extent " << l << " into " << n
                                                << " non-empty parts");
    std::vector<int64_t> starts(n);
    for (int i = 0; i < n; ++i)
        starts[i] = i * l / n;
    return starts;
}

std::vector<int64_t>
stochasticOutputSplit(int64_t l, int n, double omega, Rng &rng)
{
    SCNN_REQUIRE(omega >= 0.0 && omega < 0.5,
                 "wiggle room must be in [0, 0.5), got " << omega);
    SCNN_REQUIRE(n >= 1, "split count must be >= 1");
    SCNN_REQUIRE(l >= n, "cannot split extent " << l << " into " << n
                                                << " non-empty parts");
    std::vector<int64_t> starts(n);
    starts[0] = 0;
    for (int i = 1; i < n; ++i) {
        const double ld = static_cast<double>(l);
        int64_t lo = static_cast<int64_t>(
            std::ceil((i - omega) * ld / n));
        int64_t hi = static_cast<int64_t>(
            std::floor((i + omega) * ld / n));
        // Clamp to keep the scheme strictly increasing within (0, l).
        lo = std::max(lo, starts[i - 1] + 1);
        hi = std::min(hi, l - (n - i));
        if (lo > hi)
            lo = hi = std::min(std::max(starts[i - 1] + 1, lo), l - (n - i));
        starts[i] = rng.uniformInt(lo, hi);
    }
    return starts;
}

SplitScheme2d
splitWindowOp2d(const Window2d &win, int64_t ih, int64_t iw,
                const std::vector<int64_t> &out_h_starts,
                const std::vector<int64_t> &out_w_starts,
                InputSplitPolicy policy)
{
    const WindowParams1d hop{win.kh, win.sh, win.ph_b, win.ph_e};
    const WindowParams1d wop{win.kw, win.sw, win.pw_b, win.pw_e};
    SplitScheme2d scheme;
    scheme.h = splitWindowOp(hop, ih, out_h_starts, policy);
    scheme.w = splitWindowOp(wop, iw, out_w_starts, policy);
    return scheme;
}

SplitScheme2d
wholeImageScheme(const Window2d &win, int64_t ih, int64_t iw)
{
    SplitScheme2d whole;
    whole.h.pieces = {{0, ih, 0, win.outH(ih), win.ph_b, win.ph_e}};
    whole.w.pieces = {{0, iw, 0, win.outW(iw), win.pw_b, win.pw_e}};
    return whole;
}

Window2d
patchWindow(const Window2d &win, const SplitScheme2d &scheme, int hi,
            int wi)
{
    SCNN_CHECK(hi >= 0 && hi < scheme.h.parts() && wi >= 0 &&
                   wi < scheme.w.parts(),
               "patch index out of range");
    const SplitPiece1d &ph = scheme.h.pieces[hi];
    const SplitPiece1d &pw = scheme.w.pieces[wi];
    Window2d local = win;
    local.ph_b = ph.pad_b;
    local.ph_e = ph.pad_e;
    local.pw_b = pw.pad_b;
    local.pw_e = pw.pad_e;
    return local;
}

void
checkSchemeGeometry(const Window2d &win, const SplitScheme2d &scheme)
{
    SCNN_CHECK(scheme.h.parts() > 0 && scheme.w.parts() > 0,
               "empty split scheme");
    for (int hi = 0; hi < scheme.h.parts(); ++hi)
        for (int wi = 0; wi < scheme.w.parts(); ++wi) {
            const Window2d local = patchWindow(win, scheme, hi, wi);
            SCNN_CHECK(local.outH(scheme.h.pieces[hi].inLen()) ==
                               scheme.h.pieces[hi].outLen() &&
                           local.outW(scheme.w.pieces[wi].inLen()) ==
                               scheme.w.pieces[wi].outLen(),
                       "split scheme geometry mismatch for patch ("
                           << hi << ", " << wi << ")");
        }
}

std::vector<PatchView>
splitPatchViews(const SplitScheme2d &scheme)
{
    std::vector<PatchView> views;
    views.reserve(static_cast<size_t>(scheme.parts()));
    for (const SplitPiece1d &ph : scheme.h.pieces)
        for (const SplitPiece1d &pw : scheme.w.pieces)
            views.push_back(
                {ph.in_start, pw.in_start, ph.inLen(), pw.inLen()});
    return views;
}

PatchView
bandInputRows(const Window2d &win, const SplitScheme1d &h,
              const SplitBandItem &band, int64_t iw)
{
    const SplitPiece1d &ph = h.pieces[static_cast<size_t>(band.hi)];
    const int64_t lo =
        std::max(ph.in_start, band.oy0 * win.sh - win.ph_b);
    const int64_t hi =
        std::min(ph.in_end, (band.oy1 - 1) * win.sh - win.ph_b + win.kh);
    return {lo, 0, hi - lo, iw};
}

ConvWork
convWork(int64_t n, int64_t krows, int64_t out_w, const SplitScheme1d &h)
{
    ConvWork work;
    // Each piece's output rows, chopped into kSplitConvRowBand-row bands.
    for (int hi = 0; hi < h.parts(); ++hi) {
        const SplitPiece1d &ph = h.pieces[static_cast<size_t>(hi)];
        for (int64_t oy0 = ph.out_start; oy0 < ph.out_end;
             oy0 += kSplitConvRowBand)
            work.bands.push_back(
                {hi, oy0, std::min(ph.out_end, oy0 + kSplitConvRowBand)});
    }
    const int n_bands = static_cast<int>(work.bands.size());
    const int64_t out_h = h.pieces.back().out_end;
    const int64_t img_floats = krows * out_h * out_w;
    SCNN_CHECK(img_floats > 0, "conv work over an empty output");
    work.grouped = img_floats <= kConvGroupFloats;
    if (work.grouped) {
        work.group = std::min(n, kConvGroupFloats / img_floats);
        for (int64_t g0 = 0; g0 < n; g0 += work.group)
            work.items.push_back(
                {g0, std::min(work.group, n - g0), 0, n_bands, 0, out_h});
    } else {
        for (int64_t in = 0; in < n; ++in)
            for (int bi = 0; bi < n_bands; ++bi) {
                const SplitBandItem &b =
                    work.bands[static_cast<size_t>(bi)];
                work.items.push_back(
                    {in, 1, bi, bi + 1, b.oy0, b.oy1 - b.oy0});
            }
    }
    work.units = work.grouped ? static_cast<int64_t>(work.items.size()) : n;
    for (const ConvWorkItem &it : work.items)
        work.max_cols = std::max(work.max_cols, it.imgs * it.rows * out_w);
    return work;
}

} // namespace scnn
