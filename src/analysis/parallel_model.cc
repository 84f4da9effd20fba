#include "analysis/parallel_model.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "kernels/gemm.h"
#include "train/executor.h"
#include "util/logging.h"

namespace scnn {

int64_t
findParallelRegion(const ParallelPlan &plan, const std::string &name)
{
    for (size_t i = 0; i < plan.regions.size(); ++i)
        if (plan.regions[i].name == name)
            return static_cast<int64_t>(i);
    return -1;
}

void
checkParallelPlan(const ParallelPlan &plan)
{
    const std::vector<Diagnostic> diags = analyzeParallelPlan(plan);
    SCNN_CHECK(diags.empty(), "parallel-safety lint: "
                                  << diags.size() << " finding(s) in "
                                  << plan.name << "; first: "
                                  << diags.front().toString());
}

std::string
parallelItemName(const ParallelPlan &plan, int64_t item)
{
    if (item >= 0 && item < static_cast<int64_t>(plan.items.size()) &&
        !plan.items[static_cast<size_t>(item)].name.empty())
        return plan.items[static_cast<size_t>(item)].name;
    std::ostringstream os;
    os << "item " << item;
    return os.str();
}

namespace {

/** Expanded-interval explosion guard for corrupt spans. Every span a
 * builder emits expands to at most (items x channels) intervals —
 * orders of magnitude below this. */
constexpr int64_t kMaxSpanExpansion = int64_t{1} << 22;

/** Happens-before checks walk a per-offset array; ordered regions
 * are slot-granular (one slot per tensor), far below this. */
constexpr int64_t kMaxOrderedRegionSize = int64_t{1} << 20;

/** Stop repeating one failure mode past this many findings/region. */
constexpr int kMaxFindingsPerRegion = 16;

/** Min/max float offset touched by a span; false for malformed
 * spans (non-positive counts or lengths). Handles negative strides
 * so corrupt plans get bounds diagnostics instead of UB. */
bool
spanBounds(const StridedSpan &sp, int64_t *lo, int64_t *hi)
{
    if (sp.len <= 0 || sp.n1 <= 0 || sp.n2 <= 0)
        return false;
    const int64_t r1 = (sp.n1 - 1) * sp.s1;
    const int64_t r2 = (sp.n2 - 1) * sp.s2;
    *lo = sp.base + std::min<int64_t>(r1, 0) + std::min<int64_t>(r2, 0);
    *hi = sp.base + std::max<int64_t>(r1, 0) + std::max<int64_t>(r2, 0) +
          sp.len;
    return true;
}

/** One expanded contiguous interval of one item's access. */
struct Interval
{
    int64_t lo = 0;
    int64_t hi = 0; ///< exclusive
    int64_t item = -1;
    int64_t epoch = 0;
    int64_t seq = -1;
};

void
expandSpan(const StridedSpan &sp, int64_t item, int64_t epoch,
           int64_t seq, std::vector<Interval> &out)
{
    // Zero-stride repeats expand to the same interval; dedupe them so
    // a degenerate span cannot blow up the interval list.
    const int64_t n1 = sp.s1 == 0 ? 1 : sp.n1;
    const int64_t n2 = sp.s2 == 0 ? 1 : sp.n2;
    for (int64_t i1 = 0; i1 < n1; ++i1)
        for (int64_t i2 = 0; i2 < n2; ++i2) {
            const int64_t base = sp.base + i1 * sp.s1 + i2 * sp.s2;
            out.push_back({base, base + sp.len, item, epoch, seq});
        }
}

/** Per-region interval sets, split by direction. */
struct RegionAccesses
{
    std::vector<Interval> writes;
    std::vector<Interval> reads;
};

bool
byEpochThenLo(const Interval &a, const Interval &b)
{
    if (a.epoch != b.epoch)
        return a.epoch < b.epoch;
    return a.lo < b.lo;
}

/**
 * SA601: within every epoch, sweep reads and writes together; any
 * overlap between *different* items where at least one side writes
 * is a data race.
 */
void
checkSameEpochRaces(const ParallelPlan &plan, int64_t region,
                    RegionAccesses &ra, DiagnosticSink &sink)
{
    const std::string &rname =
        plan.regions[static_cast<size_t>(region)].name;
    struct Tagged
    {
        Interval iv;
        bool write;
    };
    std::vector<Tagged> all;
    all.reserve(ra.writes.size() + ra.reads.size());
    for (const Interval &iv : ra.writes)
        all.push_back({iv, true});
    for (const Interval &iv : ra.reads)
        all.push_back({iv, false});
    std::sort(all.begin(), all.end(),
              [](const Tagged &a, const Tagged &b) {
                  return byEpochThenLo(a.iv, b.iv);
              });

    int findings = 0;
    std::vector<const Tagged *> active;
    for (size_t i = 0; i < all.size(); ++i) {
        if (i > 0 && all[i].iv.epoch != all[i - 1].iv.epoch)
            active.clear();
        const Tagged &cur = all[i];
        // Expire intervals that end at or before the new start.
        active.erase(std::remove_if(active.begin(), active.end(),
                                    [&](const Tagged *t) {
                                        return t->iv.hi <= cur.iv.lo;
                                    }),
                     active.end());
        for (const Tagged *t : active) {
            if (t->iv.item == cur.iv.item)
                continue;
            if (!t->write && !cur.write)
                continue;
            if (findings++ >= kMaxFindingsPerRegion)
                return;
            std::ostringstream os;
            os << "region '" << rname << "': "
               << (t->write && cur.write ? "write sets of "
                                         : "write/read sets of ")
               << parallelItemName(plan, t->iv.item) << " and "
               << parallelItemName(plan, cur.iv.item) << " overlap at ["
               << std::max(t->iv.lo, cur.iv.lo) << ", "
               << std::min(t->iv.hi, cur.iv.hi) << ") in epoch "
               << cur.iv.epoch;
            DiagLocation loc;
            loc.step = static_cast<int>(cur.iv.item);
            sink.add("SA601", loc, os.str());
        }
        active.push_back(&all[i]);
    }
}

/**
 * SA605 (ordered regions): every offset a read touches in epoch e
 * must have been written in some epoch strictly before e.
 */
void
checkHappensBefore(const ParallelPlan &plan, int64_t region,
                   const RegionAccesses &ra, DiagnosticSink &sink)
{
    const ParallelRegion &r =
        plan.regions[static_cast<size_t>(region)];
    if (r.size <= 0 || r.size > kMaxOrderedRegionSize)
        return; // bounds problems are reported as SA602
    std::vector<int64_t> first_write(static_cast<size_t>(r.size),
                                     INT64_MAX);
    for (const Interval &w : ra.writes)
        for (int64_t off = std::max<int64_t>(w.lo, 0);
             off < std::min(w.hi, r.size); ++off)
            first_write[static_cast<size_t>(off)] =
                std::min(first_write[static_cast<size_t>(off)],
                         w.epoch);
    int findings = 0;
    for (const Interval &rd : ra.reads)
        for (int64_t off = std::max<int64_t>(rd.lo, 0);
             off < std::min(rd.hi, r.size); ++off) {
            if (first_write[static_cast<size_t>(off)] < rd.epoch)
                continue;
            if (findings++ >= kMaxFindingsPerRegion)
                return;
            std::ostringstream os;
            os << "region '" << r.name << "': "
               << parallelItemName(plan, rd.item) << " reads slot " << off
               << " in epoch " << rd.epoch
               << (first_write[static_cast<size_t>(off)] == INT64_MAX
                       ? " but no item ever writes it"
                       : " before any earlier epoch writes it");
            DiagLocation loc;
            loc.step = static_cast<int>(rd.item);
            sink.add("SA605", loc, os.str());
            break; // one finding per read access
        }
}

/**
 * SA606 (serial_stats regions): overlapping writes must come from
 * distinct epochs (never concurrent) and their epoch order must
 * agree with their serial (seq) order — the deferred BN running-stat
 * contract: updates happen one at a time, in topological order.
 */
void
checkSerialStats(const ParallelPlan &plan, int64_t region,
                 RegionAccesses &ra, DiagnosticSink &sink)
{
    const std::string &rname =
        plan.regions[static_cast<size_t>(region)].name;
    std::sort(ra.writes.begin(), ra.writes.end(),
              [](const Interval &a, const Interval &b) {
                  return a.lo < b.lo;
              });
    int findings = 0;
    std::vector<const Interval *> active;
    for (const Interval &cur : ra.writes) {
        active.erase(std::remove_if(active.begin(), active.end(),
                                    [&](const Interval *t) {
                                        return t->hi <= cur.lo;
                                    }),
                     active.end());
        for (const Interval *t : active) {
            if (t->item == cur.item && t->epoch == cur.epoch)
                continue;
            const bool concurrent = t->epoch == cur.epoch;
            const bool unordered = t->seq < 0 || cur.seq < 0;
            const bool misordered =
                !unordered && (t->epoch < cur.epoch) != (t->seq < cur.seq);
            if (!concurrent && !unordered && !misordered)
                continue;
            if (findings++ >= kMaxFindingsPerRegion)
                return;
            std::ostringstream os;
            os << "region '" << rname << "': stat updates of "
               << parallelItemName(plan, t->item) << " and "
               << parallelItemName(plan, cur.item) << " overlap at ["
               << std::max(t->lo, cur.lo) << ", "
               << std::min(t->hi, cur.hi) << ") ";
            if (concurrent)
                os << "in the same epoch " << cur.epoch
                   << " (running-stat updates must be serialized)";
            else if (unordered)
                os << "without a serial order (seq unset)";
            else
                os << "with epoch order disagreeing with serial "
                      "order (seq "
                   << t->seq << " vs " << cur.seq << ")";
            DiagLocation loc;
            loc.step = static_cast<int>(cur.item);
            sink.add("SA606", loc, os.str());
        }
        active.push_back(&cur);
    }
}

/**
 * SA609 (ordered_accum regions): the backward halo-accumulation
 * contract. Scatter-adds into a shared gradient region may overlap
 * (halo rows, shared weight-gradient accumulators), but every
 * overlapping pair must come from distinct epochs — one worker's
 * serial program order — and that epoch order must agree with the
 * serial (seq) order, or the accumulation is either a race or
 * nondeterministically grouped.
 */
void
checkOrderedAccum(const ParallelPlan &plan, int64_t region,
                  RegionAccesses &ra, DiagnosticSink &sink)
{
    const std::string &rname =
        plan.regions[static_cast<size_t>(region)].name;
    std::sort(ra.writes.begin(), ra.writes.end(),
              [](const Interval &a, const Interval &b) {
                  return a.lo < b.lo;
              });
    int findings = 0;
    std::vector<const Interval *> active;
    for (const Interval &cur : ra.writes) {
        active.erase(std::remove_if(active.begin(), active.end(),
                                    [&](const Interval *t) {
                                        return t->hi <= cur.lo;
                                    }),
                     active.end());
        for (const Interval *t : active) {
            if (t->item == cur.item && t->epoch == cur.epoch)
                continue;
            const bool concurrent = t->epoch == cur.epoch;
            const bool unordered = t->seq < 0 || cur.seq < 0;
            const bool misordered =
                !unordered && (t->epoch < cur.epoch) != (t->seq < cur.seq);
            if (!concurrent && !unordered && !misordered)
                continue;
            if (findings++ >= kMaxFindingsPerRegion)
                return;
            std::ostringstream os;
            os << "region '" << rname << "': halo accumulations of "
               << parallelItemName(plan, t->item) << " and "
               << parallelItemName(plan, cur.item) << " overlap at ["
               << std::max(t->lo, cur.lo) << ", "
               << std::min(t->hi, cur.hi) << ") ";
            if (concurrent)
                os << "in the same epoch " << cur.epoch
                   << " (overlapping scatter-adds must be "
                      "serialized)";
            else if (unordered)
                os << "without a serial order (seq unset)";
            else
                os << "with epoch order disagreeing with serial "
                      "order (seq "
                   << t->seq << " vs " << cur.seq << ")";
            DiagLocation loc;
            loc.step = static_cast<int>(cur.item);
            sink.add("SA609", loc, os.str());
        }
        active.push_back(&cur);
    }
}

/** SA608 (exact_cover regions): the write-set union tiles [0, size). */
void
checkCoverage(const ParallelPlan &plan, int64_t region,
              RegionAccesses &ra, DiagnosticSink &sink)
{
    const ParallelRegion &r =
        plan.regions[static_cast<size_t>(region)];
    std::sort(ra.writes.begin(), ra.writes.end(),
              [](const Interval &a, const Interval &b) {
                  return a.lo < b.lo;
              });
    int findings = 0;
    int64_t covered = 0;
    auto gap = [&](int64_t lo, int64_t hi) {
        if (findings++ >= kMaxFindingsPerRegion)
            return;
        std::ostringstream os;
        os << "region '" << r.name << "': no work item writes ["
           << lo << ", " << hi << ") — the decomposition leaves a "
           << (hi - lo) << "-float gap";
        sink.add("SA608", DiagLocation{}, os.str());
    };
    for (const Interval &w : ra.writes) {
        if (w.lo > covered)
            gap(covered, w.lo);
        covered = std::max(covered, w.hi);
    }
    if (covered < r.size)
        gap(covered, r.size);
}

} // namespace

std::vector<Diagnostic>
analyzeParallelPlan(const ParallelPlan &plan)
{
    DiagnosticSink sink;
    const int64_t n_regions =
        static_cast<int64_t>(plan.regions.size());
    std::vector<RegionAccesses> per_region(
        static_cast<size_t>(n_regions));

    for (size_t i = 0; i < plan.items.size(); ++i) {
        const ParallelItem &item = plan.items[i];
        const int64_t item_idx = static_cast<int64_t>(i);
        for (const ParallelAccess &a : item.accesses) {
            DiagLocation loc;
            loc.step = static_cast<int>(item_idx);
            if (a.region < 0 || a.region >= n_regions) {
                std::ostringstream os;
                os << parallelItemName(plan, item_idx)
                   << " references region " << a.region
                   << " of " << n_regions;
                sink.add("SA602", loc, os.str());
                continue;
            }
            const ParallelRegion &r =
                plan.regions[static_cast<size_t>(a.region)];
            int64_t lo = 0;
            int64_t hi = 0;
            if (!spanBounds(a.span, &lo, &hi) ||
                a.span.count() > kMaxSpanExpansion) {
                std::ostringstream os;
                os << parallelItemName(plan, item_idx)
                   << " has a malformed access span in region '"
                   << r.name << "' (counts/length non-positive or "
                   << "expansion too large)";
                sink.add("SA602", loc, os.str());
                continue;
            }
            if (lo < 0 || hi > r.size) {
                std::ostringstream os;
                os << parallelItemName(plan, item_idx) << " accesses ["
                   << lo << ", " << hi << ") outside region '"
                   << r.name << "' of size " << r.size;
                sink.add("SA602", loc, os.str());
                continue;
            }
            if (a.write && r.read_only) {
                std::ostringstream os;
                os << parallelItemName(plan, item_idx)
                   << " writes [" << lo << ", " << hi
                   << ") of read-only region '" << r.name << "'";
                sink.add("SA603", loc, os.str());
                continue;
            }
            if (r.owner >= 0 && r.owner != item_idx) {
                std::ostringstream os;
                os << parallelItemName(plan, item_idx) << " accesses region '"
                   << r.name << "' owned by "
                   << parallelItemName(plan, r.owner);
                sink.add("SA604", loc, os.str());
                continue;
            }
            if (r.read_only)
                continue; // reads of read-only regions always race-free
            auto &ra = per_region[static_cast<size_t>(a.region)];
            expandSpan(a.span, item_idx, item.epoch, item.seq,
                       a.write ? ra.writes : ra.reads);
        }
    }

    for (int64_t rg = 0; rg < n_regions; ++rg) {
        const ParallelRegion &r =
            plan.regions[static_cast<size_t>(rg)];
        if (r.read_only)
            continue;
        auto &ra = per_region[static_cast<size_t>(rg)];
        if (r.serial_stats)
            checkSerialStats(plan, rg, ra, sink);
        else if (r.ordered_accum)
            checkOrderedAccum(plan, rg, ra, sink);
        else
            checkSameEpochRaces(plan, rg, ra, sink);
        if (r.ordered)
            checkHappensBefore(plan, rg, ra, sink);
        if (r.exact_cover)
            checkCoverage(plan, rg, ra, sink);
    }
    return sink.take();
}

// ---------------------------------------------------------------------------
// Builders: one per parallel surface. Each derives its decomposition
// from the helper the kernel itself uses, so the model and the code
// cannot drift apart silently.
// ---------------------------------------------------------------------------

int64_t
convModelBatch(int64_t n, int64_t krows, const SplitScheme2d &scheme)
{
    const int64_t group =
        convWork(n, krows, scheme.w.pieces.back().out_end, scheme.h).group;
    return std::min(n, 2 * group);
}

namespace {

/** A conv work item's display name: "img<i>:band<hi>.<oy0>" for one
 * band of one image, "img<first>-<last>" for an image group. */
std::string
convItemName(const ConvWork &work, const ConvWorkItem &item)
{
    std::ostringstream os;
    if (work.grouped) {
        os << "img" << item.img0 << "-" << item.img0 + item.imgs - 1;
    } else {
        const SplitBandItem &band =
            work.bands[static_cast<size_t>(item.band0)];
        os << "img" << item.img0 << ":band" << band.hi << "." << band.oy0;
    }
    return os.str();
}

/** Per image of @p item, the parent-tensor span of its rows of every
 * channel ({base, n1=channels, s1=oh*ow, len=rows*ow}): the forward's
 * output write and the backward's grad_out read. */
std::vector<StridedSpan>
convItemRowSpans(const ConvWorkItem &item, int64_t channels, int64_t out_h,
                 int64_t out_w)
{
    std::vector<StridedSpan> spans;
    for (int64_t j = 0; j < item.imgs; ++j)
        spans.push_back({(item.img0 + j) * channels * out_h * out_w +
                             item.row0 * out_w,
                         channels, out_h * out_w, 1, 0,
                         item.rows * out_w});
    return spans;
}

/** Per image of @p item, every patch input rectangle its bands stage
 * from, modeled as the conservative contiguous hull from the
 * rectangle's first float (channel 0) to its last (channel c-1) — the
 * same hull im2colViewStrided records, and provably inside the
 * image. */
std::vector<StridedSpan>
convItemInputHulls(const ConvWork &work, const ConvWorkItem &item,
                   const SplitScheme2d &scheme, int64_t c, int64_t ih,
                   int64_t iw)
{
    std::vector<StridedSpan> hulls;
    for (int64_t j = 0; j < item.imgs; ++j) {
        int last_hi = -1;
        for (int bi = item.band0; bi < item.band1; ++bi) {
            const int hi = work.bands[static_cast<size_t>(bi)].hi;
            if (hi == last_hi)
                continue;
            last_hi = hi;
            const SplitPiece1d &ph = scheme.h.pieces[static_cast<size_t>(hi)];
            for (const SplitPiece1d &pw : scheme.w.pieces) {
                const int64_t first = ph.in_start * iw + pw.in_start;
                const int64_t last = (c - 1) * ih * iw +
                                     (ph.in_start + ph.inLen() - 1) * iw +
                                     pw.in_start + pw.inLen();
                hulls.push_back(StridedSpan::interval(
                    (item.img0 + j) * c * ih * iw + first, last - first));
            }
        }
    }
    return hulls;
}

/** Add a scratch-arena region of @p floats owned by item @p owner;
 * return its index. */
int
addArenaRegion(ParallelPlan &plan, int64_t owner, int64_t floats)
{
    ParallelRegion arena;
    arena.name = "arena:" + std::to_string(owner);
    arena.size = floats;
    arena.owner = owner;
    plan.regions.push_back(arena);
    return static_cast<int>(plan.regions.size()) - 1;
}

} // namespace

ParallelPlan
buildSplitConvPlan(int64_t n, int64_t c, int64_t ih, int64_t iw,
                   int64_t oc, const Window2d &win,
                   const SplitScheme2d &scheme)
{
    ParallelPlan plan;
    plan.name = "split_conv";
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    const int64_t krows = c * win.kh * win.kw;
    const int64_t panel_floats = gemmPackedASize(oc, krows);

    ParallelRegion out_region;
    out_region.name = "output";
    out_region.size = n * oc * out_h * out_w;
    out_region.exact_cover = true;
    plan.regions.push_back(out_region);

    ParallelRegion in_region;
    in_region.name = "input";
    in_region.size = n * c * ih * iw;
    in_region.read_only = true;
    plan.regions.push_back(in_region);

    ParallelRegion w_region;
    w_region.name = "weight_panels";
    w_region.size = panel_floats;
    w_region.read_only = true;
    plan.regions.push_back(w_region);

    const ConvWork work = convWork(n, krows, out_w, scheme.h);
    // Staged columns, their B panels, and a group's C bounce buffer.
    const int64_t arena_floats =
        krows * work.max_cols + gemmPackedBSize(krows, work.max_cols) +
        (work.group > 1 ? oc * work.max_cols : 0);

    for (size_t i = 0; i < work.items.size(); ++i) {
        const ConvWorkItem &it = work.items[i];
        // Every item owns a private staging region (its worker's
        // scratch-arena scope); nothing else may touch it.
        const int arena_region = addArenaRegion(
            plan, static_cast<int64_t>(i), arena_floats);

        ParallelItem item;
        item.name = convItemName(work, it);
        item.epoch = 0; // one parallelFor = one barrier group
        // The item writes its parent output rows of every channel,
        // full width (all width patches), per image.
        for (const StridedSpan &sp : convItemRowSpans(it, oc, out_h, out_w))
            item.accesses.push_back({0, true, sp});
        for (const StridedSpan &sp :
             convItemInputHulls(work, it, scheme, c, ih, iw))
            item.accesses.push_back({1, false, sp});
        // Weight panels are shared read-only by every item.
        item.accesses.push_back(
            {2, false, StridedSpan::interval(0, panel_floats)});
        item.accesses.push_back(
            {arena_region, true, StridedSpan::interval(0, arena_floats)});
        item.accesses.push_back(
            {arena_region, false, StridedSpan::interval(0, arena_floats)});
        plan.items.push_back(std::move(item));
    }
    return plan;
}

namespace {

/**
 * The image x patch items both split-pool directions share. Forward:
 * a patch writes its output block of every channel ({base, n1=c,
 * s1=oh*ow, n2=outLen_h, s2=ow, len=outLen_w}; the blocks tile the
 * output) and reads its input rectangle. Backward: it reads that
 * block of grad_out and scatter-adds into the rectangle of grad_x —
 * every tap (max: the forward argmax; avg: the clipped window) of an
 * output in the block lies inside the patch's input rectangle by the
 * scheme's construction (Eqs. 1-2). Halo rows overlap between
 * neighbouring patches of one image, so grad_x is `ordered_accum`: a
 * worker owns the image and runs its patches serially ascending,
 * which epoch/seq encode. Rectangles are modeled as the conservative
 * contiguous hull, like the conv reads.
 */
ParallelPlan
splitPoolPlan(int64_t n, int64_t c, int64_t ih, int64_t iw,
              const SplitScheme2d &scheme, bool backward)
{
    ParallelPlan plan;
    plan.name = backward ? "split_pool_backward" : "split_pool";
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;

    // Region 0 is written, region 1 read.
    ParallelRegion written;
    written.name = backward ? "grad_x" : "output";
    written.size = n * c * (backward ? ih * iw : out_h * out_w);
    written.exact_cover = !backward;
    written.ordered_accum = backward;
    plan.regions.push_back(written);
    ParallelRegion read;
    read.name = backward ? "grad_out" : "input";
    read.size = n * c * (backward ? out_h * out_w : ih * iw);
    read.read_only = true;
    plan.regions.push_back(read);

    const int wp = scheme.w.parts();
    const int64_t parts = int64_t(scheme.h.parts()) * wp;
    for (int64_t i = 0; i < n * parts; ++i) {
        const int64_t in = i / parts;
        const int hi = static_cast<int>((i % parts) / wp);
        const int wi = static_cast<int>(i % wp);
        const SplitPiece1d &ph = scheme.h.pieces[static_cast<size_t>(hi)];
        const SplitPiece1d &pw = scheme.w.pieces[static_cast<size_t>(wi)];

        ParallelItem item;
        item.name = "img" + std::to_string(in) + ":patch" +
                    std::to_string(hi) + "." + std::to_string(wi);
        item.epoch = backward ? i % parts : 0;
        item.seq = backward ? i : -1;
        const StridedSpan block{in * c * out_h * out_w +
                                    ph.out_start * out_w + pw.out_start,
                                c,
                                out_h * out_w,
                                ph.outLen(),
                                out_w,
                                pw.outLen()};
        const int64_t first = ph.in_start * iw + pw.in_start;
        const int64_t last = (c - 1) * ih * iw +
                             (ph.in_start + ph.inLen() - 1) * iw +
                             pw.in_start + pw.inLen();
        const StridedSpan hull =
            StridedSpan::interval(in * c * ih * iw + first, last - first);
        item.accesses.push_back({0, true, backward ? hull : block});
        item.accesses.push_back({1, false, backward ? block : hull});
        plan.items.push_back(std::move(item));
    }
    return plan;
}

} // namespace

ParallelPlan
buildSplitPoolPlan(int64_t n, int64_t c, int64_t ih, int64_t iw,
                   const SplitScheme2d &scheme)
{
    return splitPoolPlan(n, c, ih, iw, scheme, /*backward=*/false);
}

ParallelPlan
buildSplitPoolBackwardPlan(int64_t n, int64_t c, int64_t ih, int64_t iw,
                           const SplitScheme2d &scheme)
{
    return splitPoolPlan(n, c, ih, iw, scheme, /*backward=*/true);
}

ParallelPlan
buildSplitConvBackwardPlan(int64_t n, int64_t c, int64_t ih,
                           int64_t iw, int64_t oc, const Window2d &win,
                           const SplitScheme2d &scheme)
{
    ParallelPlan plan;
    plan.name = "split_conv_backward";
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    const int64_t krows = c * win.kh * win.kw;
    // The dgrad operand: W^T packed A panels (krows x oc), packed once
    // per call like the forward panels.
    const int64_t panel_floats = gemmPackedASize(krows, oc);

    ParallelRegion gx_region;
    gx_region.name = "grad_x";
    gx_region.size = n * c * ih * iw;
    gx_region.ordered_accum = true; // halo scatter-adds overlap
    plan.regions.push_back(gx_region);

    ParallelRegion go_region;
    go_region.name = "grad_out";
    go_region.size = n * oc * out_h * out_w;
    go_region.read_only = true;
    plan.regions.push_back(go_region);

    ParallelRegion in_region;
    in_region.name = "input";
    in_region.size = n * c * ih * iw;
    in_region.read_only = true;
    plan.regions.push_back(in_region);

    ParallelRegion w_region;
    w_region.name = "weight_panels";
    w_region.size = panel_floats;
    w_region.read_only = true;
    plan.regions.push_back(w_region);

    ParallelRegion gw_region;
    gw_region.name = "grad_w";
    gw_region.size = oc * krows;
    gw_region.ordered_accum = true; // reductions chain in unit order
    plan.regions.push_back(gw_region);

    ParallelRegion gb_region;
    gb_region.name = "grad_b";
    gb_region.size = oc;
    gb_region.ordered_accum = true;
    plan.regions.push_back(gb_region);

    const ConvWork work = convWork(n, krows, out_w, scheme.h);
    const int64_t n_items = static_cast<int64_t>(work.items.size());
    const int64_t per_unit = work.itemsPerUnit();

    // Per-unit partial accumulator: the wgrad panel product (chained
    // across a banded image's bands, beta = 1; one GEMM for a group)
    // and, in the tail, one bias row-sum slot per image of the unit —
    // all under the worker's serial item order.
    const int64_t acc_floats = krows * oc + work.group * oc;
    const int64_t acc_region0 = static_cast<int64_t>(plan.regions.size());
    auto unitName = [&](int64_t u) {
        const ConvWorkItem &first =
            work.items[static_cast<size_t>(u * per_unit)];
        return work.grouped ? convItemName(work, first)
                            : "img" + std::to_string(first.img0);
    };
    for (int64_t u = 0; u < work.units; ++u) {
        ParallelRegion acc;
        acc.name = "wgrad_acc:" + unitName(u);
        acc.size = acc_floats;
        acc.ordered_accum = true;
        plan.regions.push_back(acc);
    }

    // Staged columns + gradient columns + the three per-item packs,
    // plus a group's grad_out bounce copy.
    const int64_t max_cols = work.max_cols;
    const int64_t arena_floats =
        2 * krows * max_cols + gemmPackedASize(krows, max_cols) +
        gemmPackedBSize(max_cols, oc) + gemmPackedBSize(oc, max_cols) +
        (work.group > 1 ? oc * max_cols : 0);

    // Band / group items. A worker owns a whole unit and runs its
    // items serially ascending; epoch encodes that per-unit program
    // order (overlapping grad_x / wgrad_acc writes are intra-unit
    // only, so cross-unit same-epoch pairs never constrain).
    for (int64_t i = 0; i < n_items; ++i) {
        const ConvWorkItem &it = work.items[static_cast<size_t>(i)];
        const int arena_region = addArenaRegion(plan, i, arena_floats);

        ParallelItem item;
        item.name = convItemName(work, it);
        item.epoch = i % per_unit;
        item.seq = i;

        // dgrad scatter: per (image, band, width patch), the
        // band-restricted write hull col2imViewStrided claims — patch
        // rows [iy_lo, iy_hi) reachable from output rows [oy0, oy1),
        // channel 0's first float through channel c-1's last.
        for (int64_t j = 0; j < it.imgs; ++j)
            for (int bi = it.band0; bi < it.band1; ++bi) {
                const SplitBandItem &band =
                    work.bands[static_cast<size_t>(bi)];
                const SplitPiece1d &ph =
                    scheme.h.pieces[static_cast<size_t>(band.hi)];
                for (int wi = 0; wi < scheme.w.parts(); ++wi) {
                    const SplitPiece1d &pw =
                        scheme.w.pieces[static_cast<size_t>(wi)];
                    const Window2d local =
                        patchWindow(win, scheme, band.hi, wi);
                    const int64_t iy_lo = std::max<int64_t>(
                        0, band.oy0 * local.sh - local.ph_b);
                    const int64_t iy_hi = std::min<int64_t>(
                        ph.inLen(),
                        (band.oy1 - 1) * local.sh - local.ph_b + local.kh);
                    if (iy_lo >= iy_hi)
                        continue;
                    item.accesses.push_back(
                        {0, true,
                         StridedSpan::interval(
                             (it.img0 + j) * c * ih * iw +
                                 (ph.in_start + iy_lo) * iw + pw.in_start,
                             (c - 1) * ih * iw + (iy_hi - 1 - iy_lo) * iw +
                                 pw.inLen())});
                }
            }
        // Column staging reads the same input hulls the forward reads;
        // both gradient GEMMs read the item's grad_out rows.
        for (const StridedSpan &sp :
             convItemInputHulls(work, it, scheme, c, ih, iw))
            item.accesses.push_back({2, false, sp});
        for (const StridedSpan &sp : convItemRowSpans(it, oc, out_h, out_w))
            item.accesses.push_back({1, false, sp});
        item.accesses.push_back(
            {3, false, StridedSpan::interval(0, panel_floats)});
        // The item writes (a banded image's later bands also read) its
        // unit's wgrad partial.
        const int acc = static_cast<int>(acc_region0 + i / per_unit);
        item.accesses.push_back(
            {acc, true, StridedSpan::interval(0, krows * oc)});
        item.accesses.push_back(
            {acc, false, StridedSpan::interval(0, krows * oc)});
        item.accesses.push_back(
            {arena_region, true, StridedSpan::interval(0, arena_floats)});
        item.accesses.push_back(
            {arena_region, false, StridedSpan::interval(0, arena_floats)});
        plan.items.push_back(std::move(item));
    }

    // Per-image bias item: row sums over the whole grad_out image into
    // the image's slot of its unit's accumulator tail, after the
    // unit's items.
    for (int64_t in = 0; in < n; ++in) {
        ParallelItem item;
        item.name = "img" + std::to_string(in) + ":bias";
        item.epoch = per_unit;
        item.seq = n_items + in;
        item.accesses.push_back(
            {1, false,
             StridedSpan::interval(in * oc * out_h * out_w,
                                   oc * out_h * out_w)});
        item.accesses.push_back(
            {static_cast<int>(acc_region0 + in / work.group), true,
             StridedSpan::interval(krows * oc + (in % work.group) * oc,
                                   oc)});
        plan.items.push_back(std::move(item));
    }

    // Per-unit reduction: serial on the caller in unit order after
    // each wave — folds the partial into the shared grad_w / grad_b.
    for (int64_t u = 0; u < work.units; ++u) {
        ParallelItem item;
        item.name = unitName(u) + ":reduce";
        item.epoch = per_unit + 1 + u;
        item.seq = n_items + n + u;
        const int acc = static_cast<int>(acc_region0 + u);
        item.accesses.push_back(
            {acc, false, StridedSpan::interval(0, acc_floats)});
        for (const int region : {4, 5}) {
            const int64_t size = region == 4 ? oc * krows : oc;
            item.accesses.push_back(
                {region, true, StridedSpan::interval(0, size)});
            item.accesses.push_back(
                {region, false, StridedSpan::interval(0, size)});
        }
        plan.items.push_back(std::move(item));
    }
    return plan;
}

ParallelPlan
buildSplitBatchNormPlan(int64_t n, int64_t c, int64_t h, int64_t w,
                        const std::vector<PatchView> &patches)
{
    ParallelPlan plan;
    plan.name = "split_batchnorm";
    const int64_t parts = static_cast<int64_t>(patches.size());
    const int64_t size = n * c * h * w;
    auto region = [&](const char *name, int64_t floats,
                      bool ParallelRegion::*discipline) {
        ParallelRegion r;
        r.name = name;
        r.size = floats;
        r.*discipline = true;
        plan.regions.push_back(r);
        return static_cast<int>(plan.regions.size()) - 1;
    };
    constexpr auto kRead = &ParallelRegion::read_only;
    constexpr auto kCover = &ParallelRegion::exact_cover;
    const int input = region("input", size, kRead);
    const int params = region("params", 2 * c, kRead); // gamma, beta
    const int output = region("output", size, kCover);
    const int x_hat = region("x_hat", size, kCover);
    // Rows of C: mean, batch_var, inv_std, each P rows in patch order.
    const int stats = region("stats", 3 * parts * c, kCover);
    const int running = region("running_stats", 2 * c,
                               &ParallelRegion::serial_stats);
    const int grad_out = region("grad_out", size, kRead);
    const int grad_x = region("grad_x", size, kCover);
    const int grad_params = region("grad_params", 2 * c, kCover);

    auto item = [&](std::string name, int64_t epoch, int64_t seq,
                    std::vector<ParallelAccess> accesses) {
        plan.items.push_back(
            {std::move(name), epoch, seq, std::move(accesses)});
    };
    auto plane = [&](int64_t ic) {
        return StridedSpan{ic * h * w, n, c * h * w, 1, 0, h * w};
    };
    // Forward: channel ic reads its planes and writes its output and
    // x_hat planes plus its column of every statistic row.
    for (int64_t ic = 0; ic < c; ++ic)
        item("fwd:ch" + std::to_string(ic), 0, -1,
             {{input, false, plane(ic)},
              {params, false, {ic, 2, c, 1, 0, 1}},
              {output, true, plane(ic)},
              {x_hat, true, plane(ic)},
              {stats, true, {ic, 3 * parts, c, 1, 0, 1}}});
    // One running-stat update per patch, serially in patch order.
    for (int64_t p = 0; p < parts; ++p)
        item("bn_update:patch" + std::to_string(p), 1 + p, p,
             {{stats, false, {p * c, 2, parts * c, 1, 0, c}},
              {running, true, StridedSpan::interval(0, 2 * c)},
              {running, false, StridedSpan::interval(0, 2 * c)}});
    // Backward: channel ic owns its grad_x plane and its gamma/beta
    // gradient slots, accumulating the patches in ascending order.
    for (int64_t ic = 0; ic < c; ++ic)
        item("bwd:ch" + std::to_string(ic), 1 + parts, -1,
             {{grad_out, false, plane(ic)},
              {x_hat, false, plane(ic)},
              {stats, false, {2 * parts * c + ic, parts, c, 1, 0, 1}},
              {params, false, StridedSpan::interval(ic, 1)},
              {grad_x, true, plane(ic)},
              {grad_params, true, {ic, 2, c, 1, 0, 1}},
              {grad_params, false, {ic, 2, c, 1, 0, 1}}});
    return plan;
}

std::vector<std::pair<NodeId, ParallelPlan>>
buildRegionNodePlans(const Graph &graph)
{
    std::vector<std::pair<NodeId, ParallelPlan>> plans;
    const LoweredGraph lowered = lowerGraph(graph);
    for (const ExecNode &e : lowered.nodes) {
        if (!e.isRegion())
            continue;
        const Shape &in = lowered.slot_shapes[static_cast<size_t>(
            e.inputs[0])];
        const int64_t n = std::min<int64_t>(in.dim(0), 2);
        const int64_t c = in.dim(1);
        const int64_t ih = in.dim(2);
        const int64_t iw = in.dim(3);
        const int64_t oc =
            lowered.slot_shapes[static_cast<size_t>(e.output)].dim(1);
        std::vector<ParallelPlan> node_plans;
        switch (graph.node(e.node).kind) {
          case OpKind::Conv2d: {
            const int64_t cn = convModelBatch(
                in.dim(0), c * e.win.kh * e.win.kw, e.scheme);
            node_plans = {
                buildSplitConvPlan(cn, c, ih, iw, oc, e.win, e.scheme),
                buildSplitConvBackwardPlan(cn, c, ih, iw, oc, e.win,
                                           e.scheme)};
            break;
          }
          case OpKind::MaxPool2d:
          case OpKind::AvgPool2d:
            node_plans = {
                buildSplitPoolPlan(n, c, ih, iw, e.scheme),
                buildSplitPoolBackwardPlan(n, c, ih, iw, e.scheme)};
            break;
          case OpKind::BatchNorm:
            node_plans = {buildSplitBatchNormPlan(
                n, c, ih, iw, splitPatchViews(e.scheme))};
            break;
          default:
            break;
        }
        for (ParallelPlan &plan : node_plans) {
            plan.name += ":" + graph.node(e.node).name;
            plans.emplace_back(e.node, std::move(plan));
        }
    }
    return plans;
}

ParallelPlan
buildExecutorWavePlan(const Graph &graph, bool training)
{
    ParallelPlan plan;
    plan.name = "executor_waves";
    const LoweredGraph lowered = lowerGraph(graph);

    // Slot-granular model: one float per value slot / parameter. The
    // executor's unit of sharing is the whole tensor (cache slots are
    // disjoint allocations), so slot granularity is exact. Only the
    // slots the lowered nodes touch are modeled (a split region's
    // per-patch tensors are lowered away), numbered densely in order
    // of first touch so exact_cover still demands a writer for each.
    std::vector<int64_t> dense(lowered.slot_shapes.size(), -1);
    int64_t live = 0;
    auto slotOf = [&](int64_t t) {
        int64_t &d = dense[static_cast<size_t>(t)];
        if (d < 0)
            d = live++;
        return d;
    };
    for (const ExecNode &e : lowered.nodes) {
        slotOf(e.output);
        for (int64_t t : e.inputs)
            slotOf(t);
    }
    ParallelRegion slots;
    slots.name = "slots";
    slots.size = live;
    slots.ordered = true;
    slots.exact_cover = true;
    plan.regions.push_back(slots);

    ParallelRegion params;
    params.name = "params";
    params.size = static_cast<int64_t>(graph.params().size());
    params.serial_stats = true;
    plan.regions.push_back(params);

    const auto waves = computeExecutionWaves(lowered);
    for (size_t w = 0; w < waves.size(); ++w) {
        for (size_t i : waves[w]) {
            const ExecNode &e = lowered.nodes[i];
            const Node &n = graph.node(e.node);
            ParallelItem item;
            item.name = n.name.empty() ? "node " + std::to_string(e.node)
                                       : n.name;
            item.epoch = static_cast<int64_t>(w);

            ParallelAccess wout;
            wout.region = 0;
            wout.write = true;
            wout.span = StridedSpan::interval(slotOf(e.output), 1);
            item.accesses.push_back(wout);
            for (int64_t t : e.inputs) {
                ParallelAccess rin;
                rin.region = 0;
                rin.span = StridedSpan::interval(slotOf(t), 1);
                item.accesses.push_back(rin);
            }
            // Parameter reads. Training-mode BN computes batch stats
            // and never touches the running stats (params[2..3]) in
            // its wave — those are written by the deferred updates
            // below. Inference-mode BN reads them like any other
            // parameter.
            const size_t n_params =
                training && n.kind == OpKind::BatchNorm
                    ? std::min<size_t>(n.params.size(), 2)
                    : n.params.size();
            for (size_t p = 0; p < n_params; ++p) {
                ParallelAccess rp;
                rp.region = 1;
                rp.span = StridedSpan::interval(n.params[p], 1);
                item.accesses.push_back(rp);
            }
            plan.items.push_back(std::move(item));
        }
    }

    if (training) {
        // Deferred BN running-stat updates: the executor applies them
        // one at a time in topological order after every wave has
        // completed — a split layer's per-patch updates in ascending
        // patch order. Each update is its own epoch (serialized) with
        // seq = its serial position; updates sharing one running-stat
        // parameter therefore write it in a fixed serial order — the
        // bitwise-determinism contract SA606 enforces.
        int64_t serial_epoch = static_cast<int64_t>(waves.size());
        int64_t seq = 0;
        for (const ExecNode &e : lowered.nodes) {
            const Node &n = graph.node(e.node);
            if (n.kind != OpKind::BatchNorm || n.params.size() < 4)
                continue;
            const size_t updates = std::max<size_t>(e.clones.size(), 1);
            for (size_t p = 0; p < updates; ++p) {
                ParallelItem item;
                item.name = (n.name.empty()
                                 ? "node " + std::to_string(e.node)
                                 : n.name) +
                            ":bn_update";
                if (e.isRegion())
                    item.name += std::to_string(p);
                item.epoch = serial_epoch++;
                item.seq = seq++;
                for (size_t q = 2; q < 4; ++q) {
                    ParallelAccess wp;
                    wp.region = 1;
                    wp.write = true;
                    wp.span = StridedSpan::interval(n.params[q], 1);
                    item.accesses.push_back(wp);
                    ParallelAccess rp = wp;
                    rp.write = false;
                    item.accesses.push_back(rp);
                }
                plan.items.push_back(std::move(item));
            }
        }
    }
    return plan;
}

std::vector<Diagnostic>
analyzeParallelExecution(const Graph &graph, int splits_h,
                         int splits_w)
{
    std::vector<Diagnostic> diags;
    auto append = [&](std::vector<Diagnostic> part, NodeId node) {
        for (Diagnostic &d : part) {
            if (d.loc.node < 0)
                d.loc.node = node;
            diags.push_back(std::move(d));
        }
    };

    append(analyzeParallelPlan(buildExecutorWavePlan(graph, true)),
           -1);

    // A split graph's region nodes, under the schemes they really run.
    for (const auto &[node, plan] : buildRegionNodePlans(graph))
        append(analyzeParallelPlan(plan), node);

    for (const Node &n : graph.nodes()) {
        if (n.kind != OpKind::Conv2d && n.kind != OpKind::MaxPool2d &&
            n.kind != OpKind::AvgPool2d)
            continue;
        if (n.inputs.empty())
            continue;
        const Shape &ishape = graph.tensor(n.inputs[0]).shape;
        const Shape &oshape = graph.tensor(n.output).shape;
        if (ishape.rank() != 4 || oshape.rank() != 4)
            continue;
        const int64_t batch = ishape.dim(0);
        const int64_t c = ishape.dim(1);
        const int64_t ih = ishape.dim(2);
        const int64_t iw = ishape.dim(3);
        const int64_t oh = oshape.dim(2);
        const int64_t ow = oshape.dim(3);
        if (oh <= 0 || ow <= 0)
            continue;
        const int hp = static_cast<int>(
            std::clamp<int64_t>(splits_h, 1, oh));
        const int wp = static_cast<int>(
            std::clamp<int64_t>(splits_w, 1, ow));

        // allow_downsample: ResNet's 1x1/stride-2 shortcut convs have
        // k < s, which the paper's Eqs. 1-2 exclude but the split
        // machinery supports (the interval collapses to lb).
        const WindowParams1d hop{n.win.kh, n.win.sh, n.win.ph_b,
                                 n.win.ph_e};
        const WindowParams1d wop{n.win.kw, n.win.sw, n.win.pw_b,
                                 n.win.pw_e};
        SplitScheme2d scheme;
        scheme.h = splitWindowOp(hop, ih, evenOutputSplit(oh, hp),
                                 InputSplitPolicy::Center,
                                 /*allow_downsample=*/true);
        scheme.w = splitWindowOp(wop, iw, evenOutputSplit(ow, wp),
                                 InputSplitPolicy::Center,
                                 /*allow_downsample=*/true);

        // Two work units suffice: unit footprints are identical
        // translates (images at stride channels*H*W, image groups at
        // a multiple of it), so disjointness between units 0 and 1
        // proves it for every pair.
        const int64_t n_model =
            n.kind == OpKind::Conv2d
                ? convModelBatch(batch, c * n.win.kh * n.win.kw, scheme)
                : std::min<int64_t>(batch, 2);
        ParallelPlan plan =
            n.kind == OpKind::Conv2d
                ? buildSplitConvPlan(n_model, c, ih, iw,
                                     oshape.dim(1), n.win, scheme)
                : buildSplitPoolPlan(n_model, c, ih, iw, scheme);
        {
            std::ostringstream os;
            os << plan.name << ":" << n.name << "[" << hp << "x"
               << wp << "]";
            plan.name = os.str();
        }
        append(analyzeParallelPlan(plan), n.id);

        // The backward decomposition is a distinct proof obligation:
        // halo scatter-adds into grad_x overlap between neighbouring
        // patches, legal only under the ordered-accumulation
        // discipline (SA609).
        ParallelPlan bplan =
            n.kind == OpKind::Conv2d
                ? buildSplitConvBackwardPlan(n_model, c, ih, iw,
                                             oshape.dim(1), n.win,
                                             scheme)
                : buildSplitPoolBackwardPlan(n_model, c, ih, iw, scheme);
        {
            std::ostringstream os;
            os << bplan.name << ":" << n.name << "[" << hp << "x"
               << wp << "]";
            bplan.name = os.str();
        }
        append(analyzeParallelPlan(bplan), n.id);
    }
    return diags;
}

bool
lintParallelEnabled()
{
    // Same contract as lintPlansEnabled(): re-read each call so tests
    // can toggle with setenv.
    const char *env = std::getenv("SCNN_LINT_PARALLEL");
    if (env != nullptr)
        return *env != '0';
#ifdef NDEBUG
    return false;
#else
    return true;
#endif
}

} // namespace scnn
