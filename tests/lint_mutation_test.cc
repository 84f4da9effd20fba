/**
 * @file
 * Mutation tests for the static analyzer: corrupt a known-good plan
 * in one specific way and assert the analyzer reports the expected
 * stable diagnostic code. One test per corruption class — if a
 * refactor of the analyzer silently stops catching a class, the
 * matching test here fails.
 */
#include "analysis/analyzer.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "analysis/parallel_model.h"
#include "core/splitter.h"
#include "hmms/planner.h"
#include "kernels/conv2d.h"
#include "kernels/pool2d.h"
#include "models/models.h"
#include "sim/device.h"
#include "sim/profile.h"

namespace scnn {
namespace {

/** A clean planned VGG whose parts the tests mutate. */
struct Fixture
{
    Graph graph;
    StorageAssignment assignment;
    MemoryPlan plan;
    StaticMemoryPlan memory;

    static const Fixture &
    instance()
    {
        static const Fixture f = [] {
            DeviceSpec spec;
            Graph g = buildVgg19(
                {.batch = 4, .image = 64, .width = 0.25});
            auto assignment = assignStorage(g, g.topoOrder());
            const double cap =
                profileForwardPass(g, spec).offloadable_fraction;
            auto plan = planMemory(g, spec,
                                   {PlannerKind::Hmms, cap, {}},
                                   assignment)
                            .value();
            auto mem = planStaticMemory(g, assignment, plan);
            return Fixture{std::move(g), std::move(assignment),
                           std::move(plan), std::move(mem)};
        }();
        return f;
    }
};

bool
hasCode(const std::vector<Diagnostic> &diags, const std::string &code)
{
    return std::any_of(diags.begin(), diags.end(),
                       [&](const Diagnostic &d) {
                           return d.code == code &&
                                  d.severity == DiagSeverity::Error;
                       });
}

::testing::AssertionResult
expectCode(const std::vector<Diagnostic> &diags,
           const std::string &code)
{
    if (hasCode(diags, code))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "expected " << code << ", analyzer reported:\n"
           << renderDiagnosticsText(diags);
}

TEST(LintMutation, BaselineIsClean)
{
    const Fixture &f = Fixture::instance();
    const auto diags =
        analyzePlan(f.graph, f.assignment, f.plan, f.memory);
    EXPECT_FALSE(hasErrors(diags)) << renderDiagnosticsText(diags);
    ASSERT_FALSE(f.plan.offloaded.empty())
        << "fixture must offload something for the mutations below";
}

// --- SA2xx: storage corruption ---------------------------------------

TEST(LintMutation, RefcountUnderflowIsSA201)
{
    const Fixture &f = Fixture::instance();
    StorageAssignment bad = f.assignment;
    bad.tsos[0].ref_count = 0;
    EXPECT_TRUE(expectCode(analyzeStorage(f.graph, bad), "SA201"));
}

TEST(LintMutation, IllegalValueAliasIsSA202)
{
    const Fixture &f = Fixture::instance();
    StorageAssignment bad = f.assignment;
    // Alias two unrelated conv outputs onto one TSO (and keep the
    // refcount consistent so only the aliasing rule fires).
    TensorId a = kInvalidTensor, b = kInvalidTensor;
    for (const Node &n : f.graph.nodes()) {
        if (n.kind != OpKind::Conv2d)
            continue;
        if (a == kInvalidTensor)
            a = n.output;
        else if (bad.value_tso[static_cast<size_t>(n.output)] !=
                 bad.value_tso[static_cast<size_t>(a)])
            b = n.output;
    }
    ASSERT_NE(a, kInvalidTensor);
    ASSERT_NE(b, kInvalidTensor);
    const TsoId victim = bad.value_tso[static_cast<size_t>(b)];
    const TsoId target = bad.value_tso[static_cast<size_t>(a)];
    bad.value_tso[static_cast<size_t>(b)] = target;
    bad.tsos[static_cast<size_t>(target)].ref_count += 1;
    bad.tsos[static_cast<size_t>(victim)].ref_count -= 1;
    EXPECT_TRUE(expectCode(analyzeStorage(f.graph, bad), "SA202"));
}

TEST(LintMutation, TensorWithoutTsoIsSA205)
{
    const Fixture &f = Fixture::instance();
    StorageAssignment bad = f.assignment;
    bad.value_tso[bad.value_tso.size() / 2] = kInvalidTso;
    EXPECT_TRUE(expectCode(analyzeStorage(f.graph, bad), "SA205"));
}

// --- SA3xx: schedule corruption --------------------------------------

MemoryPlan
cleanPlan()
{
    return Fixture::instance().plan;
}

TEST(LintMutation, DroppedPrefetchIsSA301)
{
    const Fixture &f = Fixture::instance();
    MemoryPlan bad = cleanPlan();
    for (auto &a : bad.actions)
        if (!a.start_prefetch.empty()) {
            a.start_prefetch.clear();
            break;
        }
    EXPECT_TRUE(expectCode(
        analyzeSchedule(f.graph, f.assignment, bad), "SA301"));
}

TEST(LintMutation, OffloadBeforeLastWriteIsSA302)
{
    const Fixture &f = Fixture::instance();
    MemoryPlan bad = cleanPlan();
    // Move the first offload trigger to step 0: every conv output is
    // written after step 0, so the offload races its own producer.
    for (size_t i = 1; i < bad.actions.size(); ++i)
        if (!bad.actions[i].start_offload.empty()) {
            const TsoId tso = bad.actions[i].start_offload.front();
            bad.actions[i].start_offload.erase(
                bad.actions[i].start_offload.begin());
            bad.actions[0].start_offload.push_back(tso);
            break;
        }
    EXPECT_TRUE(expectCode(
        analyzeSchedule(f.graph, f.assignment, bad), "SA302"));
}

TEST(LintMutation, PrefetchInForwardPassIsSA303)
{
    const Fixture &f = Fixture::instance();
    MemoryPlan bad = cleanPlan();
    for (size_t i = 0; i < bad.actions.size(); ++i)
        if (!bad.actions[i].start_prefetch.empty()) {
            const TsoId tso = bad.actions[i].start_prefetch.front();
            bad.actions[i].start_prefetch.erase(
                bad.actions[i].start_prefetch.begin());
            bad.actions[0].start_prefetch.push_back(tso);
            break;
        }
    EXPECT_TRUE(expectCode(
        analyzeSchedule(f.graph, f.assignment, bad), "SA303"));
}

TEST(LintMutation, LatePrefetchSyncIsSA304)
{
    const Fixture &f = Fixture::instance();
    MemoryPlan bad = cleanPlan();
    // Move a prefetch sync to the very last step: the first backward
    // use of that TSO now reads memory that is still in flight.
    for (auto &a : bad.actions)
        if (!a.sync_prefetch.empty()) {
            const TsoId tso = a.sync_prefetch.front();
            a.sync_prefetch.erase(a.sync_prefetch.begin());
            bad.actions.back().sync_prefetch.push_back(tso);
            break;
        }
    EXPECT_TRUE(expectCode(
        analyzeSchedule(f.graph, f.assignment, bad), "SA304"));
}

TEST(LintMutation, MissingStreamIsSA305)
{
    const Fixture &f = Fixture::instance();
    MemoryPlan bad = cleanPlan();
    bad.tso_stream[static_cast<size_t>(*bad.offloaded.begin())] = -1;
    EXPECT_TRUE(expectCode(
        analyzeSchedule(f.graph, f.assignment, bad), "SA305"));
}

TEST(LintMutation, SyncBeforeIssueIsSA306Too)
{
    const Fixture &f = Fixture::instance();
    MemoryPlan bad = cleanPlan();
    // Swap an offload's issue and sync steps: the transfer must
    // complete before it is issued, a cycle in the event graph (the
    // per-transfer SA302 ordering violation fires as well).
    bool swapped = false;
    for (size_t i = 0; i < bad.actions.size() && !swapped; ++i)
        for (TsoId tso : bad.actions[i].start_offload) {
            // Find this TSO's sync step.
            for (size_t j = i; j < bad.actions.size(); ++j) {
                auto &sync = bad.actions[j].sync_offload_free;
                auto it =
                    std::find(sync.begin(), sync.end(), tso);
                if (it != sync.end() && j > i) {
                    // issue at j, sync at i: inverted.
                    sync.erase(it);
                    auto &issue = bad.actions[i].start_offload;
                    issue.erase(std::find(issue.begin(),
                                          issue.end(), tso));
                    bad.actions[j].start_offload.push_back(tso);
                    bad.actions[i].sync_offload_free.push_back(tso);
                    swapped = true;
                    break;
                }
            }
            if (swapped)
                break;
        }
    ASSERT_TRUE(swapped);
    const auto diags = analyzeSchedule(f.graph, f.assignment, bad);
    EXPECT_TRUE(expectCode(diags, "SA306"));
}

TEST(LintMutation, ActionOnNonOffloadedTsoIsSA308)
{
    const Fixture &f = Fixture::instance();
    MemoryPlan bad = cleanPlan();
    // Some TSO outside the offloaded set.
    TsoId outsider = kInvalidTso;
    for (size_t i = 0; i < f.assignment.tsos.size(); ++i)
        if (!bad.offloaded.count(static_cast<TsoId>(i))) {
            outsider = static_cast<TsoId>(i);
            break;
        }
    ASSERT_NE(outsider, kInvalidTso);
    bad.actions[0].start_offload.push_back(outsider);
    EXPECT_TRUE(expectCode(
        analyzeSchedule(f.graph, f.assignment, bad), "SA308"));
}

// --- SA4xx: layout corruption ----------------------------------------

TEST(LintMutation, TruncatedLiveRangeIsSA401)
{
    const Fixture &f = Fixture::instance();
    StaticMemoryPlan bad = f.memory;
    size_t victim = 0;
    int span = 0;
    for (size_t i = 0; i < bad.intervals.size(); ++i) {
        const auto &iv = bad.intervals[i];
        if (!iv.is_gradient && iv.free_step - iv.alloc_step > span) {
            span = iv.free_step - iv.alloc_step;
            victim = i;
        }
    }
    ASSERT_GT(span, 1);
    bad.intervals[victim].free_step = bad.intervals[victim].alloc_step;
    EXPECT_TRUE(expectCode(
        analyzeLayout(f.graph, f.assignment, f.plan, bad), "SA401"));
}

TEST(LintMutation, OverlappingPoolSlotsAreSA402)
{
    const Fixture &f = Fixture::instance();
    StaticMemoryPlan bad = f.memory;
    for (size_t a = 0; a < bad.intervals.size(); ++a)
        for (size_t b = a + 1; b < bad.intervals.size(); ++b) {
            auto &x = bad.intervals[a];
            auto &y = bad.intervals[b];
            if (x.alloc_step <= y.free_step &&
                y.alloc_step <= x.free_step && x.addr != y.addr) {
                y.addr = x.addr;
                EXPECT_TRUE(expectCode(
                    analyzeLayout(f.graph, f.assignment, f.plan,
                                  bad),
                    "SA402"));
                return;
            }
        }
    FAIL() << "no temporally overlapping intervals to corrupt";
}

TEST(LintMutation, UnplacedIntervalIsSA404)
{
    const Fixture &f = Fixture::instance();
    StaticMemoryPlan bad = f.memory;
    ASSERT_FALSE(bad.intervals.empty());
    bad.intervals[0].addr = -1;
    EXPECT_TRUE(expectCode(
        analyzeLayout(f.graph, f.assignment, f.plan, bad), "SA404"));
}

TEST(LintMutation, IntervalSizeMismatchIsSA405)
{
    const Fixture &f = Fixture::instance();
    StaticMemoryPlan bad = f.memory;
    ASSERT_FALSE(bad.intervals.empty());
    bad.intervals[0].bytes /= 2;
    EXPECT_TRUE(expectCode(
        analyzeLayout(f.graph, f.assignment, f.plan, bad), "SA405"));
}

// --- SA5xx: split-scheme corruption ----------------------------------

SplitScheme1d
cleanScheme(const WindowParams1d &op, int64_t w)
{
    return splitWindowOp(op, w, evenOutputSplit(op.outExtent(w), 3));
}

TEST(LintMutation, OutputGapIsSA501)
{
    const WindowParams1d op{3, 1, 1, 1};
    SplitScheme1d bad = cleanScheme(op, 32);
    bad.pieces[1].out_start += 1; // gap between piece 0 and 1
    EXPECT_TRUE(expectCode(lintSplitScheme(op, 32, bad), "SA501"));
}

TEST(LintMutation, SplitPointOutsideEq12IsSA502)
{
    const WindowParams1d op{3, 1, 1, 1};
    SplitScheme1d bad = cleanScheme(op, 32);
    // Shift an interior input boundary past the legal interval while
    // keeping the partition contiguous.
    bad.pieces[0].in_end += 4;
    bad.pieces[1].in_start += 4;
    EXPECT_TRUE(expectCode(lintSplitScheme(op, 32, bad), "SA502"));
}

TEST(LintMutation, BadHaloPaddingIsSA503)
{
    const WindowParams1d op{3, 1, 1, 1};
    SplitScheme1d bad = cleanScheme(op, 32);
    bad.pieces[1].pad_b += 1; // halo no longer matches Eq. 5
    EXPECT_TRUE(expectCode(lintSplitScheme(op, 32, bad), "SA503"));
}

// --- SA6xx: parallel-plan corruption ---------------------------------

/**
 * Like expectCode, but additionally rejects collateral findings: the
 * mutation must trip its own diagnostic and nothing else, proving
 * each SA6xx rule fires independently.
 */
::testing::AssertionResult
expectOnlyCode(const std::vector<Diagnostic> &diags,
               const std::string &code)
{
    if (!hasCode(diags, code))
        return ::testing::AssertionFailure()
               << "expected " << code << ", analyzer reported:\n"
               << renderDiagnosticsText(diags);
    for (const Diagnostic &d : diags)
        if (d.severity == DiagSeverity::Error && d.code != code)
            return ::testing::AssertionFailure()
                   << "collateral " << d.code << " beside " << code
                   << ":\n"
                   << renderDiagnosticsText(diags);
    return ::testing::AssertionSuccess();
}

ParallelPlan
cleanConvPlan()
{
    const Window2d win = Window2d::square(3, 1, 1);
    const auto scheme = splitWindowOp2d(
        win, 16, 16, evenOutputSplit(win.outH(16), 2),
        evenOutputSplit(win.outW(16), 2), InputSplitPolicy::Center);
    // 64 input channels keep one image's columns past the image-group
    // budget, so the plan has one item per row band.
    return buildSplitConvPlan(1, 64, 16, 16, 4, win, scheme);
}

/** The executor wave plan of a 2x2-split VGG-19: region nodes, and
 * one serial running-stat update per patch of every split BN. */
ParallelPlan
splitWavePlan()
{
    static const Graph split = splitCnnTransform(
        Fixture::instance().graph,
        {.depth = 0.5, .splits_h = 2, .splits_w = 2});
    return buildExecutorWavePlan(split, true);
}

ParallelPlan
cleanBatchNormPlan()
{
    const Window2d win = Window2d::square(3, 1, 1);
    const auto scheme = splitWindowOp2d(
        win, 16, 16, evenOutputSplit(win.outH(16), 2),
        evenOutputSplit(win.outW(16), 2), InputSplitPolicy::Center);
    return buildSplitBatchNormPlan(2, 3, 16, 16, splitPatchViews(scheme));
}

ParallelPlan
cleanPoolPlan()
{
    const Window2d win = Window2d::square(2, 2, 0);
    const auto scheme = splitWindowOp2d(
        win, 16, 16, evenOutputSplit(win.outH(16), 2),
        evenOutputSplit(win.outW(16), 2), InputSplitPolicy::Center);
    return buildSplitPoolPlan(1, 3, 16, 16, scheme);
}

TEST(LintMutation, ParallelBaselinesAreClean)
{
    for (const ParallelPlan &plan :
         {cleanConvPlan(), cleanPoolPlan(), cleanBatchNormPlan(),
          buildExecutorWavePlan(Fixture::instance().graph, true),
          splitWavePlan()}) {
        const auto diags = analyzeParallelPlan(plan);
        EXPECT_FALSE(hasErrors(diags))
            << plan.name << ":\n"
            << renderDiagnosticsText(diags);
    }
}

TEST(LintMutation, OverlappingPatchWritesAreSA601)
{
    ParallelPlan bad = cleanPoolPlan();
    // Widen patch 0.0's output write one column into patch 0.1's
    // block: two same-epoch items now write the same floats while
    // the union still covers the output (no SA608 masking).
    ASSERT_TRUE(bad.items[0].accesses[0].write);
    bad.items[0].accesses[0].span.len += 1;
    EXPECT_TRUE(expectOnlyCode(analyzeParallelPlan(bad), "SA601"));
}

TEST(LintMutation, SpanOutsideRegionIsSA602)
{
    ParallelPlan bad = cleanConvPlan();
    // A halo read past the end of the input image. Reads of
    // read-only regions never enter the race sweep, so the bounds
    // rule must catch this alone.
    ParallelAccess &rin = bad.items[0].accesses[1];
    ASSERT_FALSE(rin.write);
    rin.span.base += bad.regions[1].size;
    EXPECT_TRUE(expectOnlyCode(analyzeParallelPlan(bad), "SA602"));
}

TEST(LintMutation, WriteToSharedPanelsIsSA603)
{
    ParallelPlan bad = cleanConvPlan();
    // A kernel packing into the shared weight panels mid-call shows
    // up in the model as a work item writing the read-only panel
    // region.
    bool flipped = false;
    for (ParallelAccess &a : bad.items[0].accesses)
        if (a.region == 2 && !a.write) {
            a.write = true;
            flipped = true;
            break;
        }
    ASSERT_TRUE(flipped);
    EXPECT_TRUE(expectOnlyCode(analyzeParallelPlan(bad), "SA603"));
}

TEST(LintMutation, ForeignArenaAccessIsSA604)
{
    ParallelPlan bad = cleanConvPlan();
    // Retarget item 0's scratch staging at item 1's arena.
    int own = -1, foreign = -1;
    for (size_t r = 0; r < bad.regions.size(); ++r) {
        if (bad.regions[r].name == "arena:0")
            own = static_cast<int>(r);
        if (bad.regions[r].name == "arena:1")
            foreign = static_cast<int>(r);
    }
    ASSERT_GE(own, 0);
    ASSERT_GE(foreign, 0);
    int retargeted = 0;
    for (ParallelAccess &a : bad.items[0].accesses)
        if (a.region == own) {
            a.region = foreign;
            ++retargeted;
        }
    ASSERT_GT(retargeted, 0);
    EXPECT_TRUE(expectOnlyCode(analyzeParallelPlan(bad), "SA604"));
}

/** Give the earliest-wave item of @p plan a read of a slot only
 * produced in the last wave. */
void
addPrematureRead(ParallelPlan &bad)
{
    size_t reader = 0, writer = 0;
    int64_t lo = INT64_MAX, hi = INT64_MIN;
    for (size_t i = 0; i < bad.items.size(); ++i) {
        const ParallelItem &item = bad.items[i];
        const bool writes_slot = std::any_of(
            item.accesses.begin(), item.accesses.end(),
            [](const ParallelAccess &a) {
                return a.region == 0 && a.write;
            });
        if (!writes_slot)
            continue;
        if (item.epoch < lo) {
            lo = item.epoch;
            reader = i;
        }
        if (item.epoch > hi) {
            hi = item.epoch;
            writer = i;
        }
    }
    ASSERT_LT(lo, hi);
    ParallelAccess premature;
    premature.region = 0;
    for (const ParallelAccess &a : bad.items[writer].accesses)
        if (a.region == 0 && a.write)
            premature.span = a.span;
    bad.items[reader].accesses.push_back(premature);
}

TEST(LintMutation, ReadBeforeWriteIsSA605)
{
    // The happens-before proof over the ordered slot region must
    // reject a read of a later wave's slot (different epochs, so no
    // SA601) — on the unsplit schedule and on the lowered split one.
    for (ParallelPlan bad :
         {buildExecutorWavePlan(Fixture::instance().graph, true),
          splitWavePlan()}) {
        addPrematureRead(bad);
        EXPECT_TRUE(expectOnlyCode(analyzeParallelPlan(bad), "SA605"));
    }
}

TEST(LintMutation, ReorderedBnUpdateIsSA606)
{
    ParallelPlan bad =
        buildExecutorWavePlan(Fixture::instance().graph, true);
    // Two deferred running-stat updates aimed at the same parameter
    // slots with their serial order inverted against their epoch
    // order — the bitwise-determinism contract SA606 enforces.
    std::vector<size_t> updates;
    for (size_t i = 0; i < bad.items.size(); ++i)
        if (bad.items[i].name.find(":bn_update") !=
            std::string::npos)
            updates.push_back(i);
    ASSERT_GE(updates.size(), 2u);
    ParallelItem &a = bad.items[updates[0]];
    ParallelItem &b = bad.items[updates[1]];
    b.accesses = a.accesses; // now share running-stat slots
    std::swap(a.seq, b.seq); // epoch order vs serial order disagree
    EXPECT_TRUE(expectOnlyCode(analyzeParallelPlan(bad), "SA606"));
}

TEST(LintMutation, ReorderedPatchBnUpdateIsSA606)
{
    // A split BN layer's per-patch updates share its running-stat
    // slots by construction; applying patch 1 before patch 0 breaks
    // the ascending-patch order the clones' updates compound in — in
    // the executor wave plan and in the split-BN kernel plan alike.
    for (ParallelPlan bad : {splitWavePlan(), cleanBatchNormPlan()}) {
        std::vector<ParallelItem *> updates;
        for (ParallelItem &item : bad.items)
            if (item.name.find("bn_update") != std::string::npos)
                updates.push_back(&item);
        ASSERT_GE(updates.size(), 2u) << bad.name;
        std::swap(updates[0]->seq, updates[1]->seq);
        EXPECT_TRUE(expectOnlyCode(analyzeParallelPlan(bad), "SA606"))
            << bad.name;
    }
}

TEST(LintMutation, BandCoverageGapIsSA608)
{
    ParallelPlan bad = cleanConvPlan();
    // Corrupted band geometry: the first band claims one output row
    // fewer than the decomposition owes, leaving floats no item
    // writes.
    ParallelAccess &wout = bad.items[0].accesses[0];
    ASSERT_TRUE(wout.write);
    const int64_t out_w = 16;
    ASSERT_GT(wout.span.len, out_w);
    wout.span.len -= out_w;
    EXPECT_TRUE(expectOnlyCode(analyzeParallelPlan(bad), "SA608"));
}

} // namespace
} // namespace scnn
