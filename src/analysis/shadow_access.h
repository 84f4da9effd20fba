/**
 * @file
 * Shadow-access validator (SA607): the empirical check that keeps
 * the SA6xx static analyzer honest. With SCNN_SHADOW_ACCESS=1, the
 * fused split kernels log coarse-grained (work item, offset range,
 * R/W) claims while they run; a post-run containment check asserts
 * every recorded access lies inside the footprint the ParallelPlan
 * predicted for that item. A violation is an *analyzer* bug (the
 * model diverged from the kernels), surfaced as diagnostic SA607 —
 * distinct from the SA601-SA606 codes, which indict the plan.
 *
 * Protocol:
 *   1. A split call with more than one patch builds the
 *      ParallelPlan for the execution it is about to run and opens a
 *      ShadowSession with it.
 *   2. It binds each plan region's name to the region's runtime base
 *      pointer (output tensor, input tensor, packed panels).
 *      Scratch-arena regions stay unbound: arena buffers are
 *      recycled across items by each worker thread, so pointer
 *      identity cannot attribute them to items — their legality is
 *      proved statically (SA604) instead.
 *   3. Its work loops call shadowSetItem(i) before running item i
 *      and record the item's claims (shadowRecord, shadowRecordSpan,
 *      shadowRecordPatch) with raw pointers, only while they hold
 *      the session, so a one-patch call running beside it records
 *      nothing. Recording is a no-op (one relaxed atomic load) when
 *      no session is active.
 *   4. The call runs check(): every record is resolved to
 *      (region, offset) through the bindings and must be contained
 *      in the union of its item's predicted spans — writes within
 *      the item's write set, reads within its read+write set. A
 *      pointer no binding covers, a record with no current item, or
 *      an escaping range each yields an SA607.
 *
 * Recording is coarse (one claim per band/patch/channel, not per
 * element) so the debug overhead stays proportional to the number of
 * work items, not the number of floats.
 */
#ifndef SCNN_ANALYSIS_SHADOW_ACCESS_H
#define SCNN_ANALYSIS_SHADOW_ACCESS_H

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/parallel_model.h"

namespace scnn {

/**
 * Whether shadow recording is requested: SCNN_SHADOW_ACCESS=1 (any
 * value but "0") enables it in every build type; tests can override
 * with setShadowAccessForTesting. Re-read each call so setenv works.
 */
bool shadowAccessEnabled();

/** Test override: 1 = force on, 0 = force off, -1 = follow the env. */
void setShadowAccessForTesting(int mode);

/** Cumulative process-wide counters (observability for tests/CI). */
struct ShadowAccessStats
{
    int64_t sessions_checked = 0;
    int64_t records_checked = 0;
    int64_t violations = 0;
};

ShadowAccessStats shadowAccessStats();
void shadowAccessResetStats();

/**
 * One recording scope. At most one session is active per process
 * (split calls never nest, and one-patch calls open none);
 * constructing a second while one is active is a bug and panics.
 */
class ShadowSession
{
  public:
    explicit ShadowSession(ParallelPlan plan);
    ~ShadowSession();

    ShadowSession(const ShadowSession &) = delete;
    ShadowSession &operator=(const ShadowSession &) = delete;

    /** Bind region @p name to its runtime base pointer. Regions left
     * unbound (scratch arenas) never match a recorded pointer. */
    void bind(const std::string &name, const void *base);

    /** Containment check over everything recorded so far; SA607
     * diagnostics for every escape (capped per session). */
    std::vector<Diagnostic> check();

    /** Number of raw records captured so far. */
    int64_t recordCount() const;

    /** Opaque state; public so the free recorder functions can name
     * the active session's type. */
    struct Impl;

  private:
    Impl *impl_;
};

/** Region name -> runtime base pointer, for openShadowSession. */
using ShadowBindings =
    std::initializer_list<std::pair<const char *, const void *>>;

/** A session over @p plan with @p bindings bound (steps 1-2 above). */
std::unique_ptr<ShadowSession> openShadowSession(ParallelPlan plan,
                                                 ShadowBindings bindings);

/** Step 4: check @p session (no-op when null) and panic with the
 * first SA607 escape, naming the kernel @p what. */
void checkShadowSession(const std::unique_ptr<ShadowSession> &session,
                        const char *what);

/** Declare the work item the calling thread is about to execute. */
void shadowSetItem(int64_t item);

/** Record a contiguous float range at @p ptr. No-op without an
 * active session. */
void shadowRecord(const void *ptr, int64_t len_floats, bool write);

/** Record a strided claim: @p span offsets are relative to @p ptr
 * (span.base is honored). */
void shadowRecordSpan(const void *ptr, const StridedSpan &span,
                      bool write);

/** Record patch @p view of a C x ih x iw parent image @p img as its
 * contiguous hull: channel 0's first rectangle float through channel
 * c-1's last (the span the SA6xx models predict for a patch). An
 * empty view records nothing. */
void shadowRecordPatch(const float *img, int64_t c, int64_t ih,
                       int64_t iw, const PatchView &view, bool write);

} // namespace scnn

#endif // SCNN_ANALYSIS_SHADOW_ACCESS_H
