#include "analysis/shadow_access.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <tuple>

#include "util/logging.h"

namespace scnn {

namespace {

/** Findings cap per session: one divergence tends to repeat once per
 * item; the first few identify the analyzer bug. */
constexpr int kMaxShadowFindings = 32;

/** Expansion cap for recorded strided claims (matches the static
 * analyzer's guard). */
constexpr int64_t kMaxRecordExpansion = int64_t{1} << 22;

struct Record
{
    const char *ptr = nullptr; ///< byte pointer of span.base == 0
    StridedSpan span;
    bool write = false;
    int64_t item = -1;
};

struct Binding
{
    int64_t region = -1;
    const char *base = nullptr;
    int64_t size = 0; ///< floats
};

std::atomic<int> g_force{-1};
std::atomic<int64_t> g_sessions_checked{0};
std::atomic<int64_t> g_records_checked{0};
std::atomic<int64_t> g_violations{0};

thread_local int64_t tl_item = -1;

} // namespace

struct ShadowSession::Impl
{
    std::mutex mu;
    ParallelPlan plan;
    std::vector<Binding> bindings;
    std::vector<Record> records;
};

namespace {

/** The active session, or null. Writers hold g_session_mu; readers
 * on the record fast path load the atomic and re-validate under the
 * session's own mutex. */
std::atomic<ShadowSession::Impl *> g_active{nullptr};
std::mutex g_session_mu;

void
append(ShadowSession::Impl *impl, const void *ptr,
       const StridedSpan &span, bool write)
{
    std::lock_guard<std::mutex> lock(impl->mu);
    // Re-validate: the session could have been torn down between the
    // atomic load and the lock.
    if (g_active.load(std::memory_order_acquire) != impl)
        return;
    Record r;
    r.ptr = static_cast<const char *>(ptr);
    r.span = span;
    r.write = write;
    r.item = tl_item;
    impl->records.push_back(r);
}

} // namespace

bool
shadowAccessEnabled()
{
    const int force = g_force.load(std::memory_order_relaxed);
    if (force >= 0)
        return force != 0;
    const char *env = std::getenv("SCNN_SHADOW_ACCESS");
    return env != nullptr && *env != '0';
}

void
setShadowAccessForTesting(int mode)
{
    g_force.store(mode, std::memory_order_relaxed);
}

ShadowAccessStats
shadowAccessStats()
{
    return {g_sessions_checked.load(), g_records_checked.load(),
            g_violations.load()};
}

void
shadowAccessResetStats()
{
    g_sessions_checked.store(0);
    g_records_checked.store(0);
    g_violations.store(0);
}

ShadowSession::ShadowSession(ParallelPlan plan) : impl_(new Impl)
{
    impl_->plan = std::move(plan);
    std::lock_guard<std::mutex> lock(g_session_mu);
    SCNN_CHECK(g_active.load() == nullptr,
               "nested shadow-access sessions are not supported");
    g_active.store(impl_, std::memory_order_release);
}

ShadowSession::~ShadowSession()
{
    {
        std::lock_guard<std::mutex> lock(g_session_mu);
        g_active.store(nullptr, std::memory_order_release);
    }
    // Recorders re-validate under impl_->mu, so once the pointer is
    // cleared and the mutex cycles, no thread still touches impl_.
    { std::lock_guard<std::mutex> lock(impl_->mu); }
    delete impl_;
}

void
ShadowSession::bind(const std::string &name, const void *base)
{
    const int64_t region = findParallelRegion(impl_->plan, name);
    SCNN_CHECK(region >= 0,
               "shadow bind: no region named '" << name << "'");
    std::lock_guard<std::mutex> lock(impl_->mu);
    Binding b;
    b.region = region;
    b.base = static_cast<const char *>(base);
    b.size = impl_->plan.regions[static_cast<size_t>(region)].size;
    impl_->bindings.push_back(b);
}

int64_t
ShadowSession::recordCount() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return static_cast<int64_t>(impl_->records.size());
}

std::vector<Diagnostic>
ShadowSession::check()
{
    std::vector<Record> records;
    std::vector<Binding> bindings;
    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        records = impl_->records;
        bindings = impl_->bindings;
    }
    const ParallelPlan &plan = impl_->plan;
    DiagnosticSink sink;
    int findings = 0;
    auto report = [&](int64_t item, const std::string &msg) {
        g_violations.fetch_add(1, std::memory_order_relaxed);
        if (findings++ >= kMaxShadowFindings)
            return;
        DiagLocation loc;
        loc.step = static_cast<int>(item);
        sink.add("SA607", loc, msg);
    };

    // Predicted footprints, merged lazily per (item, region, dir).
    std::map<std::tuple<int64_t, int64_t, bool>,
             std::vector<std::pair<int64_t, int64_t>>>
        merged;
    auto footprint = [&](int64_t item, int64_t region, bool write)
        -> const std::vector<std::pair<int64_t, int64_t>> & {
        auto key = std::make_tuple(item, region, write);
        auto it = merged.find(key);
        if (it != merged.end())
            return it->second;
        std::vector<std::pair<int64_t, int64_t>> ivs;
        const ParallelItem &pi =
            plan.items[static_cast<size_t>(item)];
        for (const ParallelAccess &a : pi.accesses) {
            if (a.region != region)
                continue;
            // Reads are legal anywhere the item reads *or* writes.
            if (write && !a.write)
                continue;
            const int64_t n1 = a.span.s1 == 0 ? 1 : a.span.n1;
            const int64_t n2 = a.span.s2 == 0 ? 1 : a.span.n2;
            for (int64_t i1 = 0; i1 < n1; ++i1)
                for (int64_t i2 = 0; i2 < n2; ++i2) {
                    const int64_t lo =
                        a.span.base + i1 * a.span.s1 + i2 * a.span.s2;
                    ivs.emplace_back(lo, lo + a.span.len);
                }
        }
        std::sort(ivs.begin(), ivs.end());
        std::vector<std::pair<int64_t, int64_t>> out;
        for (const auto &iv : ivs) {
            if (!out.empty() && iv.first <= out.back().second)
                out.back().second =
                    std::max(out.back().second, iv.second);
            else
                out.push_back(iv);
        }
        return merged.emplace(key, std::move(out)).first->second;
    };

    // [lo, hi) fully covered by the merged interval list?
    auto contained =
        [](const std::vector<std::pair<int64_t, int64_t>> &ivs,
           int64_t lo, int64_t hi) {
            int64_t pos = lo;
            auto it = std::upper_bound(
                ivs.begin(), ivs.end(), pos,
                [](int64_t p, const std::pair<int64_t, int64_t> &iv) {
                    return p < iv.second;
                });
            while (pos < hi) {
                if (it == ivs.end() || it->first > pos)
                    return false;
                pos = it->second;
                ++it;
            }
            return true;
        };

    for (const Record &rec : records) {
        g_records_checked.fetch_add(1, std::memory_order_relaxed);
        const char *dir = rec.write ? "write" : "read";
        // Resolve the pointer through the bindings.
        const Binding *hit = nullptr;
        for (const Binding &b : bindings)
            if (rec.ptr >= b.base &&
                rec.ptr < b.base + b.size * int64_t(sizeof(float))) {
                hit = &b;
                break;
            }
        if (hit == nullptr) {
            std::ostringstream os;
            os << "recorded " << dir
               << " targets memory outside every bound region";
            report(rec.item, os.str());
            continue;
        }
        const std::string &rname =
            plan.regions[static_cast<size_t>(hit->region)].name;
        const int64_t byte_off = rec.ptr - hit->base;
        if (byte_off % int64_t(sizeof(float)) != 0) {
            std::ostringstream os;
            os << "recorded " << dir << " in region '" << rname
               << "' is not float-aligned";
            report(rec.item, os.str());
            continue;
        }
        if (rec.item < 0 ||
            rec.item >= static_cast<int64_t>(plan.items.size())) {
            std::ostringstream os;
            os << "recorded " << dir << " in region '" << rname
               << "' has no valid work item (" << rec.item << ")";
            report(rec.item, os.str());
            continue;
        }
        if (rec.span.len <= 0 || rec.span.n1 <= 0 ||
            rec.span.n2 <= 0 ||
            rec.span.count() > kMaxRecordExpansion) {
            std::ostringstream os;
            os << "recorded " << dir << " in region '" << rname
               << "' has a malformed span";
            report(rec.item, os.str());
            continue;
        }
        const auto &ivs = footprint(rec.item, hit->region, rec.write);
        const int64_t base =
            byte_off / int64_t(sizeof(float)) + rec.span.base;
        const int64_t n1 = rec.span.s1 == 0 ? 1 : rec.span.n1;
        const int64_t n2 = rec.span.s2 == 0 ? 1 : rec.span.n2;
        bool escaped = false;
        int64_t bad_lo = 0;
        for (int64_t i1 = 0; i1 < n1 && !escaped; ++i1)
            for (int64_t i2 = 0; i2 < n2 && !escaped; ++i2) {
                const int64_t lo =
                    base + i1 * rec.span.s1 + i2 * rec.span.s2;
                if (!contained(ivs, lo, lo + rec.span.len)) {
                    escaped = true;
                    bad_lo = lo;
                }
            }
        if (escaped) {
            std::ostringstream os;
            os << parallelItemName(plan, rec.item) << " " << dir << "s ["
               << bad_lo << ", " << bad_lo + rec.span.len
               << ") of region '" << rname
               << "' outside its statically predicted "
               << (rec.write ? "write" : "read") << " set";
            report(rec.item, os.str());
        }
    }
    g_sessions_checked.fetch_add(1, std::memory_order_relaxed);
    return sink.take();
}

std::unique_ptr<ShadowSession>
openShadowSession(ParallelPlan plan, ShadowBindings bindings)
{
    auto session = std::make_unique<ShadowSession>(std::move(plan));
    for (const auto &[name, base] : bindings)
        session->bind(name, base);
    return session;
}

void
checkShadowSession(const std::unique_ptr<ShadowSession> &session,
                   const char *what)
{
    if (!session)
        return;
    const std::vector<Diagnostic> escapes = session->check();
    SCNN_CHECK(escapes.empty(), "shadow-access validator: "
                                    << escapes.size()
                                    << " SA607 escape(s) in " << what
                                    << "; first: "
                                    << escapes.front().toString());
}

void
shadowSetItem(int64_t item)
{
    tl_item = item;
}

void
shadowRecord(const void *ptr, int64_t len_floats, bool write)
{
    ShadowSession::Impl *impl =
        g_active.load(std::memory_order_acquire);
    if (impl == nullptr)
        return;
    append(impl, ptr, StridedSpan::interval(0, len_floats), write);
}

void
shadowRecordSpan(const void *ptr, const StridedSpan &span, bool write)
{
    ShadowSession::Impl *impl =
        g_active.load(std::memory_order_acquire);
    if (impl == nullptr)
        return;
    append(impl, ptr, span, write);
}

void
shadowRecordPatch(const float *img, int64_t c, int64_t ih, int64_t iw,
                  const PatchView &view, bool write)
{
    shadowRecord(img + view.r0 * iw + view.c0,
                 (c - 1) * ih * iw + (view.ih - 1) * iw + view.iw, write);
}

} // namespace scnn
