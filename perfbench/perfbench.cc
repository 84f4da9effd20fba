/**
 * @file
 * End-to-end training/inference benchmark of the Split-CNN library.
 *
 * One process runs one closed-loop training workload (the next step
 * starts when the previous one returns) through the library's public
 * calls, exactly as trainModel strings them together: batch assembly,
 * optional split transform, Executor construction, forward, loss,
 * zeroGrad, backward and the SGD update, with inference forwards over
 * test batches at a fixed step interval. It prints the end-to-end
 * metrics (untraced run) or the per-layer metrics (traced run) and
 * ends with one JSON object on stdout. See README.md in this
 * directory for the workloads and the metric map.
 *
 *   scnn_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--trace-out FILE] [--inject-nan]
 *
 * --inject-nan corrupts one reference logit so the correctness checks
 * can be shown to fire; it exists for the benchmark's own tests.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/split_op.h"
#include "core/splitter.h"
#include "data/synthetic.h"
#include "hmms/planner.h"
#include "hmms/static_planner.h"
#include "kernels/activations.h"
#include "kernels/batchnorm.h"
#include "kernels/conv2d.h"
#include "kernels/gemm.h"
#include "kernels/linear.h"
#include "kernels/pool2d.h"
#include "models/models.h"
#include "sim/stream_sim.h"
#include "tensor/tensor_ops.h"
#include "train/executor.h"
#include "train/sgd.h"
#include "util/threadpool.h"

using namespace scnn;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     kEpoch)
        .count();
}

// ---------------------------------------------------------------- spans

/** One timed call into a layer; parent is an index into the span
 * list (-1 for a root), step the training step it belongs to (-1 for
 * set-up and replay work). */
struct Span
{
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;
    int step = -1;
};

/** In-memory span recorder; does nothing while disabled. */
class Tracer
{
  public:
    bool on = false;

    int
    begin(const char *name, int step)
    {
        if (!on)
            return -1;
        const int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back({name, nowMs(), 0.0, parent, step});
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    void
    end(int id)
    {
        if (id < 0)
            return;
        spans_[static_cast<size_t>(id)].end_ms = nowMs();
        open_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Write the spans as Chrome trace_event JSON. */
    bool
    writeChrome(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << "{\"traceEvents\":[\n";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char line[256];
            std::snprintf(line, sizeof line,
                          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"id\":%zu,\"parent\":%d,"
                          "\"step\":%d}}%s\n",
                          s.name.c_str(), s.start_ms * 1e3,
                          (s.end_ms - s.start_ms) * 1e3, i, s.parent,
                          s.step, i + 1 < spans_.size() ? "," : "");
            out << line;
        }
        out << "]}\n";
        return static_cast<bool>(out);
    }

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

Tracer g_tracer;

class ScopedSpan
{
  public:
    ScopedSpan(const char *name, int step)
        : id_(g_tracer.begin(name, step))
    {
    }
    ~ScopedSpan() { g_tracer.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    int id_;
};

/** Wall time of @p fn in milliseconds, recorded as span @p name. */
template <typename Fn>
double
timed(const char *name, int step, Fn &&fn)
{
    ScopedSpan span(name, step);
    const double t0 = nowMs();
    fn();
    return nowMs() - t0;
}

// ---------------------------------------------------------- statistics

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The highest percentile, up to the 90th, that has at least ten
 * samples above it (nearest rank); @p pct receives its rank. */
double
tailPercentile(std::vector<double> v, double &pct)
{
    pct = 0.0;
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const int64_t n = static_cast<int64_t>(v.size());
    int64_t i = std::llround(0.9 * static_cast<double>(n - 1));
    i = std::max<int64_t>(n / 2, std::min<int64_t>(i, n - 11));
    pct = n > 1 ? 100.0 * static_cast<double>(i) /
                      static_cast<double>(n - 1)
                : 100.0;
    return v[static_cast<size_t>(i)];
}

bool
allFinite(const Tensor &t)
{
    for (int64_t i = 0; i < t.numel(); ++i)
        if (!std::isfinite(t.data()[i]))
            return false;
    return true;
}

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.bytes())) == 0;
}

uint64_t
fnv1a(uint64_t h, const void *data, size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < bytes; ++i)
        h = (h ^ p[i]) * 1099511628211ULL;
    return h;
}

struct Usage
{
    double cpu_s = 0.0;
    int64_t vol_cs = 0;
    int64_t invol_cs = 0;
    double max_rss_mb = 0.0;
};

Usage
readUsage()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                         ru.ru_stime.tv_usec);
    u.vol_cs = ru.ru_nvcsw;
    u.invol_cs = ru.ru_nivcsw;
    u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return u;
}

// ----------------------------------------------------------- workloads

/** Why each workload exists is in README.md. */
struct WorkloadSpec
{
    const char *name;
    const char *model;
    int threads;      ///< pool size for the timed run
    int splits = 1;   ///< h = w patch grid; 1 = unsplit
    bool stochastic = false;
    bool paired = false; ///< alternate with an unsplit partner step
};

const WorkloadSpec kWorkloads[] = {
    {"vgg19_split4x4", "vgg19", 1, 4, false, true},
    {"resnet18_base_4t", "resnet18", 4, 1, false, false},
    {"resnet18_sscnn", "resnet18", 1, 2, true, false},
};

constexpr int64_t kBatch = 8;
constexpr int kTrainSamples = 512;
constexpr int kTestSamples = 64;
constexpr int kWarmupSteps = 2;
constexpr int kEvalEvery = 4;   ///< train steps between eval rounds
constexpr int kEvalBatches = 2; ///< test batches per eval round
/** Timed steps even for a tiny --seconds: the loss-trend check held
 * on every seed tried from 30 steps on, and failed on some below. */
constexpr int kMinSteps = 30;
constexpr int kReplaySteps = 2; ///< steps checked at the other thread count
constexpr int kReferenceSteps = 8; ///< steps of the reference run
constexpr int kSetupReps = 3;
constexpr float kLr = 0.002f;

/** A trained network: its parameters and optimizer state. */
struct Net
{
    ParamStore params;
    Sgd sgd;
};

/** Everything set-up builds; the timed phase only mutates it. */
struct State
{
    std::unique_ptr<SyntheticDataset> data;
    std::unique_ptr<Graph> base;
    std::unique_ptr<Graph> split; ///< fixed split graph, if any
    std::unique_ptr<Net> net;
    std::unique_ptr<Net> partner; ///< unsplit partner (paired only)
    SplitOptions split_opt;
    Rng data_rng{0};
    Rng split_rng{0};
    std::vector<int> order;
    size_t cursor = 0;
    int test_cursor = 0;

    // Set-up component times.
    double generate_s = 0.0;
    double build_ms = 0.0;
    double split_ms = 0.0;
    double plan_ms = 0.0;
    double simulate_ms = 0.0;
    double predicted_mb = 0.0;
    size_t graph_nodes = 0;

    const Graph &trainGraph() const { return split ? *split : *base; }

    /** Indices of the next training batch, reshuffling per epoch. */
    std::vector<int>
    nextIndices()
    {
        if (cursor + static_cast<size_t>(kBatch) > order.size()) {
            order = data->shuffledEpoch(data_rng);
            cursor = 0;
        }
        std::vector<int> idx(order.begin() + static_cast<long>(cursor),
                             order.begin() +
                                 static_cast<long>(cursor + kBatch));
        cursor += static_cast<size_t>(kBatch);
        return idx;
    }
};

struct StepOut
{
    double ms = 0.0;
    float loss = 0.0f;
    Tensor logits;
};

/**
 * One training step of @p net, as trainModel runs it. With
 * @p resplit a fresh stochastic split graph is drawn from
 * @p split_rng first. Spans are recorded under @p root.
 */
StepOut
trainStep(State &s, Net &net, const Graph &graph, bool resplit,
          Rng &split_rng, const std::vector<int> &indices, int step,
          const char *root)
{
    StepOut out;
    const double t0 = nowMs();
    {
        ScopedSpan span(root, step);
        std::vector<int64_t> labels;
        Tensor x;
        timed("data.batch", step,
              [&] { x = s.data->trainBatch(indices, labels); });
        std::unique_ptr<Graph> drawn;
        const Graph *g = &graph;
        if (resplit) {
            timed("core.split_transform", step, [&] {
                drawn = std::make_unique<Graph>(
                    splitCnnTransform(*s.base, s.split_opt, &split_rng));
            });
            g = drawn.get();
        }
        std::optional<Executor> ex;
        timed("train.executor_init", step,
              [&] { ex.emplace(*g, net.params); });
        ForwardCache cache;
        timed("train.forward", step, [&] {
            out.logits = ex->forward(x, /*training=*/true, &cache);
        });
        Tensor grad;
        timed("train.loss", step, [&] {
            Tensor probs;
            out.loss = softmaxXentForward(out.logits, labels, probs);
            grad = softmaxXentBackward(probs, labels);
        });
        timed("train.zero_grad", step, [&] { net.params.zeroGrad(); });
        timed("train.backward", step,
              [&] { ex->backward(cache, grad); });
        timed("train.sgd", step, [&] { net.sgd.step(net.params); });
    }
    out.ms = nowMs() - t0;
    return out;
}

/** Graph the inference forwards run: SSCNN evaluates unsplit. */
const Graph &
evalGraph(const State &s, const WorkloadSpec &w)
{
    return w.stochastic ? *s.base : s.trainGraph();
}

std::unique_ptr<State>
setUp(const WorkloadSpec &w, uint64_t seed)
{
    auto s = std::make_unique<State>();
    Rng root(seed * 0x9e3779b97f4a7c15ULL + 0x5c11);

    s->generate_s = timed("data.generate", -1, [&] {
        SyntheticSpec spec;
        spec.train_samples = kTrainSamples;
        spec.test_samples = kTestSamples;
        spec.seed = root.next();
        s->data = std::make_unique<SyntheticDataset>(spec);
    }) / 1e3;

    ModelConfig cfg;
    cfg.batch = kBatch;
    cfg.image = 32;
    cfg.classes = 10;
    cfg.width = 0.25;
    s->build_ms = timed("models.build", -1, [&] {
        s->base = std::make_unique<Graph>(buildModel(w.model, cfg));
    });

    s->split_opt.depth = 0.5;
    s->split_opt.splits_h = s->split_opt.splits_w = w.splits;
    s->split_opt.stochastic = w.stochastic;
    s->split_opt.omega = 0.2;
    s->split_rng = root.fork();
    std::unique_ptr<Graph> probe; // representative stochastic draw
    if (w.splits > 1) {
        s->split_ms = timed("core.split_transform", -1, [&] {
            Rng draw = s->split_rng;
            auto g = std::make_unique<Graph>(splitCnnTransform(
                *s->base, s->split_opt, w.stochastic ? &draw : nullptr));
            (w.stochastic ? probe : s->split) = std::move(g);
        });
    }
    const Graph &planned = probe ? *probe : s->trainGraph();
    s->graph_nodes = planned.nodes().size();

    timed("train.param_init", -1, [&] {
        Rng init = root.fork();
        SgdConfig sgd;
        sgd.lr = kLr;
        s->net = std::make_unique<Net>(
            Net{ParamStore(*s->base, init), Sgd(*s->base, sgd)});
        if (w.paired) {
            Rng pinit = root.fork();
            s->partner = std::make_unique<Net>(
                Net{ParamStore(*s->base, pinit), Sgd(*s->base, sgd)});
        }
    });
    s->data_rng = root.fork();

    // Static HMMS plan with no offload: the device memory the
    // workload's graph needs, and its simulated iteration.
    DeviceSpec device;
    StorageAssignment assignment;
    MemoryPlan plan;
    s->plan_ms = timed("hmms.plan", -1, [&] {
        assignment = assignStorage(planned, planned.topoOrder());
        plan = planMemory(planned, device, {PlannerKind::None, 1.0, {}},
                          assignment)
                   .value();
        const StaticMemoryPlan mem =
            planStaticMemory(planned, assignment, plan);
        s->predicted_mb =
            static_cast<double>(mem.totalDeviceBytes()) / (1 << 20);
    });
    s->simulate_ms = timed("sim.simulate", -1, [&] {
        (void)simulatePlan(planned, device, plan, assignment).value();
    });

    // Untimed warm-up steps belong to set-up, so work moved there
    // shows in setup_s.
    for (int i = 0; i < kWarmupSteps; ++i) {
        const auto idx = s->nextIndices();
        trainStep(*s, *s->net, s->trainGraph(), w.stochastic,
                  s->split_rng, idx, -1, "warmup.step");
        if (s->partner)
            trainStep(*s, *s->partner, *s->base, false, s->split_rng,
                      idx, -1, "warmup.partner_step");
    }
    {
        ScopedSpan span("warmup.infer", -1);
        Executor ex(evalGraph(*s, w), s->net->params);
        std::vector<int64_t> labels;
        ex.forward(s->data->testBatch(0, kBatch, labels), false,
                   nullptr);
    }
    return s;
}

/** What the timed run must reproduce bitwise, and how the workload
 * ran at the reference thread count. */
struct Reference
{
    std::vector<Tensor> step_logits; ///< first kReplaySteps steps
    Tensor eval_logits;              ///< first eval batch
    double step_ms = 0.0;      ///< median step after the first
    double cpu_per_wall = 0.0; ///< over the steps after the first
};

/**
 * Set up @p w once more and train it kReferenceSteps steps at
 * @p threads, with the first eval batch after kEvalEvery steps.
 * Set-up is deterministic, so the timed run's logits must match these
 * bitwise: the engine's any-thread-count contract. It runs after the
 * peak RSS is read, so neither its state nor its thread count shows
 * in peak_rss_mb. For a 1-thread workload it is also where the
 * threadpool and the wave-parallel executor run.
 */
Reference
referenceRun(const WorkloadSpec &w, uint64_t seed, int threads)
{
    Reference ref;
    auto s = setUp(w, seed);
    setGlobalThreads(threads);
    std::vector<double> step_ms;
    Usage u0;
    double t0 = 0.0;
    for (int i = 0; i < kReferenceSteps; ++i) {
        if (i == 1) {
            u0 = readUsage();
            t0 = nowMs();
        }
        const auto idx = s->nextIndices();
        StepOut o = trainStep(*s, *s->net, s->trainGraph(), w.stochastic,
                              s->split_rng, idx, -1, "reference.step");
        if (i > 0)
            step_ms.push_back(o.ms);
        if (i < kReplaySteps)
            ref.step_logits.push_back(std::move(o.logits));
        if (i + 1 == kEvalEvery) {
            Executor ex(evalGraph(*s, w), s->net->params);
            std::vector<int64_t> labels;
            ref.eval_logits =
                ex.forward(s->data->testBatch(0, kBatch, labels),
                           /*training=*/false, nullptr);
        }
    }
    ref.cpu_per_wall = (readUsage().cpu_s - u0.cpu_s) /
                       ((nowMs() - t0) / 1e3);
    ref.step_ms = median(step_ms);
    setGlobalThreads(w.threads);
    return ref;
}

// --------------------------------------------------------- kernel replay

/** Per-op-kind kernel time of one training step, from calling each
 * node's public kernel on random inputs of the node's shapes. */
struct KernelReplay
{
    std::map<std::string, double> ms;
    double conv_gflop = 0.0; ///< forward + backward, per step
    double total_ms = 0.0;
};

constexpr int kReplayReps = 3;

/** Median over kReplayReps calls of @p fn, in milliseconds. */
template <typename Fn>
double
medianMs(Fn &&fn)
{
    std::vector<double> t;
    for (int r = 0; r < kReplayReps; ++r) {
        const double t0 = nowMs();
        fn();
        t.push_back(nowMs() - t0);
    }
    return median(t);
}

KernelReplay
replayKernels(const Graph &g, const ParamStore &params, Rng &rng)
{
    ScopedSpan span("kernels.replay", -1);
    KernelReplay r;
    auto randn = [&](const Shape &shape) {
        Tensor t(shape);
        t.fillNormal(rng, 0.0f, 1.0f);
        return t;
    };
    auto shapeOf = [&](TensorId t) -> const Shape & {
        return g.tensor(t).shape;
    };
    for (NodeId id : g.topoOrder()) {
        const Node &n = g.node(id);
        const Shape &os = shapeOf(n.output);
        switch (n.kind) {
          case OpKind::Conv2d: {
            const Tensor x = randn(shapeOf(n.inputs[0]));
            const Tensor go = randn(os);
            const Tensor &w = params.value(n.params[0]);
            const Tensor b =
                n.has_bias ? params.value(n.params[1]) : Tensor();
            r.ms["conv2d_fwd"] +=
                medianMs([&] { conv2dForwardAuto(x, w, b, n.win); });
            Tensor gx, gw(w.shape()), gb = n.has_bias ? Tensor(b.shape())
                                                      : Tensor();
            r.ms["conv2d_bwd"] += medianMs(
                [&] { conv2dBackward(x, w, go, n.win, gx, gw, gb); });
            const auto &wd = w.shape().dims();
            const double macs = static_cast<double>(os.numel()) *
                                static_cast<double>(wd[1] * wd[2] * wd[3]);
            r.conv_gflop += 3.0 * 2.0 * macs / 1e9; // fwd, dgrad, wgrad
            break;
          }
          case OpKind::BatchNorm: {
            const Tensor x = randn(shapeOf(n.inputs[0]));
            const Tensor go = randn(os);
            const Tensor &gamma = params.value(n.params[0]);
            const Tensor &beta = params.value(n.params[1]);
            Tensor rm = params.value(n.params[2]);
            Tensor rv = params.value(n.params[3]);
            BatchNormCache cache;
            r.ms["batchnorm_fwd"] += medianMs([&] {
                batchNormForward(x, gamma, beta, rm, rv, 0.1f, 1e-5f,
                                 cache);
            });
            Tensor gg(gamma.shape()), gb(beta.shape());
            r.ms["batchnorm_bwd"] += medianMs(
                [&] { batchNormBackward(go, gamma, cache, gg, gb); });
            break;
          }
          case OpKind::ReLU: {
            const Tensor x = randn(shapeOf(n.inputs[0]));
            const Tensor go = randn(os);
            Tensor y;
            r.ms["relu_fwd"] += medianMs([&] { y = reluForward(x); });
            r.ms["relu_bwd"] += medianMs([&] { reluBackward(y, go); });
            break;
          }
          case OpKind::MaxPool2d: {
            const Shape &is = shapeOf(n.inputs[0]);
            const Tensor x = randn(is);
            const Tensor go = randn(os);
            std::vector<int64_t> argmax;
            r.ms["pool_fwd"] += medianMs(
                [&] { maxPool2dForward(x, n.win, argmax); });
            r.ms["pool_bwd"] += medianMs(
                [&] { maxPool2dBackward(is, go, argmax); });
            break;
          }
          case OpKind::AvgPool2d: {
            const Shape &is = shapeOf(n.inputs[0]);
            const Tensor x = randn(is);
            const Tensor go = randn(os);
            r.ms["pool_fwd"] +=
                medianMs([&] { avgPool2dForward(x, n.win); });
            r.ms["pool_bwd"] +=
                medianMs([&] { avgPool2dBackward(is, go, n.win); });
            break;
          }
          case OpKind::GlobalAvgPool: {
            const Shape &is = shapeOf(n.inputs[0]);
            const Tensor x = randn(is);
            const Tensor go = randn(os);
            r.ms["pool_fwd"] += medianMs([&] { globalAvgPoolForward(x); });
            r.ms["pool_bwd"] +=
                medianMs([&] { globalAvgPoolBackward(is, go); });
            break;
          }
          case OpKind::Linear: {
            const Tensor x = randn(shapeOf(n.inputs[0]));
            const Tensor go = randn(os);
            const Tensor &w = params.value(n.params[0]);
            const Tensor b =
                n.has_bias ? params.value(n.params[1]) : Tensor();
            Tensor gx, gw(w.shape()), gb = n.has_bias ? Tensor(b.shape())
                                                      : Tensor();
            r.ms["linear"] += medianMs([&] { linearForward(x, w, b); });
            r.ms["linear"] += medianMs(
                [&] { linearBackward(x, w, go, gx, gw, gb); });
            break;
          }
          case OpKind::Add: {
            std::vector<Tensor> xs;
            for (TensorId t : n.inputs)
                xs.push_back(randn(shapeOf(t)));
            r.ms["add"] += medianMs([&] {
                Tensor out = xs[0];
                for (size_t i = 1; i < xs.size(); ++i)
                    axpy(1.0f, xs[i], out);
            });
            break;
          }
          case OpKind::Slice: {
            const Tensor x = randn(shapeOf(n.inputs[0]));
            const Tensor go = randn(os);
            const int64_t h = x.shape().dim(2), w = x.shape().dim(3);
            r.ms["slice_concat"] += medianMs([&] {
                pad2d(x, -n.h_start, n.h_end - h, -n.w_start,
                      n.w_end - w);
            });
            r.ms["slice_concat"] += medianMs([&] {
                Tensor slot(x.shape());
                addWindow2d(go, n.h_start, n.w_start, slot);
            });
            break;
          }
          case OpKind::Concat: {
            std::vector<Tensor> parts;
            std::vector<int64_t> starts;
            int64_t cursor = 0;
            for (TensorId t : n.inputs) {
                parts.push_back(randn(shapeOf(t)));
                starts.push_back(cursor);
                cursor += shapeOf(t).dim(n.concat_dim);
            }
            const Tensor go = randn(os);
            r.ms["slice_concat"] +=
                medianMs([&] { concatDim(parts, n.concat_dim); });
            r.ms["slice_concat"] +=
                medianMs([&] { splitDim(go, n.concat_dim, starts); });
            break;
          }
          case OpKind::Input:
          case OpKind::Flatten:
            break;
        }
    }
    // Backward gradient accumulation at forks (residual inputs): one
    // axpy per extra non-Slice consumer, as Executor::backward does.
    for (const TensorInfo &t : g.tensors()) {
        int64_t consumers = 0;
        for (NodeId c : t.consumers)
            consumers += g.node(c).kind != OpKind::Slice;
        if (consumers < 2)
            continue;
        const Tensor a = randn(t.shape);
        Tensor acc = randn(t.shape);
        r.ms["add"] += static_cast<double>(consumers - 1) *
                       medianMs([&] { axpy(1.0f, a, acc); });
    }
    for (const auto &[name, ms] : r.ms)
        r.total_ms += ms;
    return r;
}

// ---------------------------------------------------------------- main

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;
    bool inject_nan = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        auto val = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (k == "--inject-nan") {
            a.inject_nan = true;
        } else if ((v = val()) == nullptr) {
            return false;
        } else if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, nullptr, 10);
        } else if (k == "--seconds") {
            a.seconds = std::atof(v);
        } else if (k == "--trace") {
            a.trace = std::string(v) == "1";
        } else if (k == "--trace-out") {
            a.trace_out = v;
        } else {
            return false;
        }
    }
    return !a.workload.empty() && a.seconds > 0.0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Median per traced step of the summed durations of spans @p name. */
double
spanMedianMs(const std::vector<Span> &spans, const std::string &name,
             const std::vector<int> &steps)
{
    std::map<int, double> per_step;
    for (int st : steps)
        per_step[st] = 0.0;
    for (const Span &s : spans)
        if (s.name == name && per_step.count(s.step))
            per_step[s.step] += s.end_ms - s.start_ms;
    std::vector<double> v;
    for (const auto &[st, ms] : per_step)
        v.push_back(ms);
    return median(v);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--trace-out FILE] [--inject-nan]\n",
                     argv[0]);
        return 2;
    }
    const WorkloadSpec *wp = nullptr;
    for (const WorkloadSpec &w : kWorkloads)
        if (args.workload == w.name)
            wp = &w;
    if (wp == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    const WorkloadSpec &w = *wp;
    setGlobalThreads(w.threads);
    g_tracer.on = args.trace;

    // ---- set-up, repeated; the last state is the one that trains.
    std::vector<double> setup_s;
    std::unique_ptr<State> s;
    for (int r = 0; r < kSetupReps; ++r) {
        s.reset();
        const double t0 = nowMs();
        s = setUp(w, args.seed);
        setup_s.push_back((nowMs() - t0) / 1e3);
    }

    // Fingerprint of the generated inputs (first batch, first
    // weights), so tests can see that the seed drives them.
    uint64_t digest = 1469598103934665603ULL;
    {
        std::vector<int> idx(static_cast<size_t>(kBatch));
        for (size_t i = 0; i < idx.size(); ++i)
            idx[i] = static_cast<int>(i);
        std::vector<int64_t> labels;
        const Tensor x = s->data->trainBatch(idx, labels);
        digest = fnv1a(digest, x.data(), static_cast<size_t>(x.bytes()));
        const Tensor &w0 = s->net->params.value(0);
        digest = fnv1a(digest, w0.data(), static_cast<size_t>(w0.bytes()));
    }

    // ---- timed closed loop.
    int64_t attempted = 0, failed = 0;
    std::vector<double> step_ms, traced_ms, untraced_ms, partner_ms,
        infer_ms;
    std::vector<float> losses;
    std::vector<Tensor> first_logits; ///< checked against the reference
    Tensor first_eval_logits;
    std::vector<int> traced_steps;
    int64_t pack_calls = 0;
    SplitWeightCacheStats cache_delta;

    const Usage u0 = readUsage();
    const double phase_t0 = nowMs();
    int step = 0;
    while (nowMs() - phase_t0 < args.seconds * 1e3 || step < kMinSteps) {
        // In the traced run, every other step is traced; the untraced
        // ones give trace.overhead_ratio with drift cancelled.
        const bool traced = args.trace && step % 2 == 0;
        g_tracer.on = traced;
        const auto idx = s->nextIndices();
        const int64_t packs0 = gemmPackACalls();
        const SplitWeightCacheStats c0 = splitWeightCacheStats();
        StepOut o = trainStep(*s, *s->net, s->trainGraph(), w.stochastic,
                              s->split_rng, idx, step, "train.step");
        if (traced) {
            const SplitWeightCacheStats c1 = splitWeightCacheStats();
            pack_calls += gemmPackACalls() - packs0;
            cache_delta.hits += c1.hits - c0.hits;
            cache_delta.misses += c1.misses - c0.misses;
            traced_steps.push_back(step);
        }
        (traced ? traced_ms : untraced_ms).push_back(o.ms);
        step_ms.push_back(o.ms);
        losses.push_back(o.loss);
        ++attempted;
        failed += !(std::isfinite(o.loss) && allFinite(o.logits));
        if (step < kReplaySteps)
            first_logits.push_back(o.logits);
        if (s->partner) {
            g_tracer.on = false;
            StepOut p = trainStep(*s, *s->partner, *s->base, false,
                                  s->split_rng, idx, step,
                                  "partner.step");
            partner_ms.push_back(p.ms);
            ++attempted;
            failed += !(std::isfinite(p.loss) && allFinite(p.logits));
        }
        ++step;
        if (step % kEvalEvery == 0) {
            g_tracer.on = args.trace;
            const Graph &eg = evalGraph(*s, w);
            Executor ex(eg, s->net->params);
            for (int b = 0; b < kEvalBatches; ++b) {
                std::vector<int64_t> labels;
                const Tensor x =
                    s->data->testBatch(s->test_cursor, kBatch, labels);
                Tensor logits;
                infer_ms.push_back(timed("infer.forward", step - 1, [&] {
                    logits = ex.forward(x, /*training=*/false, nullptr);
                }));
                ++attempted;
                failed += !allFinite(logits);
                if (step == kEvalEvery && b == 0)
                    first_eval_logits = logits;
                s->test_cursor =
                    (s->test_cursor + static_cast<int>(kBatch)) %
                    kTestSamples;
            }
        }
    }
    g_tracer.on = args.trace;
    const double phase_s = (nowMs() - phase_t0) / 1e3;
    const Usage u1 = readUsage();
    const int steps = step;

    // ---- correctness: loss must fall from the first to the last
    // tenth of the timed steps; the steps of a failing tail count as
    // failed.
    const int window = std::max(2, steps / 10);
    double first = 0.0, last = 0.0;
    for (int i = 0; i < window; ++i) {
        first += losses[static_cast<size_t>(i)];
        last += losses[static_cast<size_t>(steps - 1 - i)];
    }
    const bool loss_fell = last < first;
    if (!loss_fell)
        failed += window;

    // ---- correctness: the first steps and the first eval batch of a
    // fresh set-up at another thread count give bitwise-equal logits.
    Reference ref = referenceRun(w, args.seed, w.threads == 1 ? 4 : 1);
    if (args.inject_nan)
        ref.step_logits[0].data()[0] = std::nanf("");
    for (size_t i = 0; i < first_logits.size(); ++i) {
        ++attempted;
        failed += !bitwiseEqual(first_logits[i], ref.step_logits[i]);
    }
    ++attempted;
    failed += !bitwiseEqual(first_eval_logits, ref.eval_logits);

    std::vector<Metric> metrics;
    double tail_pct = 0.0;
    const double p50 = median(step_ms);
    const double p90 = tailPercentile(step_ms, tail_pct);
    // The timed phase's wall time, eval rounds included, less the
    // unsplit partner's steps.
    double train_s = phase_s;
    for (double ms : partner_ms)
        train_s -= ms / 1e3;

    if (!args.trace) {
        metrics = {
            {"train_step_ms_p50", p50, "ms"},
            {"train_step_ms_p90", p90, "ms"},
            {"train_images_per_s",
             static_cast<double>(steps * kBatch) / train_s, "images/s"},
            {"infer_batch_ms_p50", median(infer_ms), "ms"},
            {"setup_s", median(setup_s), "s"},
            {"peak_rss_mb", u1.max_rss_mb, "MB"},
            {"passed_step_ratio",
             1.0 - static_cast<double>(failed) /
                       static_cast<double>(attempted),
             "ratio"},
        };
        std::printf("train_step_ms_p90 = p%.0f of %d timed steps\n",
                    tail_pct, steps);
    } else {
        // SSCNN replays one fresh stochastic draw.
        std::optional<Graph> drawn;
        if (w.stochastic)
            drawn.emplace(
                splitCnnTransform(*s->base, s->split_opt, &s->split_rng));
        Rng replay_rng(args.seed);
        const KernelReplay kr = replayKernels(
            drawn ? *drawn : s->trainGraph(), s->net->params, replay_rng);
        const auto &sp = g_tracer.spans();
        auto layer = [&](const char *name) {
            return spanMedianMs(sp, name, traced_steps);
        };
        auto kms = [&](const char *k) {
            auto it = kr.ms.find(k);
            return it == kr.ms.end() ? 0.0 : it->second;
        };
        // Step wall time not covered by any layer span (bookkeeping,
        // destructors): the trace's unattributed remainder.
        std::vector<double> self;
        for (int st : traced_steps) {
            double wall = 0.0, children = 0.0;
            for (size_t i = 0; i < sp.size(); ++i) {
                if (sp[i].step != st)
                    continue;
                if (sp[i].name == "train.step")
                    wall = sp[i].end_ms - sp[i].start_ms;
                else if (sp[i].parent >= 0 &&
                         sp[static_cast<size_t>(sp[i].parent)].name ==
                             "train.step")
                    children += sp[i].end_ms - sp[i].start_ms;
            }
            self.push_back(wall - children);
        }
        const double fwd = layer("train.forward");
        const double bwd = layer("train.backward");
        const double n_traced = static_cast<double>(traced_steps.size());
        const double lookups =
            static_cast<double>(cache_delta.hits + cache_delta.misses);
        const double conv_ms = kms("conv2d_fwd") + kms("conv2d_bwd");
        metrics = {
            {"data.batch_ms", layer("data.batch"), "ms"},
            {"data.generate_s", s->generate_s, "s"},
            {"models.build_ms", s->build_ms, "ms"},
            {"core.split_transform_ms",
             w.stochastic ? layer("core.split_transform") : s->split_ms,
             "ms"},
            {"graph.nodes", static_cast<double>(s->graph_nodes), "count"},
            // Only the paired workload measures it; 0 = no partner.
            {"core.split_step_ratio",
             partner_ms.empty() ? 0.0 : p50 / median(partner_ms),
             "ratio"},
            {"train.executor_init_ms", layer("train.executor_init"), "ms"},
            {"train.forward_ms", fwd, "ms"},
            {"train.loss_ms", layer("train.loss"), "ms"},
            {"train.zero_grad_ms", layer("train.zero_grad"), "ms"},
            {"train.backward_ms", bwd, "ms"},
            {"train.sgd_ms", layer("train.sgd"), "ms"},
            {"infer.forward_ms", median(infer_ms), "ms"},
            {"train.executor_self_ms", fwd + bwd - kr.total_ms, "ms"},
            {"kernels.conv2d_fwd_ms", kms("conv2d_fwd"), "ms"},
            {"kernels.conv2d_bwd_ms", kms("conv2d_bwd"), "ms"},
            {"kernels.batchnorm_fwd_ms", kms("batchnorm_fwd"), "ms"},
            {"kernels.batchnorm_bwd_ms", kms("batchnorm_bwd"), "ms"},
            {"kernels.relu_fwd_ms", kms("relu_fwd"), "ms"},
            {"kernels.relu_bwd_ms", kms("relu_bwd"), "ms"},
            {"kernels.pool_fwd_ms", kms("pool_fwd"), "ms"},
            {"kernels.pool_bwd_ms", kms("pool_bwd"), "ms"},
            {"kernels.slice_concat_ms", kms("slice_concat"), "ms"},
            {"kernels.add_ms", kms("add"), "ms"},
            {"kernels.linear_ms", kms("linear"), "ms"},
            {"kernels.conv2d_gflop_per_step", kr.conv_gflop, "GFLOP"},
            {"kernels.conv2d_gflops",
             conv_ms > 0.0 ? kr.conv_gflop / (conv_ms / 1e3) : 0.0,
             "GFLOP/s"},
            {"kernels.gemm_pack_a_per_step",
             static_cast<double>(pack_calls) / n_traced, "count"},
            {"kernels.panel_cache_hits_per_step",
             static_cast<double>(cache_delta.hits) / n_traced, "count"},
            {"kernels.panel_cache_misses_per_step",
             static_cast<double>(cache_delta.misses) / n_traced, "count"},
            {"kernels.panel_cache_lookups_per_step", lookups / n_traced,
             "count"},
            {"kernels.panel_cache_hit_ratio",
             lookups > 0.0 ? static_cast<double>(cache_delta.hits) / lookups
                           : 0.0,
             "ratio"},
            {"util.cpu_per_wall", (u1.cpu_s - u0.cpu_s) / phase_s, "ratio"},
            {"util.vol_ctx_switches_per_step",
             static_cast<double>(u1.vol_cs - u0.vol_cs) / steps, "count"},
            {"util.invol_ctx_switches_per_step",
             static_cast<double>(u1.invol_cs - u0.invol_cs) / steps,
             "count"},
            {"util.reference_step_ms", ref.step_ms, "ms"},
            {"util.reference_cpu_per_wall", ref.cpu_per_wall, "ratio"},
            {"hmms.plan_ms", s->plan_ms, "ms"},
            {"sim.simulate_ms", s->simulate_ms, "ms"},
            {"hmms.predicted_device_mb", s->predicted_mb, "MB"},
            {"trace.overhead_ratio", median(traced_ms) / median(untraced_ms),
             "ratio"},
            {"trace.step_self_ms", median(self), "ms"},
            {"failed_step_ratio",
             static_cast<double>(failed) / static_cast<double>(attempted),
             "ratio"},
        };
        if (!args.trace_out.empty() && !g_tracer.writeChrome(args.trace_out))
            std::fprintf(stderr, "cannot write trace %s\n",
                         args.trace_out.c_str());
    }

    std::printf("workload %s seed %llu threads %d steps %d "
                "inputs_digest %016llx loss %.4f -> %.4f\n",
                w.name, static_cast<unsigned long long>(args.seed),
                w.threads, steps, static_cast<unsigned long long>(digest),
                first / window, last / window);
    bool correct = failed == 0;
    std::string json = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        correct = correct && std::isfinite(m.value);
        std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", m.name.c_str(),
                      std::isfinite(m.value) ? m.value : 0.0,
                      m.unit.c_str());
        json += buf;
    }
    json += "}";
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<long long>(attempted),
                static_cast<long long>(failed), json.c_str());
    return 0;
}
