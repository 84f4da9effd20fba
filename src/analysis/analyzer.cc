#include "analysis/analyzer.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>

namespace scnn {
namespace {

DiagLocation
atNode(NodeId node)
{
    DiagLocation loc;
    loc.node = node;
    return loc;
}

DiagLocation
atTensor(TensorId tensor)
{
    DiagLocation loc;
    loc.tensor = tensor;
    return loc;
}

DiagLocation
atTso(int32_t tso, int step = -1)
{
    DiagLocation loc;
    loc.tso = tso;
    loc.step = step;
    return loc;
}

bool
validTensorId(const Graph &graph, TensorId t)
{
    return t >= 0 && t < static_cast<TensorId>(graph.tensors().size());
}

bool
validNodeId(const Graph &graph, NodeId n)
{
    return n >= 0 && n < static_cast<NodeId>(graph.nodes().size());
}

bool
validTsoId(const StorageAssignment &assignment, TsoId tso)
{
    return tso >= 0 &&
           tso < static_cast<TsoId>(assignment.tsos.size());
}

int64_t
tensorBytes(const Graph &graph, TensorId t)
{
    return graph.tensor(t).shape.numel() * int64_t(sizeof(float));
}

/** Window geometry sane enough to evaluate outH/outW on. */
bool
windowUsable(const Window2d &win)
{
    return win.kh >= 1 && win.kw >= 1 && win.sh >= 1 && win.sw >= 1;
}

// ---------------------------------------------------------------------------
// Suite 1: graph well-formedness (SA1xx + SA504)
// ---------------------------------------------------------------------------

void
checkNodeShapes(const Graph &graph, const Node &n, DiagnosticSink &sink)
{
    auto shape_of = [&](TensorId t) -> const Shape & {
        return graph.tensor(t).shape;
    };
    const Shape &out = shape_of(n.output);

    auto expect = [&](const Shape &want) {
        if (out != want)
            sink.add("SA102", atNode(n.id),
                     std::string(opKindName(n.kind)) + " '" + n.name +
                         "' output shape " + out.toString() +
                         " does not match expected " + want.toString());
    };
    auto nchw_input = [&]() -> const Shape * {
        if (n.inputs.empty())
            return nullptr;
        const Shape &in = shape_of(n.inputs[0]);
        if (in.rank() != 4) {
            sink.add("SA102", atNode(n.id),
                     std::string(opKindName(n.kind)) + " '" + n.name +
                         "' input is not NCHW: " + in.toString());
            return nullptr;
        }
        return &in;
    };

    switch (n.kind) {
      case OpKind::Input:
        break;
      case OpKind::Conv2d: {
        const Shape *in = nchw_input();
        if (!in)
            break;
        if (!windowUsable(n.win)) {
            sink.add("SA102", atNode(n.id),
                     "conv '" + n.name + "' has degenerate window " +
                         n.win.toString());
            break;
        }
        expect({in->dim(0), n.out_channels, n.win.outH(in->dim(2)),
                n.win.outW(in->dim(3))});
        break;
      }
      case OpKind::MaxPool2d:
      case OpKind::AvgPool2d: {
        const Shape *in = nchw_input();
        if (!in)
            break;
        if (!windowUsable(n.win)) {
            sink.add("SA102", atNode(n.id),
                     "pool '" + n.name + "' has degenerate window " +
                         n.win.toString());
            break;
        }
        expect({in->dim(0), in->dim(1), n.win.outH(in->dim(2)),
                n.win.outW(in->dim(3))});
        break;
      }
      case OpKind::GlobalAvgPool: {
        const Shape *in = nchw_input();
        if (in)
            expect({in->dim(0), in->dim(1), 1, 1});
        break;
      }
      case OpKind::BatchNorm:
      case OpKind::ReLU:
        if (!n.inputs.empty())
            expect(shape_of(n.inputs[0]));
        break;
      case OpKind::Linear: {
        if (n.inputs.empty())
            break;
        const Shape &in = shape_of(n.inputs[0]);
        if (in.rank() != 2)
            sink.add("SA102", atNode(n.id),
                     "linear '" + n.name + "' input is not [N, F]: " +
                         in.toString());
        else
            expect({in.dim(0), n.out_channels});
        break;
      }
      case OpKind::Flatten: {
        if (n.inputs.empty())
            break;
        const Shape &in = shape_of(n.inputs[0]);
        if (in.rank() >= 1 && in.dim(0) > 0)
            expect({in.dim(0), in.numel() / in.dim(0)});
        break;
      }
      case OpKind::Add: {
        for (TensorId t : n.inputs)
            if (shape_of(t) != out)
                sink.add("SA102", atNode(n.id),
                         "add '" + n.name + "' mixes shapes " +
                             shape_of(t).toString() + " and " +
                             out.toString());
        break;
      }
      case OpKind::Slice: {
        const Shape *in = nchw_input();
        if (!in)
            break;
        if (n.h_start < 0 || n.h_start >= n.h_end ||
            n.h_end > in->dim(2) || n.w_start < 0 ||
            n.w_start >= n.w_end || n.w_end > in->dim(3)) {
            sink.add("SA504", atNode(n.id),
                     "slice '" + n.name + "' region [" +
                         std::to_string(n.h_start) + "," +
                         std::to_string(n.h_end) + ")x[" +
                         std::to_string(n.w_start) + "," +
                         std::to_string(n.w_end) +
                         ") is empty or outside input " +
                         in->toString());
            break;
        }
        expect({in->dim(0), in->dim(1), n.h_end - n.h_start,
                n.w_end - n.w_start});
        break;
      }
      case OpKind::Concat: {
        if (n.concat_dim != 2 && n.concat_dim != 3) {
            sink.add("SA504", atNode(n.id),
                     "concat '" + n.name + "' along dim " +
                         std::to_string(n.concat_dim) +
                         " (must be 2 or 3)");
            break;
        }
        if (n.inputs.empty())
            break;
        int64_t total = 0;
        bool ok = true;
        const Shape &first = shape_of(n.inputs[0]);
        for (TensorId t : n.inputs) {
            const Shape &in = shape_of(t);
            if (in.rank() != 4) {
                ok = false;
                break;
            }
            for (int d = 0; d < 4; ++d)
                if (d != n.concat_dim && in.dim(d) != first.dim(d))
                    ok = false;
            total += in.dim(n.concat_dim);
        }
        if (!ok) {
            sink.add("SA504", atNode(n.id),
                     "concat '" + n.name +
                         "' inputs disagree outside dim " +
                         std::to_string(n.concat_dim));
            break;
        }
        Shape want = first;
        want.setDim(n.concat_dim, total);
        if (out != want)
            sink.add("SA504", atNode(n.id),
                     "concat '" + n.name + "' inputs tile " +
                         want.toString() + " but the output is " +
                         out.toString());
        break;
      }
    }
}

/**
 * Suite 1: graph well-formedness — consistent shapes, no dangling
 * tensors, valid topological (construction) order, producer/consumer
 * cross-links, exactly one input and one output, and slice/concat
 * tiling geometry. Never panics, unlike Graph::validate().
 */
std::vector<Diagnostic>
analyzeGraph(const Graph &graph)
{
    DiagnosticSink sink;
    const auto &nodes = graph.nodes();
    const auto &tensors = graph.tensors();

    // --- Reference validity (SA101) + index identity -------------------
    for (size_t i = 0; i < nodes.size(); ++i) {
        const Node &n = nodes[i];
        if (n.id != static_cast<NodeId>(i))
            sink.add("SA101", atNode(n.id),
                     "node at position " + std::to_string(i) +
                         " carries id " + std::to_string(n.id));
        if (!validTensorId(graph, n.output))
            sink.add("SA101", atNode(n.id),
                     "node '" + n.name + "' output tensor id " +
                         std::to_string(n.output) + " out of range");
        for (TensorId t : n.inputs)
            if (!validTensorId(graph, t))
                sink.add("SA101", atNode(n.id),
                         "node '" + n.name + "' input tensor id " +
                             std::to_string(t) + " out of range");
        for (ParamId p : n.params)
            if (p < 0 || p >= static_cast<ParamId>(graph.params().size()))
                sink.add("SA101", atNode(n.id),
                         "node '" + n.name + "' param id " +
                             std::to_string(p) + " out of range");
    }
    for (size_t i = 0; i < tensors.size(); ++i) {
        const TensorInfo &t = tensors[i];
        if (t.id != static_cast<TensorId>(i))
            sink.add("SA101", atTensor(t.id),
                     "tensor at position " + std::to_string(i) +
                         " carries id " + std::to_string(t.id));
        if (!validNodeId(graph, t.producer))
            sink.add("SA101", atTensor(t.id),
                     "tensor '" + t.name + "' has no valid producer");
        for (NodeId c : t.consumers)
            if (!validNodeId(graph, c))
                sink.add("SA101", atTensor(t.id),
                         "tensor '" + t.name + "' consumer node id " +
                             std::to_string(c) + " out of range");
    }
    if (sink.hasErrors())
        return sink.take(); // cross-link checks would chase bad ids

    // --- Producer/consumer cross-links (SA104) -------------------------
    for (const TensorInfo &t : tensors) {
        if (graph.node(t.producer).output != t.id)
            sink.add("SA104", atTensor(t.id),
                     "tensor '" + t.name + "' names node " +
                         std::to_string(t.producer) +
                         " as producer, but that node outputs tensor " +
                         std::to_string(graph.node(t.producer).output));
        for (NodeId c : t.consumers) {
            const auto &ins = graph.node(c).inputs;
            if (std::find(ins.begin(), ins.end(), t.id) == ins.end())
                sink.add("SA104", atTensor(t.id),
                         "tensor '" + t.name + "' lists node " +
                             std::to_string(c) +
                             " as consumer, but that node does not "
                             "read it");
        }
    }
    for (const Node &n : nodes) {
        for (TensorId t : n.inputs) {
            const auto &cs = graph.tensor(t).consumers;
            if (std::find(cs.begin(), cs.end(), n.id) == cs.end())
                sink.add("SA104", atNode(n.id),
                         "node '" + n.name + "' reads tensor " +
                             std::to_string(t) +
                             " which does not list it as a consumer");
        }
    }

    // --- Topological (construction) order (SA103) ----------------------
    for (const Node &n : nodes) {
        for (TensorId t : n.inputs) {
            if (graph.tensor(t).producer >= n.id)
                sink.add("SA103", atNode(n.id),
                         "node '" + n.name + "' consumes tensor " +
                             std::to_string(t) +
                             " produced at or after its own position");
        }
        if (validTensorId(graph, n.output) &&
            graph.tensor(n.output).producer != n.id &&
            graph.node(graph.tensor(n.output).producer).output ==
                n.output)
            sink.add("SA103", atNode(n.id),
                     "tensor " + std::to_string(n.output) +
                         " is written by more than one node");
    }

    // --- Exactly one input node and one output tensor (SA105) ----------
    int input_nodes = 0;
    for (const Node &n : nodes)
        input_nodes += n.kind == OpKind::Input ? 1 : 0;
    if (input_nodes != 1)
        sink.add("SA105", {},
                 "graph has " + std::to_string(input_nodes) +
                     " Input nodes (want exactly 1)");
    int sinks = 0;
    for (const TensorInfo &t : tensors)
        sinks += t.consumers.empty() ? 1 : 0;
    if (sinks != 1)
        sink.add("SA105", {},
                 "graph has " + std::to_string(sinks) +
                     " tensors without consumers (want exactly 1 "
                     "output)");

    // --- Shapes + slice/concat geometry (SA102 / SA504) ----------------
    if (!sink.hasErrors())
        for (const Node &n : nodes)
            checkNodeShapes(graph, n, sink);

    return sink.take();
}

} // namespace

// ---------------------------------------------------------------------------
// Suite 2: storage-assignment legality (SA2xx)
// ---------------------------------------------------------------------------

std::vector<Diagnostic>
analyzeStorage(const Graph &graph, const StorageAssignment &assignment)
{
    DiagnosticSink sink;
    const size_t n_tensors = graph.tensors().size();
    const size_t n_tso = assignment.tsos.size();

    if (assignment.value_tso.size() != n_tensors ||
        assignment.grad_tso.size() != n_tensors) {
        sink.add("SA307", {},
                 "storage assignment maps " +
                     std::to_string(assignment.value_tso.size()) +
                     " value / " +
                     std::to_string(assignment.grad_tso.size()) +
                     " grad tensors, graph has " +
                     std::to_string(n_tensors));
        return sink.take();
    }

    // The needed-in-backward set mirrors assignStorage, which always
    // decides in-place-ReLU legality with default BackwardOptions.
    const auto topo = [&] {
        std::vector<NodeId> order;
        for (const Node &n : graph.nodes())
            order.push_back(n.id);
        return order;
    }();
    const auto needed = tensorsNeededInBackward(graph, topo);

    // --- Mapping validity + per-TSO membership -------------------------
    std::vector<std::vector<TensorId>> value_of(n_tso), grad_of(n_tso);
    for (const TensorInfo &t : graph.tensors()) {
        const TsoId v = assignment.value_tso[static_cast<size_t>(t.id)];
        if (v == kInvalidTso)
            sink.add("SA205", atTensor(t.id),
                     "tensor '" + t.name + "' has no value TSO");
        else if (!validTsoId(assignment, v))
            sink.add("SA205", atTensor(t.id),
                     "tensor '" + t.name +
                         "' maps to out-of-range value TSO " +
                         std::to_string(v));
        else
            value_of[static_cast<size_t>(v)].push_back(t.id);

        const TsoId g = assignment.grad_tso[static_cast<size_t>(t.id)];
        const bool from_input =
            validNodeId(graph, t.producer) &&
            graph.node(t.producer).kind == OpKind::Input;
        if (g == kInvalidTso) {
            if (!from_input)
                sink.add("SA205", atTensor(t.id),
                         "tensor '" + t.name + "' has no gradient TSO");
        } else if (!validTsoId(assignment, g)) {
            sink.add("SA205", atTensor(t.id),
                     "tensor '" + t.name +
                         "' maps to out-of-range gradient TSO " +
                         std::to_string(g));
        } else {
            grad_of[static_cast<size_t>(g)].push_back(t.id);
        }
    }

    // --- Refcounts, sizes, value/grad disjointness ---------------------
    for (size_t i = 0; i < n_tso; ++i) {
        const Tso &tso = assignment.tsos[i];
        const int mapped = static_cast<int>(value_of[i].size()) +
                           static_cast<int>(grad_of[i].size());
        if (mapped > 0 && tso.ref_count <= 0)
            sink.add("SA201", atTso(static_cast<int32_t>(i)),
                     "TSO '" + tso.name + "' refcount " +
                         std::to_string(tso.ref_count) +
                         " underflows with " + std::to_string(mapped) +
                         " mapped tensors");
        else if (tso.ref_count != mapped)
            sink.add("SA201",
                     mapped == 0 ? DiagSeverity::Warning
                                 : DiagSeverity::Error,
                     atTso(static_cast<int32_t>(i)),
                     "TSO '" + tso.name + "' refcount " +
                         std::to_string(tso.ref_count) + " but " +
                         std::to_string(mapped) + " tensors map to it");
        if (!value_of[i].empty() && !grad_of[i].empty())
            sink.add("SA206", atTso(static_cast<int32_t>(i)),
                     "TSO '" + tso.name +
                         "' holds both forward values and gradients");
        for (TensorId t : value_of[i])
            if (tensorBytes(graph, t) > tso.bytes)
                sink.add("SA204", atTso(static_cast<int32_t>(i)),
                         "tensor '" + graph.tensor(t).name + "' needs " +
                             std::to_string(tensorBytes(graph, t)) +
                             " bytes but TSO '" + tso.name + "' has " +
                             std::to_string(tso.bytes));
        for (TensorId t : grad_of[i])
            if (tensorBytes(graph, t) > tso.bytes)
                sink.add("SA204", atTso(static_cast<int32_t>(i)),
                         "gradient of '" + graph.tensor(t).name +
                             "' needs " +
                             std::to_string(tensorBytes(graph, t)) +
                             " bytes but TSO '" + tso.name + "' has " +
                             std::to_string(tso.bytes));
    }

    // --- Value-sharing legality (Sec. 4.2: in-place ReLU, flatten) -----
    for (size_t i = 0; i < n_tso; ++i) {
        auto &members = value_of[i];
        if (members.size() < 2)
            continue;
        std::sort(members.begin(), members.end(),
                  [&](TensorId a, TensorId b) {
                      return graph.tensor(a).producer <
                             graph.tensor(b).producer;
                  });
        std::set<TensorId> in_set(members.begin(), members.end());
        // members[0] is the base allocation; each later member must be
        // a legal view of an earlier one.
        for (size_t k = 1; k < members.size(); ++k) {
            const TensorInfo &t = graph.tensor(members[k]);
            const Node &p = graph.node(t.producer);
            const bool chained =
                !p.inputs.empty() && in_set.count(p.inputs[0]);
            bool legal = false;
            std::string why;
            if (!chained) {
                why = "does not alias its own input";
            } else if (p.kind == OpKind::Flatten) {
                legal = true; // pure view
            } else if (p.kind == OpKind::ReLU) {
                const TensorInfo &in = graph.tensor(p.inputs[0]);
                if (in.consumers.size() != 1)
                    why = "in-place ReLU over a tensor with " +
                          std::to_string(in.consumers.size()) +
                          " consumers";
                else if (needed.count(in.id))
                    why = "in-place ReLU over a tensor needed again "
                          "in backward";
                else
                    legal = true;
            } else {
                why = std::string(opKindName(p.kind)) +
                      " may not write in place";
            }
            if (!legal)
                sink.add("SA202", atTensor(t.id),
                         "tensor '" + t.name + "' shares TSO " +
                             std::to_string(i) + " illegally: " + why);
        }
    }

    // --- Gradient-sharing legality (summation-error sharing) -----------
    for (size_t i = 0; i < n_tso; ++i) {
        const auto &members = grad_of[i];
        if (members.size() < 2)
            continue;
        std::set<TensorId> in_set(members.begin(), members.end());
        int roots = 0;
        for (TensorId t : members) {
            // t's gradient may share iff t feeds an Add whose output
            // gradient lives in the same TSO (dL/dx_i == dL/dy).
            bool via_add = false;
            for (NodeId c : graph.tensor(t).consumers) {
                const Node &n = graph.node(c);
                if (n.kind == OpKind::Add && in_set.count(n.output))
                    via_add = true;
            }
            if (!via_add) {
                ++roots;
                if (roots > 1)
                    sink.add("SA203", atTensor(t),
                             "gradient of '" + graph.tensor(t).name +
                                 "' shares TSO " + std::to_string(i) +
                                 " without a summation-error "
                                 "justification");
            }
        }
    }
    return sink.take();
}

// ---------------------------------------------------------------------------
// Suite 3: offload/prefetch schedule (SA3xx)
// ---------------------------------------------------------------------------

namespace {

/** The four critical moments of one offloaded TSO, -1 = absent. */
struct Moments
{
    int start_offload = -1;
    int sync_offload = -1;
    int start_prefetch = -1;
    int sync_prefetch = -1;
    bool duplicated = false;
};

} // namespace

std::vector<Diagnostic>
analyzeSchedule(const Graph &graph, const StorageAssignment &assignment,
                const MemoryPlan &plan, const AnalyzerOptions &options)
{
    DiagnosticSink sink;
    const int total = static_cast<int>(plan.steps.size());
    const size_t n_tso = assignment.tsos.size();

    // --- Structure (SA307) ---------------------------------------------
    if (plan.steps.size() != plan.actions.size()) {
        sink.add("SA307", {},
                 "plan has " + std::to_string(plan.steps.size()) +
                     " steps but " +
                     std::to_string(plan.actions.size()) + " actions");
        return sink.take();
    }
    if (assignment.value_tso.size() != graph.tensors().size()) {
        sink.add("SA307", {},
                 "storage assignment does not belong to this graph");
        return sink.take();
    }
    if (plan.tso_stream.size() != n_tso)
        sink.add("SA307", {},
                 "plan stream table covers " +
                     std::to_string(plan.tso_stream.size()) +
                     " TSOs, assignment has " + std::to_string(n_tso));
    if (plan.forward_steps < 0 || plan.forward_steps > total)
        sink.add("SA307", {},
                 "forward_steps " + std::to_string(plan.forward_steps) +
                     " outside [0, " + std::to_string(total) + "]");
    bool steps_ok = true;
    for (int i = 0; i < total; ++i) {
        const ExecStep &s = plan.steps[static_cast<size_t>(i)];
        if (!validNodeId(graph, s.node)) {
            DiagLocation loc;
            loc.step = i;
            sink.add("SA307", loc,
                     "step node id " + std::to_string(s.node) +
                         " out of range");
            steps_ok = false;
            continue;
        }
        const bool should_be_backward =
            i >= plan.forward_steps && plan.forward_steps >= 0 &&
            plan.forward_steps <= total;
        if (s.backward != should_be_backward) {
            DiagLocation loc;
            loc.step = i;
            loc.node = s.node;
            sink.add("SA307", loc,
                     std::string(s.backward ? "backward" : "forward") +
                         " step on the wrong side of forward_steps");
        }
    }
    if (!steps_ok || sink.hasErrors())
        return sink.take();

    // --- Replay geometry ------------------------------------------------
    std::vector<int> fwd_step_of(graph.nodes().size(), -1);
    for (int i = 0; i < plan.forward_steps; ++i)
        fwd_step_of[static_cast<size_t>(
            plan.steps[static_cast<size_t>(i)].node)] = i;

    std::vector<int> last_write(n_tso, -1), last_fwd_read(n_tso, -1),
        first_bwd_use(n_tso, -1);
    for (const TensorInfo &t : graph.tensors()) {
        const TsoId tso = assignment.value_tso[static_cast<size_t>(t.id)];
        if (!validTsoId(assignment, tso))
            continue;
        const int w = validNodeId(graph, t.producer)
                          ? fwd_step_of[static_cast<size_t>(t.producer)]
                          : -1;
        last_write[static_cast<size_t>(tso)] =
            std::max(last_write[static_cast<size_t>(tso)], w);
        for (NodeId c : t.consumers) {
            const int r = fwd_step_of[static_cast<size_t>(c)];
            last_fwd_read[static_cast<size_t>(tso)] =
                std::max(last_fwd_read[static_cast<size_t>(tso)], r);
        }
    }
    for (int i = plan.forward_steps; i < total; ++i) {
        const Node &n =
            graph.node(plan.steps[static_cast<size_t>(i)].node);
        for (TensorId t : neededForwardTensors(graph, n, options.backward)) {
            const TsoId tso =
                assignment.value_tso[static_cast<size_t>(t)];
            if (!validTsoId(assignment, tso))
                continue;
            auto &use = first_bwd_use[static_cast<size_t>(tso)];
            if (use < 0)
                use = i;
        }
    }

    // --- Collect moments; flag stray actions (SA308) --------------------
    std::map<TsoId, Moments> moments;
    auto record = [&](int step, TsoId tso, int Moments::*field,
                      const char *what) {
        if (!validTsoId(assignment, tso)) {
            sink.add("SA308", atTso(tso, step),
                     std::string(what) + " action on out-of-range TSO " +
                         std::to_string(tso));
            return;
        }
        if (!plan.offloaded.count(tso)) {
            sink.add("SA308", atTso(tso, step),
                     std::string(what) + " action on TSO '" +
                         assignment.tso(tso).name +
                         "' which is not in the offloaded set");
            return;
        }
        Moments &m = moments[tso];
        if (m.*field >= 0)
            m.duplicated = true;
        else
            m.*field = step;
    };
    for (int i = 0; i < total; ++i) {
        const StepActions &a = plan.actions[static_cast<size_t>(i)];
        for (TsoId t : a.start_offload)
            record(i, t, &Moments::start_offload, "offload");
        for (TsoId t : a.sync_offload_free)
            record(i, t, &Moments::sync_offload, "offload-sync");
        for (TsoId t : a.start_prefetch)
            record(i, t, &Moments::start_prefetch, "prefetch");
        for (TsoId t : a.sync_prefetch)
            record(i, t, &Moments::sync_prefetch, "prefetch-sync");
    }

    // --- Per-TSO four-moment checks -------------------------------------
    for (TsoId tso : plan.offloaded) {
        if (!validTsoId(assignment, tso)) {
            sink.add("SA308", atTso(tso),
                     "offloaded set contains out-of-range TSO " +
                         std::to_string(tso));
            continue;
        }
        const std::string name = assignment.tso(tso).name;
        const Moments m = moments[tso]; // zero-init if never seen
        const Moments missing_probe;
        if (m.duplicated)
            sink.add("SA301", atTso(tso),
                     "TSO '" + name +
                         "' has a duplicated critical moment");
        auto missing = [&](int v, const char *what) {
            if (v < 0)
                sink.add("SA301", atTso(tso),
                         "offloaded TSO '" + name + "' has no " + what +
                             " moment");
            return v < 0;
        };
        const bool incomplete =
            int(missing(m.start_offload, "start-of-offload")) +
                int(missing(m.sync_offload, "end-of-offload")) +
                int(missing(m.start_prefetch, "start-of-prefetch")) +
                int(missing(m.sync_prefetch, "end-of-prefetch")) >
            0;
        if (incomplete)
            continue;

        const size_t i = static_cast<size_t>(tso);
        if (m.start_offload > m.sync_offload)
            sink.add("SA302", atTso(tso, m.start_offload),
                     "TSO '" + name + "' offload sync at step " +
                         std::to_string(m.sync_offload) +
                         " precedes its start at step " +
                         std::to_string(m.start_offload));
        if (m.start_offload >= plan.forward_steps)
            sink.add("SA302", atTso(tso, m.start_offload),
                     "TSO '" + name +
                         "' offload starts in the backward pass");
        if (m.start_offload <= last_write[i])
            sink.add("SA302", atTso(tso, m.start_offload),
                     "TSO '" + name + "' offload starts at step " +
                         std::to_string(m.start_offload) +
                         " but the TSO is still written at step " +
                         std::to_string(last_write[i]));
        if (m.sync_offload < last_fwd_read[i])
            sink.add("SA304", atTso(tso, m.sync_offload),
                     "TSO '" + name + "' is freed at step " +
                         std::to_string(m.sync_offload) +
                         " but still read forward at step " +
                         std::to_string(last_fwd_read[i]));
        if (m.start_prefetch <= m.sync_offload)
            sink.add("SA303", atTso(tso, m.start_prefetch),
                     "TSO '" + name + "' prefetch at step " +
                         std::to_string(m.start_prefetch) +
                         " is issued before the device copy is freed "
                         "at step " +
                         std::to_string(m.sync_offload));
        if (m.start_prefetch < plan.forward_steps)
            sink.add("SA303", atTso(tso, m.start_prefetch),
                     "TSO '" + name +
                         "' prefetch starts in the forward pass");
        if (m.start_prefetch > m.sync_prefetch)
            sink.add("SA303", atTso(tso, m.start_prefetch),
                     "TSO '" + name + "' prefetch sync at step " +
                         std::to_string(m.sync_prefetch) +
                         " precedes its start at step " +
                         std::to_string(m.start_prefetch));
        if (first_bwd_use[i] < 0)
            sink.add("SA304", DiagSeverity::Warning, atTso(tso),
                     "TSO '" + name +
                         "' is offloaded but never used in backward");
        else if (m.sync_prefetch > first_bwd_use[i])
            sink.add("SA304", atTso(tso, first_bwd_use[i]),
                     "TSO '" + name + "' is first used at step " +
                         std::to_string(first_bwd_use[i]) +
                         " but its prefetch only syncs at step " +
                         std::to_string(m.sync_prefetch));
        if (i < plan.tso_stream.size() &&
            plan.tso_stream[i] < 0)
            sink.add("SA305", atTso(tso),
                     "TSO '" + name +
                         "' is transferred but has no memory stream");
        (void)missing_probe;
    }

    // --- Cross-stream event-graph acyclicity (SA306) ---------------------
    // Nodes: step starts (2k), step ends (2k+1), then transfers.
    // Edges: program order, issue -> transfer -> sync-end, and FIFO
    // order between transfers sharing a memory stream.
    {
        struct Transfer
        {
            TsoId tso;
            int issue;
            int sync;
            int stream;
            bool d2h;
        };
        std::vector<Transfer> transfers;
        for (const auto &[tso, m] : moments) {
            if (m.duplicated || m.start_offload < 0 ||
                m.sync_offload < 0 || m.start_prefetch < 0 ||
                m.sync_prefetch < 0)
                continue;
            const int stream =
                static_cast<size_t>(tso) < plan.tso_stream.size()
                    ? plan.tso_stream[static_cast<size_t>(tso)]
                    : -1;
            transfers.push_back(
                {tso, m.start_offload, m.sync_offload, stream, true});
            transfers.push_back(
                {tso, m.start_prefetch, m.sync_prefetch, stream, false});
        }
        const int step_nodes = 2 * total;
        const int n_nodes =
            step_nodes + static_cast<int>(transfers.size());
        std::vector<std::vector<int>> adj(
            static_cast<size_t>(n_nodes));
        std::vector<int> indeg(static_cast<size_t>(n_nodes), 0);
        auto edge = [&](int a, int b) {
            adj[static_cast<size_t>(a)].push_back(b);
            ++indeg[static_cast<size_t>(b)];
        };
        for (int s = 0; s < total; ++s) {
            edge(2 * s, 2 * s + 1);
            if (s + 1 < total)
                edge(2 * s + 1, 2 * (s + 1));
        }
        for (size_t k = 0; k < transfers.size(); ++k) {
            const Transfer &t = transfers[k];
            const int node = step_nodes + static_cast<int>(k);
            edge(2 * t.issue, node);          // starts after issue step
            edge(node, 2 * t.sync + 1);       // done before sync end
        }
        // FIFO per stream, ordered by issue step (ties: d2h first,
        // then TSO id — the order the planner emits them).
        std::map<int, std::vector<size_t>> by_stream;
        for (size_t k = 0; k < transfers.size(); ++k)
            if (transfers[k].stream >= 0)
                by_stream[transfers[k].stream].push_back(k);
        for (auto &[stream, list] : by_stream) {
            std::sort(list.begin(), list.end(),
                      [&](size_t a, size_t b) {
                          const Transfer &x = transfers[a];
                          const Transfer &y = transfers[b];
                          if (x.issue != y.issue)
                              return x.issue < y.issue;
                          if (x.d2h != y.d2h)
                              return x.d2h;
                          return x.tso < y.tso;
                      });
            for (size_t k = 1; k < list.size(); ++k)
                edge(step_nodes + static_cast<int>(list[k - 1]),
                     step_nodes + static_cast<int>(list[k]));
        }
        // Kahn.
        std::vector<int> queue;
        for (int v = 0; v < n_nodes; ++v)
            if (indeg[static_cast<size_t>(v)] == 0)
                queue.push_back(v);
        int visited = 0;
        while (!queue.empty()) {
            const int v = queue.back();
            queue.pop_back();
            ++visited;
            for (int w : adj[static_cast<size_t>(v)])
                if (--indeg[static_cast<size_t>(w)] == 0)
                    queue.push_back(w);
        }
        if (visited < n_nodes) {
            std::ostringstream cyc;
            cyc << "event synchronization cycle through transfers of "
                   "TSOs:";
            for (size_t k = 0; k < transfers.size(); ++k)
                if (indeg[step_nodes + k] > 0)
                    cyc << ' ' << transfers[k].tso
                        << (transfers[k].d2h ? "(offload)"
                                             : "(prefetch)");
            sink.add("SA306", {}, cyc.str());
        }
    }
    return sink.take();
}

// ---------------------------------------------------------------------------
// Suite 4: static layout (SA4xx)
// ---------------------------------------------------------------------------

std::vector<Diagnostic>
analyzeLayout(const Graph &graph, const StorageAssignment &assignment,
              const MemoryPlan &plan, const StaticMemoryPlan &static_plan,
              const AnalyzerOptions &options, int *checked_accesses)
{
    DiagnosticSink sink;
    const int total = static_cast<int>(plan.steps.size());
    int accesses = 0;
    if (checked_accesses != nullptr)
        *checked_accesses = 0;

    if (plan.steps.size() != plan.actions.size() ||
        assignment.value_tso.size() != graph.tensors().size()) {
        sink.add("SA307", {},
                 "plan or storage assignment does not belong to this "
                 "graph");
        return sink.take();
    }
    for (const ExecStep &s : plan.steps)
        if (!validNodeId(graph, s.node)) {
            sink.add("SA307", {},
                     "plan step node id " + std::to_string(s.node) +
                         " out of range");
            return sink.take();
        }

    // --- Interval sanity (SA404 / SA405) --------------------------------
    const int64_t pool_bytes =
        static_plan.device_general_peak - static_plan.workspace_bytes;
    for (size_t k = 0; k < static_plan.intervals.size(); ++k) {
        const TsoInterval &iv = static_plan.intervals[k];
        const DiagLocation loc = atTso(iv.tso, iv.alloc_step);
        if (!validTsoId(assignment, iv.tso)) {
            sink.add("SA404", loc,
                     "interval references out-of-range TSO " +
                         std::to_string(iv.tso));
            continue;
        }
        if (iv.alloc_step < 0 || iv.free_step >= total ||
            iv.alloc_step > iv.free_step)
            sink.add("SA404", loc,
                     "interval of TSO '" + assignment.tso(iv.tso).name +
                         "' spans invalid steps [" +
                         std::to_string(iv.alloc_step) + ", " +
                         std::to_string(iv.free_step) + "]");
        if (iv.addr < 0)
            sink.add("SA404", loc,
                     "interval of TSO '" + assignment.tso(iv.tso).name +
                         "' was never placed in the pool");
        else if (iv.addr + iv.bytes > pool_bytes)
            sink.add("SA404", loc,
                     "interval of TSO '" + assignment.tso(iv.tso).name +
                         "' ends at " +
                         std::to_string(iv.addr + iv.bytes) +
                         ", beyond the pool high-water mark " +
                         std::to_string(pool_bytes));
        if (iv.bytes != assignment.tso(iv.tso).bytes)
            sink.add("SA405", loc,
                     "interval of TSO '" + assignment.tso(iv.tso).name +
                         "' covers " + std::to_string(iv.bytes) +
                         " bytes, the TSO needs " +
                         std::to_string(assignment.tso(iv.tso).bytes));
    }

    // --- Pool overlap between simultaneously-live intervals (SA402) -----
    // A legal TSO share maps several tensors to ONE TSO, hence one
    // interval; two distinct intervals alive at once must never share
    // pool bytes.
    for (size_t a = 0; a < static_plan.intervals.size(); ++a) {
        for (size_t b = a + 1; b < static_plan.intervals.size(); ++b) {
            const TsoInterval &x = static_plan.intervals[a];
            const TsoInterval &y = static_plan.intervals[b];
            if (x.alloc_step > y.free_step ||
                y.alloc_step > x.free_step)
                continue;
            ++accesses;
            if (x.addr < 0 || y.addr < 0)
                continue; // already SA404
            if (!(x.addr + x.bytes <= y.addr ||
                  y.addr + y.bytes <= x.addr))
                sink.add(
                    "SA402", atTso(x.tso, std::max(x.alloc_step,
                                                   y.alloc_step)),
                    "simultaneously-live intervals of TSO " +
                        std::to_string(x.tso) + " and TSO " +
                        std::to_string(y.tso) +
                        " overlap in the pool at [" +
                        std::to_string(std::max(x.addr, y.addr)) + ", " +
                        std::to_string(std::min(x.addr + x.bytes,
                                                y.addr + y.bytes)) +
                        ")");
        }
    }

    // --- Every planned access inside a live interval (SA401/SA403) ------
    std::map<TsoId, std::vector<const TsoInterval *>> value_intervals,
        grad_intervals;
    for (const TsoInterval &iv : static_plan.intervals)
        (iv.is_gradient ? grad_intervals : value_intervals)[iv.tso]
            .push_back(&iv);
    auto resident =
        [&](const std::map<TsoId, std::vector<const TsoInterval *>>
                &table,
            TsoId tso, int step) {
            auto it = table.find(tso);
            if (it == table.end())
                return false;
            for (const TsoInterval *iv : it->second)
                if (iv->alloc_step <= step && step <= iv->free_step)
                    return true;
            return false;
        };
    auto check_value = [&](TensorId t, int step, const char *why) {
        ++accesses;
        const TsoId tso = assignment.value_tso[static_cast<size_t>(t)];
        DiagLocation loc = atTso(tso, step);
        loc.tensor = t;
        if (!validTsoId(assignment, tso)) {
            sink.add("SA403", loc,
                     "tensor '" + graph.tensor(t).name +
                         "' without a TSO used for " + why);
            return;
        }
        if (!resident(value_intervals, tso, step))
            sink.add("SA401", loc,
                     "value of '" + graph.tensor(t).name + "' (" + why +
                         ") not device-resident");
    };
    auto check_grad = [&](TensorId t, int step, const char *why) {
        const TsoId tso = assignment.grad_tso[static_cast<size_t>(t)];
        if (tso == kInvalidTso)
            return; // no gradient flows here (network input)
        ++accesses;
        DiagLocation loc = atTso(tso, step);
        loc.tensor = t;
        if (!validTsoId(assignment, tso)) {
            sink.add("SA403", loc,
                     "gradient of '" + graph.tensor(t).name +
                         "' maps to an out-of-range TSO (" + why + ")");
            return;
        }
        if (!resident(grad_intervals, tso, step))
            sink.add("SA401", loc,
                     "gradient of '" + graph.tensor(t).name + "' (" +
                         why + ") not device-resident");
    };

    for (int step = 0; step < total; ++step) {
        const ExecStep &s = plan.steps[static_cast<size_t>(step)];
        const Node &n = graph.node(s.node);
        if (!s.backward) {
            for (TensorId t : n.inputs)
                check_value(t, step, "fwd input");
            if (validTensorId(graph, n.output))
                check_value(n.output, step, "fwd output");
        } else {
            check_grad(n.output, step, "bwd upstream");
            for (TensorId t :
                 neededForwardTensors(graph, n, options.backward))
                check_value(t, step, "bwd reuse");
            for (TensorId t : n.inputs)
                check_grad(t, step, "bwd downstream");
        }
    }
    if (checked_accesses != nullptr)
        *checked_accesses = accesses;
    return sink.take();
}

// ---------------------------------------------------------------------------
// Suite 5: split-scheme validity (SA5xx)
// ---------------------------------------------------------------------------

std::vector<Diagnostic>
lintSplitScheme(const WindowParams1d &op, int64_t w,
                const SplitScheme1d &scheme)
{
    DiagnosticSink sink;
    if (op.k < 1 || op.s < 1) {
        sink.add("SA502", {},
                 "window parameters k=" + std::to_string(op.k) +
                     " s=" + std::to_string(op.s) + " are degenerate");
        return sink.take();
    }
    if (scheme.pieces.empty()) {
        sink.add("SA501", {}, "split scheme has no pieces");
        return sink.take();
    }
    const int64_t l = op.outExtent(w);
    const int n = scheme.parts();

    // --- Output tiling (SA501) ------------------------------------------
    if (scheme.pieces.front().out_start != 0)
        sink.add("SA501", {},
                 "first piece produces outputs from " +
                     std::to_string(scheme.pieces.front().out_start) +
                     ", not 0");
    if (scheme.pieces.back().out_end != l)
        sink.add("SA501", {},
                 "last piece ends its outputs at " +
                     std::to_string(scheme.pieces.back().out_end) +
                     ", the op produces " + std::to_string(l));
    for (int i = 0; i < n; ++i) {
        const SplitPiece1d &p = scheme.pieces[static_cast<size_t>(i)];
        if (p.outLen() <= 0)
            sink.add("SA501", {},
                     "piece " + std::to_string(i) +
                         " produces no outputs");
        if (i + 1 < n &&
            p.out_end !=
                scheme.pieces[static_cast<size_t>(i) + 1].out_start)
            sink.add("SA501", {},
                     "pieces " + std::to_string(i) + " and " +
                         std::to_string(i + 1) +
                         " leave a gap or overlap in the output "
                         "partition (" +
                         std::to_string(p.out_end) + " vs " +
                         std::to_string(
                             scheme.pieces[static_cast<size_t>(i) + 1]
                                 .out_start) +
                         ")");
    }

    // --- Input partition within Eqs. 1-2 (SA502) ------------------------
    if (scheme.pieces.front().in_start != 0)
        sink.add("SA502", {},
                 "I_0 = " +
                     std::to_string(scheme.pieces.front().in_start) +
                     ", Eq. 3 requires I_0 = 0");
    if (scheme.pieces.back().in_end != w)
        sink.add("SA502", {},
                 "last piece consumes inputs up to " +
                     std::to_string(scheme.pieces.back().in_end) +
                     ", the input extent is " + std::to_string(w));
    for (int i = 0; i < n; ++i) {
        const SplitPiece1d &p = scheme.pieces[static_cast<size_t>(i)];
        if (p.inLen() <= 0)
            sink.add("SA502", {},
                     "piece " + std::to_string(i) +
                         " consumes no input");
        if (i + 1 < n &&
            p.in_end !=
                scheme.pieces[static_cast<size_t>(i) + 1].in_start)
            sink.add("SA502", {},
                     "pieces " + std::to_string(i) + " and " +
                         std::to_string(i + 1) +
                         " do not partition the input (" +
                         std::to_string(p.in_end) + " vs " +
                         std::to_string(
                             scheme.pieces[static_cast<size_t>(i) + 1]
                                 .in_start) +
                         ")");
        if (i > 0) {
            const int64_t lb = splitLowerBound(op, p.out_start);
            const int64_t ub = op.k >= op.s
                                   ? splitUpperBound(op, p.out_start)
                                   : lb;
            if (p.in_start < lb || p.in_start > ub)
                sink.add("SA502", {},
                         "I_" + std::to_string(i) + " = " +
                             std::to_string(p.in_start) +
                             " outside the legal interval [" +
                             std::to_string(lb) + ", " +
                             std::to_string(ub) + "] of Eqs. 1-2");
        }
    }

    // --- Halo padding re-derivation (Eq. 5, SA503) ----------------------
    for (int i = 0; i < n; ++i) {
        const SplitPiece1d &p = scheme.pieces[static_cast<size_t>(i)];
        const int64_t want_pad_b =
            p.in_start + op.p_b - p.out_start * op.s;
        const int64_t want_pad_e =
            i + 1 < n ? (p.out_end - 1) * op.s + op.k - op.p_b - p.in_end
                      : op.p_e;
        if (p.pad_b != want_pad_b)
            sink.add("SA503", {},
                     "piece " + std::to_string(i) + " begin padding " +
                         std::to_string(p.pad_b) + ", Eq. 5 derives " +
                         std::to_string(want_pad_b));
        if (p.pad_e != want_pad_e)
            sink.add("SA503", {},
                     "piece " + std::to_string(i) + " end padding " +
                         std::to_string(p.pad_e) + ", Eq. 5 derives " +
                         std::to_string(want_pad_e));
        const WindowParams1d local{op.k, op.s, p.pad_b, p.pad_e};
        if (p.inLen() > 0 &&
            local.outExtent(p.inLen()) != p.outLen())
            sink.add("SA503", {},
                     "piece " + std::to_string(i) +
                         " with its padding produces " +
                         std::to_string(local.outExtent(p.inLen())) +
                         " outputs, the partition expects " +
                         std::to_string(p.outLen()));
    }
    return sink.take();
}

// ---------------------------------------------------------------------------
// The whole battery
// ---------------------------------------------------------------------------

std::vector<Diagnostic>
analyzePlan(const Graph &graph, const StorageAssignment &assignment,
            const MemoryPlan &plan, const StaticMemoryPlan &static_plan,
            const AnalyzerOptions &options)
{
    std::vector<Diagnostic> diags = analyzeGraph(graph);
    if (hasErrors(diags))
        return diags; // deeper suites would chase broken references

    auto append = [&](std::vector<Diagnostic> more) {
        diags.insert(diags.end(),
                     std::make_move_iterator(more.begin()),
                     std::make_move_iterator(more.end()));
    };
    append(analyzeStorage(graph, assignment));
    append(analyzeSchedule(graph, assignment, plan, options));
    append(analyzeLayout(graph, assignment, plan, static_plan, options));
    return diags;
}

bool
lintPlansEnabled()
{
    // Re-read each call: planning is cold, and tests toggle the
    // environment variable at run time.
    const char *env = std::getenv("SCNN_LINT_PLANS");
    if (env != nullptr && *env != '\0')
        return *env != '0';
#ifdef NDEBUG
    return false;
#else
    return true;
#endif
}

} // namespace scnn
