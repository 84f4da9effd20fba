#include "core/splitter.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <map>
#include <set>

#include "util/logging.h"

namespace scnn {

namespace {

/** Per-tensor spatial partition: output start tuples on H and W. */
struct Scheme2d
{
    std::vector<int64_t> h;
    std::vector<int64_t> w;
};

WindowParams1d
hParams(const Window2d &win)
{
    return {win.kh, win.sh, win.ph_b, win.ph_e};
}

WindowParams1d
wParams(const Window2d &win)
{
    return {win.kw, win.sw, win.pw_b, win.pw_e};
}

/** Collect all ancestor nodes of @p cut (excluding Input). */
std::set<NodeId>
collectRegion(const Graph &graph, TensorId cut)
{
    std::set<NodeId> region;
    std::vector<NodeId> stack = {graph.tensor(cut).producer};
    while (!stack.empty()) {
        const NodeId id = stack.back();
        stack.pop_back();
        const Node &n = graph.node(id);
        if (n.kind == OpKind::Input || region.count(id))
            continue;
        region.insert(id);
        for (TensorId t : n.inputs)
            stack.push_back(graph.tensor(t).producer);
    }
    return region;
}

/** Every region tensor except the cut must be consumed inside it. */
void
validateRegionIsDominatedByCut(const Graph &graph,
                               const std::set<NodeId> &region,
                               TensorId cut)
{
    for (NodeId id : region) {
        const Node &n = graph.node(id);
        if (n.output == cut)
            continue;
        for (NodeId consumer : graph.tensor(n.output).consumers)
            SCNN_REQUIRE(region.count(consumer),
                         "tensor " << graph.tensor(n.output).name
                                   << " escapes the split region; cut "
                                      "point is not a join boundary");
    }
}

/** True when the pieces' input ranges tile [0, extent). */
bool
tiles(const SplitScheme1d &s, int64_t extent)
{
    int64_t at = 0;
    for (const SplitPiece1d &p : s.pieces) {
        if (p.in_start != at || p.in_end <= at)
            return false;
        at = p.in_end;
    }
    return at == extent;
}

/** One axis of a layer's scheme, read from clones[i * stride] for
 * i < parts along tensor dim @p dim (2 = H, 3 = W); window layers
 * take the clones' paddings. */
SplitScheme1d
axisScheme(const Graph &g, const std::vector<NodeId> &clones, int parts,
           int stride, int dim, bool window)
{
    SplitScheme1d s;
    int64_t in0 = 0;
    int64_t out0 = 0;
    for (int i = 0; i < parts; ++i) {
        const Node &n = g.node(clones[static_cast<size_t>(i * stride)]);
        const int64_t in_len = g.tensor(n.inputs[0]).shape.dim(dim);
        const int64_t out_len = g.tensor(n.output).shape.dim(dim);
        SplitPiece1d p{in0, in0 + in_len, out0, out0 + out_len, 0, 0};
        if (window) {
            p.pad_b = dim == 2 ? n.win.ph_b : n.win.pw_b;
            p.pad_e = dim == 2 ? n.win.ph_e : n.win.pw_e;
        }
        s.pieces.push_back(p);
        in0 += in_len;
        out0 += out_len;
    }
    return s;
}

} // namespace

std::optional<SplitRegion>
recoverSplitRegion(const Graph &graph)
{
    const std::vector<NodeId> topo = graph.topoOrder();
    SplitRegion r;
    for (NodeId id : topo)
        if (graph.node(id).kind == OpKind::Slice)
            r.slices.push_back(id);
    if (r.slices.empty())
        return std::nullopt;

    // --- Patch grid: the Slice rectangles in row-major order ----------
    auto rect = [&](NodeId id) {
        const Node &n = graph.node(id);
        return std::array<int64_t, 4>{n.h_start, n.w_start, n.h_end,
                                      n.w_end};
    };
    std::sort(r.slices.begin(), r.slices.end(),
              [&](NodeId a, NodeId b) { return rect(a) < rect(b); });
    r.input = graph.node(r.slices[0]).inputs[0];
    const Shape &in_shape = graph.tensor(r.input).shape;
    SplitScheme2d sliced; // the Slice partition, as an identity scheme
    for (NodeId id : r.slices) {
        const Node &n = graph.node(id);
        if (n.w_start == 0)
            sliced.h.pieces.push_back(
                {n.h_start, n.h_end, n.h_start, n.h_end, 0, 0});
        if (n.h_start == 0)
            sliced.w.pieces.push_back(
                {n.w_start, n.w_end, n.w_start, n.w_end, 0, 0});
    }
    const int nh = sliced.h.parts();
    const int nw = sliced.w.parts();
    const int parts = nh * nw;
    bool grid = in_shape.rank() == 4 &&
                static_cast<int>(r.slices.size()) == parts &&
                tiles(sliced.h, in_shape.dim(2)) &&
                tiles(sliced.w, in_shape.dim(3));
    for (int p = 0; grid && p < parts; ++p) {
        const SplitPiece1d &ph = sliced.h.pieces[p / nw];
        const SplitPiece1d &pw = sliced.w.pieces[p % nw];
        grid = graph.node(r.slices[p]).inputs[0] == r.input &&
               rect(r.slices[p]) ==
                   std::array{ph.in_start, pw.in_start, ph.in_end,
                              pw.in_end};
    }
    SCNN_REQUIRE(grid, "split region: the Slice nodes do not tile "
                       "one NCHW tensor");

    // --- Patch chains: (layer, patch) of every patch tensor -----------
    constexpr int kNone = -2; // not a patch tensor; -1 = a Slice output
    const size_t n_tensors = graph.tensors().size();
    std::vector<int> t_layer(n_tensors, kNone);
    std::vector<int> t_patch(n_tensors, -1);
    std::vector<bool> joined(n_tensors, false); // join Concat outputs
    for (int p = 0; p < parts; ++p) {
        const auto t =
            static_cast<size_t>(graph.node(r.slices[p]).output);
        t_layer[t] = -1;
        t_patch[t] = p;
    }
    std::vector<std::vector<NodeId>> chains(static_cast<size_t>(parts));
    for (NodeId id : topo) {
        const Node &n = graph.node(id);
        bool any_patch = false;
        bool all_region = true;
        for (TensorId t : n.inputs) {
            const bool patch = t_layer[static_cast<size_t>(t)] != kNone;
            any_patch = any_patch || patch;
            all_region = all_region &&
                         (patch || joined[static_cast<size_t>(t)]);
        }
        if (n.kind == OpKind::Concat && all_region) {
            r.joins.push_back(id);
            joined[static_cast<size_t>(n.output)] = true;
            continue;
        }
        if (n.kind == OpKind::Slice || !any_patch)
            continue;
        const int p = t_patch[static_cast<size_t>(n.inputs[0])];
        for (TensorId t : n.inputs)
            SCNN_REQUIRE(t_layer[static_cast<size_t>(t)] != kNone &&
                             t_patch[static_cast<size_t>(t)] == p,
                         "split region: node "
                             << n.name
                             << " mixes patch and unsplit tensors");
        auto &chain = chains[static_cast<size_t>(p)];
        chain.push_back(id);
        t_layer[static_cast<size_t>(n.output)] =
            static_cast<int>(chain.size()) - 1;
        t_patch[static_cast<size_t>(n.output)] = p;
    }

    // --- One layer per chain position ---------------------------------
    const size_t depth = chains[0].size();
    for (const auto &chain : chains)
        SCNN_REQUIRE(chain.size() == depth && depth > 0,
                     "split region: patch chains differ in length");
    for (size_t k = 0; k < depth; ++k) {
        SplitRegionLayer layer;
        for (const auto &chain : chains)
            layer.clones.push_back(chain[k]);
        const Node &n0 = graph.node(layer.clones[0]);
        for (TensorId t : n0.inputs)
            layer.inputs.push_back(t_layer[static_cast<size_t>(t)]);
        const bool window = isWindowOp(n0.kind);
        SplitScheme2d &sc = layer.scheme;
        sc.h = axisScheme(graph, layer.clones, nh, nw, 2, window);
        sc.w = axisScheme(graph, layer.clones, nw, 1, 3, window);
        layer.win = n0.win;
        if (window) {
            layer.win.ph_b = sc.h.pieces.front().pad_b;
            layer.win.ph_e = sc.h.pieces.back().pad_e;
            layer.win.pw_b = sc.w.pieces.front().pad_b;
            layer.win.pw_e = sc.w.pieces.back().pad_e;
        }

        // Every clone is the layer's op on its own patch: same kind,
        // parameters and window up to the scheme's paddings, shapes
        // on the grid, inputs from the same layers' same patch — so
        // each input partition is the one its producer wrote.
        bool ok = window || n0.kind == OpKind::BatchNorm ||
                  n0.kind == OpKind::ReLU || n0.kind == OpKind::Add;
        for (int p = 0; ok && p < parts; ++p) {
            const Node &n = graph.node(layer.clones[p]);
            const SplitPiece1d &ph = sc.h.pieces[p / nw];
            const SplitPiece1d &pw = sc.w.pieces[p % nw];
            const Shape &os = graph.tensor(n.output).shape;
            ok = n.kind == n0.kind && n.params == n0.params &&
                 n.has_bias == n0.has_bias &&
                 n.out_channels == n0.out_channels &&
                 n.win == (window ? patchWindow(layer.win, sc, p / nw,
                                                p % nw)
                                  : n0.win) &&
                 os.dim(2) == ph.outLen() && os.dim(3) == pw.outLen() &&
                 n.inputs.size() == n0.inputs.size();
            for (size_t j = 0; ok && j < n.inputs.size(); ++j) {
                const Shape &is = graph.tensor(n.inputs[j]).shape;
                ok = t_layer[static_cast<size_t>(n.inputs[j])] ==
                         layer.inputs[j] &&
                     is.dim(2) == ph.inLen() && is.dim(3) == pw.inLen();
            }
        }
        SCNN_REQUIRE(ok, "split region: the clones of " << n0.name
                                                        << " do not form "
                                                           "one split "
                                                           "layer");
        const Shape &os = graph.tensor(n0.output).shape;
        layer.out_shape = Shape{os.dim(0), os.dim(1),
                                sc.h.pieces.back().out_end,
                                sc.w.pieces.back().out_end};
        r.layers.push_back(std::move(layer));
    }

    // --- The join reassembles one layer's patches in place -------------
    // Walk the join tree from the final Concat (the one no other join
    // reads), placing every patch tensor at its concat offset.
    for (NodeId id : r.joins) {
        const TensorId t = graph.node(id).output;
        bool read_by_join = false;
        for (NodeId c : graph.tensor(t).consumers)
            read_by_join = read_by_join || joined[static_cast<size_t>(
                                               graph.node(c).output)];
        if (!read_by_join) {
            SCNN_REQUIRE(r.join == kInvalidTensor,
                         "split region: more than one final join");
            r.join = t;
        }
    }
    SCNN_REQUIRE(r.join != kInvalidTensor, "split region: no join");
    std::vector<std::pair<int64_t, int64_t>> at(static_cast<size_t>(parts),
                                                {-1, -1});
    size_t joins_seen = 0;
    std::function<void(TensorId, int64_t, int64_t)> place =
        [&](TensorId t, int64_t h0, int64_t w0) {
            if (t_layer[static_cast<size_t>(t)] != kNone) {
                SCNN_REQUIRE(t_layer[static_cast<size_t>(t)] + 1 ==
                                 static_cast<int>(depth),
                             "split region: the join reads an inner "
                             "layer");
                at[static_cast<size_t>(t_patch[static_cast<size_t>(t)])] =
                    {h0, w0};
                return;
            }
            const Node &c = graph.node(graph.tensor(t).producer);
            SCNN_REQUIRE(joined[static_cast<size_t>(t)],
                         "split region: the join reads " << c.name);
            ++joins_seen;
            for (TensorId in : c.inputs) {
                place(in, h0, w0);
                (c.concat_dim == 2 ? h0 : w0) +=
                    graph.tensor(in).shape.dim(c.concat_dim);
            }
        };
    place(r.join, 0, 0);
    const SplitRegionLayer &jl = r.layers.back();
    bool in_place = joins_seen == r.joins.size() &&
                    graph.tensor(r.join).shape == jl.out_shape;
    for (int p = 0; p < parts; ++p)
        in_place = in_place &&
                   at[static_cast<size_t>(p)] ==
                       std::pair(jl.scheme.h.pieces[p / nw].out_start,
                                 jl.scheme.w.pieces[p % nw].out_start);
    SCNN_REQUIRE(in_place, "split region: the join does not reassemble "
                           "the patches in place");
    return r;
}

int
chooseCutPoint(const Graph &graph, double depth)
{
    SCNN_REQUIRE(depth >= 0.0 && depth <= 1.0,
                 "split depth must be in [0, 1], got " << depth);
    const int total = graph.convCount();
    const double target = depth * total;
    if (target < 0.5 || graph.cutPoints().empty())
        return -1;
    int best = -1;
    double best_err = 1e18;
    for (size_t i = 0; i < graph.cutPoints().size(); ++i) {
        const auto &cp = graph.cutPoints()[i];
        if (cp.convs_before < 1)
            continue;
        const double err = std::abs(cp.convs_before - target);
        if (err < best_err) {
            best_err = err;
            best = static_cast<int>(i);
        }
    }
    return best;
}

Graph
splitCnnTransform(const Graph &graph, const SplitOptions &options,
                  Rng *rng, SplitReport *report)
{
    SCNN_REQUIRE(options.splits_h >= 1 && options.splits_w >= 1,
                 "patch grid must be at least 1x1");
    if (report)
        *report = SplitReport{};
    if (report)
        report->total_convs = graph.convCount();

    const int cut_idx = chooseCutPoint(graph, options.depth);
    const bool no_op = cut_idx < 0 ||
                       (options.splits_h == 1 && options.splits_w == 1);

    // --- Identify region and propagate schemes -----------------------
    std::map<TensorId, Scheme2d> schemes;
    std::set<NodeId> region;
    TensorId cut = kInvalidTensor;

    if (!no_op) {
        cut = graph.cutPoints()[static_cast<size_t>(cut_idx)].tensor;
        region = collectRegion(graph, cut);
        validateRegionIsDominatedByCut(graph, region, cut);

        const Shape &cut_shape = graph.tensor(cut).shape;
        SCNN_REQUIRE(cut_shape.rank() == 4,
                     "join tensor must be spatial (NCHW)");
        Scheme2d join;
        if (options.stochastic) {
            SCNN_REQUIRE(rng, "stochastic splitting needs an Rng");
            join.h = stochasticOutputSplit(cut_shape.dim(2),
                                           options.splits_h,
                                           options.omega, *rng);
            join.w = stochasticOutputSplit(cut_shape.dim(3),
                                           options.splits_w,
                                           options.omega, *rng);
        } else {
            join.h = evenOutputSplit(cut_shape.dim(2), options.splits_h);
            join.w = evenOutputSplit(cut_shape.dim(3), options.splits_w);
        }
        schemes[cut] = std::move(join);

        // Reverse topological scheme propagation.
        const auto topo = graph.topoOrder();
        for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
            if (!region.count(*it))
                continue;
            const Node &n = graph.node(*it);
            const auto found = schemes.find(n.output);
            SCNN_CHECK(found != schemes.end(),
                       "no scheme for output of " << n.name);
            const Scheme2d &out_scheme = found->second;

            switch (n.kind) {
              case OpKind::Conv2d:
              case OpKind::MaxPool2d:
              case OpKind::AvgPool2d: {
                if (schemes.count(n.inputs[0]))
                    break; // first consumer's scheme wins
                const Shape &in = graph.tensor(n.inputs[0]).shape;
                Scheme2d s;
                s.h = computeInputSplitScheme(hParams(n.win), in.dim(2),
                                              out_scheme.h,
                                              options.policy,
                                              /*allow_downsample=*/true);
                s.w = computeInputSplitScheme(wParams(n.win), in.dim(3),
                                              out_scheme.w,
                                              options.policy,
                                              /*allow_downsample=*/true);
                schemes.emplace(n.inputs[0], std::move(s));
                break;
              }
              case OpKind::BatchNorm:
              case OpKind::ReLU:
              case OpKind::Add:
                for (TensorId t : n.inputs)
                    schemes.emplace(t, out_scheme);
                break;
              default:
                SCNN_FATAL("op " << opKindName(n.kind)
                                 << " inside a split region is not "
                                    "window-based or elementwise");
            }
        }
    }

    // --- Rebuild ------------------------------------------------------
    GraphBuilder builder;
    builder.importParams(graph.params());

    const TensorId old_input = graph.inputTensor();
    std::map<TensorId, TensorId> remap; // suffix tensors old -> new
    remap[old_input] =
        builder.input(graph.tensor(old_input).shape, "input");

    int convs_split = 0;
    if (!no_op) {
        const Scheme2d &in_scheme = schemes.at(old_input);
        const Shape &in_shape = graph.tensor(old_input).shape;
        const int nh = options.splits_h;
        const int nw = options.splits_w;

        auto range_of = [](const std::vector<int64_t> &starts, int i,
                           int64_t extent) {
            const int64_t lo = starts[static_cast<size_t>(i)];
            const int64_t hi = (i + 1 < static_cast<int>(starts.size()))
                                   ? starts[static_cast<size_t>(i) + 1]
                                   : extent;
            return std::pair<int64_t, int64_t>(lo, hi);
        };

        // Per-patch tensor maps (old tensor -> patch clone).
        const auto topo = graph.topoOrder();
        std::vector<std::map<TensorId, TensorId>> patch_map(
            static_cast<size_t>(nh * nw));

        for (int hi = 0; hi < nh; ++hi) {
            for (int wi = 0; wi < nw; ++wi) {
                auto &pm = patch_map[static_cast<size_t>(hi * nw + wi)];
                const auto [h0, h1] =
                    range_of(in_scheme.h, hi, in_shape.dim(2));
                const auto [w0, w1] =
                    range_of(in_scheme.w, wi, in_shape.dim(3));
                const std::string tag = "p" + std::to_string(hi) + "_" +
                                        std::to_string(wi);
                pm[old_input] = builder.slice(
                    remap.at(old_input), h0, h1, w0, w1,
                    "split." + tag);

                for (NodeId id : topo) {
                    if (!region.count(id))
                        continue;
                    const Node &n = graph.node(id);
                    const std::string name = n.name + "." + tag;
                    TensorId out = kInvalidTensor;
                    switch (n.kind) {
                      case OpKind::Conv2d:
                      case OpKind::MaxPool2d:
                      case OpKind::AvgPool2d: {
                        const Shape &in =
                            graph.tensor(n.inputs[0]).shape;
                        const Scheme2d &is = schemes.at(n.inputs[0]);
                        const Scheme2d &os = schemes.at(n.output);
                        const auto sh = buildSplitScheme(
                            hParams(n.win), in.dim(2), os.h, is.h,
                            /*allow_downsample=*/true);
                        const auto sw = buildSplitScheme(
                            wParams(n.win), in.dim(3), os.w, is.w,
                            /*allow_downsample=*/true);
                        Window2d local = n.win;
                        local.ph_b = sh.pieces[hi].pad_b;
                        local.ph_e = sh.pieces[hi].pad_e;
                        local.pw_b = sw.pieces[wi].pad_b;
                        local.pw_e = sw.pieces[wi].pad_e;
                        const TensorId x = pm.at(n.inputs[0]);
                        if (n.kind == OpKind::Conv2d) {
                            out = builder.conv2d(x, n.out_channels,
                                                 local, n.has_bias,
                                                 name, n.params);
                            if (hi == 0 && wi == 0)
                                ++convs_split;
                        } else if (n.kind == OpKind::MaxPool2d) {
                            out = builder.maxPool(x, local, name);
                        } else {
                            out = builder.avgPool(x, local, name);
                        }
                        break;
                      }
                      case OpKind::BatchNorm:
                        out = builder.batchNorm(pm.at(n.inputs[0]),
                                                name, n.params);
                        break;
                      case OpKind::ReLU:
                        out = builder.relu(pm.at(n.inputs[0]), name);
                        break;
                      case OpKind::Add: {
                        std::vector<TensorId> xs;
                        xs.reserve(n.inputs.size());
                        for (TensorId t : n.inputs)
                            xs.push_back(pm.at(t));
                        out = builder.add(xs, name);
                        break;
                      }
                      default:
                        SCNN_PANIC("unexpected op in region");
                    }
                    pm[n.output] = out;
                }
            }
        }

        // Join: concat rows along W, then rows along H (Eq. 7).
        std::vector<TensorId> rows;
        rows.reserve(static_cast<size_t>(nh));
        for (int hi = 0; hi < nh; ++hi) {
            std::vector<TensorId> cols;
            cols.reserve(static_cast<size_t>(nw));
            for (int wi = 0; wi < nw; ++wi)
                cols.push_back(
                    patch_map[static_cast<size_t>(hi * nw + wi)].at(
                        cut));
            rows.push_back(
                nw == 1 ? cols[0]
                        : builder.concat(cols, 3,
                                         "join.row" +
                                             std::to_string(hi)));
        }
        remap[cut] = rows.size() == 1 ? rows[0]
                                      : builder.concat(rows, 2, "join");
    }

    // Clone the suffix (everything not in the region).
    for (NodeId id : graph.topoOrder()) {
        if (region.count(id))
            continue;
        const Node &n = graph.node(id);
        if (n.kind == OpKind::Input)
            continue;
        std::vector<TensorId> xs;
        xs.reserve(n.inputs.size());
        for (TensorId t : n.inputs)
            xs.push_back(remap.at(t));
        TensorId out = kInvalidTensor;
        switch (n.kind) {
          case OpKind::Conv2d:
            out = builder.conv2d(xs[0], n.out_channels, n.win,
                                 n.has_bias, n.name, n.params);
            break;
          case OpKind::MaxPool2d:
            out = builder.maxPool(xs[0], n.win, n.name);
            break;
          case OpKind::AvgPool2d:
            out = builder.avgPool(xs[0], n.win, n.name);
            break;
          case OpKind::GlobalAvgPool:
            out = builder.globalAvgPool(xs[0], n.name);
            break;
          case OpKind::BatchNorm:
            out = builder.batchNorm(xs[0], n.name, n.params);
            break;
          case OpKind::ReLU:
            out = builder.relu(xs[0], n.name);
            break;
          case OpKind::Linear:
            out = builder.linear(xs[0], n.out_channels, n.has_bias,
                                 n.name, n.params);
            break;
          case OpKind::Flatten:
            out = builder.flatten(xs[0], n.name);
            break;
          case OpKind::Add:
            out = builder.add(xs, n.name);
            break;
          case OpKind::Slice:
            out = builder.slice(xs[0], n.h_start, n.h_end, n.w_start,
                                n.w_end, n.name);
            break;
          case OpKind::Concat:
            out = builder.concat(xs, n.concat_dim, n.name);
            break;
          case OpKind::Input:
            break;
        }
        remap[n.output] = out;
    }

    if (report) {
        report->join_tensor = cut;
        report->convs_split = convs_split;
        report->achieved_depth =
            graph.convCount()
                ? static_cast<double>(convs_split) / graph.convCount()
                : 0.0;
        report->patches =
            no_op ? 1 : options.splits_h * options.splits_w;
    }
    return builder.build();
}

} // namespace scnn
