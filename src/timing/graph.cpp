#include "timing/graph.hpp"

#include <algorithm>
#include <limits>

#include "netlist/topo.hpp"
#include "support/contracts.hpp"
#include "timing/arc_eval.hpp"
#include "timing/loads.hpp"

namespace dvs {

namespace {

// Pin cap / arc of `gate` pin `pin` when mapped to `cell` (< 0: unmapped).
double pin_cap_of(const Library& lib, int cell, int pin) {
  if (cell >= 0) return lib.cell(cell).input_cap[pin];
  return timing_detail::kDefaultPinCap;
}

TimingArc arc_of(const Library& lib, const Node& gate, int cell, int pin) {
  if (cell >= 0) return lib.cell(cell).arcs[pin];
  return timing_detail::default_arc(gate.function, pin);
}

}  // namespace

TimingGraph::TimingGraph(const Network& net, const Library& lib)
    : net_(&net), lib_(&lib) {
  compile();
}

void TimingGraph::compile() {
  const Network& net = *net_;
  const Library& lib = *lib_;
  const int n = net.size();
  structural_version_ = net.structural_version();

  topo_order_ = dvs::topo_order(net);
  topo_rank_.assign(n, 0);
  for (std::size_t i = 0; i < topo_order_.size(); ++i)
    topo_rank_[topo_order_[i]] = static_cast<int>(i);
  level_.assign(n, -1);
  for (NodeId id : topo_order_) {
    int lv = 0;
    for (NodeId f : net.node(id).fanins)
      lv = std::max(lv, level_[f] + 1);
    level_[id] = lv;
  }

  gate_flag_.assign(n, 0);
  port_count_.assign(n, 0);
  cell_.assign(n, -1);
  net.for_each_node([&](const Node& node) {
    gate_flag_[node.id] = node.is_gate() ? 1 : 0;
    cell_[node.id] = node.cell;
  });
  for (const OutputPort& port : net.outputs()) ++port_count_[port.driver];

  // ---- fanin CSR + pre-resolved arcs -----------------------------------
  fanin_offset_.assign(n + 1, 0);
  net.for_each_node([&](const Node& node) {
    fanin_offset_[node.id + 1] = static_cast<std::int32_t>(node.fanins.size());
  });
  for (int i = 0; i < n; ++i) fanin_offset_[i + 1] += fanin_offset_[i];
  fanin_.assign(fanin_offset_[n], kNoNode);
  arc_.assign(fanin_offset_[n], TimingArc{});
  net.for_each_node([&](const Node& node) {
    const std::int32_t base = fanin_offset_[node.id];
    for (std::size_t pin = 0; pin < node.fanins.size(); ++pin) {
      fanin_[base + pin] = node.fanins[pin];
      arc_[base + pin] = arc_of(lib, node, node.cell, static_cast<int>(pin));
    }
  });

  // ---- unique-fanout pin entries ---------------------------------------
  // Built with for_each_unique_fanout itself so the entry order (and with
  // it every float accumulation downstream) matches the seed walks.
  entry_offset_.assign(n + 1, 0);
  uniq_offset_.assign(n + 1, 0);
  entry_.clear();
  entry_cap_.clear();
  entry_group_.clear();
  uniq_.clear();
  group_begin_.clear();
  group_cap_sum_.clear();
  for (int u = 0; u < n; ++u) {
    if (net.is_valid(u)) {
      const Node& driver = net.node(u);
      for_each_unique_fanout(driver, [&](NodeId vid) {
        const Node& sink = net.node(vid);
        const std::int32_t group =
            static_cast<std::int32_t>(uniq_.size());
        uniq_.push_back(vid);
        group_begin_.push_back(static_cast<std::int32_t>(entry_.size()));
        double cap_sum = 0.0;
        for (std::size_t pin = 0; pin < sink.fanins.size(); ++pin) {
          if (sink.fanins[pin] != u) continue;
          const double cap =
              pin_cap_of(lib, sink.cell, static_cast<int>(pin));
          entry_.push_back({vid, static_cast<std::int32_t>(pin)});
          entry_cap_.push_back(cap);
          entry_group_.push_back(group);
          cap_sum += cap;
        }
        group_cap_sum_.push_back(cap_sum);
      });
    }
    entry_offset_[u + 1] = static_cast<std::int32_t>(entry_.size());
    uniq_offset_[u + 1] = static_cast<std::int32_t>(uniq_.size());
  }
  group_begin_.push_back(static_cast<std::int32_t>(entry_.size()));

  // Cross-link: pin k of sink v is exactly one entry on its driver's list.
  fanin_entry_.assign(fanin_.size(), -1);
  for (std::size_t e = 0; e < entry_.size(); ++e)
    fanin_entry_[fanin_offset_[entry_[e].sink] + entry_[e].pin] =
        static_cast<std::int32_t>(e);
}

void TimingGraph::patch_cell(NodeId id) const {
  const Node& node = net_->node(id);
  cell_[id] = node.cell;
  if (!node.is_gate()) return;
  const std::int32_t base = fanin_offset_[id];
  for (std::size_t pin = 0; pin < node.fanins.size(); ++pin) {
    arc_[base + pin] = arc_of(*lib_, node, node.cell, static_cast<int>(pin));
    const std::int32_t e = fanin_entry_[base + pin];
    entry_cap_[e] = pin_cap_of(*lib_, node.cell, static_cast<int>(pin));
    const std::int32_t g = entry_group_[e];
    double cap_sum = 0.0;
    for (std::int32_t k = group_begin_[g]; k < group_begin_[g + 1]; ++k)
      cap_sum += entry_cap_[k];
    group_cap_sum_[g] = cap_sum;
  }
}

void TimingGraph::sync_node(NodeId id) const {
  DVS_EXPECTS(net_->is_valid(id));
  if (cell_[id] != net_->node(id).cell) patch_cell(id);
}

void TimingGraph::sync_cells() const {
  for (NodeId id : topo_order_)
    if (cell_[id] != net_->node(id).cell) patch_cell(id);
}


// ===========================================================================
// MultiLaneSta
// ===========================================================================

namespace {

using timing_detail::ArcView;
using timing_detail::CommittedState;
using timing_detail::forward_sweep;
using timing_detail::kInf;
using timing_detail::lc_drives;
using timing_detail::lc_hop;
using timing_detail::lc_output_arrival;
using timing_detail::node_arrival;
using timing_detail::node_load;
using timing_detail::NodeLoad;
using timing_detail::pin_arrival;
using timing_detail::Recipe;
using timing_detail::SupplyView;

}  // namespace

/// One lane's view of the state for the shared recipe: touched nodes read
/// their per-lane effective supply, LC flag, arcs, pin caps and loads;
/// everything else the committed base.  Arrivals come from the lane block
/// at or above the dirty rank and from the base below it.
struct MultiLaneSta::LaneView {
  const MultiLaneSta& e;
  const TimingGraph& g;
  int lane;
  int num_lanes;

  std::size_t slot(int row) const {
    return static_cast<std::size_t>(row) * num_lanes + lane;
  }
  double vdd(NodeId id) const {
    const int r = e.touch_row_[id];
    return r >= 0 ? e.eff_vdd_[slot(r)] : e.ctx_.node_vdd[id];
  }
  bool has_lc(NodeId id) const {
    const int r = e.touch_row_[id];
    if (r >= 0) return e.eff_lc_on_[slot(r)] != 0;
    return !e.ctx_.lc_on_output.empty() && e.ctx_.lc_on_output[id] != 0;
  }
  double pin_cap(TimingGraph::FanoutPin fo, double graph_cap) const {
    const int r = e.touch_row_[fo.sink];
    if (r < 0 || e.eff_cell_[slot(r)] == kBaseCell) return graph_cap;
    return pin_cap_of(*e.ctx_.lib, e.eff_cell_[slot(r)], fo.pin);
  }
  const TimingArc* arcs(NodeId id) const {
    const int r = e.touch_row_[id];
    return r >= 0 ? e.eff_arcs_[slot(r)] : g.arcs(id).data();
  }
  double load(NodeId id) const {
    const int r = e.touch_row_[id];
    return r >= 0 ? e.eff_load_[slot(r)] : e.base_.load[id];
  }
  double lc_load(NodeId id) const {
    const int r = e.touch_row_[id];
    return r >= 0 ? e.eff_lc_load_[slot(r)] : e.base_.lc_load[id];
  }
  RiseFall arrival(NodeId id) const {
    return from_block(id, e.base_.arrival, e.lane_ar_, e.lane_af_);
  }
  RiseFall lc_arrival(NodeId id) const {
    return from_block(id, e.base_.lc_arrival, e.lane_lr_, e.lane_lf_);
  }

 private:
  RiseFall from_block(NodeId id, const std::vector<RiseFall>& base,
                      const std::vector<double>& rise,
                      const std::vector<double>& fall) const {
    const int rank = g.topo_ranks()[id];
    if (rank < e.start_rank_) return base[id];
    const std::size_t s =
        static_cast<std::size_t>(rank - e.start_rank_) * num_lanes + lane;
    return {rise[s], fall[s]};
  }
};

MultiLaneSta::MultiLaneSta(const TimingContext& ctx, double tspec)
    : ctx_(ctx), tspec_(tspec) {
  DVS_EXPECTS(ctx_.net != nullptr && ctx_.lib != nullptr);
  DVS_EXPECTS(static_cast<int>(ctx_.node_vdd.size()) >= ctx_.net->size());
}

MultiLaneSta::~MultiLaneSta() = default;

int MultiLaneSta::add_lane() {
  lanes_.emplace_back();
  lane_has_level_.push_back(0);
  return static_cast<int>(lanes_.size()) - 1;
}

void MultiLaneSta::reset_lanes() {
  lanes_.clear();
  lane_has_level_.clear();
}

void MultiLaneSta::set_level(int lane, NodeId id, SupplyId rung) {
  DVS_EXPECTS(lane >= 0 && lane < num_lanes());
  DVS_EXPECTS(ctx_.net->is_valid(id) && ctx_.net->node(id).is_gate());
  DVS_EXPECTS(rung < ctx_.lib->supplies().depth());
  // Rung overrides shift LC boundaries, so the committed flags/levels must
  // be available to re-derive from.
  DVS_EXPECTS(static_cast<int>(ctx_.node_level.size()) >= ctx_.net->size());
  DVS_EXPECTS(static_cast<int>(ctx_.lc_on_output.size()) >=
              ctx_.net->size());
  for (Override& o : lanes_[lane])
    if (o.node == id) {
      o.level = rung;
      o.has_level = 1;
      lane_has_level_[lane] = 1;
      return;
    }
  lanes_[lane].push_back({id, rung, -1, 1, 0});
  lane_has_level_[lane] = 1;
}

void MultiLaneSta::set_cell(int lane, NodeId id, int cell) {
  DVS_EXPECTS(lane >= 0 && lane < num_lanes());
  DVS_EXPECTS(ctx_.net->is_valid(id) && ctx_.net->node(id).is_gate());
  for (Override& o : lanes_[lane])
    if (o.node == id) {
      o.cell = cell;
      o.has_cell = 1;
      return;
    }
  lanes_[lane].push_back({id, 0, cell, 0, 1});
}

const TimingGraph& MultiLaneSta::resolve_graph() {
  recompiled_ = false;
  if (ctx_.graph != nullptr && ctx_.graph->describes(*ctx_.net, *ctx_.lib))
    return *ctx_.graph;
  if (fallback_ && fallback_->describes(*ctx_.net, *ctx_.lib))
    return *fallback_;
  // Structural edit since compile: all previously computed lane state is
  // stale — drop it with the old graph and recompile.
  lane_ar_.clear();
  lane_af_.clear();
  lane_lr_.clear();
  lane_lf_.clear();
  fallback_ = std::make_shared<const TimingGraph>(*ctx_.net, *ctx_.lib);
  recompiled_ = true;
  return *fallback_;
}

/// Marks every node any lane's overrides can influence directly: the
/// overridden node itself (arcs / supply / LC flag / load split) plus its
/// gate fanins (their pin caps toward it, their LC flags, their LC load
/// splits).  Everything else either sits below the dirty rank or is
/// lane-invariant apart from its inputs.
void MultiLaneSta::build_closure(const TimingGraph& g) {
  const int n = ctx_.net->size();
  touch_row_.assign(n, -1);
  touch_list_.clear();
  auto touch = [&](NodeId id) {
    if (touch_row_[id] >= 0) return;
    touch_row_[id] = static_cast<int>(touch_list_.size());
    touch_list_.push_back(id);
  };
  for (const std::vector<Override>& lane : lanes_)
    for (const Override& o : lane) {
      touch(o.node);
      for (NodeId fi : g.fanins(o.node))
        if (g.is_gate(fi)) touch(fi);
    }
}

/// Per-(touched node, lane) effective state: rung/supply/cell/arcs from
/// the lane's explicit overrides, LC flags re-derived with the
/// lc_needed rule Design maintains, and loads from the shared recipe.
void MultiLaneSta::fill_effective(const TimingGraph& g,
                                  const Recipe& k) {
  const Network& net = *ctx_.net;
  const Library& lib = *ctx_.lib;
  const int nl = num_lanes();
  const int rows = static_cast<int>(touch_list_.size());
  const std::size_t slots = static_cast<std::size_t>(rows) * nl;
  eff_vdd_.resize(slots);
  eff_level_.resize(slots);
  eff_lc_on_.resize(slots);
  eff_load_.resize(slots);
  eff_lc_load_.resize(slots);
  eff_cell_.resize(slots);
  eff_arcs_.resize(slots);

  // Unmapped cell overrides time with default arcs, which live here; the
  // reserve keeps the slot pointers into it stable.
  std::size_t default_pins = 0;
  for (const std::vector<Override>& lane : lanes_)
    for (const Override& o : lane)
      if (o.has_cell && o.cell < 0) default_pins += g.fanins(o.node).size();
  default_arcs_.clear();
  default_arcs_.reserve(default_pins);

  const SupplyView base{ctx_.node_vdd, ctx_.lc_on_output};
  const bool have_levels = !ctx_.node_level.empty();
  for (int r = 0; r < rows; ++r) {
    const NodeId id = touch_list_[r];
    for (int l = 0; l < nl; ++l) {
      const std::size_t s = static_cast<std::size_t>(r) * nl + l;
      eff_vdd_[s] = ctx_.node_vdd[id];
      eff_level_[s] = have_levels ? ctx_.node_level[id] : kTopRung;
      eff_lc_on_[s] = base.has_lc(id);
      eff_cell_[s] = kBaseCell;
      eff_arcs_[s] = g.arcs(id).data();
    }
  }
  for (int l = 0; l < nl; ++l)
    for (const Override& o : lanes_[l]) {
      const std::size_t s =
          static_cast<std::size_t>(touch_row_[o.node]) * nl + l;
      if (o.has_level) {
        eff_level_[s] = o.level;
        // Same assignment Design::set_level performs, so the double is
        // identical to the committed vector's.
        eff_vdd_[s] = lib.supplies().voltage(o.level);
      }
      if (!o.has_cell) continue;
      eff_cell_[s] = o.cell;
      if (o.cell >= 0) {
        eff_arcs_[s] = lib.cell(o.cell).arcs.data();
        continue;
      }
      eff_arcs_[s] = default_arcs_.data() + default_arcs_.size();
      const Node& node = net.node(o.node);
      for (int pin = 0; pin < static_cast<int>(node.fanins.size()); ++pin)
        default_arcs_.push_back(arc_of(lib, node, -1, pin));
    }

  // LC flags: only lanes that move rungs can change them, and only on
  // touched nodes (a flag depends on the node's and its fanouts' rungs;
  // nodes with an overridden fanout are exactly the touched fanins).
  auto eff_level_of = [&](NodeId id, int l) -> SupplyId {
    const int r = touch_row_[id];
    if (r >= 0) return eff_level_[static_cast<std::size_t>(r) * nl + l];
    return ctx_.node_level[id];
  };
  for (int l = 0; l < nl; ++l) {
    if (!lane_has_level_[l]) continue;
    for (int r = 0; r < rows; ++r) {
      const NodeId id = touch_list_[r];
      const std::size_t s = static_cast<std::size_t>(r) * nl + l;
      const SupplyId driver = eff_level_[s];
      char flag = 0;
      if (driver != kTopRung)
        for (NodeId fo : g.unique_fanouts(id))
          if (g.is_gate(fo) &&
              SupplyLadder::converter_needed(driver, eff_level_of(fo, l))) {
            flag = 1;
            break;
          }
      eff_lc_on_[s] = flag;
    }
  }

  for (int l = 0; l < nl; ++l) {
    const LaneView view{*this, g, l, nl};
    for (int r = 0; r < rows; ++r) {
      const std::size_t s = static_cast<std::size_t>(r) * nl + l;
      const NodeLoad load =
          node_load(k, g, touch_list_[r], view);
      eff_load_[s] = load.direct;
      eff_lc_load_[s] = load.lc;
    }
  }
}

void MultiLaneSta::sweep_lanes(const TimingGraph& g,
                               Recipe& k) {
  const Network& net = *ctx_.net;
  const int nl = num_lanes();
  const std::vector<NodeId>& order = g.topo_order();
  const std::vector<int>& rank = g.topo_ranks();

  start_rank_ = static_cast<int>(order.size());
  for (NodeId id : touch_list_)
    start_rank_ = std::min(start_rank_, rank[id]);
  const int span = static_cast<int>(order.size()) - start_rank_;
  lane_ar_.assign(static_cast<std::size_t>(span) * nl, 0.0);
  lane_af_.assign(static_cast<std::size_t>(span) * nl, 0.0);
  lane_lr_.assign(static_cast<std::size_t>(span) * nl, 0.0);
  lane_lf_.assign(static_cast<std::size_t>(span) * nl, 0.0);
  lane_worst_.assign(nl, 0.0);
  if (nl == 0) return;

  const CommittedState base(ctx_, g, base_);
  auto lane_row = [&](std::vector<double>& v, NodeId id) -> double* {
    return v.data() + static_cast<std::size_t>(rank[id] - start_rank_) * nl;
  };

  for (int oi = start_rank_; oi < static_cast<int>(order.size()); ++oi) {
    const NodeId id = order[oi];
    const std::size_t at = static_cast<std::size_t>(oi - start_rank_) * nl;
    double* ar = lane_ar_.data() + at;
    double* af = lane_af_.data() + at;
    double* lr = lane_lr_.data() + at;
    double* lf = lane_lf_.data() + at;
    const std::span<const NodeId> fi = g.fanins(id);

    if (touch_row_[id] >= 0) {
      // The node differs between lanes: run the recipe once per lane
      // through that lane's view.
      for (int l = 0; l < nl; ++l) {
        const LaneView view{*this, g, l, nl};
        const RiseFall arr = node_arrival(k, g, id, view);
        const RiseFall lc =
            lc_output_arrival(k, g, id, arr, view);
        ar[l] = arr.rise;
        af[l] = arr.fall;
        lr[l] = lc.rise;
        lf[l] = lc.fall;
      }
      continue;
    }
    // Inputs and constant gates stay at t=0 in every lane.
    if (g.is_gate(id) && !fi.empty()) {
      // Fast path: node_arrival specialised to a node that is identical in
      // all lanes — scalar supply factor, load and arcs; only the input
      // arrivals (and, behind a touched fanin, their routing) vary.
      const double vf = k.factor(ctx_.node_vdd[id]);
      const std::span<const TimingArc> arcs = g.arcs(id);
      const double ld = base_.load[id];
      for (int l = 0; l < nl; ++l) ar[l] = -kInf;
      for (int l = 0; l < nl; ++l) af[l] = -kInf;
      for (std::size_t pin = 0; pin < fi.size(); ++pin) {
        const NodeId uid = fi[pin];
        const TimingArc& arc = arcs[pin];
        const RiseFall d = ArcView{arc, vf, ld}.delay();
        if (rank[uid] < start_rank_) {
          // Below the dirty rank every lane reads the base arrival.
          const RiseFall cand =
              pin_arrival(base, uid, id, arc, d);
          for (int l = 0; l < nl; ++l) ar[l] = std::max(ar[l], cand.rise);
          for (int l = 0; l < nl; ++l) af[l] = std::max(af[l], cand.fall);
          continue;
        }
        if (touch_row_[uid] >= 0) {
          // A touched fanin's supply and LC flag differ per lane, so the
          // pin's converter routing is resolved lane by lane.
          for (int l = 0; l < nl; ++l) {
            const RiseFall cand = pin_arrival(
                LaneView{*this, g, l, nl}, uid, id, arc, d);
            ar[l] = std::max(ar[l], cand.rise);
            af[l] = std::max(af[l], cand.fall);
          }
          continue;
        }
        const bool through_lc = timing_detail::through_lc(base, uid, id);
        const double* inr =
            through_lc ? lane_row(lane_lr_, uid) : lane_row(lane_ar_, uid);
        const double* inf =
            through_lc ? lane_row(lane_lf_, uid) : lane_row(lane_af_, uid);
        // Contiguous per-lane runs with no lane-dependent branches: the
        // auto-vectorizable core of the engine (propagate() per sense).
        switch (arc.sense) {
          case ArcSense::kPositiveUnate:
            for (int l = 0; l < nl; ++l)
              ar[l] = std::max(ar[l], inr[l] + d.rise);
            for (int l = 0; l < nl; ++l)
              af[l] = std::max(af[l], inf[l] + d.fall);
            break;
          case ArcSense::kNegativeUnate:
            for (int l = 0; l < nl; ++l)
              ar[l] = std::max(ar[l], inf[l] + d.rise);
            for (int l = 0; l < nl; ++l)
              af[l] = std::max(af[l], inr[l] + d.fall);
            break;
          case ArcSense::kNonUnate:
          default:
            for (int l = 0; l < nl; ++l) {
              const double worst = std::max(inr[l], inf[l]);
              ar[l] = std::max(ar[l], worst + d.rise);
              af[l] = std::max(af[l], worst + d.fall);
            }
            break;
        }
      }
    }
    if (lc_drives(g, id, base))
      for (int l = 0; l < nl; ++l) {
        const RiseFall lc =
            lc_hop(k, {ar[l], af[l]}, base_.lc_load[id]);
        lr[l] = lc.rise;
        lf[l] = lc.fall;
      }
  }

  for (const OutputPort& port : net.outputs()) {
    const NodeId d = port.driver;
    if (rank[d] < start_rank_) {
      const double w = base_.arrival[d].max();
      for (int l = 0; l < nl; ++l)
        lane_worst_[l] = std::max(lane_worst_[l], w);
    } else {
      const double* ar = lane_row(lane_ar_, d);
      const double* af = lane_row(lane_af_, d);
      for (int l = 0; l < nl; ++l)
        lane_worst_[l] = std::max(lane_worst_[l], std::max(ar[l], af[l]));
    }
  }
}

void MultiLaneSta::run() {
  const TimingGraph& g = resolve_graph();
  g.sync_cells();
  Recipe k(*ctx_.lib, ctx_.output_port_load);
  forward_sweep(ctx_, g, k, base_);
  build_closure(g);
  fill_effective(g, k);
  sweep_lanes(g, k);
  ran_lanes_ = num_lanes();
}

double MultiLaneSta::worst_arrival(int lane) const {
  DVS_EXPECTS(lane >= 0 && lane < static_cast<int>(lane_worst_.size()));
  return lane_worst_[lane];
}

RiseFall MultiLaneSta::arrival(int lane, NodeId id) const {
  DVS_EXPECTS(lane >= 0 && lane < ran_lanes_);
  const TimingGraph* g =
      ctx_.graph != nullptr && ctx_.graph->describes(*ctx_.net, *ctx_.lib)
          ? ctx_.graph
          : fallback_.get();
  DVS_EXPECTS(g != nullptr);
  const int rank = g->topo_ranks()[id];
  if (rank < start_rank_) return base_.arrival[id];
  const std::size_t s =
      static_cast<std::size_t>(rank - start_rank_) * ran_lanes_ + lane;
  return {lane_ar_[s], lane_af_[s]};
}

}  // namespace dvs
