#include "timing/cpn.hpp"

#include <algorithm>

#include "support/contracts.hpp"
#include "timing/arc_eval.hpp"
#include "timing/graph.hpp"

namespace dvs {

CriticalPathNetwork extract_cpn(const TimingContext& ctx,
                                const StaResult& sta,
                                const std::vector<NodeId>& tcb,
                                double window) {
  const Network& net = *ctx.net;
  const Library& lib = *ctx.lib;
  CriticalPathNetwork cpn;
  std::vector<char> member(net.size(), 0);
  std::vector<char> is_sink(net.size(), 0);
  std::vector<NodeId> worklist;

  for (NodeId t : tcb) {
    DVS_EXPECTS(net.is_valid(t));
    if (!member[t]) {
      member[t] = 1;
      is_sink[t] = 1;
      worklist.push_back(t);
    }
  }

  const timing_detail::SupplyView supply{ctx.node_vdd, ctx.lc_on_output};

  // The compiled graph (when current) supplies flat fanin spans and
  // pre-resolved arcs; stale or absent graphs fall back to the library.
  const TimingGraph* graph =
      ctx.graph && ctx.graph->describes(net, lib) ? ctx.graph : nullptr;
  if (graph) graph->sync_cells();
  timing_detail::DelayFactorCache delay_factor(lib.voltage_model());

  while (!worklist.empty()) {
    const NodeId vid = worklist.back();
    worklist.pop_back();
    const Node& v = net.node(vid);
    if (!v.is_gate() || v.cell < 0) continue;
    const Cell& cell = lib.cell(v.cell);
    const std::span<const TimingArc> arcs =
        graph ? graph->arcs(vid) : std::span<const TimingArc>(cell.arcs);
    const double vf = delay_factor(ctx.node_vdd[vid]);
    const double target = sta.arrival[vid].max();
    for (std::size_t pin = 0; pin < v.fanins.size(); ++pin) {
      const NodeId uid = v.fanins[pin];
      const RiseFall& in = timing_detail::through_lc(supply, uid, vid)
                               ? sta.lc_arrival[uid]
                               : sta.arrival[uid];
      const RiseFall d =
          timing_detail::ArcView{arcs[pin], vf, sta.load[vid]}.delay();
      // Worst contribution of this pin to the output arrival, respecting
      // the arc sense the same way the STA does.
      double contribution;
      switch (arcs[pin].sense) {
        case ArcSense::kPositiveUnate:
          contribution = std::max(in.rise + d.rise, in.fall + d.fall);
          break;
        case ArcSense::kNegativeUnate:
          contribution = std::max(in.fall + d.rise, in.rise + d.fall);
          break;
        default:
          contribution = std::max(in.rise, in.fall) + std::max(d.rise,
                                                               d.fall);
      }
      if (contribution + window < target) continue;  // non-critical arc
      const Node& u = net.node(uid);
      if (!u.is_gate()) continue;  // path entry from a PI or constant
      cpn.edges.emplace_back(uid, vid);
      if (!member[uid]) {
        member[uid] = 1;
        worklist.push_back(uid);
      }
    }
  }

  // Collect nodes, classify sources (no critical gate fanin inside CPN).
  std::vector<char> has_inside_fanin(net.size(), 0);
  for (const auto& [u, v] : cpn.edges) has_inside_fanin[v] = 1;
  for (int id = 0; id < net.size(); ++id) {
    if (!member[id]) continue;
    cpn.nodes.push_back(id);
    if (!has_inside_fanin[id]) cpn.sources.push_back(id);
    if (is_sink[id]) cpn.sinks.push_back(id);
  }
  std::sort(cpn.edges.begin(), cpn.edges.end());
  cpn.edges.erase(std::unique(cpn.edges.begin(), cpn.edges.end()),
                  cpn.edges.end());
  return cpn;
}

}  // namespace dvs
