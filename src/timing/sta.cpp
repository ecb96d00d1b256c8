#include "timing/sta.hpp"

#include <algorithm>
#include <cmath>

#include "support/contracts.hpp"
#include "timing/arc_eval.hpp"
#include "timing/graph.hpp"

namespace dvs {

namespace timing_detail {

void forward_sweep(const TimingContext& ctx, const TimingGraph& g,
                   Recipe& k, StaResult& r) {
  const int n = ctx.net->size();
  r.arrival.assign(n, RiseFall{});
  r.lc_arrival.assign(n, RiseFall{});
  r.load.assign(n, 0.0);
  r.lc_load.assign(n, 0.0);
  const CommittedState s(ctx, g, r);
  for (NodeId id : g.topo_order()) {
    const NodeLoad load = node_load(k, g, id, s);
    r.load[id] = load.direct;
    r.lc_load[id] = load.lc;
    r.arrival[id] = node_arrival(k, g, id, s);
    r.lc_arrival[id] = lc_output_arrival(k, g, id, r.arrival[id], s);
  }
  r.worst_arrival = worst_port_arrival(*ctx.net, r.arrival);
}

}  // namespace timing_detail

namespace {

using timing_detail::CommittedState;
using timing_detail::fold_required;
using timing_detail::kInf;
using timing_detail::pin_required;
using timing_detail::Recipe;
using timing_detail::sink_timing;
using timing_detail::SinkTiming;
using timing_detail::slack_of;

/// Full analysis over the compiled graph: the recipe's forward sweep,
/// then one reverse-topological sweep pushing each sink's per-pin
/// required times into its fanins.  timing_graph_test holds it
/// bit-identical to the seed walks in tests/oracle/.
StaResult run_sta_flat(const TimingContext& ctx, const TimingGraph& g,
                       double tspec) {
  const int n = ctx.net->size();
  DVS_EXPECTS(static_cast<int>(ctx.node_vdd.size()) >= n);
  DVS_EXPECTS(ctx.lc_on_output.empty() ||
              static_cast<int>(ctx.lc_on_output.size()) >= n);
  g.sync_cells();
  Recipe k(*ctx.lib, ctx.output_port_load);

  StaResult r;
  timing_detail::forward_sweep(ctx, g, k, r);
  r.tspec = tspec < 0.0 ? r.worst_arrival : tspec;

  const CommittedState s(ctx, g, r);
  r.required.assign(n, RiseFall{kInf, kInf});
  for (const OutputPort& port : ctx.net->outputs())
    fold_required(r.required[port.driver], {r.tspec, r.tspec});
  const std::vector<NodeId>& order = g.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    if (!g.is_gate(v)) continue;
    const SinkTiming st = sink_timing(k, v, s);
    const std::span<const NodeId> fi = g.fanins(v);
    for (std::size_t pin = 0; pin < fi.size(); ++pin)
      fold_required(r.required[fi[pin]],
                    pin_required(k, st, v, static_cast<int>(pin), fi[pin], s));
  }
  r.slack.assign(n, kInf);
  for (NodeId id : order)
    r.slack[id] = slack_of(r.arrival[id], r.required[id]);
  return r;
}

}  // namespace

RiseFall arc_delay(const Library& lib, const Cell& cell, int pin, double vdd,
                   double load_ff) {
  DVS_EXPECTS(pin >= 0 && pin < cell.num_inputs());
  const double vf = lib.voltage_model().delay_factor(vdd);
  return timing_detail::ArcView{cell.arcs[pin], vf, load_ff}.delay();
}

double worst_delay_increase(const Library& lib, const Cell& cell,
                            double vdd_from, double vdd_to, double load_ff) {
  return worst_delay_increase(lib.voltage_model().delay_factor(vdd_from),
                              lib.voltage_model().delay_factor(vdd_to),
                              cell, load_ff);
}

double worst_delay_increase(double factor_from, double factor_to,
                            const Cell& cell, double load_ff) {
  const double df = factor_to - factor_from;
  double worst = 0.0;
  for (const TimingArc& arc : cell.arcs) {
    worst = std::max(
        worst, df * (arc.intrinsic_rise + arc.resistance_rise * load_ff));
    worst = std::max(
        worst, df * (arc.intrinsic_fall + arc.resistance_fall * load_ff));
  }
  return worst;
}

StaResult run_sta(const TimingContext& ctx, double tspec) {
  DVS_EXPECTS(ctx.net != nullptr && ctx.lib != nullptr);
  if (ctx.graph && ctx.graph->describes(*ctx.net, *ctx.lib))
    return run_sta_flat(ctx, *ctx.graph, tspec);
  const TimingGraph local(*ctx.net, *ctx.lib);
  return run_sta_flat(ctx, local, tspec);
}

StaResult run_sta(const Network& net, const Library& lib, double tspec) {
  std::vector<double> vdd(net.size(), lib.vdd_high());
  TimingContext ctx;
  ctx.net = &net;
  ctx.lib = &lib;
  ctx.node_vdd = vdd;
  return run_sta(ctx, tspec);
}

}  // namespace dvs
