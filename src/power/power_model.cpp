#include "power/power_model.hpp"

#include "support/contracts.hpp"
#include "support/units.hpp"
#include "timing/arc_eval.hpp"
#include "timing/graph.hpp"

namespace dvs {

namespace {

/// Equation (1) over `g`, a current compilation of ctx.net.  Categories
/// are summed in node order; a node without a term adds an exact +0.0, so
/// IncrementalPower's re-add reproduces every sum.
PowerBreakdown sum_power(const PowerContext& ctx, const TimingGraph& g) {
  const timing_detail::Recipe k(*ctx.lib, ctx.output_port_load);
  const timing_detail::SupplyView s{ctx.node_vdd, ctx.lc_on_output};
  PowerBreakdown p;
  p.node_power.assign(ctx.net->size(), 0.0);
  ctx.net->for_each_node([&](const Node& node) {
    const NodeId id = node.id;
    const timing_detail::NodeLoad load = timing_detail::node_load(k, g, id, s);
    const NodePower t =
        node_power(ctx, id, load.direct, load.lc, load.lc_pins > 0);
    p.switching += t.switching;
    p.internal += t.internal;
    p.converter += t.converter;
    p.leakage += t.leakage;
    p.node_power[id] = t.total();
  });
  return p;
}

}  // namespace

NodePower node_power(const PowerContext& ctx, NodeId id, double direct_load,
                     double lc_load, bool lc_drives) {
  const Node& node = ctx.net->node(id);
  NodePower t;
  if (node.is_constant()) return t;  // never switches
  // Primary-input nets are charged to the upstream block that drives
  // them: no Vdd choice inside this design can change their energy, so
  // counting them would only dilute the improvement percentages.
  if (node.is_input()) return t;
  const Library& lib = *ctx.lib;
  const double a = ctx.alpha01[id];
  const double vdd = ctx.node_vdd[id];
  const double v2 = vdd * vdd;

  t.switching =
      a * ctx.freq_mhz * direct_load * v2 * kSwitchPowerToMicrowatt;

  if (node.is_gate() && node.cell >= 0) {
    const Cell& cell = lib.cell(node.cell);
    t.internal = a * ctx.freq_mhz * cell.internal_cap * v2 *
                 kSwitchPowerToMicrowatt;
    t.leakage = cell.leakage * lib.voltage_model().leakage_factor(vdd);
  }

  if (lc_drives) {
    DVS_ASSERT(lib.level_converter() >= 0);
    const Cell& lc_cell = lib.cell(lib.level_converter());
    // The converter's output stage and internal node run at Vdd_high;
    // it switches as often as its driver does.
    const double vh = lib.vdd_high();
    t.converter = a * ctx.freq_mhz * (lc_load + lc_cell.internal_cap) *
                      (vh * vh) * kSwitchPowerToMicrowatt +
                  lc_cell.leakage;
  }
  return t;
}

PowerBreakdown compute_power(const PowerContext& ctx) {
  DVS_EXPECTS(ctx.net != nullptr && ctx.lib != nullptr);
  const Network& net = *ctx.net;
  const int n = net.size();
  DVS_EXPECTS(static_cast<int>(ctx.node_vdd.size()) >= n);
  DVS_EXPECTS(static_cast<int>(ctx.alpha01.size()) >= n);
  // The loads come off ctx.graph when it is current, else off a
  // throwaway compilation.
  if (ctx.graph && ctx.graph->describes(net, *ctx.lib)) {
    ctx.graph->sync_cells();
    return sum_power(ctx, *ctx.graph);
  }
  return sum_power(ctx, TimingGraph(net, *ctx.lib));
}

PowerBreakdown compute_power(const Network& net, const Library& lib,
                             const Activity& activity, double freq_mhz) {
  std::vector<double> vdd(net.size(), lib.vdd_high());
  PowerContext ctx;
  ctx.net = &net;
  ctx.lib = &lib;
  ctx.node_vdd = vdd;
  ctx.alpha01 = activity.alpha01;
  ctx.freq_mhz = freq_mhz;
  return compute_power(ctx);
}

}  // namespace dvs
