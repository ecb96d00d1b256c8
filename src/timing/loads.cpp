#include "timing/loads.hpp"

#include "support/contracts.hpp"
#include "timing/arc_eval.hpp"
#include "timing/graph.hpp"

namespace dvs {

namespace {

NodeLoads compute_loads_on(const LoadContext& ctx, const TimingGraph& g) {
  const int n = ctx.net->size();
  DVS_EXPECTS(static_cast<int>(ctx.node_vdd.size()) >= n);
  NodeLoads loads;
  loads.direct.assign(n, 0.0);
  loads.lc.assign(n, 0.0);
  loads.lc_fanout_pins.assign(n, 0);
  const timing_detail::Recipe k(*ctx.lib, ctx.output_port_load);
  const timing_detail::SupplyView s{ctx.node_vdd, ctx.lc_on_output};
  for (NodeId u : g.topo_order()) {
    const timing_detail::NodeLoad load = timing_detail::node_load(k, g, u, s);
    loads.direct[u] = load.direct;
    loads.lc[u] = load.lc;
    loads.lc_fanout_pins[u] = load.lc_pins;
  }
  return loads;
}

}  // namespace

NodeLoads compute_loads(const LoadContext& ctx) {
  DVS_EXPECTS(ctx.net != nullptr && ctx.lib != nullptr);
  if (ctx.graph && ctx.graph->describes(*ctx.net, *ctx.lib)) {
    ctx.graph->sync_cells();
    return compute_loads_on(ctx, *ctx.graph);
  }
  const TimingGraph local(*ctx.net, *ctx.lib);
  return compute_loads_on(ctx, local);
}

}  // namespace dvs
