#include "timing/tcb.hpp"

#include <vector>

#include "support/contracts.hpp"

namespace dvs {

std::vector<NodeId> compute_tcb(const TimingContext& ctx,
                                const StaResult& sta) {
  const Network& net = *ctx.net;
  DVS_EXPECTS(static_cast<int>(ctx.node_level.size()) >= net.size());
  const std::span<const SupplyId> level = ctx.node_level;
  const SupplyLadder& ladder = ctx.lib->supplies();
  const SupplyId deepest = ladder.deepest();
  const std::vector<double> factor =
      ladder.delay_factors(ctx.lib->voltage_model());

  std::vector<char> drives_port(net.size(), 0);
  for (const OutputPort& port : net.outputs()) drives_port[port.driver] = 1;

  std::vector<NodeId> tcb;
  net.for_each_gate([&](const Node& n) {
    const SupplyId cur = level[n.id];
    if (cur == deepest) return;  // already on the deepest rung
    bool adjacent_to_low = drives_port[n.id] != 0;
    for (NodeId fo : n.fanouts)
      if (level[fo] > cur) adjacent_to_low = true;
    if (!adjacent_to_low) return;
    // Can it drop one rung within its own slack?  An unmapped gate
    // cannot deepen, so it always belongs to the TCB.
    if (n.cell < 0 ||
        worst_delay_increase(factor[cur], factor[cur + 1],
                             ctx.lib->cell(n.cell), sta.load[n.id]) >
            sta.slack[n.id] + 1e-12)
      tcb.push_back(n.id);
  });
  return tcb;
}

}  // namespace dvs
