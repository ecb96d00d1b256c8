#include "core/sizing.hpp"

#include <limits>

namespace dvs {

ResizeOption evaluate_upsize(const Design& design, const StaResult& sta,
                             NodeId id) {
  ResizeOption option;
  const Network& net = design.network();
  const Library& lib = design.library();
  const Node& gate = net.node(id);
  if (!gate.is_gate() || gate.cell < 0) return option;
  const int bigger = lib.upsize(gate.cell);
  if (bigger < 0) return option;  // already at maximum drive

  const Cell& now = lib.cell(gate.cell);
  const Cell& next = lib.cell(bigger);
  const double vdd = design.node_vdd()[id];
  const double vf = lib.voltage_model().delay_factor(vdd);
  const double load = sta.load[id];

  double worst_now = 0.0;
  double worst_next = 0.0;
  for (int pin = 0; pin < now.num_inputs(); ++pin) {
    const TimingArc& a = now.arcs[pin];
    const TimingArc& b = next.arcs[pin];
    worst_now = std::max(worst_now,
                         vf * std::max(a.intrinsic_rise +
                                           a.resistance_rise * load,
                                       a.intrinsic_fall +
                                           a.resistance_fall * load));
    worst_next = std::max(worst_next,
                          vf * std::max(b.intrinsic_rise +
                                            b.resistance_rise * load,
                                        b.intrinsic_fall +
                                            b.resistance_fall * load));
  }
  option.new_cell = bigger;
  option.delay_gain = worst_now - worst_next;
  option.area_penalty = next.area - now.area;
  option.available = option.delay_gain > 1e-9;
  option.weight = option.available
                      ? option.area_penalty / option.delay_gain
                      : std::numeric_limits<double>::infinity();
  return option;
}

}  // namespace dvs
