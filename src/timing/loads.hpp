// Capacitive load computation shared by the STA and the power model.
// Splits each driver's load into the part it drives directly and the part
// behind its level converter (fanout pins at a higher supply).
#pragma once

#include <vector>

#include "library/library.hpp"
#include "netlist/network.hpp"

namespace dvs {

class TimingGraph;

struct LoadContext {
  const Network* net = nullptr;
  const Library* lib = nullptr;
  std::span<const double> node_vdd;
  std::span<const char> lc_on_output;
  double output_port_load = 25.0;
  /// Optional compiled graph, used when current.
  const TimingGraph* graph = nullptr;
};

struct NodeLoads {
  std::vector<double> direct;  // fF seen by the node's own output stage
  std::vector<double> lc;      // fF seen by its level converter (0 if none)
  std::vector<int> lc_fanout_pins;  // #fanout pins rerouted through the LC
};

/// Per-node load split under `ctx`, over ctx.graph when it is current and
/// over a throwaway compilation otherwise.
NodeLoads compute_loads(const LoadContext& ctx);

}  // namespace dvs
