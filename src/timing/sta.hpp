// Static timing analysis with rise/fall arrival and required times over
// pin-to-pin, load-dependent timing arcs, at per-node supply voltages,
// including virtual level converters on low->high boundaries.
//
// The STA is deliberately decoupled from the dual-Vdd bookkeeping in
// src/core: callers describe the operating state with a TimingContext of
// plain spans.  `run_sta(net, lib, ...)` is a convenience for the uniform
// single-supply case.
#pragma once

#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "library/library.hpp"
#include "netlist/network.hpp"

namespace dvs {

class TimingGraph;

struct RiseFall {
  double rise = 0.0;
  double fall = 0.0;

  double max() const { return rise > fall ? rise : fall; }
  double min() const { return rise < fall ? rise : fall; }
};

/// Everything the STA needs to know about the current operating state.
struct TimingContext {
  const Network* net = nullptr;
  const Library* lib = nullptr;
  /// Supply voltage per node id (dead slots ignored).
  std::span<const double> node_vdd;
  /// Supply-ladder rung per node id.  The STA itself reads `node_vdd`;
  /// the TCB (timing/tcb.hpp) requires this span.
  std::span<const SupplyId> node_level;
  /// True when a level converter sits on this node's output, carrying its
  /// arcs into higher-voltage fanouts.
  std::span<const char> lc_on_output;
  /// Capacitive load charged to each driven primary-output port (fF).
  double output_port_load = 25.0;
  /// Compiled flat view of `net` (timing/graph.hpp).  When present and
  /// current it carries the hot loops; when absent or stale the analysis
  /// compiles a throwaway graph, so results never depend on freshness.
  const TimingGraph* graph = nullptr;
  /// Keeps `graph` alive for consumers that retain the context past the
  /// provider's next recompile (IncrementalSta stores its context; the
  /// provider — e.g. Design — may replace its cached graph after a
  /// structural edit while the engine still probes the old one for
  /// staleness).  Analyses that use the context transiently ignore it.
  std::shared_ptr<const TimingGraph> graph_owner;
};

struct StaResult {
  /// Arrival at each node's output (ns); inputs arrive at t=0.
  std::vector<RiseFall> arrival;
  /// Arrival at the output of a node's level converter, where present.
  std::vector<RiseFall> lc_arrival;
  /// Required time at each node's output.
  std::vector<RiseFall> required;
  /// min(required - arrival) over rise/fall, per node.
  std::vector<double> slack;
  /// Load seen by the node's own output stage / by its LC (fF).
  std::vector<double> load;
  std::vector<double> lc_load;

  double tspec = 0.0;
  double worst_arrival = 0.0;

  bool meets_constraint(double eps = 1e-9) const {
    return worst_arrival <= tspec + eps;
  }
  double worst_slack() const { return tspec - worst_arrival; }
};

/// Full timing analysis.  `tspec` is the required time at every primary
/// output; pass a negative value to use the measured worst arrival (zero
/// worst slack), which is how the minimum-delay reference is taken.
StaResult run_sta(const TimingContext& ctx, double tspec);

/// Uniform single-supply convenience overload (all nodes at vdd_high, no
/// level converters).
StaResult run_sta(const Network& net, const Library& lib, double tspec);

/// Delay of `node`'s arc from `pin` at supply `vdd` into load `load_ff`.
/// Returned as the output-edge (rise, fall) pair.
RiseFall arc_delay(const Library& lib, const Cell& cell, int pin,
                   double vdd, double load_ff);

/// Worst (max over pins and edges) increase in this node's pin-to-pin
/// delay when its supply changes from `vdd_from` to `vdd_to` at load
/// `load_ff`.  Used by the voltage-scaling candidate checks (any rung
/// pair of the ladder).
double worst_delay_increase(const Library& lib, const Cell& cell,
                            double vdd_from, double vdd_to, double load_ff);

/// Same check with the two voltage delay factors already evaluated —
/// sweeps over many gates at a fixed supply pair hoist the model calls.
double worst_delay_increase(double factor_from, double factor_to,
                            const Cell& cell, double load_ff);

}  // namespace dvs
