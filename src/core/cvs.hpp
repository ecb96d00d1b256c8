// Clustered Voltage Scaling (Usami & Horowitz, ISLPED'95) — the paper's
// baseline and the inner engine of Gscale, generalized to the supply
// ladder.  Traverses from the primary outputs; a gate may drop to the
// deepest rung that is (a) no deeper than any of its gate fanouts
// (keeping each cluster contingent to the POs, so no internal level
// converter is ever needed) and (b) within its slack.  On the default
// dual ladder this is exactly the paper's high->low test.
#pragma once

#include <vector>

#include "core/design.hpp"

namespace dvs {

class IncrementalSta;

struct CvsOptions {
  /// Safety margin subtracted from the slack before accepting (ns).
  double slack_margin = 1e-9;
};

struct CvsResult {
  int num_lowered = 0;  // gates lowered by this invocation
  /// Timing-critical boundary at exit (see timing/tcb.hpp).
  std::vector<NodeId> tcb;
};

/// Runs CVS on the design's current state; safe to call repeatedly (Gscale
/// re-invokes it after every sizing step to push the TCB).  Builds a
/// private incremental timer, i.e. one full analysis per call.
CvsResult run_cvs(Design& design, const CvsOptions& options = {});

/// The same walk over a caller-kept timer, which must describe `design`'s
/// current state (built from its timing_context() at its tspec, and
/// notified of every change since) and is left describing the result.
/// Gscale keeps one timer across its initial CVS, every sizing push and
/// every push's CVS; Dscale shares one between its initial CVS, its
/// rounds and its trim — so a whole flow run builds one timer.
CvsResult run_cvs(Design& design, const CvsOptions& options,
                  IncrementalSta& timer);

/// Invariant checker used by tests: no gate sits deeper than any of its
/// gate fanouts (cluster contingency), and no level converter flag is set.
bool cvs_cluster_invariant_holds(const Design& design);

}  // namespace dvs
