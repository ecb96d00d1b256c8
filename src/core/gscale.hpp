// Gscale (paper §3): creates new timing slack by up-sizing gates so the
// CVS cluster can grow toward the primary inputs.  Each iteration extracts
// the critical-path network feeding the timing-critical boundary, weights
// every member by area-penalty-per-time-gained for a one-step upsize,
// resizes a minimum-weight separator of the CPN (every critical path sped
// up, no path resized twice), and re-runs CVS to push the TCB.  Stops when
// the area budget is exhausted, maxIter consecutive pushes fail to move
// the TCB, or (with the separator selector) a push changes nothing.
#pragma once

#include "core/cvs.hpp"
#include "core/design.hpp"
#include "graph/flow_network.hpp"

namespace dvs {

struct GscaleOptions {
  CvsOptions cvs;
  /// Maximum area increase over the original design (paper: 10%).
  double area_budget_ratio = 0.10;
  /// Consecutive TCB-pushes without movement before giving up (paper: 10).
  int max_iter = 10;
  /// Near-critical window for CPN extraction (ns).
  double cpn_window = 0.05;
  FlowAlgo flow_algo = FlowAlgo::kDinic;
  /// Separator-based cut selection; kRandomCut exists for the ablation
  /// benchmark (E4), resizing an equally-sized random CPN subset instead.
  enum class CutSelector { kMinWeightSeparator, kRandomCut } selector =
      CutSelector::kMinWeightSeparator;
  std::uint64_t random_cut_seed = 7;
  /// Disable sizing entirely (ablation: Gscale degenerates to CVS).
  bool enable_sizing = true;
};

struct GscaleResult {
  int cvs_lowered = 0;    // total gates lowered (initial + pushed CVS)
  int num_resized = 0;    // gates whose drive changed
  int iterations = 0;     // TCB-push iterations executed
  double area_increase_ratio = 0.0;  // final vs original area
};

GscaleResult run_gscale(Design& design, const GscaleOptions& options = {});

}  // namespace dvs
