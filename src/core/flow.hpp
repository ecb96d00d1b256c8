// End-to-end experiment driver reproducing the paper's §4 setup: given a
// mapped circuit, fix the timing constraint at the mapped delay (the paper
// maps at minimum delay, relaxes 20%, re-maps with area recovery, and then
// constrains at the resulting delay), measure the original power with
// random simulation, and run CVS / Dscale / Gscale each from a fresh copy.
#pragma once

#include <string>

#include "core/cvs.hpp"
#include "core/design.hpp"
#include "core/dscale.hpp"
#include "core/gscale.hpp"

namespace dvs {

struct FlowOptions {
  CvsOptions cvs;
  DscaleOptions dscale;
  GscaleOptions gscale;
  ActivityOptions activity;
  double freq_mhz = 20.0;
  /// Extra slack handed to the algorithms on top of the mapped delay
  /// (0.0 = the paper's setup: the mapped delay *is* the constraint).
  double tspec_relax = 0.0;
};

/// One row of Table 1 + Table 2, measured.
struct CircuitRunResult {
  std::string name;
  int num_gates = 0;
  double tspec_ns = 0.0;

  double org_power_uw = 0.0;
  double cvs_improve_pct = 0.0;
  double dscale_improve_pct = 0.0;
  double gscale_improve_pct = 0.0;

  int cvs_low = 0;
  int dscale_low = 0;
  int gscale_low = 0;
  int gscale_resized = 0;
  int dscale_lcs = 0;
  double gscale_area_increase = 0.0;
  double gscale_seconds = 0.0;

  double cvs_low_ratio() const {
    return num_gates ? static_cast<double>(cvs_low) / num_gates : 0.0;
  }
  double dscale_low_ratio() const {
    return num_gates ? static_cast<double>(dscale_low) / num_gates : 0.0;
  }
  double gscale_low_ratio() const {
    return num_gates ? static_cast<double>(gscale_low) / num_gates : 0.0;
  }
};

/// The three optimization algorithms of the paper, as enumerable steps so
/// drivers (and the parallel suite engine) can run any matrix cell alone.
enum class PaperAlgo { kCvs, kDscale, kGscale };

/// All three, in the paper's column order (the order every report uses).
inline constexpr PaperAlgo kPaperAlgos[] = {
    PaperAlgo::kCvs, PaperAlgo::kDscale, PaperAlgo::kGscale};

/// Fills the shared columns of a row: name, gate count, the timing
/// constraint frozen at the mapped delay, and the original (all-high)
/// power.  Every pipeline cell of the matrix starts from this state.
/// Switching activity is a function of the logic alone, so the estimate
/// the original-power measurement already paid for can be handed out via
/// `activity_out` and adopted by every per-cell Design of the same job
/// (Design::adopt_activity) instead of being recomputed per cell.
void init_flow_row(const Network& mapped, const Library& lib,
                   const FlowOptions& options, CircuitRunResult* row,
                   Activity* activity_out = nullptr);

/// Fresh per-cell starting state: the mapped circuit with every gate at
/// vdd_high, the activity options / frequency applied, and the timing
/// constraint frozen at `tspec`.
Design make_flow_design(const Network& mapped, const Library& lib,
                        const FlowOptions& options, double tspec);

/// 100 * (original - optimized) / original, 0 when original is 0.
double improvement_pct(double original, double optimized);

/// Runs the full paper flow on one mapped circuit: the three canonical
/// paper cells through run_pipeline_job (see core/job.hpp).
CircuitRunResult run_paper_flow(const Network& mapped, const Library& lib,
                                const FlowOptions& options = {});

}  // namespace dvs
