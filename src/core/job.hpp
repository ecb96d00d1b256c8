// The single-job flow runner: one mapped circuit through an ordered
// list of optimization-pass pipelines, producing one Table-1/2 row plus
// per-pass trajectories.  This is the ONE code path behind every driver
// — each matrix cell of the parallel suite engine (core/suite.cpp),
// each cell of the sweep grid (core/sweep_matrix.cpp), run_paper_flow,
// and every dvsd service request run through run_pipeline_job, so a
// result computed by the daemon is bit-identical to the same cell of a
// suite_bench run.
//
// The paper's three algorithms are not special-cased anywhere below
// this line: make_paper_cell compiles each into its canonical
// single-pass pipeline ("cvs", "dscale", "gscale"), and arbitrary
// registry pipelines run through exactly the same machinery.
//
// Seed discipline matches the suite engine: every stochastic knob is a
// pure function of (circuit seed, pipeline position) via
// derive_cell_flow and Pipeline::resolve_seeds, never of scheduling or
// request order.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "opt/pipeline.hpp"

namespace dvs {

/// One pipeline cell of a job.  `label` is "cvs"/"dscale"/"gscale" for
/// the canonical paper cells (those fill the legacy row columns), the
/// pass name for other single-pass pipelines, and "pipeline" for
/// multi-pass specs.
struct JobCell {
  std::string label;
  Pipeline pipeline;
};

const char* paper_algo_name(PaperAlgo algo);

/// The paper pipeline of one algorithm: its registry spec compiled by
/// make_pipeline_cell with `flow.activity.seed` as the circuit seed, so
/// `flow` must come from derive_cell_flow.
JobCell make_paper_cell(PaperAlgo algo, const FlowOptions& flow);

/// The cell of a spec'd pipeline: stochastic knobs the spec left unset
/// resolved from `circuit_seed`, labelled with the pass name when it
/// has one pass and "pipeline" otherwise.  The paper cells are this
/// function on the paper specs, which is what makes the protocol's
/// `algos` sugar.
JobCell make_pipeline_cell(Pipeline pipeline, std::uint64_t circuit_seed);

/// Result of one executed cell, keyed by cell position: the canonical
/// spec it ran, the per-pass trajectory, the final improvement over the
/// original power, and — when capture was requested — the final
/// optimized Design (voltage assignment, sizing, virtual converters).
struct JobCellResult {
  std::string label;
  std::string spec;
  double improve_pct = 0.0;
  PipelineRun run;
  std::optional<Design> design;
};

/// Copies a paper cell's single-pass stats into its row columns: the
/// cell labelled "cvs", "dscale" or "gscale" fills that algorithm's
/// columns, any other label none.  The values are read back exactly as
/// the pass computed them.
void fill_paper_columns(const JobCellResult& cell, CircuitRunResult* row);

struct PipelineJobResult {
  CircuitRunResult row;  // legacy columns filled from paper cells
  std::vector<JobCellResult> cells;  // same order as the request
};

/// Derives the per-cell flow options from a base configuration: the
/// activity seed is the circuit seed (shared by all algorithms of the
/// circuit, so they measure improvement against the same original
/// power); each pass resolves its own seeds from it.  This is the suite
/// engine's derivation, exposed so the service derives identically.
/// PaperAlgo is unused; it stays for perfbench/'s three-argument calls.
FlowOptions derive_cell_flow(const FlowOptions& base,
                             std::uint64_t circuit_seed, PaperAlgo);

/// Precomputed circuit-shared job state: init_flow_row's columns plus
/// the switching-activity estimate.  Both are pure functions of the
/// mapped circuit and the job-wide options (never of the per-algorithm
/// seeds), so one computation can be shared by every job the suite runs
/// on the same circuit — the values are identical to what each job would
/// compute itself.
struct JobInit {
  CircuitRunResult row;
  Activity activity;
};

/// Computes the shared state once (one STA for the constraint, one power
/// measurement, one activity estimate).
JobInit make_job_init(const Network& mapped, const Library& lib,
                      const FlowOptions& flow);

/// Runs every cell on a fresh copy of `mapped` (shared columns from
/// `base_flow`) and returns the filled row plus the per-cell results.
/// `capture_designs` moves each cell's final Design into its result.
/// `init`, when given, supplies the precomputed shared columns/activity
/// instead of recomputing them.
PipelineJobResult run_pipeline_job(const Network& mapped, const Library& lib,
                                   const FlowOptions& base_flow,
                                   std::vector<JobCell> cells,
                                   bool capture_designs = false,
                                   const JobInit* init = nullptr);

}  // namespace dvs
