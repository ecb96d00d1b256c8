// Parallel benchmark-suite engine: fans the full MCNC suite x
// {CVS, Dscale, Gscale} matrix across a work-stealing thread pool and
// aggregates the per-circuit rows into the paper's Table 1 / Table 2
// reports plus a machine-readable JSON document (BENCH_suite.json).
//
// run_suite and run_pipeline_suite are two views of one matrix engine:
// each circuit is built once and its shared columns (tspec, original
// power, activity) computed once, then every (circuit, column) task
// runs one job cell through run_pipeline_job.  Every RNG seed derives
// deterministically from (suite seed, circuit seed, algorithm or
// pipeline position), so results are bit-identical regardless of thread
// count or scheduling — `num_threads = 1` is the serial reference path
// and N-thread runs must reproduce it exactly (suite_test.cpp holds the
// engine to that).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "opt/pipeline.hpp"
#include "support/paper_ref.hpp"

namespace dvs {

struct McncDescriptor;

struct SuiteOptions {
  /// Base flow configuration; per-task seeds are derived on top of it.
  FlowOptions flow;
  /// Circuits to run (MCNC names); empty = the full 39-circuit suite.
  std::vector<std::string> circuits;
  /// Skip circuits with more gates than this (0 = run everything).
  int max_gates = 0;
  /// Worker threads (1 = serial reference, 0 = hardware concurrency).
  int num_threads = 0;
  /// Root seed every per-task seed is mixed from.
  std::uint64_t seed = 0x5eed;
  /// Supply-ladder voltages to run the matrix at (strictly descending,
  /// validated through SupplyLadder).  Empty = the library's ladder.
  std::vector<double> supplies;
};

struct SuiteReport {
  std::vector<CircuitRunResult> rows;  // suite order, one per circuit
  std::vector<std::optional<PaperRow>> papers;  // aligned with rows
  /// Full ladder the matrix ran at; vdd_high/vdd_low are its top and
  /// bottom rungs (the legacy dual-Vdd header columns).
  std::vector<double> supplies;
  double vdd_high = 0.0;
  double vdd_low = 0.0;
  int num_threads = 0;
  double wall_seconds = 0.0;

  /// Paper-layout tables over the aggregated rows.
  std::string table1() const;
  std::string table2() const;
  /// The BENCH_suite.json document (schema "dvs-bench-suite-v1"; see
  /// README.md for the field list).
  std::string to_json() const;
};

/// Runs the matrix.  `lib` defaults to the compass library at the
/// paper's (5.0V, 4.3V) when null.
SuiteReport run_suite(const SuiteOptions& options = {},
                      const Library* lib = nullptr);

/// Per-cell flow options of one (circuit, algorithm) matrix cell: every
/// seed is a pure function of (suite seed, circuit seed, algorithm),
/// never of scheduling order.  Exposed so the dvsd service derives the
/// exact same options for named-circuit and batch requests — equality
/// with a suite_bench run at the same seed is a protocol guarantee.
FlowOptions suite_task_flow(const SuiteOptions& options,
                            const McncDescriptor& descriptor,
                            PaperAlgo algo);

// ---- pipeline matrices -----------------------------------------------------
// The same engine with spec'd columns: the matrix is circuits x pipeline
// specs instead of circuits x the three paper algorithms.  Every pass knob comes from the spec itself (that is what
// makes a spec's canonical form the cell's full identity) — the
// per-algorithm structs in SuiteOptions::flow are deliberately not
// consulted; only the shared knobs (activity, freq_mhz, tspec_relax)
// are.  With those spec'd or defaulted knobs matching, the canonical
// single-pass specs ("cvs", "dscale", "gscale") reproduce the legacy
// matrix cells bit-identically (pipeline_test.cpp holds the engine to
// that); arbitrary specs open hybrid flows like
// "cvs | gscale(area_budget=0.05) | dscale" across the whole suite.

/// One (circuit, pipeline) cell: shared columns plus the executed
/// pipeline's per-pass trajectory.
struct PipelineSuiteCell {
  std::string circuit;
  int num_gates = 0;
  double tspec_ns = 0.0;
  double org_power_uw = 0.0;
  std::string label;       // pass name / "pipeline"
  std::string spec;        // canonical spec of the executed (resolved) cell
  double improve_pct = 0.0;
  PipelineRun run;
};

struct PipelineSuiteReport {
  std::vector<std::string> specs;        // canonical, one per request spec
  std::vector<PipelineSuiteCell> cells;  // circuit-major, spec-minor
  int num_threads = 0;
  double wall_seconds = 0.0;

  /// Human-readable matrix with one trajectory line per executed pass.
  std::string table() const;
  /// Machine-readable document (schema "dvs-bench-pipeline-v1").
  std::string to_json() const;
};

/// Runs the circuits x `pipelines` matrix on the thread pool with the
/// suite engine's determinism contract: every stochastic knob derives
/// from (suite seed, circuit seed, pipeline position), never from
/// scheduling.  The per-algorithm structs in `options.flow` are ignored
/// (pass knobs belong to the spec, see above); circuit selection,
/// threads, the root seed, and the shared flow knobs (activity vectors,
/// freq_mhz, tspec_relax) come from `options` as in run_suite.  This is
/// also how to run a subset of the paper columns: pass their specs.
PipelineSuiteReport run_pipeline_suite(
    const SuiteOptions& options, const std::vector<std::string>& pipelines,
    const Library* lib = nullptr);

}  // namespace dvs
