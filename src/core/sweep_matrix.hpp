// The sweep-matrix engine: the supply-ladder x area-budget x algorithm
// experiment grid behind the dvsd `sweep` session verb, which reproduces
// the paper's E5 (Vlow) and E6 (Gscale area budget) experiments (README
// "ECO sessions").  Cells are independent (fresh library copy,
// fresh circuit, per-cell seeds derived with the suite engine's
// discipline), so they fan out on the ThreadPool and the result is
// bit-identical however they were scheduled.  Each cell is one
// make_paper_cell run through run_pipeline_job (core/job.hpp), so a
// cell at the base ladder and budget equals the matching suite cell.
//
// The circuit comes from a callback taking the cell's effective library:
// generator-backed sources rebuild (and re-map) the circuit at each
// ladder's operating point, while design sessions return a snapshot of
// the edited network whose mapping is pinned by construction.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "support/json.hpp"

namespace dvs {

class ThreadPool;

/// What to run: the grid axes and the shared flow configuration.
struct SweepMatrixSpec {
  /// Supply ladders to sweep (each strictly descending, validated by
  /// SupplyLadder).  Empty = just the base library's ladder.
  std::vector<std::vector<double>> ladders;
  /// Gscale area-budget axis.  Empty = just the base options' budget.
  /// Cvs/Dscale cells ignore it and run once per ladder.
  std::vector<double> area_budgets;
  /// Algorithm axis, in grid order.
  std::vector<PaperAlgo> algos = {PaperAlgo::kCvs, PaperAlgo::kDscale,
                                  PaperAlgo::kGscale};
  /// Base flow configuration; per-cell seeds are derived from
  /// (circuit_seed, algorithm) via derive_cell_flow, matching the suite
  /// engine and the daemon.
  FlowOptions base;
  std::uint64_t circuit_seed = 0x5eed;
};

/// One measured cell of the grid.
struct SweepCellResult {
  std::vector<double> supplies;
  double area_budget = 0.0;  // meaningful for gscale cells only
  std::string algo;
  /// Per-gate delay penalty of the ladder's bottom rung (percent).
  double delay_penalty_pct = 0.0;

  int gates = 0;
  double tspec_ns = 0.0;
  double org_power_uw = 0.0;
  double power_uw = 0.0;
  double improve_pct = 0.0;
  double arrival_ns = 0.0;
  double area_um2 = 0.0;
  int low = 0;
  int level_converters = 0;
  int resized = 0;
  double area_increase = 0.0;
  /// True when no other cell has both lower power and lower delay.
  bool pareto = false;
};

struct SweepMatrixResult {
  std::vector<SweepCellResult> cells;  // grid order: ladder, algo, budget
  std::vector<int> pareto;             // indices of the power/delay front
};

/// Marks the non-dominated cells of the (power, delay) minimization —
/// a cell is on the front iff no other cell is <= on both axes and
/// strictly < on at least one (exact duplicates stay on the front
/// together) — and returns the front's indices in grid order.
/// Sort-then-sweep, O(n log n); exposed for the membership-identity
/// tests against the quadratic pairwise definition.
std::vector<int> mark_pareto(std::vector<SweepCellResult>& cells);

/// Runs the grid.  `source` is called once per cell with the cell's
/// effective library and must return the circuit to optimize; it must be
/// thread-safe when `pool` is non-null (cells run concurrently).  A null
/// pool runs the cells serially on the calling thread; either way the
/// cells land in deterministic grid order.  Throws on invalid ladders.
SweepMatrixResult run_sweep_matrix(
    const std::function<Network(const Library&)>& source,
    const Library& base_lib, const SweepMatrixSpec& spec,
    ThreadPool* pool = nullptr);

/// {"cells":[...], "pareto":[...], "count":N} — the `sweep` reply body.
Json sweep_matrix_json(const SweepMatrixResult& result);

}  // namespace dvs
