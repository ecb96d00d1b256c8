#include "core/sweep_matrix.hpp"

#include <algorithm>
#include <future>
#include <limits>
#include <optional>
#include <utility>

#include "core/job.hpp"
#include "support/thread_pool.hpp"

namespace dvs {

namespace {

/// One fully-specified grid point, expanded before execution so cells
/// can run in any order and still land deterministically.
struct CellSpec {
  std::vector<double> supplies;
  double budget = 0.0;  // gscale cells only
  PaperAlgo algo = PaperAlgo::kCvs;
};

std::vector<CellSpec> expand(const SweepMatrixSpec& spec,
                             const Library& base_lib) {
  std::vector<std::vector<double>> ladders = spec.ladders;
  if (ladders.empty()) ladders.push_back(base_lib.supplies().voltages());
  std::vector<double> budgets = spec.area_budgets;
  if (budgets.empty()) budgets.push_back(spec.base.gscale.area_budget_ratio);

  std::vector<CellSpec> cells;
  for (const std::vector<double>& ladder : ladders) {
    SupplyLadder{ladder};  // validate up front: one bad ladder fails all
    for (PaperAlgo algo : spec.algos) {
      if (algo != PaperAlgo::kGscale)
        cells.push_back({ladder, 0.0, algo});
      else
        for (double budget : budgets) cells.push_back({ladder, budget, algo});
    }
  }
  return cells;
}

SweepCellResult run_cell(
    const std::function<Network(const Library&)>& source,
    const Library& base_lib, const SweepMatrixSpec& spec,
    const CellSpec& cell) {
  // The cell's operating point: the base library retargeted to the
  // cell's ladder (skipping the copy when it already matches).
  std::optional<Library> adjusted;
  const Library& lib =
      on_ladder(base_lib, SupplyLadder(cell.supplies), adjusted);
  const Network net = source(lib);

  // The suite engine's per-cell seed derivation and job runner, so a
  // sweep cell is comparable to the matching daemon / suite_bench cell.
  FlowOptions flow = derive_cell_flow(spec.base, spec.circuit_seed,
                                      cell.algo);
  if (cell.algo == PaperAlgo::kGscale)
    flow.gscale.area_budget_ratio = cell.budget;
  std::vector<JobCell> cells;
  cells.push_back(make_paper_cell(cell.algo, flow));
  const PipelineJobResult job =
      run_pipeline_job(net, lib, flow, std::move(cells));
  const PassStats& last = job.cells.front().run.passes.back();

  SweepCellResult out;
  out.supplies = cell.supplies;
  out.area_budget = cell.budget;
  out.algo = paper_algo_name(cell.algo);
  out.delay_penalty_pct =
      100.0 *
      (lib.voltage_model().delay_factor(lib.supplies().bottom()) - 1.0);
  out.gates = job.row.num_gates;
  out.tspec_ns = job.row.tspec_ns;
  out.org_power_uw = job.row.org_power_uw;
  out.power_uw = last.power_uw;
  out.improve_pct = job.cells.front().improve_pct;
  out.arrival_ns = last.arrival_ns;
  out.area_um2 = last.area_um2;
  out.low = last.low_gates;
  out.level_converters = last.level_converters;
  out.resized = job.row.gscale_resized;
  out.area_increase = job.row.gscale_area_increase;
  return out;
}

}  // namespace

std::vector<int> mark_pareto(std::vector<SweepCellResult>& cells) {
  // Sort-then-sweep over (power, arrival) ascending.  A cell is
  // dominated iff some other cell is no worse on both axes and strictly
  // better on one; exact duplicates therefore keep each other on the
  // front, which the equal-power grouping below preserves (a point can
  // only be knocked out by a *strictly* smaller arrival inside its own
  // power group, or by any earlier group's arrival <= its own).
  const std::size_t n = cells.size();
  std::vector<int> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (cells[a].power_uw != cells[b].power_uw)
      return cells[a].power_uw < cells[b].power_uw;
    return cells[a].arrival_ns < cells[b].arrival_ns;
  });
  double best_prev = std::numeric_limits<double>::infinity();
  std::size_t g = 0;
  while (g < n) {
    std::size_t end = g;
    while (end < n &&
           cells[order[end]].power_uw == cells[order[g]].power_uw)
      ++end;
    const double group_best = cells[order[g]].arrival_ns;  // sorted asc
    for (std::size_t k = g; k < end; ++k) {
      const double a = cells[order[k]].arrival_ns;
      cells[order[k]].pareto = best_prev > a && group_best >= a;
    }
    best_prev = std::min(best_prev, group_best);
    g = end;
  }
  std::vector<int> front;
  for (std::size_t i = 0; i < n; ++i)
    if (cells[i].pareto) front.push_back(static_cast<int>(i));
  return front;
}

SweepMatrixResult run_sweep_matrix(
    const std::function<Network(const Library&)>& source,
    const Library& base_lib, const SweepMatrixSpec& spec,
    ThreadPool* pool) {
  const std::vector<CellSpec> specs = expand(spec, base_lib);
  SweepMatrixResult result;
  result.cells.resize(specs.size());
  if (pool != nullptr && specs.size() > 1) {
    // One pool task per cell; the caller's thread (a session I/O thread
    // or a bench main) blocks on the futures, never a pool worker, so a
    // single-threaded pool cannot deadlock on its own sweep.
    std::vector<std::future<SweepCellResult>> futures(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      auto promise = std::make_shared<std::promise<SweepCellResult>>();
      futures[i] = promise->get_future();
      const CellSpec* cell = &specs[i];
      pool->submit([&source, &base_lib, &spec, cell, promise] {
        try {
          promise->set_value(run_cell(source, base_lib, spec, *cell));
        } catch (...) {
          promise->set_exception(std::current_exception());
        }
      });
    }
    for (std::size_t i = 0; i < specs.size(); ++i)
      result.cells[i] = futures[i].get();  // rethrows cell failures
  } else {
    for (std::size_t i = 0; i < specs.size(); ++i)
      result.cells[i] = run_cell(source, base_lib, spec, specs[i]);
  }
  result.pareto = mark_pareto(result.cells);
  return result;
}

Json sweep_matrix_json(const SweepMatrixResult& result) {
  Json::Array cells;
  for (const SweepCellResult& cell : result.cells) {
    Json::Object entry;
    Json::Array supplies;
    for (double v : cell.supplies) supplies.emplace_back(v);
    entry["supplies"] = Json(std::move(supplies));
    if (cell.algo == "gscale")
      entry["area_budget"] = Json(cell.area_budget);
    entry["algo"] = Json(cell.algo);
    entry["delay_penalty_pct"] = Json(cell.delay_penalty_pct);
    entry["gates"] = Json(cell.gates);
    entry["tspec_ns"] = Json(cell.tspec_ns);
    entry["org_power_uw"] = Json(cell.org_power_uw);
    entry["power_uw"] = Json(cell.power_uw);
    entry["improve_pct"] = Json(cell.improve_pct);
    entry["arrival_ns"] = Json(cell.arrival_ns);
    entry["area_um2"] = Json(cell.area_um2);
    entry["low"] = Json(cell.low);
    entry["level_converters"] = Json(cell.level_converters);
    entry["resized"] = Json(cell.resized);
    entry["area_increase"] = Json(cell.area_increase);
    entry["pareto"] = Json(cell.pareto);
    cells.emplace_back(std::move(entry));
  }
  Json::Object object;
  object["cells"] = Json(std::move(cells));
  Json::Array front;
  for (int i : result.pareto)
    front.emplace_back(static_cast<std::int64_t>(i));
  object["pareto"] = Json(std::move(front));
  object["count"] =
      Json(static_cast<std::uint64_t>(result.cells.size()));
  return Json(std::move(object));
}

}  // namespace dvs
