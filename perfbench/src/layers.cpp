// Per-layer probe of the library: the benchmark's own timed calls into
// each layer's public entry point, over a workload's circuit set.
#include <optional>

#include "bench.hpp"
#include "core/design.hpp"
#include "core/job.hpp"
#include "core/suite.hpp"
#include "netlist/blif.hpp"
#include "power/activity.hpp"
#include "timing/graph.hpp"
#include "timing/sta.hpp"

namespace perfbench {
namespace {

/// Deterministic work counts of one pass over the set; they must repeat
/// exactly from pass to pass.
struct WorkCounts {
  long cvs_lowered = 0;
  long dscale_rounds = 0;
  long dscale_mwis_lowered = 0;
  long gscale_iterations = 0;
  long gscale_resized = 0;
  double saving_cvs = 0, saving_dscale = 0, saving_gscale = 0;
  double area_increase = 0;

  bool operator==(const WorkCounts&) const = default;
};

long detail(const dvs::PipelineJobResult& job, const char* key) {
  return static_cast<long>(
      job.cells.front().run.passes.front().details.at(key).as_int());
}

/// Copies one paper cell's columns into the circuit row, as the suite
/// engine merges its matrix cells.
void merge_cell(dvs::PaperAlgo algo, const dvs::CircuitRunResult& cell,
                dvs::CircuitRunResult* row) {
  switch (algo) {
    case dvs::PaperAlgo::kCvs:
      row->cvs_low = cell.cvs_low;
      row->cvs_improve_pct = cell.cvs_improve_pct;
      break;
    case dvs::PaperAlgo::kDscale:
      row->dscale_low = cell.dscale_low;
      row->dscale_lcs = cell.dscale_lcs;
      row->dscale_improve_pct = cell.dscale_improve_pct;
      break;
    case dvs::PaperAlgo::kGscale:
      row->gscale_low = cell.gscale_low;
      row->gscale_resized = cell.gscale_resized;
      row->gscale_area_increase = cell.gscale_area_increase;
      row->gscale_improve_pct = cell.gscale_improve_pct;
      row->gscale_seconds = cell.gscale_seconds;
      break;
  }
}

}  // namespace

void probe_library_layers(
    const dvs::Library& lib,
    const std::vector<const dvs::McncDescriptor*>& circuits,
    std::uint64_t seed, const std::vector<std::string>& blifs,
    double min_seconds, Result* result,
    std::vector<CircuitSample>* layered) {
  dvs::SuiteOptions suite;
  suite.num_threads = 1;
  suite.seed = seed;
  for (const dvs::McncDescriptor* d : circuits)
    suite.circuits.push_back(d->name);
  const dvs::PaperAlgo algos[] = {dvs::PaperAlgo::kCvs,
                                  dvs::PaperAlgo::kDscale,
                                  dvs::PaperAlgo::kGscale};
  const double n = static_cast<double>(circuits.size());

  std::vector<double> legacy_s, pipeline_s, build_ms, init_ms, activity_ms,
      compile_ms, sta_ms, blif_ms;
  std::vector<double> algo_ms[3];
  std::optional<WorkCounts> first;
  const Clock::time_point start = Clock::now();
  for (int pass = 0; pass < 2 || ms_since(start) < 1000.0 * min_seconds;
       ++pass) {
    Clock::time_point t = Clock::now();
    const dvs::SuiteReport legacy = dvs::run_suite(suite, &lib);
    legacy_s.push_back(ms_since(t) / 1000.0);

    t = Clock::now();
    const dvs::PipelineSuiteReport pipeline =
        dvs::run_pipeline_suite(suite, {"cvs", "dscale", "gscale"}, &lib);
    pipeline_s.push_back(ms_since(t) / 1000.0);
    for (std::size_t i = 0; i < legacy.rows.size(); ++i) {
      const dvs::CircuitRunResult& row = legacy.rows[i];
      const double expect[] = {row.cvs_improve_pct, row.dscale_improve_pct,
                               row.gscale_improve_pct};
      for (int k = 0; k < 3; ++k)
        if (pipeline.cells[3 * i + k].improve_pct != expect[k])
          result->fail("pipeline matrix: " + row.name + " cell " +
                       std::to_string(k) + " differs from run_suite");
    }

    WorkCounts counts;
    std::vector<std::string> written;
    for (std::size_t i = 0; i < circuits.size(); ++i) {
      const dvs::McncDescriptor& d = *circuits[i];
      t = Clock::now();
      const dvs::Network net = dvs::build_mcnc_circuit(lib, d);
      const double build = ms_since(t);
      const dvs::FlowOptions flow =
          dvs::suite_task_flow(suite, d, dvs::PaperAlgo::kCvs);
      t = Clock::now();
      const dvs::JobInit init = dvs::make_job_init(net, lib, flow);
      const double job_init = ms_since(t);
      build_ms.push_back(build);
      init_ms.push_back(job_init);

      t = Clock::now();
      const dvs::Activity activity =
          dvs::estimate_activity(net, flow.activity);
      activity_ms.push_back(ms_since(t));
      t = Clock::now();
      const dvs::TimingGraph graph(net, lib);
      compile_ms.push_back(ms_since(t));
      const dvs::Design design =
          dvs::make_flow_design(net, lib, flow, init.row.tspec_ns);
      design.timing_graph();  // compile outside the timed STA
      t = Clock::now();
      const dvs::StaResult sta =
          dvs::run_sta(design.timing_context(), init.row.tspec_ns);
      sta_ms.push_back(ms_since(t));
      // The unoptimized circuit meets the constraint frozen at its delay.
      if (activity.alpha01.size() != static_cast<std::size_t>(net.size()) ||
          !(sta.worst_arrival > 0 &&
            sta.worst_arrival <= init.row.tspec_ns + 1e-9))
        result->fail(std::string("layer probe: ") + d.name +
                     ": activity or STA disagrees with job init");

      dvs::CircuitRunResult row = init.row;
      double circuit_ms = build + job_init;
      for (int k = 0; k < 3; ++k) {
        const dvs::FlowOptions cell_flow =
            dvs::suite_task_flow(suite, d, algos[k]);
        std::vector<dvs::JobCell> cell;
        cell.push_back(dvs::make_paper_cell(algos[k], cell_flow));
        t = Clock::now();
        const dvs::PipelineJobResult job = dvs::run_pipeline_job(
            net, lib, cell_flow, std::move(cell), false, &init);
        const double ms = ms_since(t);
        algo_ms[k].push_back(ms);
        circuit_ms += ms;
        merge_cell(algos[k], job.row, &row);
        switch (algos[k]) {
          case dvs::PaperAlgo::kCvs:
            counts.cvs_lowered += detail(job, "lowered");
            break;
          case dvs::PaperAlgo::kDscale:
            counts.dscale_rounds += detail(job, "rounds");
            counts.dscale_mwis_lowered += detail(job, "mwis_lowered");
            break;
          case dvs::PaperAlgo::kGscale:
            counts.gscale_iterations += detail(job, "iterations");
            counts.gscale_resized += detail(job, "resized");
            break;
        }
      }
      if (layered) layered->push_back({d.gates, circuit_ms});
      if (comparable_row(row) != comparable_row(legacy.rows[i]))
        result->fail("layer probe: " + std::string(d.name) +
                     ": layered row differs from run_suite");
      counts.saving_cvs += row.cvs_improve_pct / n;
      counts.saving_dscale += row.dscale_improve_pct / n;
      counts.saving_gscale += row.gscale_improve_pct / n;
      counts.area_increase += 100.0 * row.gscale_area_increase / n;
      if (blifs.empty()) written.push_back(dvs::write_blif_string(net));
    }
    for (const std::string& text : blifs.empty() ? written : blifs) {
      t = Clock::now();
      const dvs::Network parsed = dvs::read_blif_string(text);
      blif_ms.push_back(ms_since(t));
      if (parsed.num_gates() == 0) result->fail("BLIF parse: no gates");
    }

    if (!first)
      first = counts;
    else if (!(counts == *first))
      result->fail("layer probe: work counts differ between passes");
  }

  result->metric("benchgen.build_ms", mean(build_ms), "ms");
  result->metric("core.job_init_ms", mean(init_ms), "ms");
  result->metric("power.activity_ms", mean(activity_ms), "ms");
  result->metric("timing.compile_ms", mean(compile_ms), "ms");
  result->metric("timing.sta_ms", mean(sta_ms), "ms");
  result->metric("core.cvs_ms", mean(algo_ms[0]), "ms");
  result->metric("core.dscale_ms", mean(algo_ms[1]), "ms");
  result->metric("core.gscale_ms", mean(algo_ms[2]), "ms");
  result->metric("core.cvs.lowered", first->cvs_lowered, "count");
  result->metric("core.dscale.rounds", first->dscale_rounds, "count");
  result->metric("core.dscale.mwis_lowered", first->dscale_mwis_lowered,
                 "count");
  result->metric("core.gscale.iterations", first->gscale_iterations,
                 "count");
  result->metric("core.gscale.resized", first->gscale_resized, "count");
  result->metric("core.saving_pct.cvs", first->saving_cvs, "%");
  result->metric("core.saving_pct.dscale", first->saving_dscale, "%");
  result->metric("core.saving_pct.gscale", first->saving_gscale, "%");
  result->metric("core.area_increase_pct.gscale", first->area_increase, "%");
  result->metric("core.suite_matrix_s", percentile(legacy_s, 50), "s");
  result->metric("opt.pipeline_matrix_s", percentile(pipeline_s, 50), "s");
  result->metric("netlist.blif_parse_ms", mean(blif_ms), "ms");
}

}  // namespace perfbench
