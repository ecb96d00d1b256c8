#include "core/job.hpp"

#include <utility>

#include "support/contracts.hpp"

namespace dvs {

const char* paper_algo_name(PaperAlgo algo) {
  switch (algo) {
    case PaperAlgo::kCvs: return "cvs";
    case PaperAlgo::kDscale: return "dscale";
    case PaperAlgo::kGscale: return "gscale";
  }
  return "?";
}

JobCell make_paper_cell(PaperAlgo algo, const FlowOptions& flow) {
  return make_pipeline_cell(Pipeline::parse(paper_algo_name(algo)),
                            flow.activity.seed);
}

JobCell make_pipeline_cell(Pipeline pipeline, std::uint64_t circuit_seed) {
  pipeline.resolve_seeds(circuit_seed);
  JobCell cell;
  cell.label = pipeline.size() == 1 ? pipeline.pass(0).name()
                                    : std::string("pipeline");
  cell.pipeline = std::move(pipeline);
  return cell;
}

void fill_paper_columns(const JobCellResult& cell, CircuitRunResult* row) {
  const PassStats& last = cell.run.passes.back();
  if (cell.label == "cvs") {
    row->cvs_low = last.low_gates;
    row->cvs_improve_pct = cell.improve_pct;
  } else if (cell.label == "dscale") {
    row->dscale_low = last.low_gates;
    row->dscale_lcs = last.level_converters;
    row->dscale_improve_pct = cell.improve_pct;
  } else if (cell.label == "gscale") {
    row->gscale_low = last.low_gates;
    row->gscale_resized =
        static_cast<int>(last.details.at("resized").as_int());
    row->gscale_area_increase = last.details.at("area_increase").as_double();
    row->gscale_seconds = last.cpu_seconds;
    row->gscale_improve_pct = cell.improve_pct;
  }
}

FlowOptions derive_cell_flow(const FlowOptions& base,
                             std::uint64_t circuit_seed,
                             PaperAlgo /*algo*/) {
  FlowOptions flow = base;
  flow.activity.seed = circuit_seed;
  return flow;
}

JobInit make_job_init(const Network& mapped, const Library& lib,
                      const FlowOptions& flow) {
  JobInit init;
  init_flow_row(mapped, lib, flow, &init.row, &init.activity);
  return init;
}

PipelineJobResult run_pipeline_job(const Network& mapped, const Library& lib,
                                   const FlowOptions& base_flow,
                                   std::vector<JobCell> cells,
                                   bool capture_designs,
                                   const JobInit* init) {
  PipelineJobResult out;
  // Activity depends only on the logic and the job-wide options, so the
  // estimate paid for by the original-power measurement is shared by
  // every cell instead of being recomputed per Design — and by every
  // job of the same circuit when the caller hands in a JobInit.
  Activity activity;
  if (init != nullptr) {
    out.row = init->row;
    activity = init->activity;
  } else {
    init_flow_row(mapped, lib, base_flow, &out.row, &activity);
  }
  out.cells.reserve(cells.size());
  for (JobCell& cell : cells) {
    DVS_EXPECTS(!cell.pipeline.empty());
    Design design =
        make_flow_design(mapped, lib, base_flow, out.row.tspec_ns);
    design.adopt_activity(activity);
    JobCellResult result;
    result.label = cell.label;
    result.spec = cell.pipeline.canonical_spec();
    result.run = cell.pipeline.run(design);
    result.improve_pct = improvement_pct(out.row.org_power_uw,
                                         result.run.passes.back().power_uw);
    if (cell.pipeline.size() == 1) fill_paper_columns(result, &out.row);
    if (capture_designs) result.design.emplace(std::move(design));
    out.cells.push_back(std::move(result));
  }
  return out;
}

CircuitRunResult run_paper_flow(const Network& mapped, const Library& lib,
                                const FlowOptions& options) {
  std::vector<JobCell> cells;
  for (PaperAlgo algo : kPaperAlgos)
    cells.push_back(make_paper_cell(algo, options));
  return run_pipeline_job(mapped, lib, options, std::move(cells)).row;
}

}  // namespace dvs
