#include "core/suite.hpp"

#include <chrono>
#include <cstdio>
#include <functional>
#include <iterator>
#include <mutex>
#include <optional>
#include <sstream>

#include "benchgen/mcnc.hpp"
#include "core/job.hpp"
#include "core/report.hpp"
#include "library/library.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace dvs {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::vector<const McncDescriptor*> select_circuits(
    const SuiteOptions& options) {
  std::vector<const McncDescriptor*> selected;
  if (options.circuits.empty()) {
    for (const McncDescriptor& d : mcnc_suite()) selected.push_back(&d);
  } else {
    for (const std::string& name : options.circuits) {
      const McncDescriptor* d = find_mcnc(name);
      DVS_EXPECTS(d != nullptr);
      selected.push_back(d);
    }
  }
  if (options.max_gates > 0) {
    std::erase_if(selected, [&](const McncDescriptor* d) {
      return d->gates > options.max_gates;
    });
  }
  return selected;
}

/// One executed circuits x columns matrix.
struct MatrixRun {
  std::vector<const McncDescriptor*> circuits;
  std::vector<double> supplies;         // the ladder the matrix ran at
  std::vector<PipelineJobResult> jobs;  // circuit-major, column-minor
  int num_threads = 0;
  double wall_seconds = 0.0;
};

/// Builds the job cell of one (circuit, column) task.
using CellFactory =
    std::function<JobCell(const McncDescriptor& descriptor, int column)>;

/// The one matrix engine behind run_suite and run_pipeline_suite: every
/// (circuit, column) task runs the cell `make_cell` builds for it as a
/// single-cell run_pipeline_job.
MatrixRun run_matrix(const SuiteOptions& options, const Library* lib,
                     int columns, const CellFactory& make_cell) {
  // The caller's library (or the compass default), reladdered onto
  // `options.supplies` when set.
  std::optional<Library> fallback;
  std::optional<Library> reladdered;
  if (lib == nullptr) lib = &fallback.emplace(build_compass_library());
  if (!options.supplies.empty())
    lib = &on_ladder(*lib, SupplyLadder(options.supplies), reladdered);

  MatrixRun run;
  run.supplies = lib->supplies().voltages();
  run.circuits = select_circuits(options);
  run.jobs.resize(run.circuits.size() * columns);

  // The mapped circuit and the shared columns (tspec, original power,
  // activity) depend only on the circuit seed, never on the column, so
  // a circuit's tasks share one build + one JobInit: whichever task
  // arrives first computes them under the circuit's once_flag, and the
  // values are identical to what each task would derive privately.
  struct SharedCircuit {
    std::once_flag once;
    Network net;
    JobInit init;
  };
  std::vector<SharedCircuit> shared(run.circuits.size());

  const auto start = std::chrono::steady_clock::now();
  ThreadPool pool(options.num_threads);
  run.num_threads = pool.num_threads();
  pool.parallel_for(static_cast<int>(run.jobs.size()), [&](int t) {
    const McncDescriptor& descriptor = *run.circuits[t / columns];
    SharedCircuit& sc = shared[t / columns];
    FlowOptions flow = options.flow;
    flow.activity.seed = mix_seed(options.seed, descriptor.seed);
    std::call_once(sc.once, [&] {
      sc.net = build_mcnc_circuit(*lib, descriptor);
      sc.init = make_job_init(sc.net, *lib, flow);
    });
    std::vector<JobCell> cells;
    cells.push_back(make_cell(descriptor, t % columns));
    run.jobs[t] =
        run_pipeline_job(sc.net, *lib, flow, std::move(cells), false, &sc.init);
  });
  run.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  return run;
}

}  // namespace

FlowOptions suite_task_flow(const SuiteOptions& options,
                            const McncDescriptor& descriptor,
                            PaperAlgo algo) {
  return derive_cell_flow(options.flow,
                          mix_seed(options.seed, descriptor.seed), algo);
}

SuiteReport run_suite(const SuiteOptions& options, const Library* lib) {
  constexpr int columns = std::size(kPaperAlgos);

  const MatrixRun run = run_matrix(
      options, lib, columns, [&](const McncDescriptor& d, int column) {
        const PaperAlgo algo = kPaperAlgos[column];
        return make_paper_cell(algo, suite_task_flow(options, d, algo));
      });

  SuiteReport report;
  report.supplies = run.supplies;
  report.vdd_high = run.supplies.front();
  report.vdd_low = run.supplies.back();
  report.num_threads = run.num_threads;
  report.wall_seconds = run.wall_seconds;
  report.rows.resize(run.circuits.size());
  report.papers.reserve(run.circuits.size());
  for (const McncDescriptor* d : run.circuits)
    report.papers.emplace_back(d->paper);

  // Fold each cell into its circuit's row.
  for (std::size_t t = 0; t < run.jobs.size(); ++t) {
    CircuitRunResult& row = report.rows[t / columns];
    const CircuitRunResult& cell = run.jobs[t].row;
    if (row.name.empty()) {
      row.name = cell.name;
      row.num_gates = cell.num_gates;
      row.tspec_ns = cell.tspec_ns;
      row.org_power_uw = cell.org_power_uw;
    } else {
      // The shared columns are seed-determined; any divergence means a
      // task depended on scheduling, which breaks the whole contract.
      DVS_ASSERT(row.tspec_ns == cell.tspec_ns &&
                 row.org_power_uw == cell.org_power_uw);
    }
    fill_paper_columns(run.jobs[t].cells[0], &row);
  }
  return report;
}

std::string SuiteReport::table1() const {
  std::string out = format_table1_header();
  for (std::size_t i = 0; i < rows.size(); ++i)
    out += format_table1_row(rows[i], papers[i]);
  out += format_table1_footer(rows, papers);
  return out;
}

std::string SuiteReport::table2() const {
  std::string out = format_table2_header();
  for (std::size_t i = 0; i < rows.size(); ++i)
    out += format_table2_row(rows[i], papers[i]);
  out += format_table2_footer(rows, papers);
  return out;
}

std::string SuiteReport::to_json() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"dvs-bench-suite-v1\",\n";
  out << "  \"supplies\": [";
  for (std::size_t i = 0; i < supplies.size(); ++i)
    out << (i ? ", " : "") << num(supplies[i]);
  out << "],\n";
  out << "  \"vdd_high\": " << num(vdd_high) << ",\n";
  out << "  \"vdd_low\": " << num(vdd_low) << ",\n";
  out << "  \"num_threads\": " << num_threads << ",\n";
  out << "  \"wall_seconds\": " << num(wall_seconds) << ",\n";
  out << "  \"circuits\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CircuitRunResult& r = rows[i];
    out << "    {\"name\": \"" << json_escape(r.name) << "\""
        << ", \"gates\": " << r.num_gates
        << ", \"tspec_ns\": " << num(r.tspec_ns)
        << ", \"org_power_uw\": " << num(r.org_power_uw) << ",\n";
    // kLowGatesKey is the one spelling of the below-top-rung count
    // shared with the protocol and trajectory emitters.
    const std::string low_key = std::string("\"") + kLowGatesKey + "\": ";
    out << "     \"cvs\": {\"improve_pct\": " << num(r.cvs_improve_pct)
        << ", " << low_key << r.cvs_low << "},\n";
    out << "     \"dscale\": {\"improve_pct\": "
        << num(r.dscale_improve_pct) << ", " << low_key << r.dscale_low
        << ", \"level_converters\": " << r.dscale_lcs << "},\n";
    out << "     \"gscale\": {\"improve_pct\": "
        << num(r.gscale_improve_pct) << ", " << low_key << r.gscale_low
        << ", \"resized\": " << r.gscale_resized
        << ", \"area_increase\": " << num(r.gscale_area_increase)
        << ", \"seconds\": " << num(r.gscale_seconds) << "}}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

// ---- pipeline matrices -----------------------------------------------------

PipelineSuiteReport run_pipeline_suite(
    const SuiteOptions& options, const std::vector<std::string>& pipelines,
    const Library* lib) {
  DVS_EXPECTS(!pipelines.empty());

  PipelineSuiteReport report;
  // Validate every spec up front (a typo fails the whole matrix
  // immediately) and record the circuit-independent canonical form.
  for (const std::string& spec : pipelines)
    report.specs.push_back(Pipeline::parse(spec).canonical_spec());

  MatrixRun run = run_matrix(
      options, lib, static_cast<int>(pipelines.size()),
      [&](const McncDescriptor& d, int column) {
        // Parse from the *original* spec per task: which options the
        // spec set explicitly drives seed resolution, and canonical
        // respellings would erase that distinction.
        return make_pipeline_cell(Pipeline::parse(pipelines[column]),
                                  mix_seed(options.seed, d.seed));
      });
  report.num_threads = run.num_threads;
  report.wall_seconds = run.wall_seconds;

  report.cells.reserve(run.jobs.size());
  for (PipelineJobResult& job : run.jobs) {
    JobCellResult& result = job.cells[0];
    PipelineSuiteCell& out = report.cells.emplace_back();
    out.circuit = job.row.name;
    out.num_gates = job.row.num_gates;
    out.tspec_ns = job.row.tspec_ns;
    out.org_power_uw = job.row.org_power_uw;
    out.label = std::move(result.label);
    out.spec = std::move(result.spec);
    out.improve_pct = result.improve_pct;
    out.run = std::move(result.run);
  }
  return report;
}

std::string PipelineSuiteReport::table() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-10s %-44s %9s %6s %5s %5s %9s\n",
                "circuit", "pipeline", "improve%", "low", "LCs", "resz",
                "cpu_ms");
  out += buf;
  for (const PipelineSuiteCell& cell : cells) {
    const PassStats& last = cell.run.passes.back();
    std::snprintf(buf, sizeof buf,
                  "%-10s %-44.44s %9.2f %6d %5d %5d %9.2f\n",
                  cell.circuit.c_str(), cell.spec.c_str(),
                  cell.improve_pct, last.low_gates, last.level_converters,
                  last.resized, cell.run.cpu_seconds * 1e3);
    out += buf;
    // Trajectory: one line per pass (power/arrival/area after it ran).
    for (const PassStats& p : cell.run.passes) {
      std::snprintf(buf, sizeof buf,
                    "  [%d] %-8s power %9.3f uW  arrival %7.4f ns  area "
                    "%9.1f um2  low %4d  touched %4d",
                    p.position, p.pass.c_str(), p.power_uw, p.arrival_ns,
                    p.area_um2, p.low_gates, p.gates_touched);
      out += buf;
      // Deeper ladders get the per-rung breakdown spelled with the
      // shared rung names ("high v1 ... low").
      const int depth = static_cast<int>(p.level_gates.size());
      if (depth > 2) {
        out += "  [";
        for (SupplyId r = 0; r < depth; ++r) {
          std::snprintf(buf, sizeof buf, "%s%s:%d", r ? " " : "",
                        supply_rung_name(r, depth).c_str(),
                        p.level_gates[r]);
          out += buf;
        }
        out += ']';
      }
      out += '\n';
    }
  }
  return out;
}

std::string PipelineSuiteReport::to_json() const {
  Json::Object doc;
  doc["schema"] = Json("dvs-bench-pipeline-v1");
  doc["num_threads"] = Json(num_threads);
  doc["wall_seconds"] = Json(wall_seconds);
  Json::Array spec_array;
  for (const std::string& spec : specs) spec_array.emplace_back(spec);
  doc["pipelines"] = Json(std::move(spec_array));
  Json::Array cell_array;
  for (const PipelineSuiteCell& cell : cells) {
    Json::Object entry;
    entry["circuit"] = Json(cell.circuit);
    entry["gates"] = Json(cell.num_gates);
    entry["tspec_ns"] = Json(cell.tspec_ns);
    entry["org_power_uw"] = Json(cell.org_power_uw);
    entry["label"] = Json(cell.label);
    entry["spec"] = Json(cell.spec);
    entry["improve_pct"] = Json(cell.improve_pct);
    Json::Array passes;
    for (const PassStats& stats : cell.run.passes)
      passes.emplace_back(pass_stats_json(stats));
    entry["passes"] = Json(std::move(passes));
    cell_array.emplace_back(std::move(entry));
  }
  doc["cells"] = Json(std::move(cell_array));
  return Json(std::move(doc)).dump() + "\n";
}

}  // namespace dvs
