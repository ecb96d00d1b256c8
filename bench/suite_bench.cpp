// The parallel suite engine's driver: runs the MCNC x {CVS, Dscale,
// Gscale} matrix across a work-stealing pool, prints the paper's Table 1
// and Table 2 over the aggregated rows, and writes the machine-readable
// BENCH_suite.json (schema documented in README.md).
//
//   $ ./suite_bench                      # all 39 circuits, all cores
//   $ ./suite_bench --threads 1          # serial reference run
//   $ ./suite_bench --quick --json q.json
//   $ ./suite_bench --pipeline 'cvs | gscale | dscale' --quick
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "benchgen/mcnc.hpp"
#include "core/suite.hpp"
#include "library/supply.hpp"

namespace {

void usage(std::FILE* out) {
  std::fputs(
      "usage: suite_bench [--threads N] [--json FILE] "
      "[--quick | --max-gates N]\n"
      "                   [--circuit NAME]... [--seed S] [--vectors N]\n"
      "                   [--supplies V1,V2,...] [--pipeline SPEC]...\n"
      "\n"
      "Runs the MCNC x {CVS, Dscale, Gscale} matrix across the thread\n"
      "pool, prints Table 1 / Table 2 and writes BENCH_suite.json.\n"
      "With --pipeline, runs the MCNC x SPEC matrix through the pass\n"
      "registry instead and reports per-pass trajectories\n"
      "(schema dvs-bench-pipeline-v1).\n"
      "  --threads N    worker threads (1 = serial reference, 0 = all "
      "cores)\n"
      "  --json FILE    output path (default BENCH_suite.json)\n"
      "  --quick        only circuits with <= 300 gates\n"
      "  --max-gates N  only circuits with <= N gates\n"
      "  --circuit NAME run one circuit (repeatable)\n"
      "  --seed S       suite root seed (default 0x5eed)\n"
      "  --vectors N    activity-estimation vectors (default 4096)\n"
      "  --supplies L   supply ladder, strictly descending voltages\n"
      "                 (default 5,4.3), e.g. --supplies 5.0,4.3,3.6\n"
      "  --pipeline SPEC  registry pipeline, e.g. 'cvs | "
      "gscale(area_budget=0.05) | dscale' (repeatable)\n",
      out);
}

}  // namespace

int main(int argc, char** argv) {
  dvs::SuiteOptions options;
  std::vector<std::string> pipelines;
  std::string json_path = "BENCH_suite.json";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (flag == "--threads")
      options.num_threads = std::atoi(value());
    else if (flag == "--json")
      json_path = value();
    else if (flag == "--quick")
      options.max_gates = 300;
    else if (flag == "--max-gates")
      options.max_gates = std::atoi(value());
    else if (flag == "--circuit")
      options.circuits.push_back(value());
    else if (flag == "--seed")
      options.seed = std::strtoull(value(), nullptr, 0);
    else if (flag == "--vectors")
      options.flow.activity.num_vectors = std::atoi(value());
    else if (flag == "--supplies") {
      try {
        options.supplies = dvs::parse_supply_ladder(value()).voltages();
      } catch (const dvs::SupplyError& e) {
        std::fprintf(stderr, "suite_bench: %s\n", e.what());
        return 1;
      }
    } else if (flag == "--pipeline")
      pipelines.push_back(value());
    else if (flag == "--help" || flag == "-h") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "suite_bench: unknown flag '%s'\n",
                   flag.c_str());
      usage(stderr);
      return 1;
    }
  }

  for (const std::string& name : options.circuits) {
    if (dvs::find_mcnc(name) == nullptr) {
      std::fprintf(stderr, "unknown circuit '%s'; known:", name.c_str());
      for (const dvs::McncDescriptor& d : dvs::mcnc_suite())
        std::fprintf(stderr, " %s", d.name);
      std::fprintf(stderr, "\n");
      return 1;
    }
  }

  std::string json;
  if (!pipelines.empty()) {
    try {
      const dvs::PipelineSuiteReport report =
          dvs::run_pipeline_suite(options, pipelines);
      std::fputs(report.table().c_str(), stdout);
      std::printf("\n%zu cells on %d threads in %.2fs -> %s\n",
                  report.cells.size(), report.num_threads,
                  report.wall_seconds, json_path.c_str());
      json = report.to_json();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "suite_bench: %s\n", e.what());
      return 1;
    }
  } else {
    const dvs::SuiteReport report = dvs::run_suite(options);
    std::fputs(report.table1().c_str(), stdout);
    std::fputs("\n", stdout);
    std::fputs(report.table2().c_str(), stdout);
    std::printf("\n%zu circuits on %d threads in %.2fs -> %s\n",
                report.rows.size(), report.num_threads, report.wall_seconds,
                json_path.c_str());
    json = report.to_json();
  }

  std::ofstream out(json_path);
  if (!out) {
    if (pipelines.empty())
      std::fprintf(stderr, "cannot write suite JSON: %s\n",
                   json_path.c_str());
    else
      std::fprintf(stderr, "suite_bench: cannot write: %s\n",
                   json_path.c_str());
    return 1;
  }
  out << json;
  return 0;
}
