// Sweep E6: the paper caps Gscale's area increase at 10%.  This sweep
// shows the saving-vs-area curve that makes 10% a sensible knee.
//
// Thin driver over the sweep-matrix engine (core/sweep_matrix.hpp) —
// the same grid the dvsd `sweep` verb runs with an `area_budgets` axis.
// `--json` emits one NDJSON object per circuit.
#include <cstdio>
#include <cstring>

#include "benchgen/mcnc.hpp"
#include "core/sweep_matrix.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      std::fprintf(stderr, "usage: sweep_area_budget [--json]\n");
      return 1;
    }
  }

  dvs::ThreadPool pool;
  if (!json) {
    std::printf("Sweep E6 — Gscale area budget\n");
    std::printf("%-10s | %7s | %6s %8s %8s %8s | %6s\n", "circuit",
                "budget", "low", "resized", "areaInc", "improv%",
                "pareto");
  }

  for (const char* name : {"C1355", "C432", "alu2", "k2"}) {
    const dvs::McncDescriptor* d = dvs::find_mcnc(name);

    dvs::SweepMatrixSpec spec;
    spec.area_budgets = {0.0, 0.02, 0.05, 0.10, 0.20, 0.40};
    spec.algos = {dvs::PaperAlgo::kGscale};  // the Gscale budget axis alone
    // The daemon's circuit-seed derivation for named circuits:
    // mix(root seed, descriptor seed), root 0x5eed.
    spec.circuit_seed = dvs::mix_seed(0x5eed, d->seed);

    const auto source = [d](const dvs::Library& lib) {
      return dvs::build_mcnc_circuit(lib, *d);
    };
    const dvs::SweepMatrixResult result =
        dvs::run_sweep_matrix(source, dvs::build_compass_library(), spec,
                              &pool);

    if (json) {
      dvs::Json grid = dvs::sweep_matrix_json(result);
      grid.as_object()["circuit"] = dvs::Json(std::string(name));
      std::printf("%s\n", grid.dump().c_str());
    } else {
      for (const dvs::SweepCellResult& cell : result.cells)
        std::printf("%-10s | %6.0f%% | %6d %8d %8.3f %8.2f | %6s\n", name,
                    100.0 * cell.area_budget, cell.low, cell.resized,
                    cell.area_increase, cell.improve_pct,
                    cell.pareto ? "*" : "");
    }
    std::fflush(stdout);
  }
  return 0;
}
