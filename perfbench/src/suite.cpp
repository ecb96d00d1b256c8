// The `suite` workload: the paper reproduction itself.  The full MCNC x
// {CVS, Dscale, Gscale} matrix (39 circuits, 117 cells) runs on one thread
// through the public suite entry point, repeated for the length of the
// run.  Each circuit is its own run_suite call, so every circuit's three
// cells give one latency sample; circuits of 1000 gates or more (where
// the Dscale/Gscale search loops dominate) form the heavy class, the rest
// (where build, compile and activity weigh most) the common one.
//
// Every row must equal, field for field except the wall-clock Gscale
// seconds, the row of the full-matrix run made at set-up.
#include <map>
#include <optional>
#include <string>

#include "bench.hpp"
#include "core/suite.hpp"

namespace perfbench {
namespace {

constexpr int kHeavyGates = 1000;

struct Samples {
  std::vector<double> common_ms, heavy_ms;
  double busy_ms = 0.0;
  long circuits = 0;

  void add(int gates, double ms) {
    (gates >= kHeavyGates ? heavy_ms : common_ms).push_back(ms);
    busy_ms += ms;
    ++circuits;
  }
  double cells_per_s() const { return 3000.0 * circuits / busy_ms; }
  Headline headline() const {
    return {cells_per_s(), percentile(common_ms, 50),
            percentile(heavy_ms, 50)};
  }
};

}  // namespace

void run_suite(const Options& options, Result* result) {
  const std::vector<const dvs::McncDescriptor*> circuits = mcnc_circuits();
  dvs::SuiteOptions suite;
  suite.num_threads = 1;
  suite.seed = derive_seed(options.seed, 0);

  // Set-up, three times: the library build and one full-matrix pass,
  // whose rows are the reference for every later row.
  std::optional<dvs::Library> lib;
  std::map<std::string, std::string> reference;
  std::vector<double> setup_seconds;
  double saving_pct = 0.0;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point start = Clock::now();
    lib.emplace(dvs::build_compass_library());
    const dvs::SuiteReport report = dvs::run_suite(suite, &*lib);
    setup_seconds.push_back(ms_since(start) / 1000.0);
    result->attempted(static_cast<long>(report.rows.size()));
    saving_pct = 0.0;
    for (const dvs::CircuitRunResult& row : report.rows) {
      auto [it, fresh] = reference.emplace(row.name, comparable_row(row));
      if (!fresh && it->second != comparable_row(row))
        result->fail(row.name + ": set-up matrices disagree");
      saving_pct += (row.cvs_improve_pct + row.dscale_improve_pct +
                     row.gscale_improve_pct) /
                    (3.0 * static_cast<double>(report.rows.size()));
    }
  }

  // Whole matrices, one run_suite call per circuit.
  const double seconds = options.trace ? options.seconds / 2 : options.seconds;
  Samples plain;
  const Clock::time_point start = Clock::now();
  while (plain.circuits == 0 || ms_since(start) < 1000.0 * seconds) {
    for (const dvs::McncDescriptor* d : circuits) {
      dvs::SuiteOptions one = suite;
      one.circuits = {d->name};
      const Clock::time_point t = Clock::now();
      const dvs::SuiteReport report = dvs::run_suite(one, &*lib);
      plain.add(d->gates, ms_since(t));
      result->attempted(1);
      if (report.rows.size() != 1 ||
          comparable_row(report.rows.front()) != reference[d->name])
        result->fail(std::string(d->name) + ": row differs from set-up");
    }
  }

  if (!options.trace) {
    result->metric("setup_s", percentile(setup_seconds, 50), "s");
    result->metric("peak_rss_mb", peak_rss_mb(), "MB");
    result->metric("ops_per_s", plain.cells_per_s(), "1/s");
    result->metric("p50_ms", percentile(plain.common_ms, 50), "ms");
    result->metric("p99_ms", percentile(plain.common_ms, 99), "ms");
    result->metric("heavy_p50_ms", percentile(plain.heavy_ms, 50), "ms");
    result->metric("heavy_p90_ms", percentile(plain.heavy_ms, 90), "ms");
    result->metric("saving_pct", saving_pct, "%");
    return;
  }

  // Traced run: the second half runs the same matrices layer by layer;
  // its circuit latencies against the first half's are the overhead.
  std::vector<CircuitSample> layered_samples;
  probe_library_layers(*lib, circuits, suite.seed, {}, seconds, result,
                       &layered_samples);
  Samples layered;
  for (const CircuitSample& s : layered_samples) layered.add(s.gates, s.ms);
  std::vector<std::string> names;
  for (const dvs::McncDescriptor* d : circuits) names.push_back(d->name);
  probe_sessions(*lib, names, derive_seed(options.seed, 8),
                 16 * static_cast<int>(names.size()), result);
  probe_service(derive_seed(options.seed, 9), result);
  report_trace_overhead(plain.headline(), layered.headline(), result);
}

}  // namespace perfbench
