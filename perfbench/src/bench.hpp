// Shared pieces of the repository benchmark: the run options, the result
// every workload fills, sample statistics, and the entry points of the
// workloads and of the per-layer probes that the traced runs add.
//
// The benchmark reaches the program only through its public headers: it
// times its own calls into benchgen, power, timing, core, opt, netlist and
// service, and reads the daemon's depth-0 request spans over the wire.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/mcnc.hpp"
#include "core/flow.hpp"
#include "library/library.hpp"
#include "support/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double ms_since(Clock::time_point from) {
  return ms_between(from, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one run reports: operations attempted and failed, every failure
/// reason (the first few are printed), and the metrics in print order.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void attempted(long n) { attempted_ += n; }
  /// One failed operation (a wrong, refused or missing answer).
  void fail(const std::string& why);

  bool correct() const { return failed_ == 0; }
  /// Human-readable metric table and failure list (stdout).
  void print_summary() const;
  /// The single-line JSON result: correct, attempted, failed, metrics.
  std::string json_line() const;

 private:
  long attempted_ = 0;
  long failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

// ---- sample statistics -----------------------------------------------------
/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> sample, double p);
double mean(const std::vector<double>& sample);
/// High-water resident set size of this process, in MiB.
double peak_rss_mb();
/// A workload's headline figures, measured untraced and traced.
struct Headline {
  double ops_per_s = 0.0;
  double p50_ms = 0.0;
  double heavy_p50_ms = 0.0;
};
/// Reports how much worse each traced headline figure is than the
/// untraced one, in percent: trace.overhead_pct.*.
void report_trace_overhead(const Headline& plain, const Headline& traced,
                           Result* result);

// ---- shared inputs ----------------------------------------------------------
/// A report object in comparison form: `gscale.seconds` is wall clock
/// and is zeroed; everything else must match bit for bit.
std::string comparable_report(dvs::Json report);
/// A suite row as its report object (all three algorithms), in
/// comparison form.
std::string comparable_row(const dvs::CircuitRunResult& row);
/// The MCNC circuits with at most `max_gates` gates (0 = all), in suite
/// order.
std::vector<const dvs::McncDescriptor*> mcnc_circuits(int max_gates = 0);
/// Request seeds derived from the workload seed: `stream` picks an
/// independent sequence.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// ---- workloads ---------------------------------------------------------------
void run_suite(const Options& options, Result* result);
void run_service(const Options& options, Result* result);
void run_eco(const Options& options, Result* result);
/// Entry point of the load-generator process the service workload spawns.
int generator_main(int argc, char** argv);

// ---- per-layer probes (traced runs) ---------------------------------------
/// Per-circuit latency of the layered matrix path (build, job init and
/// the three paper cells, each timed on its own).
struct CircuitSample {
  int gates = 0;
  double ms = 0.0;
};

/// Times each library layer on `circuits` through its public entry
/// point, in passes over the whole set (at least two, and until
/// `min_seconds` have passed): the legacy and pipeline matrices (core,
/// opt), then per circuit the build (benchgen), job init, activity
/// (power), graph compile and full STA (timing) and the three paper
/// cells with their work counts (core), then BLIF parsing (netlist) of
/// `blifs` (empty = the circuits themselves, written as BLIF).  Fails the
/// run if a work count differs between passes or a layered row differs
/// from the suite engine's.  `layered`, when given, receives every
/// circuit's layered latency.
void probe_library_layers(
    const dvs::Library& lib,
    const std::vector<const dvs::McncDescriptor*>& circuits,
    std::uint64_t seed, const std::vector<std::string>& blifs,
    double min_seconds, Result* result,
    std::vector<CircuitSample>* layered = nullptr);
/// Replays `steps` landed edits of the seeded ECO edit stream over `circuits`
/// through an in-process DesignRegistry (twice; the counts must repeat)
/// and reports the session.* metrics.
void probe_sessions(const dvs::Library& lib,
                    const std::vector<std::string>& circuits,
                    std::uint64_t seed, int steps, Result* result);
/// A short open-loop optimize load on a fresh daemon over the small MCNC
/// circuits, traced, for the service.* request-phase metrics of the
/// workloads whose own traffic has no such phases.
void probe_service(std::uint64_t seed, Result* result);

}  // namespace perfbench
