// perfbench — the repository benchmark.
//
//   perfbench --workload suite|service|eco --seed N --seconds S --trace 0|1
//
// Runs one workload for S seconds on inputs generated from seed N, checks
// every answer, prints a metric table and, as the last line of stdout, one
// JSON object {"correct","attempted","failed","metrics"}.  --trace 0
// reports the end-to-end metrics; --trace 1 reports the per-layer metrics
// instead (README.md lists both).  Exits 1 when any answer was wrong.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "service/protocol.hpp"
#include "support/rng.hpp"

namespace perfbench {

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Result::fail(const std::string& why) {
  ++failed_;
  failures_.push_back(why);
}

void Result::print_summary() const {
  for (const auto& [name, value] : metrics_)
    std::printf("  %-36s %14.6g %s\n", name.c_str(), value.first,
                value.second.c_str());
  std::printf("  attempted %ld, failed %ld\n", attempted_, failed_);
  const std::size_t shown = std::min<std::size_t>(failures_.size(), 10);
  for (std::size_t i = 0; i < shown; ++i)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", failures_[i].c_str());
  if (failures_.size() > shown)
    std::fprintf(stderr, "perfbench: ... %zu more failures\n",
                 failures_.size() - shown);
}

std::string Result::json_line() const {
  dvs::Json::Object metrics;
  for (const auto& [name, value] : metrics_) {
    dvs::Json::Object entry;
    // Non-finite values (a latency class with no answered request) are
    // not JSON numbers; they are reported as a failed run instead.
    entry["value"] = dvs::Json(std::isfinite(value.first) ? value.first
                                                          : -1.0);
    entry["unit"] = dvs::Json(value.second);
    metrics[name] = dvs::Json(std::move(entry));
  }
  dvs::Json::Object out;
  out["correct"] = dvs::Json(correct());
  out["attempted"] = dvs::Json(static_cast<std::int64_t>(attempted_));
  out["failed"] = dvs::Json(static_cast<std::int64_t>(failed_));
  out["metrics"] = dvs::Json(std::move(metrics));
  return dvs::Json(std::move(out)).dump();
}

double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double rank = p / 100.0 * static_cast<double>(sample.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  if (std::isinf(sample[hi])) return sample[hi];
  const double frac = rank - static_cast<double>(lo);
  return sample[lo] + (sample[hi] - sample[lo]) * frac;
}

double mean(const std::vector<double>& sample) {
  if (sample.empty()) return 0.0;
  double sum = 0.0;
  for (double v : sample) sum += v;
  return sum / static_cast<double>(sample.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void report_trace_overhead(const Headline& plain, const Headline& traced,
                           Result* result) {
  auto worse_pct = [](double plain_value, double traced_value) {
    return plain_value != 0.0
               ? 100.0 * (traced_value - plain_value) / plain_value
               : 0.0;
  };
  result->metric("trace.overhead_pct.ops_per_s",
                 -worse_pct(plain.ops_per_s, traced.ops_per_s), "%");
  result->metric("trace.overhead_pct.p50_ms",
                 worse_pct(plain.p50_ms, traced.p50_ms), "%");
  result->metric("trace.overhead_pct.heavy_p50_ms",
                 worse_pct(plain.heavy_p50_ms, traced.heavy_p50_ms), "%");
}

std::string comparable_report(dvs::Json report) {
  auto& object = report.as_object();
  if (auto it = object.find("gscale"); it != object.end())
    it->second.as_object()["seconds"] = dvs::Json(0.0);
  return report.dump();
}

std::string comparable_row(const dvs::CircuitRunResult& row) {
  return comparable_report(dvs::report_json(row, true, true, true));
}

std::vector<const dvs::McncDescriptor*> mcnc_circuits(int max_gates) {
  std::vector<const dvs::McncDescriptor*> out;
  for (const dvs::McncDescriptor& d : dvs::mcnc_suite())
    if (max_gates == 0 || d.gates <= max_gates) out.push_back(&d);
  return out;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return dvs::mix_seed(seed, stream);
}

}  // namespace perfbench

namespace {

void usage() {
  std::fputs(
      "usage: perfbench --workload suite|service|eco --seed N "
      "--seconds S --trace 0|1\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--role") == 0)
    return perfbench::generator_main(argc, argv);

  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const char* value = argv[++i];
    if (flag == "--workload")
      options.workload = value;
    else if (flag == "--seed")
      options.seed = std::strtoull(value, nullptr, 0);
    else if (flag == "--seconds")
      options.seconds = std::atof(value);
    else if (flag == "--trace")
      options.trace = std::atoi(value) != 0;
    else {
      usage();
      return 2;
    }
  }
  if (options.seconds <= 0) {
    usage();
    return 2;
  }

  perfbench::Result result;
  try {
    if (options.workload == "suite")
      perfbench::run_suite(options, &result);
    else if (options.workload == "service")
      perfbench::run_service(options, &result);
    else if (options.workload == "eco")
      perfbench::run_eco(options, &result);
    else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  std::printf("perfbench %s seed %llu, %.0f s%s:\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? ", traced" : "");
  result.print_summary();
  std::printf("%s\n", result.json_line().c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
