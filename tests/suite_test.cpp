#include "core/suite.hpp"

#include <gtest/gtest.h>

#include "benchgen/mcnc.hpp"
#include "core/job.hpp"
#include "library/library.hpp"

namespace dvs {
namespace {

SuiteOptions small_suite(int threads) {
  SuiteOptions options;
  options.circuits = {"b9", "C432", "apex7"};
  options.flow.activity.num_vectors = 512;  // keep the matrix fast
  options.num_threads = threads;
  return options;
}

/// Everything except the wall-clock column must be bit-identical.
void expect_rows_identical(const CircuitRunResult& a,
                           const CircuitRunResult& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.num_gates, b.num_gates);
  EXPECT_EQ(a.tspec_ns, b.tspec_ns);
  EXPECT_EQ(a.org_power_uw, b.org_power_uw);
  EXPECT_EQ(a.cvs_improve_pct, b.cvs_improve_pct);
  EXPECT_EQ(a.dscale_improve_pct, b.dscale_improve_pct);
  EXPECT_EQ(a.gscale_improve_pct, b.gscale_improve_pct);
  EXPECT_EQ(a.cvs_low, b.cvs_low);
  EXPECT_EQ(a.dscale_low, b.dscale_low);
  EXPECT_EQ(a.gscale_low, b.gscale_low);
  EXPECT_EQ(a.gscale_resized, b.gscale_resized);
  EXPECT_EQ(a.dscale_lcs, b.dscale_lcs);
  EXPECT_EQ(a.gscale_area_increase, b.gscale_area_increase);
}

TEST(SuiteTest, ParallelMatchesSerialBitForBit) {
  const SuiteReport serial = run_suite(small_suite(1));
  const SuiteReport parallel = run_suite(small_suite(4));
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  EXPECT_EQ(parallel.num_threads, 4);
  for (std::size_t i = 0; i < serial.rows.size(); ++i)
    expect_rows_identical(serial.rows[i], parallel.rows[i]);
}

TEST(SuiteTest, RowsMatchThePerCircuitFlow) {
  // The engine's merged rows must agree with running the plain serial
  // flow with the engine's derived seeds — the pool adds scheduling, not
  // semantics, and sharing one circuit build and JobInit across a
  // circuit's cells changes no bit.
  const SuiteOptions options = small_suite(2);
  const SuiteReport report = run_suite(options);
  ASSERT_EQ(report.rows.size(), options.circuits.size());
  const Library lib = build_compass_library();
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    SCOPED_TRACE(options.circuits[i]);
    const McncDescriptor& d = *find_mcnc(options.circuits[i]);
    const Network net = build_mcnc_circuit(lib, d);
    CircuitRunResult row =
        make_job_init(net, lib, suite_task_flow(options, d, PaperAlgo::kCvs))
            .row;
    for (PaperAlgo algo :
         {PaperAlgo::kCvs, PaperAlgo::kDscale, PaperAlgo::kGscale}) {
      const FlowOptions flow = suite_task_flow(options, d, algo);
      std::vector<JobCell> cells;
      cells.push_back(make_paper_cell(algo, flow));
      const PipelineJobResult job =
          run_pipeline_job(net, lib, flow, std::move(cells));
      EXPECT_EQ(job.row.tspec_ns, row.tspec_ns);
      EXPECT_EQ(job.row.org_power_uw, row.org_power_uw);
      fill_paper_columns(job.cells[0], &row);
    }
    expect_rows_identical(report.rows[i], row);
  }
}

TEST(SuiteTest, MaxGatesFiltersCircuits) {
  SuiteOptions options = small_suite(2);
  options.max_gates = 200;  // keeps b9 (111) and C432 (159), drops apex7
  const SuiteReport report = run_suite(options);
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.rows[0].name, "b9");
  EXPECT_EQ(report.rows[1].name, "C432");
}

TEST(SuiteTest, JsonIsWellFormedAndCarriesEveryCircuit) {
  SuiteOptions options = small_suite(2);
  const SuiteReport report = run_suite(options);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema\": \"dvs-bench-suite-v1\""),
            std::string::npos);
  for (const char* name : {"b9", "C432", "apex7"})
    EXPECT_NE(json.find("\"name\": \"" + std::string(name) + "\""),
              std::string::npos);
  // Balanced braces/brackets — cheap structural sanity without a parser.
  int braces = 0, brackets = 0;
  for (char c : json) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

}  // namespace
}  // namespace dvs
