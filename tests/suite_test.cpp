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

/// The CVS / Dscale / Gscale columns of one suite row, as captured.
struct PinnedRow {
  const char* name;
  double cvs_improve_pct, dscale_improve_pct, gscale_improve_pct;
  int cvs_low, dscale_low, gscale_low, dscale_lcs, gscale_resized;
  double gscale_area_increase;
};

void expect_pinned(const std::vector<double>& supplies,
                   const std::vector<PinnedRow>& pins) {
  SuiteOptions options;
  for (const PinnedRow& p : pins) options.circuits.push_back(p.name);
  options.num_threads = 1;
  options.supplies = supplies;
  const SuiteReport report = run_suite(options);
  ASSERT_EQ(report.rows.size(), pins.size());
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const CircuitRunResult& r = report.rows[i];
    const PinnedRow& p = pins[i];
    SCOPED_TRACE(p.name);
    EXPECT_EQ(r.name, p.name);
    EXPECT_EQ(r.cvs_improve_pct, p.cvs_improve_pct);
    EXPECT_EQ(r.dscale_improve_pct, p.dscale_improve_pct);
    EXPECT_EQ(r.gscale_improve_pct, p.gscale_improve_pct);
    EXPECT_EQ(r.cvs_low, p.cvs_low);
    EXPECT_EQ(r.dscale_low, p.dscale_low);
    EXPECT_EQ(r.gscale_low, p.gscale_low);
    EXPECT_EQ(r.dscale_lcs, p.dscale_lcs);
    EXPECT_EQ(r.gscale_resized, p.gscale_resized);
    EXPECT_EQ(r.gscale_area_increase, p.gscale_area_increase);
  }
}

// The paper columns of a few circuits at the default suite settings,
// pinned bit for bit.  A change to the engines' internals (worklists,
// timer sharing, sweep order) must leave every one of them in place; a
// change that moves one on purpose re-captures them and says why.
TEST(SuiteTest, PaperColumnsStayPinnedOnTheDualLadder) {
  expect_pinned(
      {5.0, 4.3},
      {{"C432", 0x0p+0, 0x1.f27f69a5c0bd1p+1, 0x1.81a304d5c04b6p+4, 0, 37,
        159, 4, 42, 0x1.6b4011052df54p-4},
       {"alu4", 0x1.28cb8f5f96522p+2, 0x1.66e85d3b6c798p+2,
        0x1.283c8f7ed12a1p+4, 108, 134, 494, 2, 201, 0x1.98e77d24da8afp-4},
       {"C5315", 0x1.93204446f4316p+3, 0x1.9d83fae49c9cep+3,
        0x1.8d33b97f449fp+4, 526, 571, 1318, 11, 290,
        0x1.0a8b889d6c2e5p-4}});
}

TEST(SuiteTest, PaperColumnsStayPinnedOnThreeRungs) {
  expect_pinned(
      {5.0, 4.3, 3.6},
      {{"C432", 0x0p+0, 0x1.4fd5d6cbb4b6fp+2, 0x1.62ffec422b5aap+4, 0, 27,
        95, 4, 59, 0x1.994bcb10a729cp-4},
       {"alu4", 0x1.128729e5caa4ep+3, 0x1.41ce68c32a9dap+3,
        0x1.00960c4af5727p+4, 108, 129, 256, 2, 144, 0x1.99726a61321fdp-4},
       {"C5315", 0x1.74d6028465d68p+4, 0x1.7c6063152d32bp+4,
        0x1.15160e4ead5dbp+5, 526, 557, 997, 9, 439,
        0x1.992df0a59b882p-4},
       // On these rows (and on no other circuit of the suite at this
       // ladder) a Gscale push breaks the constraint and gives back some
       // of its resizes, so they pin the revert search: which prefix it
       // undoes, and that the run's timer hears of every revert.
       {"apex6", 0x1.39c1ca9d33ba4p+5, 0x1.3aef6a005abe9p+5,
        0x1.680e71b53a2d8p+5, 502, 509, 633, 3, 100,
        0x1.d591e6c2f56f8p-5},
       {"i10", 0x1.5836cc66a6558p+4, 0x1.5f9a5b9cc26c8p+4,
        0x1.20d9afad19ed8p+5, 779, 829, 1597, 11, 705,
        0x1.81dc0a1c1490cp-4},
       {"C7552", 0x1.6eb858837d88ap+3, 0x1.7ef352faec166p+3,
        0x1.b1213b2fcfb9cp+4, 575, 617, 1322, 11, 684,
        0x1.812f67806a468p-4},
       {"dalu", 0x1.c7d34a510a64bp+4, 0x1.d4f430194d6d8p+4,
        0x1.1eae5494c665p+5, 452, 468, 606, 2, 163,
        0x1.943d4e7b83adfp-4},
       {"z4ml", 0x0p+0, 0x1.4dabfe2f9f9a4p+2, 0x1.94d40c9137ac7p+4, 0, 8,
        24, 2, 15, 0x1.7d8c42b2836edp-4}});
}

}  // namespace
}  // namespace dvs
