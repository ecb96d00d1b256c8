// Membership-identity tests for the sort-then-sweep Pareto marker: on
// every input — including heavy ties and exact duplicates — it must
// select exactly the same cells as the quadratic pairwise dominance
// definition, set the same per-cell `pareto` flags, and emit the front
// indices in grid order.  Plus the engine's comparability claim: a sweep
// cell at the base ladder and budget equals the matching suite cell.
#include <gtest/gtest.h>

#include <vector>

#include "benchgen/mcnc.hpp"
#include "core/suite.hpp"
#include "core/sweep_matrix.hpp"
#include "library/library.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace dvs {
namespace {

std::vector<SweepCellResult> points(
    const std::vector<std::pair<double, double>>& pd) {
  std::vector<SweepCellResult> cells(pd.size());
  for (std::size_t i = 0; i < pd.size(); ++i) {
    cells[i].power_uw = pd[i].first;
    cells[i].arrival_ns = pd[i].second;
  }
  return cells;
}

/// The definition itself: the all-pairs dominance test the O(n log n)
/// sweep must reproduce bit-for-bit.
std::vector<int> pairwise_reference(std::vector<SweepCellResult> cells) {
  std::vector<int> front;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < cells.size() && !dominated; ++j) {
      if (i == j) continue;
      const bool no_worse = cells[j].power_uw <= cells[i].power_uw &&
                            cells[j].arrival_ns <= cells[i].arrival_ns;
      const bool better = cells[j].power_uw < cells[i].power_uw ||
                          cells[j].arrival_ns < cells[i].arrival_ns;
      dominated = no_worse && better;
    }
    if (!dominated) front.push_back(static_cast<int>(i));
  }
  return front;
}

void expect_matches_reference(std::vector<SweepCellResult> cells) {
  const std::vector<int> expected = pairwise_reference(cells);
  const std::vector<int> got = mark_pareto(cells);
  ASSERT_EQ(got, expected);
  // Flags agree with membership, and the front is in grid order.
  std::size_t k = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const bool on_front =
        k < got.size() && got[k] == static_cast<int>(i);
    EXPECT_EQ(cells[i].pareto, on_front) << "cell " << i;
    if (on_front) ++k;
  }
  EXPECT_EQ(k, got.size());
}

TEST(SweepMatrixPareto, EmptyAndSingle) {
  expect_matches_reference(points({}));
  expect_matches_reference(points({{3.0, 1.5}}));
}

TEST(SweepMatrixPareto, ExactDuplicatesStayOnFrontTogether) {
  // Two identical points do not dominate each other: both survive.
  std::vector<SweepCellResult> cells =
      points({{1.0, 2.0}, {1.0, 2.0}, {2.0, 3.0}});
  const std::vector<int> front = mark_pareto(cells);
  EXPECT_EQ(front, (std::vector<int>{0, 1}));
  EXPECT_TRUE(cells[0].pareto);
  EXPECT_TRUE(cells[1].pareto);
  EXPECT_FALSE(cells[2].pareto);
}

TEST(SweepMatrixPareto, TiesOnOneAxisDominate) {
  // Same power, strictly better delay dominates; and vice versa.
  expect_matches_reference(points({{1.0, 2.0}, {1.0, 3.0}}));
  expect_matches_reference(points({{2.0, 1.0}, {3.0, 1.0}}));
  expect_matches_reference(
      points({{1.0, 5.0}, {1.0, 5.0}, {1.0, 4.0}, {2.0, 4.0}}));
}

TEST(SweepMatrixPareto, TenThousandRandomPointsMatchPairwise) {
  // 10k points drawn from a mix of continuous values and a coarse
  // lattice, so equal-power groups, equal-delay ties, and exact
  // duplicates all occur in bulk.
  Rng rng(0x9a2e70u);
  std::vector<SweepCellResult> cells(10000);
  for (SweepCellResult& cell : cells) {
    if (rng.next_bool(0.5)) {
      cell.power_uw = 100.0 * rng.next_double();
      cell.arrival_ns = 10.0 * rng.next_double();
    } else {
      cell.power_uw = static_cast<double>(rng.next_below(40));
      cell.arrival_ns = static_cast<double>(rng.next_below(40)) / 4.0;
    }
  }
  expect_matches_reference(std::move(cells));
}

TEST(SweepMatrixPareto, StaircaseWithPlateaus) {
  // A descending staircase (all on the front) interleaved with interior
  // points one step above it (all dominated).
  std::vector<std::pair<double, double>> pd;
  for (int i = 0; i < 64; ++i) {
    pd.push_back({static_cast<double>(i), static_cast<double>(64 - i)});
    pd.push_back({static_cast<double>(i) + 0.5,
                  static_cast<double>(64 - i) + 0.5});
  }
  std::vector<SweepCellResult> cells = points(pd);
  const std::vector<int> front = mark_pareto(cells);
  ASSERT_EQ(front.size(), 64u);
  for (int i : front) EXPECT_EQ(i % 2, 0);
  expect_matches_reference(std::move(cells));
}

TEST(SweepMatrixSuite, BaseCellsEqualSuiteRows) {
  // At the base ladder and the default area budget, every sweep cell is
  // the suite engine's (circuit, algorithm) cell: same seeds, same
  // starting state, same numbers.
  const Library lib = build_compass_library();
  SuiteOptions options;
  options.circuits = {"b9", "x2", "C432", "i10", "k2", "C1355"};
  options.num_threads = 2;
  const SuiteReport suite = run_suite(options, &lib);
  ASSERT_EQ(suite.rows.size(), options.circuits.size());

  ThreadPool pool(2);
  for (const CircuitRunResult& row : suite.rows) {
    const McncDescriptor* d = find_mcnc(row.name);
    ASSERT_NE(d, nullptr);
    SweepMatrixSpec spec;
    spec.base = SuiteOptions{}.flow;
    spec.circuit_seed = mix_seed(options.seed, d->seed);
    const SweepMatrixResult sweep = run_sweep_matrix(
        [d](const Library& l) { return build_mcnc_circuit(l, *d); }, lib,
        spec, &pool);
    ASSERT_EQ(sweep.cells.size(), 3u) << row.name;
    for (const SweepCellResult& cell : sweep.cells) {
      SCOPED_TRACE(row.name + "/" + cell.algo);
      EXPECT_EQ(cell.tspec_ns, row.tspec_ns);
      EXPECT_EQ(cell.org_power_uw, row.org_power_uw);
      if (cell.algo == "cvs") {
        EXPECT_EQ(cell.improve_pct, row.cvs_improve_pct);
        EXPECT_EQ(cell.low, row.cvs_low);
      } else if (cell.algo == "dscale") {
        EXPECT_EQ(cell.improve_pct, row.dscale_improve_pct);
        EXPECT_EQ(cell.low, row.dscale_low);
        EXPECT_EQ(cell.level_converters, row.dscale_lcs);
      } else {
        ASSERT_EQ(cell.algo, "gscale");
        EXPECT_EQ(cell.improve_pct, row.gscale_improve_pct);
        EXPECT_EQ(cell.low, row.gscale_low);
        EXPECT_EQ(cell.resized, row.gscale_resized);
        EXPECT_EQ(cell.area_increase, row.gscale_area_increase);
      }
    }
  }
}

}  // namespace
}  // namespace dvs
