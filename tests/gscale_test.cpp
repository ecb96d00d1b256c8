#include "core/gscale.hpp"

#include <gtest/gtest.h>

#include "benchgen/structured.hpp"

namespace dvs {
namespace {

class GscaleTest : public ::testing::Test {
 protected:
  Library lib_ = build_compass_library();

  Network tight_grid(bool maxed = false, int gates = 100) {
    GridSpec spec;
    spec.gates = gates;
    spec.pis = 10;
    spec.pos = 4;
    spec.slack_branch_fraction = 0.08;
    spec.maxed_sizes = maxed;
    spec.seed = 9;
    return build_balanced_grid(lib_, spec, maxed ? "maxed" : "grid");
  }
};

TEST_F(GscaleTest, CreatesSlackWhereCvsFindsNone) {
  Network net = tight_grid();
  Design cvs_only(net, lib_);
  run_cvs(cvs_only);
  const int cvs_low = cvs_only.count_low();

  Design design(std::move(net), lib_);
  const GscaleResult r = run_gscale(design);
  EXPECT_GT(design.count_low(), cvs_low);
  EXPECT_GT(r.num_resized, 0);
  EXPECT_TRUE(design.run_timing().meets_constraint(1e-9));
}

TEST_F(GscaleTest, RespectsAreaBudget) {
  Network net = tight_grid();
  Design design(std::move(net), lib_);
  GscaleOptions options;
  options.area_budget_ratio = 0.05;
  const GscaleResult r = run_gscale(design, options);
  EXPECT_LE(r.area_increase_ratio, 0.05 + 1e-9);
  EXPECT_LE(design.total_area(),
            design.original_area() * 1.05 + 1e-6);
}

TEST_F(GscaleTest, ZeroBudgetMeansNoResizing) {
  Network net = tight_grid();
  Design design(std::move(net), lib_);
  GscaleOptions options;
  options.area_budget_ratio = 0.0;
  const GscaleResult r = run_gscale(design, options);
  EXPECT_EQ(r.num_resized, 0);
}

TEST_F(GscaleTest, MaxedCircuitCannotImprove) {
  Network net = tight_grid(/*maxed=*/true);
  Design design(std::move(net), lib_);
  const GscaleResult r = run_gscale(design);
  EXPECT_EQ(r.num_resized, 0);
  EXPECT_EQ(design.count_low(), 0);  // no slack was ever created
}

TEST_F(GscaleTest, SizingDisabledDegeneratesToCvs) {
  Network net = tight_grid();
  Design cvs_only(net, lib_);
  run_cvs(cvs_only);
  Design design(std::move(net), lib_);
  GscaleOptions options;
  options.enable_sizing = false;
  run_gscale(design, options);
  EXPECT_EQ(design.count_low(), cvs_only.count_low());
  EXPECT_EQ(design.count_resized(), 0);
}

TEST_F(GscaleTest, ImprovesPowerOnZeroSlackCircuit) {
  Network net = tight_grid();
  Design baseline(net, lib_);
  Design design(std::move(net), lib_);
  run_gscale(design);
  EXPECT_LT(design.run_power().total(),
            baseline.run_power().total());
}

TEST_F(GscaleTest, RandomCutSelectorIsSoundButWorse) {
  Network net = tight_grid();
  Design minsep(net, lib_);
  Design random(std::move(net), lib_);
  GscaleOptions options;
  options.selector = GscaleOptions::CutSelector::kRandomCut;
  run_gscale(minsep);
  run_gscale(random, options);
  EXPECT_TRUE(random.run_timing().meets_constraint(1e-9));
  // Min-weight cuts spend the area budget more efficiently; allow slack
  // for ties on small circuits.
  EXPECT_GE(minsep.count_low() + 8, random.count_low());
}

TEST_F(GscaleTest, StopsAtTheFirstPushThatChangesNothing) {
  // The grid's run ends at a fixpoint: a push that keeps no resize and
  // lowers no gate leaves the design as it found it, so the separator
  // selector would repeat it until max_iter pushes failed to move the
  // TCB.  Gscale stops at the first such push instead, so a huge
  // max_iter changes neither the result nor the push count.
  Network net = tight_grid();
  Design reference(net, lib_);
  Design design(std::move(net), lib_);
  const GscaleResult expected = run_gscale(reference);
  GscaleOptions options;
  options.max_iter = 1000;
  const GscaleResult r = run_gscale(design, options);

  EXPECT_LT(r.iterations, 100);
  EXPECT_EQ(r.iterations, expected.iterations);
  EXPECT_EQ(r.num_resized, expected.num_resized);
  EXPECT_EQ(r.cvs_lowered, expected.cvs_lowered);
  for (NodeId id = 0; id < design.network().size(); ++id) {
    EXPECT_EQ(design.network().node(id).cell,
              reference.network().node(id).cell);
    EXPECT_EQ(design.level(id), reference.level(id));
  }
}

TEST_F(GscaleTest, ClusterInvariantStillHolds) {
  Network net = tight_grid();
  Design design(std::move(net), lib_);
  run_gscale(design);
  EXPECT_TRUE(cvs_cluster_invariant_holds(design));
  EXPECT_EQ(design.count_lcs(), 0);
}

}  // namespace
}  // namespace dvs
