#include "timing/incremental.hpp"

#include <gtest/gtest.h>

#include "dual_ladder.hpp"

#include "benchgen/random_dag.hpp"
#include "benchgen/structured.hpp"
#include "core/design.hpp"
#include "support/rng.hpp"

namespace dvs {
namespace {

class IncrementalStaTest : public ::testing::Test {
 protected:
  Library lib_ = build_compass_library();
};

TEST_F(IncrementalStaTest, MatchesFullStaInitially) {
  Network net = build_ripple_adder(lib_, 8, "a8");
  Design design(std::move(net), lib_);
  IncrementalSta timer(design.timing_context(), design.tspec());
  EXPECT_TRUE(timer.matches_full_sta());
}

TEST_F(IncrementalStaTest, TracksSingleLowering) {
  Network net = build_ripple_adder(lib_, 8, "a8");
  Design design(std::move(net), lib_);
  IncrementalSta timer(design.timing_context(), design.tspec());
  const NodeId victim = design.network().outputs()[0].driver;
  design.set_level(victim, kLowRung);
  timer.on_node_changed(victim);
  EXPECT_TRUE(timer.matches_full_sta());
}

TEST_F(IncrementalStaTest, TracksResize) {
  Network net = build_ripple_adder(lib_, 8, "a8");
  Design design(std::move(net), lib_);
  IncrementalSta timer(design.timing_context(), design.tspec());
  const NodeId victim = design.network().outputs()[2].driver;
  const int bigger = lib_.upsize(design.network().node(victim).cell);
  ASSERT_GE(bigger, 0);
  design.network().set_cell(victim, bigger);
  timer.on_node_changed(victim);
  EXPECT_TRUE(timer.matches_full_sta());
}

TEST_F(IncrementalStaTest, TracksConverterAppearance) {
  // Lower a mid-cone gate so an LC flag flips on.
  Network net = build_ripple_adder(lib_, 8, "a8");
  Design design(std::move(net), lib_);
  NodeId mid = kNoNode;
  design.network().for_each_gate([&](const Node& g) {
    if (mid != kNoNode) return;
    for (NodeId fo : g.fanouts)
      if (!design.network().node(fo).fanouts.empty()) mid = g.id;
  });
  ASSERT_NE(mid, kNoNode);
  IncrementalSta timer(design.timing_context(), design.tspec());
  design.set_level(mid, kLowRung);  // fanouts high -> LC appears
  ASSERT_TRUE(design.needs_lc(mid));
  timer.on_node_changed(mid);
  EXPECT_TRUE(timer.matches_full_sta());
  // And disappears again.
  design.set_level(mid, kTopRung);
  timer.on_node_changed(mid);
  EXPECT_TRUE(timer.matches_full_sta());
}

/// Property: a long random sequence of voltage flips and resizes tracked
/// incrementally always matches the full analysis.
class IncrementalPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalPropertyTest, RandomEditSequences) {
  static const Library lib = build_compass_library();
  Rng rng(8000 + GetParam());
  HybridSpec spec;
  spec.gates = 120;
  spec.pis = 14;
  spec.pos = 8;
  spec.critical_fraction = 0.5;
  spec.seed = 100 + GetParam();
  Network net = build_hybrid_circuit(lib, spec, "h");
  Design design(std::move(net), lib);
  IncrementalSta timer(design.timing_context(), design.tspec());

  std::vector<NodeId> gates;
  design.network().for_each_gate(
      [&](const Node& g) { gates.push_back(g.id); });
  for (int step = 0; step < 30; ++step) {
    const NodeId id = gates[rng.next_below(gates.size())];
    if (rng.next_bool(0.6)) {
      design.set_level(id, design.level(id) == kTopRung
                               ? kLowRung
                               : kTopRung);
      timer.on_node_changed(id);
      // A level flip can also flip the converter flags on the fanins;
      // the caller must notify for those too.
      for (NodeId fi : design.network().node(id).fanins)
        if (design.network().node(fi).is_gate()) timer.on_node_changed(fi);
    } else {
      const int bigger = lib.upsize(design.network().node(id).cell);
      if (bigger >= 0) {
        design.network().set_cell(id, bigger);
        timer.on_node_changed(id);
      }
    }
  }
  EXPECT_TRUE(timer.matches_full_sta());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalPropertyTest,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace dvs
