// Randomized property test for the incremental STA: commit hundreds of
// random supply / cell-size / level-converter flips on random-DAG
// circuits and require the event-driven state to match a from-scratch
// analysis after every single commit.  This is the contract the Dscale /
// Gscale hot loops (and CVS) lean on.
#include <gtest/gtest.h>

#include "dual_ladder.hpp"
#include "random_flips.hpp"

#include <cmath>

#include "benchgen/random_dag.hpp"
#include "core/design.hpp"
#include "support/rng.hpp"
#include "timing/graph.hpp"
#include "timing/incremental.hpp"
#include "oracle/reference.hpp"

namespace dvs {
namespace {

class IncrementalVsFullTest : public ::testing::Test {
 protected:
  Library lib_ = build_compass_library();

  Network random_circuit(std::uint64_t seed, double critical_fraction) {
    HybridSpec spec;
    spec.gates = 160;
    spec.pis = 16;
    spec.pos = 8;
    spec.critical_fraction = critical_fraction;
    spec.seed = seed;
    return build_hybrid_circuit(lib_, spec,
                                "rnd" + std::to_string(seed));
  }
};

TEST_F(IncrementalVsFullTest, TwoHundredRandomFlipsStayConsistent) {
  Rng rng(2024);
  Network net = random_circuit(77, 0.4);
  Design design(std::move(net), lib_);
  IncrementalSta timer(design.timing_context(), design.tspec());
  ASSERT_TRUE(timer.matches_full_sta());

  int committed = 0;
  while (committed < 200) {
    const NodeId id = random_flip(design, rng);
    if (id == kNoNode) continue;
    timer.on_node_changed(id);
    ++committed;
    ASSERT_TRUE(timer.matches_full_sta())
        << "diverged after commit " << committed << " (node " << id << ")";
  }
}

TEST_F(IncrementalVsFullTest, HoldsAcrossCircuitShapes) {
  // Shallow slack-rich and deep critical circuits stress different event
  // fan-outs; 60 flips each.
  for (const double critical : {0.0, 0.5, 0.9}) {
    Rng rng(1234 + static_cast<std::uint64_t>(critical * 10));
    Network net = random_circuit(500 + static_cast<int>(critical * 10),
                                 critical);
    Design design(std::move(net), lib_);
    IncrementalSta timer(design.timing_context(), design.tspec());
    int committed = 0;
    while (committed < 60) {
      const NodeId id = random_flip(design, rng);
      if (id == kNoNode) continue;
      timer.on_node_changed(id);
      ++committed;
      ASSERT_TRUE(timer.matches_full_sta())
          << "critical=" << critical << " commit=" << committed;
    }
  }
}

/// The compiled-graph STA and the seed reference oracle must agree to
/// the last bit — rise/fall arrivals, requireds, loads, slacks.
void expect_exactly_reference(const Design& design) {
  const TimingContext ctx = design.timing_context();
  const StaResult flat = run_sta(ctx, design.tspec());
  const StaResult oracle = run_sta_reference(ctx, design.tspec());
  ASSERT_EQ(flat.worst_arrival, oracle.worst_arrival);
  design.network().for_each_node([&](const Node& n) {
    const NodeId i = n.id;
    ASSERT_EQ(flat.arrival[i].rise, oracle.arrival[i].rise) << i;
    ASSERT_EQ(flat.arrival[i].fall, oracle.arrival[i].fall) << i;
    ASSERT_EQ(flat.lc_arrival[i].rise, oracle.lc_arrival[i].rise) << i;
    ASSERT_EQ(flat.load[i], oracle.load[i]) << i;
    ASSERT_EQ(flat.lc_load[i], oracle.lc_load[i]) << i;
    if (!std::isinf(oracle.required[i].rise))
      ASSERT_EQ(flat.required[i].rise, oracle.required[i].rise) << i;
    if (!std::isinf(oracle.slack[i]))
      ASSERT_EQ(flat.slack[i], oracle.slack[i]) << i;
  });
}

TEST_F(IncrementalVsFullTest, ThreeLevelRandomFlipsMatchReferenceExactly) {
  // N-level ladders put converters on arbitrary upward rung boundaries
  // (rung 2 -> rung 1, rung 1 -> rung 0, rung 2 -> rung 0); every one of
  // them must time identically in the incremental engine, the flat
  // graph STA, and the seed reference oracle.
  Library lib3 = build_compass_library();
  lib3.set_supply_ladder(SupplyLadder({5.0, 4.3, 3.6}));
  HybridSpec spec;
  spec.gates = 160;
  spec.pis = 16;
  spec.pos = 8;
  spec.critical_fraction = 0.4;
  spec.seed = 314;
  Network net = build_hybrid_circuit(lib3, spec, "rnd3");
  Design design(std::move(net), lib3);
  IncrementalSta timer(design.timing_context(), design.tspec());
  ASSERT_TRUE(timer.matches_full_sta());
  expect_exactly_reference(design);

  std::vector<NodeId> gates;
  design.network().for_each_gate([&](const Node& g) {
    if (g.cell >= 0) gates.push_back(g.id);
  });
  ASSERT_FALSE(gates.empty());

  Rng rng(777);
  const SupplyId depth = static_cast<SupplyId>(lib3.supplies().depth());
  for (int committed = 0; committed < 120; ++committed) {
    const NodeId id = gates[rng.next_below(gates.size())];
    // Uniform re-draw over all three rungs, biased to actually move.
    SupplyId target = static_cast<SupplyId>(rng.next_below(depth));
    if (target == design.level(id))
      target = static_cast<SupplyId>((target + 1) % depth);
    design.set_level(id, target);
    timer.on_node_changed(id);
    ASSERT_TRUE(timer.matches_full_sta())
        << "diverged after commit " << committed << " (node " << id << ")";
    if (committed % 10 == 0) expect_exactly_reference(design);
  }
  expect_exactly_reference(design);
  // The run exercised real multi-rung boundaries.
  EXPECT_GT(design.count_at(1) + design.count_at(2), 0);
}

TEST_F(IncrementalVsFullTest, LadderStepsOnFourHundredGatesStayExact) {
  // 400-gate hybrids under supply retargets and resizes on 2-, 3- and
  // 4-rung ladders.  After every step each field of the maintained state
  // must equal a fresh full analysis exactly: a change test with any
  // tolerance stops propagating sub-ulp moves and fails here.
  const std::vector<std::vector<double>> ladders = {
      {5.0, 4.3}, {5.0, 4.3, 3.6}, {5.0, 4.6, 4.2, 3.8}};
  int steps = 0;
  for (const std::vector<double>& rungs : ladders) {
    Library lib = build_compass_library();
    lib.set_supply_ladder(SupplyLadder(rungs));
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      HybridSpec spec;
      spec.gates = 400;
      spec.pis = 24;
      spec.pos = 12;
      spec.critical_fraction = 0.2 * static_cast<double>(seed % 5);
      spec.seed = seed;
      Design design(
          build_hybrid_circuit(lib, spec, "lad" + std::to_string(seed)),
          lib);
      IncrementalSta timer(design.timing_context(), design.tspec());
      Rng rng(seed * 7919 + rungs.size());
      for (int draw = 0; draw < 300; ++draw) {
        const NodeId id = random_flip(design, rng);
        if (id == kNoNode) continue;
        timer.on_node_changed(id);
        ++steps;
        ASSERT_TRUE(timer.matches_full_sta())
            << rungs.size() << " rungs, seed " << seed << ", draw " << draw
            << " (node " << id << ")";
      }
    }
  }
  EXPECT_GT(steps, 10000);
}

TEST_F(IncrementalVsFullTest, BulkLowerThenRepairMatchesFull) {
  // The Dscale commit pattern: lower a batch, then revert members one by
  // one; the timer must track every step.
  Network net = random_circuit(99, 0.3);
  Design design(std::move(net), lib_);
  IncrementalSta timer(design.timing_context(), design.tspec());

  std::vector<NodeId> lowered;
  design.network().for_each_gate([&](const Node& g) {
    if (g.cell >= 0 && lowered.size() < 25) lowered.push_back(g.id);
  });
  for (NodeId id : lowered) {
    design.set_level(id, kLowRung);
    timer.on_node_changed(id);
  }
  ASSERT_TRUE(timer.matches_full_sta());
  for (NodeId id : lowered) {
    design.set_level(id, kTopRung);
    timer.on_node_changed(id);
    ASSERT_TRUE(timer.matches_full_sta());
  }
}

TEST_F(IncrementalVsFullTest, BatchedResizeThenNotifyMatchesFull) {
  // Two batched cell-edit patterns, each leaving the timer with several
  // unannounced changes at once.  First, the Gscale commit: upsize a
  // batch and notify it, then revert one cell at a time, notifying
  // between reverts, with the state exact after every revert.  Second:
  // upsize a batch, re-sync the shared graph to it behind the timer's
  // back, revert a prefix, and only then notify once per touched node.
  Network net = random_circuit(4242, 0.5);
  Design design(std::move(net), lib_);
  IncrementalSta timer(design.timing_context(), design.tspec());
  std::vector<NodeId> gates;
  design.network().for_each_gate([&](const Node& g) {
    if (g.cell >= 0) gates.push_back(g.id);
  });
  struct Touched {
    NodeId id;
    int old_cell;
  };
  Rng rng(99);
  const auto upsize_batch = [&] {
    std::vector<Touched> touched;
    for (int i = 0; i < 12; ++i) {
      const NodeId id = gates[rng.next_below(gates.size())];
      const int up = lib_.upsize(design.network().node(id).cell);
      bool seen = false;
      for (const Touched& t : touched) seen = seen || t.id == id;
      if (up < 0 || seen) continue;
      touched.push_back({id, design.network().node(id).cell});
      design.network().set_cell(id, up);
    }
    return touched;
  };

  int reverts = 0;
  for (int round = 0; round < 40; ++round) {
    const std::vector<Touched> touched = upsize_batch();
    if (touched.empty()) continue;
    for (const Touched& t : touched) timer.on_node_changed(t.id);
    ASSERT_TRUE(timer.matches_full_sta()) << "diverged in round " << round;
    const std::size_t reverted = rng.next_below(touched.size() + 1);
    for (std::size_t j = 0; j < reverted; ++j) {
      design.network().set_cell(touched[j].id, touched[j].old_cell);
      timer.on_node_changed(touched[j].id);
      ++reverts;
      ASSERT_TRUE(timer.matches_full_sta())
          << "diverged in round " << round << " after revert " << j + 1
          << " of " << reverted;
    }
  }
  EXPECT_GT(reverts, 100);

  int batches = 0;
  for (int round = 0; round < 40; ++round) {
    const std::vector<Touched> touched = upsize_batch();
    if (touched.empty()) continue;
    design.timing_graph().sync_cells();
    const std::size_t reverted = rng.next_below(touched.size() + 1);
    for (std::size_t j = 0; j < reverted; ++j)
      design.network().set_cell(touched[j].id, touched[j].old_cell);
    for (const Touched& t : touched) timer.on_node_changed(t.id);
    ++batches;
    ASSERT_TRUE(timer.matches_full_sta())
        << "diverged after batch " << batches << " (" << touched.size()
        << " touched, " << reverted << " reverted)";
  }
  EXPECT_GT(batches, 20);
}

}  // namespace
}  // namespace dvs
