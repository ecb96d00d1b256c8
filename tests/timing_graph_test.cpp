// Equivalence and invalidation suite for the compiled flat timing graph.
// The flat-graph full STA must be BIT-identical (exact double equality,
// not epsilon-close) to the seed pointer-chasing analysis, across random
// circuits and hundreds of random supply / cell-size / LC point changes;
// the incremental engine must track every one of those changes; and a
// structural edit must invalidate Design's cached graph.
#include <gtest/gtest.h>

#include "dual_ladder.hpp"

#include <cmath>

#include "benchgen/random_dag.hpp"
#include "core/design.hpp"
#include "support/rng.hpp"
#include "timing/graph.hpp"
#include "timing/incremental.hpp"
#include "oracle/reference.hpp"

namespace dvs {
namespace {

/// Exact comparison, treating equal infinities as equal.
bool same_double(double a, double b) {
  if (std::isinf(a) || std::isinf(b)) return a == b;
  return a == b;
}

::testing::AssertionResult bit_identical(const StaResult& flat,
                                         const StaResult& ref,
                                         const Network& net) {
  if (flat.tspec != ref.tspec || flat.worst_arrival != ref.worst_arrival)
    return ::testing::AssertionFailure()
           << "tspec/worst_arrival differ: " << flat.tspec << "/"
           << flat.worst_arrival << " vs " << ref.tspec << "/"
           << ref.worst_arrival;
  for (int id = 0; id < net.size(); ++id) {
    if (!net.is_valid(id)) continue;
    if (flat.arrival[id].rise != ref.arrival[id].rise ||
        flat.arrival[id].fall != ref.arrival[id].fall ||
        flat.lc_arrival[id].rise != ref.lc_arrival[id].rise ||
        flat.lc_arrival[id].fall != ref.lc_arrival[id].fall ||
        flat.load[id] != ref.load[id] ||
        flat.lc_load[id] != ref.lc_load[id] ||
        !same_double(flat.required[id].rise, ref.required[id].rise) ||
        !same_double(flat.required[id].fall, ref.required[id].fall) ||
        !same_double(flat.slack[id], ref.slack[id]))
      return ::testing::AssertionFailure()
             << "node " << id << " diverges: arrival ("
             << flat.arrival[id].rise << ", " << flat.arrival[id].fall
             << ") vs (" << ref.arrival[id].rise << ", "
             << ref.arrival[id].fall << "), load " << flat.load[id]
             << " vs " << ref.load[id];
  }
  return ::testing::AssertionSuccess();
}

class TimingGraphTest : public ::testing::Test {
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
                                "tg" + std::to_string(seed));
  }

  /// One random point change: a supply flip (LC flags migrate via
  /// Design), a one-step upsize, or a one-step downsize.
  NodeId random_flip(Design& design, Rng& rng) {
    const Network& net = design.network();
    std::vector<NodeId> gates;
    net.for_each_gate([&](const Node& g) {
      if (g.cell >= 0) gates.push_back(g.id);
    });
    if (gates.empty()) return kNoNode;
    const NodeId id = gates[rng.next_below(gates.size())];
    switch (rng.next_below(3)) {
      case 0:
        design.set_level(id, design.level(id) == kTopRung
                                 ? kLowRung
                                 : kTopRung);
        return id;
      case 1: {
        const int up = lib_.upsize(net.node(id).cell);
        if (up < 0) return kNoNode;
        design.network().set_cell(id, up);
        return id;
      }
      default: {
        const int down = lib_.downsize(net.node(id).cell);
        if (down < 0) return kNoNode;
        design.network().set_cell(id, down);
        return id;
      }
    }
  }
};

TEST_F(TimingGraphTest, CompiledStructureMatchesNetwork) {
  const Network net = random_circuit(11, 0.5);
  const TimingGraph g(net, lib_);

  EXPECT_EQ(g.structural_version(), net.structural_version());
  EXPECT_TRUE(g.describes(net, lib_));

  // Fanin CSR mirrors Node::fanins verbatim; unique-fanout entries
  // reproduce the for_each_unique_fanout visit order with ascending pins
  // and their pin caps.
  net.for_each_node([&](const Node& node) {
    const auto fi = g.fanins(node.id);
    ASSERT_EQ(fi.size(), node.fanins.size());
    for (std::size_t k = 0; k < fi.size(); ++k)
      EXPECT_EQ(fi[k], node.fanins[k]);

    std::vector<NodeId> expected_uniq;
    for_each_unique_fanout(node,
                           [&](NodeId v) { expected_uniq.push_back(v); });
    const auto uniq = g.unique_fanouts(node.id);
    ASSERT_EQ(uniq.size(), expected_uniq.size());
    std::size_t entry_cursor = 0;
    const auto pins = g.fanout_pins(node.id);
    const auto caps = g.fanout_pin_caps(node.id);
    for (std::size_t k = 0; k < uniq.size(); ++k) {
      EXPECT_EQ(uniq[k], expected_uniq[k]);
      const Node& sink = net.node(expected_uniq[k]);
      for (std::size_t pin = 0; pin < sink.fanins.size(); ++pin) {
        if (sink.fanins[pin] != node.id) continue;
        ASSERT_LT(entry_cursor, pins.size());
        EXPECT_EQ(pins[entry_cursor].sink, sink.id);
        EXPECT_EQ(pins[entry_cursor].pin, static_cast<int>(pin));
        const double cap = sink.cell >= 0
                               ? lib_.cell(sink.cell).input_cap[pin]
                               : 6.0;
        EXPECT_EQ(caps[entry_cursor], cap);
        ++entry_cursor;
      }
    }
    EXPECT_EQ(entry_cursor, pins.size());
  });

  int total_ports = 0;
  for (int id = 0; id < net.size(); ++id)
    total_ports += g.port_fanout_count(id);
  EXPECT_EQ(total_ports, static_cast<int>(net.outputs().size()));
}

TEST_F(TimingGraphTest, FlatStaBitIdenticalToReferenceAcrossShapes) {
  for (const double critical : {0.0, 0.4, 0.9}) {
    Network net = random_circuit(
        300 + static_cast<int>(critical * 10), critical);
    Design design(std::move(net), lib_);
    const TimingContext ctx = design.timing_context();
    const StaResult flat = run_sta(ctx, design.tspec());
    const StaResult ref = run_sta_reference(ctx, design.tspec());
    EXPECT_TRUE(bit_identical(flat, ref, design.network()))
        << "critical=" << critical;
  }
}

TEST_F(TimingGraphTest, TwoHundredRandomFlipsStayBitIdentical) {
  Rng rng(7101);
  Network net = random_circuit(42, 0.4);
  Design design(std::move(net), lib_);
  IncrementalSta timer(design.timing_context(), design.tspec());

  int committed = 0;
  while (committed < 200) {
    const NodeId id = random_flip(design, rng);
    if (id == kNoNode) continue;
    timer.on_node_changed(id);
    ++committed;
    const TimingContext ctx = design.timing_context();
    const StaResult flat = run_sta(ctx, design.tspec());
    const StaResult ref = run_sta_reference(ctx, design.tspec());
    ASSERT_TRUE(bit_identical(flat, ref, design.network()))
        << "diverged after commit " << committed << " (node " << id << ")";
    ASSERT_TRUE(timer.matches_full_sta())
        << "incremental diverged after commit " << committed;
  }
}

TEST_F(TimingGraphTest, DesignRecompilesOnStructuralEdit) {
  Network net = random_circuit(99, 0.3);
  Design design(std::move(net), lib_);
  const TimingGraph* before = &design.timing_graph();
  const std::uint64_t version_before = before->structural_version();

  // Point changes patch in place: same compilation object.
  std::vector<NodeId> gates;
  design.network().for_each_gate([&](const Node& g) {
    if (g.cell >= 0) gates.push_back(g.id);
  });
  design.set_level(gates.front(), kLowRung);
  const int up = lib_.upsize(design.network().node(gates.back()).cell);
  if (up >= 0) design.network().set_cell(gates.back(), up);
  EXPECT_EQ(&design.timing_graph(), before);
  EXPECT_EQ(design.timing_graph().structural_version(), version_before);

  // A structural edit (buffer insertion) bumps the network version and
  // forces a recompile; timing over the new graph still matches the
  // reference walk exactly.
  const NodeId driver = gates.front();
  std::vector<NodeId> moved;
  for (NodeId fo : design.network().node(driver).fanouts) {
    moved.push_back(fo);
    break;
  }
  ASSERT_FALSE(moved.empty());
  const int buf_cell = lib_.smallest_of("buf");
  design.network().insert_between(driver, moved, {}, tt_buf(),
                                  buf_cell, "tg_buf");
  design.sync_with_network();

  const TimingGraph& after = design.timing_graph();
  EXPECT_NE(after.structural_version(), version_before);
  EXPECT_TRUE(after.describes(design.network(), lib_));

  const TimingContext ctx = design.timing_context();
  const StaResult flat = run_sta(ctx, design.tspec());
  const StaResult ref = run_sta_reference(ctx, design.tspec());
  EXPECT_TRUE(bit_identical(flat, ref, design.network()));
}

TEST_F(TimingGraphTest, StaleGraphInContextFallsBackToFreshCompile) {
  Network net = random_circuit(5, 0.2);
  Design design(std::move(net), lib_);
  TimingContext ctx = design.timing_context();

  // Invalidate behind the context's back: the analysis must notice the
  // version mismatch and compile its own view instead of reading the
  // stale one.
  const TimingGraph stale = design.timing_graph();
  const NodeId driver = design.network().inputs()[0];
  std::vector<NodeId> sinks;
  for (NodeId fo : design.network().node(driver).fanouts) {
    sinks.push_back(fo);
    break;
  }
  ASSERT_FALSE(sinks.empty());
  design.network().insert_between(driver, sinks, {}, tt_buf(),
                                  lib_.smallest_of("buf"), "tg_buf2");
  design.sync_with_network();

  ctx = design.timing_context();
  TimingContext stale_ctx = ctx;
  stale_ctx.graph = &stale;
  const StaResult via_stale = run_sta(stale_ctx, design.tspec());
  const StaResult ref = run_sta_reference(ctx, design.tspec());
  EXPECT_TRUE(bit_identical(via_stale, ref, design.network()));
}

}  // namespace
}  // namespace dvs
