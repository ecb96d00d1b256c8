#include "power/power_model.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "random_flips.hpp"

#include "benchgen/mcnc.hpp"
#include "benchgen/random_dag.hpp"
#include "core/dscale.hpp"
#include "power/incremental.hpp"
#include "support/units.hpp"
#include "timing/incremental.hpp"

namespace dvs {
namespace {

class PowerTest : public ::testing::Test {
 protected:
  Library lib_ = build_compass_library();
};

TEST_F(PowerTest, SingleInverterHandComputation) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const int inv = lib_.find("inv_d0");
  const NodeId g = net.add_gate(tt_inv(), {a}, inv);
  net.add_output("y", g);

  Activity act;
  act.alpha01.assign(net.size(), 0.0);
  act.prob_one.assign(net.size(), 0.5);
  act.alpha01[g] = 0.25;
  act.alpha01[a] = 0.25;

  const PowerBreakdown p = compute_power(net, lib_, act, 20.0);
  // Inverter drives only the port: 25 fF + wire(1).
  const double load = 25.0 + lib_.wire_load().wire_cap(1);
  const double vdd2 = lib_.vdd_high() * lib_.vdd_high();
  const double expected_g =
      0.25 * 20.0 * load * vdd2 * kSwitchPowerToMicrowatt;
  // The PI-driven net is charged to the upstream block, not this design.
  EXPECT_NEAR(p.switching, expected_g, 1e-9);
  EXPECT_DOUBLE_EQ(p.node_power[a], 0.0);
  EXPECT_GT(p.internal, 0.0);
  EXPECT_GT(p.leakage, 0.0);
  EXPECT_DOUBLE_EQ(p.converter, 0.0);
  EXPECT_NEAR(p.total(),
              p.switching + p.internal + p.converter + p.leakage, 1e-12);
}

TEST_F(PowerTest, QuadraticInSupply) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId g = net.add_gate(tt_inv(), {a}, lib_.find("inv_d0"));
  net.add_output("y", g);
  Activity act;
  act.alpha01.assign(net.size(), 0.2);
  act.prob_one.assign(net.size(), 0.5);

  std::vector<double> vdd_high(net.size(), lib_.vdd_high());
  std::vector<double> vdd_low(net.size(), lib_.vdd_low());
  PowerContext ctx;
  ctx.net = &net;
  ctx.lib = &lib_;
  ctx.alpha01 = act.alpha01;
  ctx.node_vdd = vdd_high;
  const double ph = compute_power(ctx).switching;
  ctx.node_vdd = vdd_low;
  const double pl = compute_power(ctx).switching;
  const double ratio = (4.3 * 4.3) / (5.0 * 5.0);
  EXPECT_NEAR(pl / ph, ratio, 1e-9);
}

TEST_F(PowerTest, ConverterPowerAppearsWithFlag) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const int inv = lib_.find("inv_d0");
  const NodeId g1 = net.add_gate(tt_inv(), {a}, inv);
  const NodeId g2 = net.add_gate(tt_inv(), {g1}, inv);
  net.add_output("y", g2);
  Activity act;
  act.alpha01.assign(net.size(), 0.25);

  std::vector<double> vdd(net.size(), lib_.vdd_high());
  vdd[g1] = lib_.vdd_low();
  std::vector<char> lc(net.size(), 0);
  PowerContext ctx;
  ctx.net = &net;
  ctx.lib = &lib_;
  ctx.alpha01 = act.alpha01;
  ctx.node_vdd = vdd;
  ctx.lc_on_output = lc;
  EXPECT_DOUBLE_EQ(compute_power(ctx).converter, 0.0);
  lc[g1] = 1;
  const PowerBreakdown with = compute_power(ctx);
  EXPECT_GT(with.converter, 0.0);
  EXPECT_GT(with.node_power[g1], 0.0);
}

TEST_F(PowerTest, LoweringAGateReducesItsPower) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId g = net.add_gate(tt_inv(), {a}, lib_.find("inv_d0"));
  net.add_output("y", g);
  Activity act;
  act.alpha01.assign(net.size(), 0.25);

  std::vector<double> vdd(net.size(), lib_.vdd_high());
  PowerContext ctx;
  ctx.net = &net;
  ctx.lib = &lib_;
  ctx.alpha01 = act.alpha01;
  ctx.node_vdd = vdd;
  const double before = compute_power(ctx).node_power[g];
  vdd[g] = lib_.vdd_low();
  const double after = compute_power(ctx).node_power[g];
  EXPECT_LT(after, before);
}

TEST_F(PowerTest, NodePowerSumsToTotal) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId g1 = net.add_gate(tt_nand(2), {a, b}, lib_.find("nand2_d0"));
  const NodeId g2 = net.add_gate(tt_inv(), {g1}, lib_.find("inv_d1"));
  net.add_output("y", g2);
  Activity act;
  act.alpha01.assign(net.size(), 0.2);
  const PowerBreakdown p = compute_power(net, lib_, act, 20.0);
  double sum = 0.0;
  for (double v : p.node_power) sum += v;
  EXPECT_NEAR(sum, p.total(), 1e-9);
}

// ---- IncrementalPower -------------------------------------------------------

/// The incremental-engine streams (incremental_vs_full_test's random rung
/// and resize flips on 400-gate hybrids, 2-, 3- and 4-rung ladders): after
/// every step the maintained power must equal a fresh compute_power in
/// every field, and total() must equal run_power().total(), with `==`.
TEST(IncrementalPowerTest, LadderStreamsMatchFullPowerExactly) {
  const std::vector<std::vector<double>> ladders = {
      {5.0, 4.3}, {5.0, 4.3, 3.6}, {5.0, 4.6, 4.2, 3.8}};
  int steps = 0;
  int lc_moves = 0;  // steps that added or removed a converter
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
      IncrementalPower power(design.power_context(), timer);
      ASSERT_TRUE(power.matches_full_power());
      Rng rng(seed * 7919 + rungs.size());
      for (int draw = 0; draw < 300; ++draw) {
        const int lcs = design.count_lcs();
        const NodeId id = random_flip(design, rng);
        if (id == kNoNode) continue;
        timer.on_node_changed(id);
        power.on_node_changed(id);
        ++steps;
        lc_moves += design.count_lcs() != lcs;
        ASSERT_TRUE(power.matches_full_power())
            << rungs.size() << " rungs, seed " << seed << ", draw " << draw
            << " (node " << id << ")";
        ASSERT_EQ(power.total(), design.run_power().total());
      }
    }
  }
  EXPECT_GT(steps, 10000);
  EXPECT_GT(lc_moves, 1000);
}

/// Several changes made before any notify, then one timer-then-power
/// notify per touched node: exact once every touched node is notified.
TEST(IncrementalPowerTest, BatchedChangesThenNotifyMatchFullPower) {
  const Library lib = build_compass_library();
  HybridSpec spec;
  spec.gates = 160;
  spec.pis = 16;
  spec.pos = 8;
  spec.critical_fraction = 0.5;
  spec.seed = 4242;
  Design design(build_hybrid_circuit(lib, spec, "rnd4242"), lib);
  IncrementalSta timer(design.timing_context(), design.tspec());
  IncrementalPower power(design.power_context(), timer);
  Rng rng(99);
  for (int round = 0; round < 40; ++round) {
    std::vector<NodeId> touched;
    for (int i = 0; i < 12; ++i) {
      const NodeId id = random_flip(design, rng);
      if (id != kNoNode) touched.push_back(id);
    }
    for (NodeId id : touched) {
      timer.on_node_changed(id);
      power.on_node_changed(id);
    }
    ASSERT_TRUE(power.matches_full_power()) << "round " << round;
  }
}

/// Dscale's trim (trim_boundary) walked step by step on C432 and alu4:
/// the engine must match compute_power after each trial raise and each
/// revert, and the walk must make the decisions trim_boundary makes.
TEST(IncrementalPowerTest, TrimBoundaryTrialsMatchFullPower) {
  const Library lib = build_compass_library();
  DscaleOptions untrimmed;
  untrimmed.trim_unprofitable = false;
  int trials = 0;
  int reverts = 0;
  for (const char* name : {"C432", "alu4"}) {
    Design design(build_mcnc_circuit(lib, *find_mcnc(name)), lib);
    run_dscale(design, untrimmed);
    Design reference = design;

    IncrementalSta timer(design.timing_context(), design.tspec());
    IncrementalPower power(design.power_context(), timer);
    ASSERT_TRUE(power.matches_full_power()) << name;
    const Network& net = design.network();
    int raised_total = 0;
    double best = power.total();
    for (bool changed = true; changed;) {
      changed = false;
      std::vector<NodeId> boundary;
      net.for_each_gate([&](const Node& g) {
        if (design.needs_lc(g.id)) boundary.push_back(g.id);
      });
      for (NodeId id : boundary) {
        const SupplyId previous = design.level(id);
        SupplyId raised = previous;
        for (NodeId fo : net.node(id).fanouts)
          if (net.node(fo).is_gate())
            raised = std::min(raised, design.level(fo));
        if (raised == previous) continue;
        design.set_level(id, raised);
        timer.on_node_changed(id);
        power.on_node_changed(id);
        ++trials;
        ASSERT_TRUE(power.matches_full_power()) << name << " raise " << id;
        const double trial = power.total();
        ASSERT_EQ(trial, design.run_power().total()) << name;
        if (trial < best - 1e-12 && timer.result().meets_constraint(1e-9)) {
          best = trial;
          ++raised_total;
          changed = true;
        } else {
          design.set_level(id, previous);
          timer.on_node_changed(id);
          power.on_node_changed(id);
          ++reverts;
          ASSERT_TRUE(power.matches_full_power()) << name << " revert " << id;
        }
      }
    }

    IncrementalSta reference_timer(reference.timing_context(),
                                   reference.tspec());
    EXPECT_EQ(trim_boundary(reference, reference_timer), raised_total)
        << name;
    net.for_each_gate([&](const Node& g) {
      EXPECT_EQ(design.level(g.id), reference.level(g.id)) << name;
    });
  }
  std::printf("trim walk: %d trial raises, %d reverts\n", trials, reverts);
  EXPECT_GT(trials, 0);
  EXPECT_GT(reverts, 0);
}

}  // namespace
}  // namespace dvs
