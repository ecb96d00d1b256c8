#include "timing/sta.hpp"

#include <gtest/gtest.h>

#include "timing/tcb.hpp"

namespace dvs {
namespace {

class StaTest : public ::testing::Test {
 protected:
  Library lib_ = build_compass_library();

  /// Chain of `n` inverters from one PI to one PO.
  Network inv_chain(int n) {
    Network net("chain");
    NodeId prev = net.add_input("a");
    const int inv = lib_.find("inv_d0");
    for (int i = 0; i < n; ++i)
      prev = net.add_gate(tt_inv(), {prev}, inv);
    net.add_output("y", prev);
    return net;
  }
};

TEST_F(StaTest, ChainDelayIsAdditive) {
  const StaResult s3 = run_sta(inv_chain(3), lib_, -1.0);
  const StaResult s6 = run_sta(inv_chain(6), lib_, -1.0);
  EXPECT_GT(s3.worst_arrival, 0.0);
  // Interior stages are identical; doubling the chain roughly doubles the
  // delay (the port-loaded last stage differs, hence the tolerance).
  EXPECT_NEAR(s6.worst_arrival / s3.worst_arrival, 2.0, 0.35);
}

TEST_F(StaTest, SlackZeroEverywhereOnSingleChain) {
  Network net = inv_chain(5);
  const StaResult sta = run_sta(net, lib_, -1.0);
  net.for_each_gate([&](const Node& g) {
    EXPECT_NEAR(sta.slack[g.id], 0.0, 1e-9);
  });
  EXPECT_TRUE(sta.meets_constraint());
  EXPECT_NEAR(sta.worst_slack(), 0.0, 1e-12);
}

TEST_F(StaTest, RelaxedTspecGivesUniformSlack) {
  Network net = inv_chain(5);
  const StaResult tight = run_sta(net, lib_, -1.0);
  const StaResult loose = run_sta(net, lib_, tight.worst_arrival * 1.2);
  net.for_each_gate([&](const Node& g) {
    EXPECT_NEAR(loose.slack[g.id], tight.worst_arrival * 0.2, 1e-9);
  });
}

TEST_F(StaTest, LowVoltageIncreasesArrival) {
  Network net = inv_chain(4);
  const StaResult high = run_sta(net, lib_, -1.0);
  std::vector<double> vdd(net.size(), lib_.vdd_low());
  TimingContext ctx;
  ctx.net = &net;
  ctx.lib = &lib_;
  ctx.node_vdd = vdd;
  const StaResult low = run_sta(ctx, -1.0);
  EXPECT_GT(low.worst_arrival, high.worst_arrival * 1.05);
}

TEST_F(StaTest, LevelConverterAddsArcDelay) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const int inv = lib_.find("inv_d0");
  const NodeId g1 = net.add_gate(tt_inv(), {a}, inv);
  const NodeId g2 = net.add_gate(tt_inv(), {g1}, inv);
  net.add_output("y", g2);

  std::vector<double> vdd(net.size(), lib_.vdd_high());
  vdd[g1] = lib_.vdd_low();
  std::vector<char> lc(net.size(), 0);
  TimingContext ctx;
  ctx.net = &net;
  ctx.lib = &lib_;
  ctx.node_vdd = vdd;
  ctx.lc_on_output = lc;
  const StaResult without = run_sta(ctx, -1.0);
  lc[g1] = 1;
  const StaResult with = run_sta(ctx, -1.0);
  EXPECT_GT(with.worst_arrival, without.worst_arrival + 0.05);
  EXPECT_GT(with.lc_load[g1], 0.0);
}

TEST_F(StaTest, NegativeUnateSwapsEdges) {
  Network net("t");
  const NodeId a = net.add_input("a");
  const NodeId g = net.add_gate(tt_inv(), {a}, lib_.find("inv_d0"));
  net.add_output("y", g);
  const StaResult sta = run_sta(net, lib_, -1.0);
  // Output rise is driven by input fall: with zero input arrival both
  // edges are just the arc delays, rise slower than fall by construction.
  EXPECT_GT(sta.arrival[g].rise, sta.arrival[g].fall);
}

TEST_F(StaTest, WorstDelayIncreaseMatchesFactor) {
  const Cell& cell = lib_.cell(lib_.find("nand2_d0"));
  const double load = 10.0;
  const double inc = worst_delay_increase(lib_, cell, lib_.vdd_high(),
                                          lib_.vdd_low(), load);
  const double base = arc_delay(lib_, cell, 0, lib_.vdd_high(), load).max();
  const double scaled = arc_delay(lib_, cell, 0, lib_.vdd_low(), load).max();
  EXPECT_NEAR(inc, scaled - base, 1e-9);
  EXPECT_GT(inc, 0.0);
}

TEST_F(StaTest, TcbOfTightChainIsThePoDriver) {
  Network net = inv_chain(4);
  std::vector<double> vdd(net.size(), lib_.vdd_high());
  std::vector<SupplyId> level(net.size(), kTopRung);
  TimingContext ctx;
  ctx.net = &net;
  ctx.lib = &lib_;
  ctx.node_vdd = vdd;
  ctx.node_level = level;
  const StaResult sta = run_sta(ctx, -1.0);  // zero slack everywhere
  const std::vector<NodeId> tcb = compute_tcb(ctx, sta);
  ASSERT_EQ(tcb.size(), 1u);
  EXPECT_EQ(tcb[0], net.outputs()[0].driver);
}

TEST_F(StaTest, TcbEmptyWhenEverythingFits) {
  Network net = inv_chain(4);
  std::vector<double> vdd(net.size(), lib_.vdd_high());
  std::vector<SupplyId> level(net.size(), kTopRung);
  TimingContext ctx;
  ctx.net = &net;
  ctx.lib = &lib_;
  ctx.node_vdd = vdd;
  ctx.node_level = level;
  const StaResult tight = run_sta(ctx, -1.0);
  const StaResult loose = run_sta(ctx, tight.worst_arrival * 2.0);
  EXPECT_TRUE(compute_tcb(ctx, loose).empty());
}

}  // namespace
}  // namespace dvs
