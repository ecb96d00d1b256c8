#include "core/design.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "dual_ladder.hpp"

#include "benchgen/mcnc.hpp"
#include "core/boundary.hpp"
#include "support/rng.hpp"

namespace dvs {
namespace {

class DesignTest : public ::testing::Test {
 protected:
  Library lib_ = build_compass_library();

  /// a -> g1 -> g2 -> po, plus g1 -> g3 -> po2 (g1 has two fanouts).
  Network make_net() {
    Network net("t");
    const NodeId a = net.add_input("a");
    const int inv = lib_.find("inv_d0");
    const NodeId g1 = net.add_gate(tt_inv(), {a}, inv);
    const NodeId g2 = net.add_gate(tt_inv(), {g1}, inv);
    const NodeId g3 = net.add_gate(tt_inv(), {g1}, inv);
    net.add_output("y", g2);
    net.add_output("z", g3);
    return net;
  }
};

TEST_F(DesignTest, StartsAllHigh) {
  Design design(make_net(), lib_);
  EXPECT_EQ(design.count_low(), 0);
  EXPECT_EQ(design.count_lcs(), 0);
  design.network().for_each_gate([&](const Node& g) {
    EXPECT_EQ(design.level(g.id), kTopRung);
    EXPECT_DOUBLE_EQ(design.node_vdd()[g.id], lib_.vdd_high());
  });
}

TEST_F(DesignTest, TspecDefaultsToMappedDelay) {
  Design design(make_net(), lib_);
  const StaResult sta = design.run_timing();
  EXPECT_NEAR(design.tspec(), sta.worst_arrival, 1e-9);
  EXPECT_TRUE(sta.meets_constraint());
}

TEST_F(DesignTest, LcFlagTracksBoundary) {
  Network net = make_net();
  const NodeId g1 = net.node(net.outputs()[0].driver).fanins[0];
  Design design(std::move(net), lib_);
  design.set_level(g1, kLowRung);
  // g1 is low, its two fanouts are high: one converter needed.
  EXPECT_TRUE(design.needs_lc(g1));
  EXPECT_EQ(design.count_lcs(), 1);
  // Lower both fanouts: the boundary disappears.
  for (NodeId fo : design.network().node(g1).fanouts)
    design.set_level(fo, kLowRung);
  EXPECT_FALSE(design.needs_lc(g1));
  EXPECT_EQ(design.count_lcs(), 0);
}

TEST_F(DesignTest, PoDriversNeverNeedConverters) {
  Network net = make_net();
  const NodeId g2 = net.outputs()[0].driver;
  Design design(std::move(net), lib_);
  design.set_level(g2, kLowRung);
  EXPECT_FALSE(design.needs_lc(g2));
}

TEST_F(DesignTest, AreaIncludesConverters) {
  Network net = make_net();
  const NodeId g1 = net.node(net.outputs()[0].driver).fanins[0];
  Design design(std::move(net), lib_);
  const double base = design.total_area();
  EXPECT_NEAR(base, design.original_area(), 1e-9);
  design.set_level(g1, kLowRung);
  EXPECT_NEAR(design.total_area(),
              base + lib_.cell(lib_.level_converter()).area, 1e-9);
}

TEST_F(DesignTest, ResizeCounting) {
  Network net = make_net();
  const NodeId g2 = net.outputs()[0].driver;
  Design design(std::move(net), lib_);
  EXPECT_EQ(design.count_resized(), 0);
  const int bigger = lib_.upsize(design.network().node(g2).cell);
  design.network().set_cell(g2, bigger);
  EXPECT_EQ(design.count_resized(), 1);
  design.network().set_cell(g2, design.original_cell(g2));
  EXPECT_EQ(design.count_resized(), 0);
}

TEST_F(DesignTest, ActivityIsCachedAndDeterministic) {
  Design design(make_net(), lib_);
  const Activity& a1 = design.activity();
  const Activity& a2 = design.activity();
  EXPECT_EQ(&a1, &a2);
  EXPECT_GT(design.run_power().total(), 0.0);
}

TEST_F(DesignTest, MaterializeConvertersInsertsRealGates) {
  Network net = make_net();
  const NodeId g1 = net.node(net.outputs()[0].driver).fanins[0];
  Design design(std::move(net), lib_);
  design.set_level(g1, kLowRung);
  std::vector<char> low_mask;
  Network materialized = materialize_level_converters(design, &low_mask);
  int converters = 0;
  materialized.for_each_gate([&](const Node& g) {
    if (g.cell >= 0 && lib_.cell(g.cell).is_level_converter) ++converters;
  });
  EXPECT_EQ(converters, 1);
  EXPECT_EQ(materialized.num_gates(),
            design.network().num_gates() + 1);
  EXPECT_TRUE(low_mask[g1]);
}

TEST_F(DesignTest, LoweringEverythingNeedsNoConverters) {
  Design design(make_net(), lib_);
  design.network().for_each_gate(
      [&](const Node& g) { design.set_level(g.id, kLowRung); });
  EXPECT_EQ(design.count_lcs(), 0);
  EXPECT_EQ(design.count_low(), 3);
}

/// "" when `carried` equals `fresh` with == on every entry (dead ids
/// included), else where the first difference is.
std::string first_difference(const std::vector<double>& carried,
                             const std::vector<double>& fresh) {
  if (carried.size() != fresh.size())
    return "size " + std::to_string(carried.size()) + " vs " +
           std::to_string(fresh.size());
  for (std::size_t id = 0; id < fresh.size(); ++id)
    if (carried[id] != fresh[id]) {
      char text[96];
      std::snprintf(text, sizeof text, "node %zu: %.17g vs %.17g", id,
                    carried[id], fresh[id]);
      return text;
    }
  return "";
}

/// Seeded random streams of level-converter (buffer) inserts and bypasses.
/// After every step the activity Design carried through the edits must
/// equal a from-scratch estimate_activity of the edited network, with ==
/// on every entry: the carry is an exact identity, not an approximation.
/// The streams cover converters on converters, converters on output-port
/// drivers (moved ports), and bypassing older converters (ones a later
/// converter hangs off) as well as the newest.
TEST_F(DesignTest, BufferEditsCarryActivityExactly) {
  ActivityOptions options;
  options.seed = 0xac7;
  const int lc = lib_.level_converter();
  for (const char* name : {"C432", "b9", "C7552"}) {
    const McncDescriptor* descriptor = find_mcnc(name);
    ASSERT_NE(descriptor, nullptr) << name;
    Design design(build_mcnc_circuit(lib_, *descriptor), lib_);
    design.set_activity_options(options);
    design.activity();  // simulated once here; the edits below carry it
    const Network& net = design.network();
    Rng rng(0xb0f + net.size());
    std::vector<NodeId> buffers;  // live inserted buffers, oldest first
    int on_buffer = 0, on_port_driver = 0, bypassed_newest = 0,
        bypassed_older = 0;

    const auto random_driver = [&] {
      for (;;) {
        const auto id = static_cast<NodeId>(
            rng.next_below(static_cast<std::uint64_t>(net.size())));
        if (net.is_valid(id) && net.node(id).is_gate() &&
            !net.node(id).fanouts.empty())
          return id;
      }
    };
    // Moves a random nonempty subset of the driver's fanouts and output
    // ports (always including `port`, when one is given).
    const auto insert_on = [&](NodeId driver, int port = -1) {
      std::vector<NodeId> moved;
      for_each_unique_fanout(net.node(driver), [&](NodeId fo) {
        if (rng.next_bool()) moved.push_back(fo);
      });
      std::vector<int> ports;
      for (int p = 0; p < static_cast<int>(net.outputs().size()); ++p)
        if (net.outputs()[p].driver == driver &&
            (p == port || rng.next_bool()))
          ports.push_back(p);
      if (moved.empty() && ports.empty()) {
        if (!net.node(driver).fanouts.empty())
          moved.push_back(net.node(driver).fanouts.front());
        else
          for (std::size_t p = 0; p < net.outputs().size(); ++p)
            if (net.outputs()[p].driver == driver)
              ports.push_back(static_cast<int>(p));
      }
      buffers.push_back(design.insert_buffer(
          driver, moved, ports, lc, "buf" + std::to_string(net.size())));
    };

    for (int step = 0; step < 60; ++step) {
      const int kind = buffers.empty() ? 0 : rng.next_int(0, 4);
      if (kind == 0) {
        insert_on(random_driver());
      } else if (kind == 1) {
        insert_on(buffers[rng.next_below(buffers.size())]);
        ++on_buffer;
      } else if (kind == 2) {
        const auto port =
            static_cast<int>(rng.next_below(net.outputs().size()));
        insert_on(net.outputs()[port].driver, port);
        ++on_port_driver;
      } else {
        const std::size_t pick =
            kind == 3 ? buffers.size() - 1 : rng.next_below(buffers.size());
        (pick + 1 == buffers.size() ? bypassed_newest : bypassed_older) += 1;
        design.bypass_buffer(buffers[pick]);
        buffers.erase(buffers.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      const Activity fresh = estimate_activity(net, options);
      const Activity& carried = design.activity();
      ASSERT_EQ("", first_difference(carried.alpha01, fresh.alpha01))
          << name << " step " << step << " alpha01";
      ASSERT_EQ("", first_difference(carried.prob_one, fresh.prob_one))
          << name << " step " << step << " prob_one";
    }
    EXPECT_GT(on_buffer, 0) << name;
    EXPECT_GT(on_port_driver, 0) << name;
    EXPECT_GT(bypassed_newest, 0) << name;
    EXPECT_GT(bypassed_older, 0) << name;
  }
}

/// Any other structural edit still discards the activity: a plain
/// insert_between + sync_with_network re-simulates on the next read.
TEST_F(DesignTest, PlainStructuralEditStillResimulates) {
  ActivityOptions options;
  options.input_one_probability = 0.25;  // so an inverter moves prob_one
  Network net = make_net();
  const NodeId g2 = net.outputs()[0].driver;
  const NodeId g1 = net.node(g2).fanins[0];
  Design design(std::move(net), lib_);
  design.set_activity_options(options);
  design.activity();
  const NodeId inv = design.network().insert_between(
      g1, {g2}, {}, tt_inv(), lib_.find("inv_d0"), "x");
  design.sync_with_network();
  const Activity& after = design.activity();
  const Activity fresh = estimate_activity(design.network(), options);
  EXPECT_EQ(after.alpha01, fresh.alpha01);
  EXPECT_EQ(after.prob_one, fresh.prob_one);
  EXPECT_NE(after.prob_one[inv], after.prob_one[g1]);
}

}  // namespace
}  // namespace dvs
