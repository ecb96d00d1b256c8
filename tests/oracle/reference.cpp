#include "oracle/reference.hpp"

#include <algorithm>
#include <cmath>

#include "netlist/topo.hpp"
#include "support/contracts.hpp"
#include "timing/arc_eval.hpp"

namespace dvs {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using timing_detail::ArcView;
using timing_detail::back_propagate;
using timing_detail::default_arc;
using timing_detail::kDefaultPinCap;
using timing_detail::kVoltEps;
using timing_detail::propagate;

double pin_cap(const Library& lib, const Node& sink, int pin) {
  if (sink.cell >= 0) return lib.cell(sink.cell).input_cap[pin];
  return kDefaultPinCap;
}

bool arc_through_lc(const TimingContext& ctx, NodeId driver, NodeId sink) {
  if (ctx.lc_on_output.empty() || !ctx.lc_on_output[driver]) return false;
  return ctx.node_vdd[sink] > ctx.node_vdd[driver] + kVoltEps;
}

struct NodeLoads {
  std::vector<double> direct;  // fF seen by the node's own output stage
  std::vector<double> lc;      // fF seen by its level converter (0 if none)
  std::vector<int> lc_fanout_pins;  // #fanout pins rerouted through the LC
};

/// Load computation over the raw Network, ignoring any ctx.graph.
NodeLoads compute_loads_reference(const TimingContext& ctx) {
  DVS_EXPECTS(ctx.net != nullptr && ctx.lib != nullptr);
  const Network& net = *ctx.net;
  const Library& lib = *ctx.lib;
  const int n = net.size();
  DVS_EXPECTS(static_cast<int>(ctx.node_vdd.size()) >= n);

  NodeLoads loads;
  loads.direct.assign(n, 0.0);
  loads.lc.assign(n, 0.0);
  loads.lc_fanout_pins.assign(n, 0);
  std::vector<int> direct_count(n, 0);

  net.for_each_node([&](const Node& u) {
    for_each_unique_fanout(u, [&](NodeId vid) {
      const Node& v = net.node(vid);
      for (std::size_t pin = 0; pin < v.fanins.size(); ++pin) {
        if (v.fanins[pin] != u.id) continue;
        const double cap = pin_cap(lib, v, static_cast<int>(pin));
        if (arc_through_lc(ctx, u.id, vid)) {
          loads.lc[u.id] += cap;
          ++loads.lc_fanout_pins[u.id];
        } else {
          loads.direct[u.id] += cap;
          ++direct_count[u.id];
        }
      }
    });
  });
  for (const OutputPort& port : net.outputs()) {
    loads.direct[port.driver] += ctx.output_port_load;
    ++direct_count[port.driver];
  }
  const Cell* lc_cell =
      lib.level_converter() >= 0 ? &lib.cell(lib.level_converter()) : nullptr;
  net.for_each_node([&](const Node& u) {
    if (loads.lc_fanout_pins[u.id] > 0) {
      DVS_ASSERT(lc_cell != nullptr);
      loads.direct[u.id] += lc_cell->input_cap[0];
      ++direct_count[u.id];
      loads.lc[u.id] += lib.wire_load().wire_cap(loads.lc_fanout_pins[u.id]);
    }
    loads.direct[u.id] += lib.wire_load().wire_cap(direct_count[u.id]);
  });
  return loads;
}

}  // namespace

StaResult run_sta_reference(const TimingContext& ctx, double tspec) {
  DVS_EXPECTS(ctx.net != nullptr && ctx.lib != nullptr);
  const Network& net = *ctx.net;
  const Library& lib = *ctx.lib;
  const int n = net.size();
  DVS_EXPECTS(static_cast<int>(ctx.node_vdd.size()) >= n);
  DVS_EXPECTS(ctx.lc_on_output.empty() ||
              static_cast<int>(ctx.lc_on_output.size()) >= n);

  auto has_lc = [&](NodeId id) {
    return !ctx.lc_on_output.empty() && ctx.lc_on_output[id] != 0;
  };
  const Cell* lc_cell =
      lib.level_converter() >= 0 ? &lib.cell(lib.level_converter()) : nullptr;

  StaResult r;
  r.arrival.assign(n, RiseFall{});
  r.lc_arrival.assign(n, RiseFall{});
  r.required.assign(n, RiseFall{kInf, kInf});
  r.slack.assign(n, kInf);

  NodeLoads loads = compute_loads_reference(ctx);
  r.load = std::move(loads.direct);
  r.lc_load = std::move(loads.lc);
  const std::vector<int>& lc_count = loads.lc_fanout_pins;

  // ---- forward arrival propagation ---------------------------------------
  const std::vector<NodeId> order = topo_order(net);
  const double vdd_high = lib.vdd_high();
  for (NodeId id : order) {
    const Node& v = net.node(id);
    RiseFall arr{0.0, 0.0};
    if (v.is_gate()) {
      arr = {-kInf, -kInf};
      const double vf = lib.voltage_model().delay_factor(ctx.node_vdd[id]);
      for (std::size_t pin = 0; pin < v.fanins.size(); ++pin) {
        const NodeId uid = v.fanins[pin];
        const TimingArc arc = v.cell >= 0
                                  ? lib.cell(v.cell).arcs[pin]
                                  : default_arc(v.function,
                                                static_cast<int>(pin));
        const RiseFall d = ArcView{arc, vf, r.load[id]}.delay();
        const bool through_lc =
            has_lc(uid) && ctx.node_vdd[id] > ctx.node_vdd[uid] + kVoltEps;
        const RiseFall& in =
            through_lc ? r.lc_arrival[uid] : r.arrival[uid];
        const RiseFall cand = propagate(in, arc, d);
        arr.rise = std::max(arr.rise, cand.rise);
        arr.fall = std::max(arr.fall, cand.fall);
      }
      if (v.fanins.empty()) arr = {0.0, 0.0};
    }
    r.arrival[id] = arr;
    if (has_lc(id) && lc_count[id] > 0) {
      const double vf = lib.voltage_model().delay_factor(vdd_high);
      const RiseFall d =
          ArcView{lc_cell->arcs[0], vf, r.lc_load[id]}.delay();
      r.lc_arrival[id] = propagate(arr, lc_cell->arcs[0], d);
    }
  }

  r.worst_arrival = 0.0;
  for (const OutputPort& port : net.outputs())
    r.worst_arrival = std::max(r.worst_arrival, r.arrival[port.driver].max());
  r.tspec = tspec < 0.0 ? r.worst_arrival : tspec;

  // ---- backward required propagation -------------------------------------
  for (const OutputPort& port : net.outputs()) {
    RiseFall& req = r.required[port.driver];
    req.rise = std::min(req.rise, r.tspec);
    req.fall = std::min(req.fall, r.tspec);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Node& v = net.node(*it);
    if (!v.is_gate()) continue;
    const double vf = lib.voltage_model().delay_factor(ctx.node_vdd[v.id]);
    for (std::size_t pin = 0; pin < v.fanins.size(); ++pin) {
      const NodeId uid = v.fanins[pin];
      const TimingArc arc =
          v.cell >= 0 ? lib.cell(v.cell).arcs[pin]
                      : default_arc(v.function, static_cast<int>(pin));
      const RiseFall d = ArcView{arc, vf, r.load[v.id]}.delay();
      RiseFall pin_req = back_propagate(r.required[v.id], arc, d);
      const bool through_lc =
          has_lc(uid) && ctx.node_vdd[v.id] > ctx.node_vdd[uid] + kVoltEps;
      if (through_lc) {
        const double lcvf = lib.voltage_model().delay_factor(vdd_high);
        const RiseFall lcd =
            ArcView{lc_cell->arcs[0], lcvf, r.lc_load[uid]}.delay();
        pin_req = back_propagate(pin_req, lc_cell->arcs[0], lcd);
      }
      RiseFall& req = r.required[uid];
      req.rise = std::min(req.rise, pin_req.rise);
      req.fall = std::min(req.fall, pin_req.fall);
    }
  }

  // ---- slack ------------------------------------------------------------
  net.for_each_node([&](const Node& v) {
    const RiseFall& a = r.arrival[v.id];
    const RiseFall& q = r.required[v.id];
    r.slack[v.id] = std::min(q.rise - a.rise, q.fall - a.fall);
  });
  return r;
}

}  // namespace dvs
