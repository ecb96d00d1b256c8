// The per-node timing recipe, written once.  The full sweep (run_sta),
// the event-driven IncrementalSta, the power model's loads and the CPN
// extractor all call these inline functions instead of keeping their own
// copy, so every engine produces the same doubles by construction.
// Internal header (not part of the public API surface).
//
// The recipe reads the operating state through a *state view*: any type
// with `vdd(id)`, `has_lc(id)` and `pin_cap(fanout_pin, graph_cap)` (all
// a load needs), plus `arcs(id)`, `load(id)`, `lc_load(id)`,
// `arrival(id)`, `lc_arrival(id)` and `required(id)` for the time
// functions.  SupplyView / CommittedState below are the committed
// state's views.
#pragma once

#include <algorithm>
#include <limits>
#include <span>

#include "library/cell.hpp"
#include "library/library.hpp"
#include "library/supply.hpp"
#include "library/voltage_model.hpp"
#include "netlist/network.hpp"
#include "support/contracts.hpp"
#include "timing/graph.hpp"
#include "timing/sta.hpp"

namespace dvs::timing_detail {

/// Per-rung memo for VoltageModel::delay_factor.  The model evaluates two
/// non-integer powers per call and the sweeps call it once per gate per
/// direction, yet a design only ever carries the supply ladder's handful
/// of distinct voltages — so nearly every call is a repeat.  Constructed
/// from a ladder, the table is pre-seeded with one slot per rung; keyed
/// on the exact double, lookups return bit-identical results to calling
/// the model directly.  Voltages outside the ladder (ad-hoc contexts)
/// still memoize into the spare slots.
class DelayFactorCache {
 public:
  explicit DelayFactorCache(const VoltageModel& vm) : vm_(&vm) {}

  DelayFactorCache(const VoltageModel& vm, const SupplyLadder& ladder)
      : vm_(&vm) {
    for (SupplyId r = 0; r < ladder.depth(); ++r) {
      v_[size_] = ladder.voltage(r);
      f_[size_] = vm.delay_factor(v_[size_]);
      ++size_;
    }
  }

  double operator()(double vdd) {
    for (int i = 0; i < size_; ++i)
      if (v_[i] == vdd) return f_[i];
    const double f = vm_->delay_factor(vdd);
    const int slot = size_ < kSlots ? size_++ : kSlots - 1;
    v_[slot] = vdd;
    f_[slot] = f;
    return f;
  }

 private:
  // Every ladder rung plus two spare slots for off-ladder probes.
  static constexpr int kSlots = SupplyLadder::kMaxRungs + 2;

  const VoltageModel* vm_;
  int size_ = 0;
  double v_[kSlots] = {};
  double f_[kSlots] = {};
};

inline constexpr double kVoltEps = 1e-6;
inline constexpr double kDefaultPinCap = 6.0;  // fF, unmapped gates

/// Timing arc used for not-yet-mapped gates so the STA still runs.
inline TimingArc default_arc(const TruthTable& tt, int pin) {
  TimingArc arc;
  const bool pos = is_positive_unate(tt, pin);
  const bool neg = is_negative_unate(tt, pin);
  arc.sense = pos && !neg   ? ArcSense::kPositiveUnate
              : neg && !pos ? ArcSense::kNegativeUnate
                            : ArcSense::kNonUnate;
  arc.intrinsic_rise = 0.22;
  arc.intrinsic_fall = 0.18;
  arc.resistance_rise = 0.008;
  arc.resistance_fall = 0.007;
  return arc;
}

struct ArcView {
  const TimingArc& arc;
  double vdd_factor;
  double load;

  RiseFall delay() const {
    return RiseFall{
        vdd_factor * (arc.intrinsic_rise + arc.resistance_rise * load),
        vdd_factor * (arc.intrinsic_fall + arc.resistance_fall * load)};
  }
};

/// Combines an input-pin arrival with an arc into the output arrival
/// contribution of that pin.
inline RiseFall propagate(const RiseFall& in, const TimingArc& arc,
                          const RiseFall& d) {
  switch (arc.sense) {
    case ArcSense::kPositiveUnate:
      return {in.rise + d.rise, in.fall + d.fall};
    case ArcSense::kNegativeUnate:
      return {in.fall + d.rise, in.rise + d.fall};
    case ArcSense::kNonUnate:
    default: {
      const double worst = std::max(in.rise, in.fall);
      return {worst + d.rise, worst + d.fall};
    }
  }
}

/// Backward counterpart: latest allowed arrival at the input pin given
/// the required time at the output.
inline RiseFall back_propagate(const RiseFall& out_req,
                               const TimingArc& arc, const RiseFall& d) {
  switch (arc.sense) {
    case ArcSense::kPositiveUnate:
      return {out_req.rise - d.rise, out_req.fall - d.fall};
    case ArcSense::kNegativeUnate:
      return {out_req.fall - d.fall, out_req.rise - d.rise};
    case ArcSense::kNonUnate:
    default: {
      const double r =
          std::min(out_req.rise - d.rise, out_req.fall - d.fall);
      return {r, r};
    }
  }
}

inline constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- state views -----------------------------------------------------------

/// Supplies and LC flags straight from the context spans; pin caps from
/// the compiled graph.  All that node_load() reads.
struct SupplyView {
  std::span<const double> node_vdd;
  std::span<const char> lc_on_output;

  double vdd(NodeId id) const { return node_vdd[id]; }
  bool has_lc(NodeId id) const {
    return !lc_on_output.empty() && lc_on_output[id] != 0;
  }
  double pin_cap(TimingGraph::FanoutPin, double graph_cap) const {
    return graph_cap;
  }
};

/// The committed state: the supply view plus the graph's arcs and the
/// loads and times held in `r`.
struct CommittedState : SupplyView {
  CommittedState(const TimingContext& ctx, const TimingGraph& g,
                 const StaResult& r)
      : SupplyView{ctx.node_vdd, ctx.lc_on_output}, g(&g), r(&r) {}

  const TimingGraph* g;
  const StaResult* r;

  const TimingArc* arcs(NodeId id) const { return g->arcs(id).data(); }
  double load(NodeId id) const { return r->load[id]; }
  double lc_load(NodeId id) const { return r->lc_load[id]; }
  const RiseFall& arrival(NodeId id) const { return r->arrival[id]; }
  const RiseFall& lc_arrival(NodeId id) const { return r->lc_arrival[id]; }
  const RiseFall& required(NodeId id) const { return r->required[id]; }
};

// ---- the recipe ------------------------------------------------------------

/// Per-analysis constants of the recipe: the converter cell, the wire
/// model, the output-port load and the delay-factor memo.
struct Recipe {
  Recipe(const Library& lib, double output_port_load)
      : wire(lib.wire_load()),
        lc_cell(lib.level_converter() >= 0
                    ? &lib.cell(lib.level_converter())
                    : nullptr),
        port_load(output_port_load),
        factor(lib.voltage_model(), lib.supplies()),
        lc_factor(factor(lib.vdd_high())) {}

  const WireLoadModel& wire;
  const Cell* lc_cell;
  double port_load;
  DelayFactorCache factor;
  double lc_factor;  // converters run at the top rung
};

/// Through-LC predicate: the arc driver->sink runs through the driver's
/// level converter iff the driver carries one and the sink's supply is
/// above the driver's.
template <class S>
bool through_lc(const S& s, NodeId driver, NodeId sink) {
  return s.has_lc(driver) && s.vdd(sink) > s.vdd(driver) + kVoltEps;
}

/// One driver's load split (fF).
struct NodeLoad {
  double direct = 0.0;  // seen by the node's own output stage
  double lc = 0.0;      // seen by its level converter
  int lc_pins = 0;      // fanout pins routed through the converter
};

/// Node load: split the fanout pin caps in entry order, then add the
/// driven output ports, the converter's input cap and the two wire caps.
template <class S>
NodeLoad node_load(const Recipe& k, const TimingGraph& g, NodeId u,
                   const S& s) {
  const std::span<const TimingGraph::FanoutPin> pins = g.fanout_pins(u);
  const std::span<const double> caps = g.fanout_pin_caps(u);
  NodeLoad out;
  int direct_pins = 0;
  for (std::size_t e = 0; e < pins.size(); ++e) {
    const double cap = s.pin_cap(pins[e], caps[e]);
    if (through_lc(s, u, pins[e].sink)) {
      out.lc += cap;
      ++out.lc_pins;
    } else {
      out.direct += cap;
      ++direct_pins;
    }
  }
  for (int p = 0; p < g.port_fanout_count(u); ++p) {
    out.direct += k.port_load;
    ++direct_pins;
  }
  if (out.lc_pins > 0) {
    DVS_ASSERT(k.lc_cell != nullptr);
    out.direct += k.lc_cell->input_cap[0];
    ++direct_pins;
    out.lc += k.wire.wire_cap(out.lc_pins);
  }
  out.direct += k.wire.wire_cap(direct_pins);
  return out;
}

/// One fanin pin's contribution to `sink`'s arrival: propagate() of the
/// driver's output — or of its converter's, when the arc runs through
/// one — across the pin's arc with delay `d`.
template <class S>
RiseFall pin_arrival(const S& s, NodeId driver, NodeId sink,
                     const TimingArc& arc, const RiseFall& d) {
  return propagate(through_lc(s, driver, sink) ? s.lc_arrival(driver)
                                               : s.arrival(driver),
                   arc, d);
}

/// Node arrival: the max-fold of pin_arrival() over the fanin pins,
/// seeded with -inf.  Inputs and constant gates arrive at t=0.
template <class S>
RiseFall node_arrival(Recipe& k, const TimingGraph& g, NodeId id,
                      const S& s) {
  const std::span<const NodeId> fi = g.fanins(id);
  if (!g.is_gate(id) || fi.empty()) return {0.0, 0.0};
  const double vf = k.factor(s.vdd(id));
  const TimingArc* arcs = s.arcs(id);
  const double load = s.load(id);
  RiseFall arr{-kInf, -kInf};
  for (std::size_t pin = 0; pin < fi.size(); ++pin) {
    const RiseFall cand = pin_arrival(s, fi[pin], id, arcs[pin],
                                      ArcView{arcs[pin], vf, load}.delay());
    arr.rise = std::max(arr.rise, cand.rise);
    arr.fall = std::max(arr.fall, cand.fall);
  }
  return arr;
}

/// The hop through a level converter into `lc_load`.
inline RiseFall lc_hop(const Recipe& k, const RiseFall& arr,
                       double lc_load) {
  const TimingArc& arc = k.lc_cell->arcs[0];
  return propagate(arr, arc, ArcView{arc, k.lc_factor, lc_load}.delay());
}

/// True iff `id` carries a level converter that drives at least one of
/// its fanout pins (the only case in which the converter output exists).
template <class S>
bool lc_drives(const TimingGraph& g, NodeId id, const S& s) {
  if (!s.has_lc(id)) return false;
  for (const TimingGraph::FanoutPin& fo : g.fanout_pins(id))
    if (through_lc(s, id, fo.sink)) return true;
  return false;
}

/// LC-output arrival: the converter hop when lc_drives(), {0, 0}
/// otherwise.
template <class S>
RiseFall lc_output_arrival(const Recipe& k, const TimingGraph& g,
                           NodeId id, const RiseFall& arr, const S& s) {
  return lc_drives(g, id, s) ? lc_hop(k, arr, s.lc_load(id)) : RiseFall{};
}

/// What a sink hands back to its fanin pins: its arcs, supply delay
/// factor, load and required time — gathered once per sink.
struct SinkTiming {
  const TimingArc* arcs;
  double vf;
  double load;
  RiseFall required;
};

template <class S>
SinkTiming sink_timing(Recipe& k, NodeId sink, const S& s) {
  return {s.arcs(sink), k.factor(s.vdd(sink)), s.load(sink),
          s.required(sink)};
}

/// Per-pin required: the latest arrival at `driver` that meets pin `pin`
/// of `sink` — back_propagate() through the sink's arc, plus the
/// converter hop when the pin runs through one.
template <class S>
RiseFall pin_required(const Recipe& k, const SinkTiming& st, NodeId sink,
                      int pin, NodeId driver, const S& s) {
  const TimingArc& arc = st.arcs[pin];
  RiseFall req =
      back_propagate(st.required, arc, ArcView{arc, st.vf, st.load}.delay());
  if (through_lc(s, driver, sink)) {
    const TimingArc& lc_arc = k.lc_cell->arcs[0];
    req = back_propagate(
        req, lc_arc,
        ArcView{lc_arc, k.lc_factor, s.lc_load(driver)}.delay());
  }
  return req;
}

/// Min-fold of a per-pin required time into a node's.
inline void fold_required(RiseFall& req, const RiseFall& pin_req) {
  req.rise = std::min(req.rise, pin_req.rise);
  req.fall = std::min(req.fall, pin_req.fall);
}

inline double slack_of(const RiseFall& arr, const RiseFall& req) {
  return std::min(req.rise - arr.rise, req.fall - arr.fall);
}

/// Worst arrival over the primary-output ports (0 with none).
inline double worst_port_arrival(const Network& net,
                                 std::span<const RiseFall> arrival) {
  double worst = 0.0;
  for (const OutputPort& port : net.outputs())
    worst = std::max(worst, arrival[port.driver].max());
  return worst;
}

/// The committed state's loads and arrivals in one topological pass over
/// a synced graph: fills r.load, r.lc_load, r.arrival, r.lc_arrival and
/// r.worst_arrival.  The forward half of run_sta.
void forward_sweep(const TimingContext& ctx, const TimingGraph& g,
                   Recipe& k, StaResult& r);

}  // namespace dvs::timing_detail
