#include "power/incremental.hpp"

#include "support/contracts.hpp"
#include "timing/arc_eval.hpp"
#include "timing/incremental.hpp"

namespace dvs {

IncrementalPower::IncrementalPower(const PowerContext& ctx,
                                   const IncrementalSta& timer)
    : ctx_(ctx), timer_(&timer) {
  DVS_EXPECTS(ctx.net != nullptr && ctx.lib != nullptr);
  const TimingContext& tctx = timer.context();
  DVS_EXPECTS(tctx.net == ctx.net && tctx.lib == ctx.lib &&
              tctx.output_port_load == ctx.output_port_load);
  const int n = ctx.net->size();
  DVS_EXPECTS(static_cast<int>(ctx.node_vdd.size()) >= n);
  DVS_EXPECTS(static_cast<int>(ctx.alpha01.size()) >= n);
  terms_.assign(n, NodePower{});
  ctx.net->for_each_node([&](const Node& node) { recompute(node.id); });
}

void IncrementalPower::recompute(NodeId id) {
  const StaResult& sta = timer_->result();
  const timing_detail::SupplyView supply{ctx_.node_vdd, ctx_.lc_on_output};
  terms_[id] =
      node_power(ctx_, id, sta.load[id], sta.lc_load[id],
                 timing_detail::lc_drives(timer_->graph(), id, supply));
}

void IncrementalPower::on_node_changed(NodeId id) {
  DVS_EXPECTS(ctx_.net->is_valid(id));
  recompute(id);
  for (NodeId fi : timer_->graph().fanins(id)) recompute(fi);
}

PowerBreakdown IncrementalPower::sums() const {
  PowerBreakdown p;
  ctx_.net->for_each_node([&](const Node& node) {
    const NodePower& t = terms_[node.id];
    p.switching += t.switching;
    p.internal += t.internal;
    p.converter += t.converter;
    p.leakage += t.leakage;
  });
  return p;
}

double IncrementalPower::total() const { return sums().total(); }

bool IncrementalPower::matches_full_power() const {
  const PowerBreakdown fresh = compute_power(ctx_);
  const PowerBreakdown mine = sums();
  bool ok = fresh.switching == mine.switching &&
            fresh.internal == mine.internal &&
            fresh.converter == mine.converter &&
            fresh.leakage == mine.leakage;
  ctx_.net->for_each_node([&](const Node& node) {
    ok = ok && fresh.node_power[node.id] == terms_[node.id].total();
  });
  return ok;
}

}  // namespace dvs
