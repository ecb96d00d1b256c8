#include "timing/incremental.hpp"

#include <algorithm>

#include "support/contracts.hpp"
#include "timing/arc_eval.hpp"
#include "timing/graph.hpp"

namespace dvs {

namespace {

using timing_detail::CommittedState;
using timing_detail::fold_required;
using timing_detail::kInf;
using timing_detail::lc_output_arrival;
using timing_detail::node_arrival;
using timing_detail::node_load;
using timing_detail::NodeLoad;
using timing_detail::pin_required;
using timing_detail::Recipe;
using timing_detail::sink_timing;
using timing_detail::slack_of;
using timing_detail::worst_port_arrival;

bool moved(const RiseFall& a, const RiseFall& b) {
  return a.rise != b.rise || a.fall != b.fall;
}

}  // namespace

IncrementalSta::IncrementalSta(const TimingContext& ctx, double tspec)
    : ctx_(ctx),
      tspec_(tspec),
      recipe_(std::make_unique<Recipe>(*ctx.lib, ctx.output_port_load)) {
  // Share the caller's compiled graph when it is current; compile a
  // private one otherwise.
  if (ctx_.graph && ctx_.graph->describes(*ctx_.net, *ctx_.lib)) {
    graph_ = ctx_.graph;
  } else {
    owned_graph_ = std::make_unique<TimingGraph>(*ctx_.net, *ctx_.lib);
    graph_ = owned_graph_.get();
  }
  const std::vector<int>& level = graph_->levels();
  const int depth =
      level.empty() ? 0 : *std::max_element(level.begin(), level.end()) + 1;
  bucket_.resize(depth);
  queued_.assign(level.size(), 0);
  result_ = analyze_full();
}

IncrementalSta::~IncrementalSta() = default;

StaResult IncrementalSta::analyze_full() const {
  TimingContext ctx = ctx_;
  ctx.graph = graph_;
  return run_sta(ctx, tspec_);
}

void IncrementalSta::begin_sweep() {
  if (++epoch_ == 0) {  // wrapped: forget every stale mark
    std::fill(queued_.begin(), queued_.end(), 0);
    epoch_ = 1;
  }
  lo_ = static_cast<int>(bucket_.size());
  hi_ = -1;
}

void IncrementalSta::enqueue(NodeId v) {
  if (queued_[v] == epoch_) return;
  queued_[v] = epoch_;
  const int l = graph_->levels()[v];
  bucket_[l].push_back(v);
  lo_ = std::min(lo_, l);
  hi_ = std::max(hi_, l);
}

void IncrementalSta::recompute_load(NodeId id) {
  const NodeLoad load = node_load(*recipe_, *graph_, id,
                                  CommittedState(ctx_, *graph_, result_));
  result_.load[id] = load.direct;
  result_.lc_load[id] = load.lc;
}

bool IncrementalSta::recompute_arrival(NodeId id) {
  Recipe& k = *recipe_;
  const CommittedState s(ctx_, *graph_, result_);
  const RiseFall arr = node_arrival(k, *graph_, id, s);
  const RiseFall lc_arr = lc_output_arrival(k, *graph_, id, arr, s);
  const bool changed =
      moved(arr, result_.arrival[id]) || moved(lc_arr, result_.lc_arrival[id]);
  result_.arrival[id] = arr;
  result_.lc_arrival[id] = lc_arr;
  result_.slack[id] = slack_of(arr, result_.required[id]);
  return changed;
}

bool IncrementalSta::recompute_required(NodeId id) {
  Recipe& k = *recipe_;
  const TimingGraph& g = *graph_;
  const CommittedState s(ctx_, g, result_);
  RiseFall req{kInf, kInf};
  for (int p = 0; p < g.port_fanout_count(id); ++p)
    fold_required(req, {result_.tspec, result_.tspec});
  for (const TimingGraph::FanoutPin& fo : g.fanout_pins(id))
    fold_required(req, pin_required(k, sink_timing(k, fo.sink, s), fo.sink,
                                    fo.pin, id, s));
  const bool changed = moved(req, result_.required[id]);
  result_.required[id] = req;
  result_.slack[id] = slack_of(result_.arrival[id], req);
  return changed;
}

void IncrementalSta::on_node_changed(NodeId id) {
  const TimingGraph& g = *graph_;
  DVS_EXPECTS(ctx_.net->is_valid(id));
  // Absorb a possible cell change before touching arcs or caps.
  g.sync_node(id);

  // Loads that can move: the node's own (LC split, port/pin mix) and its
  // fanins' (the node's pin caps change with its cell; its supply decides
  // which fanin arcs run through a converter).
  begin_sweep();
  recompute_load(id);
  enqueue(id);
  for (NodeId fi : g.fanins(id)) {
    recompute_load(fi);
    enqueue(fi);
  }

  // Arrival sweep in ascending level order; a change fans out to strictly
  // higher levels, so the bucket being drained never grows.  Only a moved
  // port driver can move the worst-arrival fold.
  bool port_moved = false;
  for (int l = lo_; l <= hi_; ++l) {
    for (NodeId v : bucket_[l]) {
      if (!recompute_arrival(v)) continue;
      port_moved = port_moved || g.port_fanout_count(v) > 0;
      for (NodeId fo : g.unique_fanouts(v)) enqueue(fo);
    }
    bucket_[l].clear();
  }
  if (port_moved)
    result_.worst_arrival = worst_port_arrival(*ctx_.net, result_.arrival);

  // Required sweep in descending level order.  Arc delays into the
  // changed nodes moved with their loads/supplies, so their fanins (and
  // transitively, everything upstream that notices) re-pull; a re-pull
  // queues only strictly lower levels.
  begin_sweep();
  enqueue(id);
  for (NodeId fi : g.fanins(id)) {
    enqueue(fi);
    for (NodeId gfi : g.fanins(fi)) enqueue(gfi);
  }
  for (int l = hi_; l >= lo_; --l) {
    for (NodeId v : bucket_[l])
      if (recompute_required(v))
        for (NodeId fi : g.fanins(v)) enqueue(fi);
    bucket_[l].clear();
  }
}

bool IncrementalSta::matches_full_sta() const {
  const StaResult fresh = analyze_full();
  if (fresh.tspec != result_.tspec ||
      fresh.worst_arrival != result_.worst_arrival)
    return false;
  bool ok = true;
  ctx_.net->for_each_node([&](const Node& n) {
    const NodeId i = n.id;
    if (moved(fresh.arrival[i], result_.arrival[i]) ||
        moved(fresh.lc_arrival[i], result_.lc_arrival[i]) ||
        moved(fresh.required[i], result_.required[i]) ||
        fresh.slack[i] != result_.slack[i] ||
        fresh.load[i] != result_.load[i] ||
        fresh.lc_load[i] != result_.lc_load[i])
      ok = false;
  });
  return ok;
}

}  // namespace dvs
