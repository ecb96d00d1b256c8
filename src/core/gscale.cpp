#include "core/gscale.hpp"

#include <algorithm>

#include "core/sizing.hpp"
#include "graph/separator.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"
#include "timing/cpn.hpp"
#include "timing/graph.hpp"
#include "timing/incremental.hpp"
#include "timing/tcb.hpp"

namespace dvs {

namespace {

struct AppliedResize {
  NodeId id;
  int old_cell;
  double delay_gain;
};

/// Applies every affordable resize in `cut`, then verifies the constraint
/// once and reverts the least useful resizes if the fanin-loading side
/// effect broke a zero-slack path.  Returns the number kept.  The resize
/// options are scored on `timer`'s state, which afterwards is notified of
/// every cell touched, kept or reverted: the lane sweep re-syncs the
/// shared graph to the upsized cells, so a reverted cell needs the notify
/// too.
int apply_cut_resizes(Design& design, IncrementalSta& timer,
                      const std::vector<NodeId>& cut, double area_budget,
                      double* area_used) {
  const StaResult& sta = timer.result();
  std::vector<AppliedResize> applied;
  double area = design.total_area();
  for (NodeId id : cut) {
    const ResizeOption option = evaluate_upsize(design, sta, id);
    if (!option.available) continue;
    if (area + option.area_penalty > area_budget) continue;
    const int old_cell = design.network().node(id).cell;
    design.network().set_cell(id, option.new_cell);
    area += option.area_penalty;
    applied.push_back({id, old_cell, option.delay_gain});
  }
  if (applied.empty()) return 0;

  std::sort(applied.begin(), applied.end(),
            [](const AppliedResize& a, const AppliedResize& b) {
              return a.delay_gain < b.delay_gain;
            });
  // Candidate states are the revert prefixes (first k resizes undone, in
  // ascending delay-gain order), all known up front — so instead of
  // re-timing after every single revert, score them in lane groups: one
  // multi-lane sweep checks up to kLanes prefixes at once and the
  // smallest feasible prefix wins.  Lane arrivals are bit-identical to
  // the per-revert walks, so the chosen prefix is the same one the
  // sequential loop found.
  MultiLaneSta lanes(design.timing_context(), design.tspec());
  lanes.run();
  std::size_t reverted = 0;
  double final_worst = lanes.base_worst_arrival();
  if (final_worst > design.tspec() + 1e-9) {
    constexpr std::size_t kLanes = 16;
    reverted = applied.size();  // fallback: undo everything
    bool found = false;
    for (std::size_t g0 = 0; g0 < applied.size() && !found; g0 += kLanes) {
      const std::size_t g1 = std::min(applied.size(), g0 + kLanes);
      lanes.reset_lanes();
      for (std::size_t k = g0; k < g1; ++k) {
        const int lane = lanes.add_lane();
        for (std::size_t j = 0; j <= k; ++j)
          lanes.set_cell(lane, applied[j].id, applied[j].old_cell);
      }
      lanes.run();
      for (std::size_t k = g0; k < g1; ++k) {
        final_worst = lanes.worst_arrival(static_cast<int>(k - g0));
        if (final_worst <= design.tspec() + 1e-9) {
          reverted = k + 1;
          found = true;
          break;
        }
      }
    }
    for (std::size_t j = 0; j < reverted; ++j)
      design.network().set_cell(applied[j].id, applied[j].old_cell);
  }
  DVS_ASSERT(final_worst <= design.tspec() + 1e-6);
  for (const AppliedResize& r : applied) timer.on_node_changed(r.id);
  *area_used = design.total_area();
  return static_cast<int>(applied.size() - reverted);
}

bool same_tcb(std::vector<NodeId> a, std::vector<NodeId> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

}  // namespace

GscaleResult run_gscale(Design& design, const GscaleOptions& options) {
  GscaleResult result;
  const double area_budget =
      design.original_area() * (1.0 + options.area_budget_ratio);

  // One timer for the whole run: the initial CVS, every push's resizes
  // and every push's CVS all notify it.
  IncrementalSta timer(design.timing_context(), design.tspec());
  CvsResult cvs = run_cvs(design, options.cvs, timer);
  result.cvs_lowered += cvs.num_lowered;
  std::vector<NodeId> tcb = std::move(cvs.tcb);

  Rng rng(options.random_cut_seed);
  int counter = 0;
  while (options.enable_sizing) {
    if (tcb.empty()) break;  // the whole circuit is already low
    if (design.total_area() >= area_budget) break;

    const StaResult& sta = timer.result();
    const CriticalPathNetwork cpn = extract_cpn(
        design.timing_context(), sta, tcb, options.cpn_window);
    if (cpn.empty()) break;

    // weight_with_area_versus_time_gain: area penalty per ns gained for a
    // one-step upsize; gates that cannot improve get a prohibitive (but
    // finite, so the cut stays well-defined) weight.
    SeparatorProblem problem;
    problem.num_nodes = static_cast<int>(cpn.nodes.size());
    std::vector<int> index_of(design.network().size(), -1);
    for (int i = 0; i < problem.num_nodes; ++i)
      index_of[cpn.nodes[i]] = i;
    problem.weight.assign(problem.num_nodes, 0.0);
    for (int i = 0; i < problem.num_nodes; ++i) {
      if (options.selector == GscaleOptions::CutSelector::kRandomCut) {
        problem.weight[i] = 0.5 + rng.next_double();
        continue;
      }
      const ResizeOption option =
          evaluate_upsize(design, sta, cpn.nodes[i]);
      problem.weight[i] =
          option.available ? std::max(option.weight, 1e-6) : 1e9;
    }
    for (const auto& [u, v] : cpn.edges)
      problem.edges.emplace_back(index_of[u], index_of[v]);
    for (NodeId s : cpn.sources) problem.sources.push_back(index_of[s]);
    for (NodeId t : cpn.sinks) problem.sinks.push_back(index_of[t]);

    const SeparatorResult cut =
        min_weight_separator(problem, options.flow_algo);
    std::vector<NodeId> cut_nodes;
    for (int i : cut.selected) cut_nodes.push_back(cpn.nodes[i]);

    double area_after = design.total_area();
    result.num_resized += apply_cut_resizes(design, timer, cut_nodes,
                                            area_budget, &area_after);

    CvsResult push = run_cvs(design, options.cvs, timer);
    result.cvs_lowered += push.num_lowered;
    ++result.iterations;

    if (same_tcb(tcb, push.tcb))
      ++counter;
    else
      counter = 0;
    tcb = std::move(push.tcb);
    if (counter > options.max_iter) break;
  }

  result.area_increase_ratio =
      design.original_area() > 0.0
          ? (design.total_area() - design.original_area()) /
                design.original_area()
          : 0.0;
  result.num_resized = design.count_resized();
  return result;
}

}  // namespace dvs
