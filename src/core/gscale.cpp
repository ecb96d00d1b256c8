#include "core/gscale.hpp"

#include <algorithm>

#include "core/sizing.hpp"
#include "graph/separator.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"
#include "timing/cpn.hpp"
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
/// and reverts the least useful resizes if the fanin-loading side effect
/// broke a zero-slack path.  Returns the number kept.  The resize options
/// are all scored on `timer`'s pre-push state; the timer then learns of
/// the whole batch, and of each revert as it is made, so it ends equal to
/// a full analysis of the kept resizes.
int apply_cut_resizes(Design& design, IncrementalSta& timer,
                      const std::vector<NodeId>& cut, double area_budget) {
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
  for (const AppliedResize& r : applied) timer.on_node_changed(r.id);
  // Undo resizes in ascending delay-gain order until the constraint holds
  // again: the smallest feasible revert prefix.
  std::size_t reverted = 0;
  while (reverted < applied.size() &&
         timer.result().worst_arrival > design.tspec() + 1e-9) {
    const AppliedResize& r = applied[reverted++];
    design.network().set_cell(r.id, r.old_cell);
    timer.on_node_changed(r.id);
  }
  DVS_ASSERT(timer.result().worst_arrival <= design.tspec() + 1e-6);
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

    const int kept =
        apply_cut_resizes(design, timer, cut_nodes, area_budget);

    CvsResult push = run_cvs(design, options.cvs, timer);
    result.cvs_lowered += push.num_lowered;
    ++result.iterations;

    // A push that changed nothing is a fixpoint: the separator selector
    // would repeat it exactly (the random one draws a fresh cut).
    if (kept == 0 && push.num_lowered == 0 &&
        options.selector == GscaleOptions::CutSelector::kMinWeightSeparator)
      break;

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
