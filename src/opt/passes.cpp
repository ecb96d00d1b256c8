#include "opt/passes.hpp"

#include <memory>

#include "core/cvs.hpp"
#include "core/design.hpp"
#include "core/dscale.hpp"
#include "core/gscale.hpp"
#include "opt/registry.hpp"
#include "support/rng.hpp"
#include "timing/incremental.hpp"

namespace dvs {

namespace {

// ---- cvs -------------------------------------------------------------------

const OptionSchema& cvs_schema() {
  static const OptionSchema kSchema = [] {
    OptionSchema s("cvs");
    s.number("slack_margin", &CvsOptions::slack_margin, 0.0, 1.0);
    return s;
  }();
  return kSchema;
}

class CvsPass final : public Pass {
 public:
  CvsPass() : Pass("cvs") {}

  const OptionSchema& schema() const override { return cvs_schema(); }
  void* options_blob() override { return &options_; }

  void run(Design& design, PassStats* stats) override {
    const CvsResult result = run_cvs(design, options_);
    stats->details["lowered"] = Json(result.num_lowered);
  }

 private:
  CvsOptions options_;
};

// ---- dscale ----------------------------------------------------------------

const OptionSchema& dscale_schema() {
  static const OptionSchema kSchema = [] {
    OptionSchema s("dscale");
    s.number("slack_margin", &DscaleOptions::slack_margin, 0.0, 1.0);
    s.number("min_gain_uw", &DscaleOptions::min_gain_uw, 0.0, 1e9);
    s.boolean("lc_aware_weights", &DscaleOptions::lc_aware_weights);
    s.integer("max_rounds", &DscaleOptions::max_rounds, 0, 1 << 20);
    s.choice("selector", &DscaleOptions::selector,
             {{"mwis", DscaleOptions::Selector::kMwisFlow},
              {"greedy", DscaleOptions::Selector::kGreedy}});
    s.choice("flow_algo", &DscaleOptions::flow_algo,
             {{"dinic", FlowAlgo::kDinic},
              {"edmonds_karp", FlowAlgo::kEdmondsKarp}});
    s.boolean("run_initial_cvs", &DscaleOptions::run_initial_cvs);
    s.boolean("trim_unprofitable", &DscaleOptions::trim_unprofitable);
    s.number(
        "cvs_slack_margin",
        [](void* opts) -> double& {
          return static_cast<DscaleOptions*>(opts)->cvs.slack_margin;
        },
        0.0, 1.0);
    return s;
  }();
  return kSchema;
}

class DscalePass final : public Pass {
 public:
  DscalePass() : Pass("dscale") {}

  const OptionSchema& schema() const override { return dscale_schema(); }
  void* options_blob() override { return &options_; }

  void run(Design& design, PassStats* stats) override {
    const DscaleResult result = run_dscale(design, options_);
    stats->details["cvs_lowered"] = Json(result.cvs_lowered);
    stats->details["mwis_lowered"] = Json(result.mwis_lowered);
    stats->details["rounds"] = Json(result.rounds);
  }

 private:
  DscaleOptions options_;
};

// ---- gscale ----------------------------------------------------------------

const OptionSchema& gscale_schema() {
  static const OptionSchema kSchema = [] {
    OptionSchema s("gscale");
    s.number("area_budget", &GscaleOptions::area_budget_ratio, 0.0, 10.0);
    s.integer("max_iter", &GscaleOptions::max_iter, 1, 1 << 20);
    s.number("cpn_window", &GscaleOptions::cpn_window, 0.0, 1e3);
    s.choice("flow_algo", &GscaleOptions::flow_algo,
             {{"dinic", FlowAlgo::kDinic},
              {"edmonds_karp", FlowAlgo::kEdmondsKarp}});
    s.choice("selector", &GscaleOptions::selector,
             {{"separator", GscaleOptions::CutSelector::kMinWeightSeparator},
              {"random", GscaleOptions::CutSelector::kRandomCut}});
    s.seed("random_cut_seed", &GscaleOptions::random_cut_seed);
    s.boolean("enable_sizing", &GscaleOptions::enable_sizing);
    s.number(
        "cvs_slack_margin",
        [](void* opts) -> double& {
          return static_cast<GscaleOptions*>(opts)->cvs.slack_margin;
        },
        0.0, 1.0);
    return s;
  }();
  return kSchema;
}

class GscalePass final : public Pass {
 public:
  GscalePass() : Pass("gscale") {}

  const OptionSchema& schema() const override { return gscale_schema(); }
  void* options_blob() override { return &options_; }

  void resolve_seeds(std::uint64_t circuit_seed, int position) override {
    // Position 0 uses stream 3, the gscale column's historical stream
    // (mix_seed(circuit_seed, kGscale + 1)), so the seeds and cache keys
    // of earlier results stay stable; later positions get their own.
    if (!is_set("random_cut_seed"))
      options_.random_cut_seed =
          mix_seed(circuit_seed, 3 + static_cast<std::uint64_t>(position));
  }

  void run(Design& design, PassStats* stats) override {
    const GscaleResult result = run_gscale(design, options_);
    stats->details["cvs_lowered"] = Json(result.cvs_lowered);
    stats->details["resized"] = Json(result.num_resized);
    stats->details["iterations"] = Json(result.iterations);
    stats->details["area_increase"] = Json(result.area_increase_ratio);
  }

 private:
  GscaleOptions options_;
};

// ---- trim ------------------------------------------------------------------

struct TrimOptions {};  // trim_boundary has no knobs (yet)

const OptionSchema& trim_schema() {
  static const OptionSchema kSchema{"trim"};
  return kSchema;
}

class TrimPass final : public Pass {
 public:
  TrimPass() : Pass("trim") {}

  const OptionSchema& schema() const override { return trim_schema(); }
  void* options_blob() override { return &options_; }

  void run(Design& design, PassStats* stats) override {
    IncrementalSta timer(design.timing_context(), design.tspec());
    stats->details["raised"] = Json(trim_boundary(design, timer));
  }

 private:
  TrimOptions options_;
};

// ---- measure ---------------------------------------------------------------

struct MeasureOptions {};

const OptionSchema& measure_schema() {
  static const OptionSchema kSchema{"measure"};
  return kSchema;
}

/// Does nothing: exists so a pipeline can record a trajectory point
/// (power/delay/area are captured by the pipeline around every pass).
class MeasurePass final : public Pass {
 public:
  MeasurePass() : Pass("measure") {}

  const OptionSchema& schema() const override { return measure_schema(); }
  void* options_blob() override { return &options_; }

  void run(Design&, PassStats*) override {}

 private:
  MeasureOptions options_;
};

}  // namespace

void register_builtin_passes(PassRegistry& registry) {
  registry.register_pass("cvs", [] { return std::make_unique<CvsPass>(); });
  registry.register_pass("dscale",
                         [] { return std::make_unique<DscalePass>(); });
  registry.register_pass("gscale",
                         [] { return std::make_unique<GscalePass>(); });
  registry.register_pass("trim", [] { return std::make_unique<TrimPass>(); });
  registry.register_pass("measure",
                         [] { return std::make_unique<MeasurePass>(); });
}

}  // namespace dvs
