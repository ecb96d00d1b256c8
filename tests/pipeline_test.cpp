// The composable pass-pipeline API: option-schema typing, the spec
// grammar, canonicalization fixpoints, fingerprint stability, registry
// rejection of unknown passes/options, per-pass instrumentation, and —
// the load-bearing guarantee — that the canonical "cvs" / "dscale" /
// "gscale" pipelines reproduce the legacy suite matrix bit for bit.
#include "opt/pipeline.hpp"

#include <gtest/gtest.h>

#include "benchgen/mcnc.hpp"
#include "core/job.hpp"
#include "core/suite.hpp"
#include "library/library.hpp"
#include "opt/passes.hpp"
#include "opt/registry.hpp"
#include "support/rng.hpp"

namespace dvs {
namespace {

const Library& lib() {
  static const Library kLib = build_compass_library();
  return kLib;
}

// ---- registry -------------------------------------------------------------

TEST(PassRegistry, BuiltinsAreRegistered) {
  for (const char* name : {"cvs", "dscale", "gscale", "trim", "measure"}) {
    EXPECT_TRUE(pass_registry().contains(name)) << name;
    EXPECT_EQ(pass_registry().create(name)->name(), name);
  }
}

TEST(PassRegistry, UnknownPassAndDuplicateRegistrationAreRejected) {
  EXPECT_THROW(pass_registry().create("frobnicate"), OptionError);
  EXPECT_THROW(
      pass_registry().register_pass(
          "cvs", [] { return std::unique_ptr<Pass>(); }),
      OptionError);
}

// ---- option schema --------------------------------------------------------

TEST(OptionSchema, TypedParseAndRangeChecks) {
  auto pass = pass_registry().create("gscale");
  Json::Object options;
  options["area_budget"] = Json(0.05);
  options["max_iter"] = Json(3);
  options["selector"] = Json("random");
  pass->configure(options);
  EXPECT_TRUE(pass->is_set("area_budget"));
  EXPECT_FALSE(pass->is_set("cpn_window"));

  const Json::Object canonical = pass->canonical_options();
  EXPECT_EQ(canonical.at("area_budget").as_double(), 0.05);
  EXPECT_EQ(canonical.at("max_iter").as_int(), 3);
  EXPECT_EQ(canonical.at("selector").as_string(), "random");
  // Defaulted fields appear explicitly in the canonical form.
  EXPECT_EQ(canonical.at("enable_sizing").as_bool(), true);

  Json::Object bad_range;
  bad_range["area_budget"] = Json(-0.5);
  EXPECT_THROW(pass_registry().create("gscale")->configure(bad_range),
               OptionError);
  Json::Object unknown;
  unknown["area_bugdet"] = Json(0.05);
  try {
    pass_registry().create("gscale")->configure(unknown);
    FAIL() << "unknown option accepted";
  } catch (const OptionError& e) {
    EXPECT_STREQ(e.what(), "unknown field 'area_bugdet' in gscale");
  }
  Json::Object bad_choice;
  bad_choice["selector"] = Json("best");
  EXPECT_THROW(pass_registry().create("gscale")->configure(bad_choice),
               OptionError);
}

TEST(OptionSchema, FingerprintIgnoresFieldOrderAndDefaultSpelling) {
  // The same logical configuration reached three ways: option order,
  // grammar-vs-JSON spec form, and defaults-spelled-out vs implied.
  Pipeline a = Pipeline::parse("gscale(area_budget=0.05, max_iter=3)");
  Pipeline b = Pipeline::parse("gscale(max_iter=3, area_budget=0.05)");
  const Json spec = Json::parse(
      R"([{"pass":"gscale","options":{"max_iter":3,"area_budget":0.05}}])");
  Pipeline c = Pipeline::from_spec(spec);
  Pipeline d = Pipeline::parse("gscale(area_budget=0.05, max_iter=3, "
                               "enable_sizing=true, selector=separator)");
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.fingerprint(), c.fingerprint());
  EXPECT_EQ(a.fingerprint(), d.fingerprint());
  // ... and a genuinely different configuration hashes differently.
  Pipeline e = Pipeline::parse("gscale(area_budget=0.06, max_iter=3)");
  EXPECT_NE(a.fingerprint(), e.fingerprint());
}

// ---- grammar --------------------------------------------------------------

TEST(PipelineGrammar, ParsesHybridSpecs) {
  Pipeline p = Pipeline::parse(
      " cvs | gscale( area_budget = 0.05, selector=random ) |dscale|trim ");
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p.pass(0).name(), "cvs");
  EXPECT_EQ(p.pass(1).name(), "gscale");
  EXPECT_EQ(p.pass(2).name(), "dscale");
  EXPECT_EQ(p.pass(3).name(), "trim");
  EXPECT_EQ(
      p.pass(1).canonical_options().at("area_budget").as_double(), 0.05);
  EXPECT_EQ(p.pass(1).canonical_options().at("selector").as_string(),
            "random");
}

TEST(PipelineGrammar, RejectsMalformedSpecs) {
  EXPECT_THROW(Pipeline::parse(""), PipelineError);
  EXPECT_THROW(Pipeline::parse("   "), PipelineError);
  EXPECT_THROW(Pipeline::parse("cvs |"), PipelineError);
  EXPECT_THROW(Pipeline::parse("cvs极"), PipelineError);
  EXPECT_THROW(Pipeline::parse("gscale(area_budget)"), PipelineError);
  EXPECT_THROW(Pipeline::parse("gscale(area_budget=0.05"), PipelineError);
  EXPECT_THROW(Pipeline::parse("nope"), OptionError);          // unknown pass
  EXPECT_THROW(Pipeline::parse("cvs(nope=1)"), OptionError);   // unknown opt
  EXPECT_THROW(Pipeline::parse("gscale(max_iter=0)"), OptionError);
  EXPECT_THROW(Pipeline::from_spec(Json::parse("{}")), PipelineError);
  EXPECT_THROW(Pipeline::from_spec(Json::parse("[]")), PipelineError);
  EXPECT_THROW(Pipeline::from_spec(Json::parse(R"([{"opts":{}}])")),
               PipelineError);
}

TEST(PipelineGrammar, CanonicalDumpReparseIsAFixpoint) {
  const char* specs[] = {
      "cvs",
      "dscale(selector=greedy, max_rounds=2)",
      "cvs | gscale(area_budget=0.05) | dscale",
      "measure | gscale(random_cut_seed=42, flow_algo=edmonds_karp) | trim",
  };
  for (const char* spec : specs) {
    Pipeline first = Pipeline::parse(spec);
    const std::string canonical = first.canonical_spec();
    Pipeline second = Pipeline::parse(canonical);
    EXPECT_EQ(second.canonical_spec(), canonical) << spec;
    EXPECT_EQ(second.canonical_json().dump(),
              first.canonical_json().dump())
        << spec;
    EXPECT_EQ(second.fingerprint(), first.fingerprint()) << spec;
    // The JSON form round-trips through the same canonical dump too.
    Pipeline third = Pipeline::from_spec(first.canonical_json());
    EXPECT_EQ(third.fingerprint(), first.fingerprint()) << spec;
  }
}

// ---- seed resolution ------------------------------------------------------

TEST(PipelineSeeds, DerivedPerPositionUnlessExplicit) {
  Pipeline p = Pipeline::parse("gscale | gscale | gscale(random_cut_seed=9)");
  p.resolve_seeds(1234);
  const auto seed_of = [&](std::size_t i) {
    return p.pass(i).canonical_options().at("random_cut_seed").as_uint();
  };
  // Position 0 uses the legacy suite stream (mix_seed(circuit, 3)).
  EXPECT_EQ(seed_of(0), mix_seed(1234, 3));
  EXPECT_EQ(seed_of(1), mix_seed(1234, 4));
  EXPECT_EQ(seed_of(2), 9u);  // explicit wins
}

// ---- execution ------------------------------------------------------------

TEST(PipelineRunTest, InstrumentsEveryPass) {
  const Network net = build_mcnc_circuit(lib(), *find_mcnc("x2"));
  FlowOptions flow;
  flow.activity.num_vectors = 512;
  CircuitRunResult row;
  init_flow_row(net, lib(), flow, &row);
  Design design = make_flow_design(net, lib(), flow, row.tspec_ns);

  Pipeline p = Pipeline::parse("measure | cvs | gscale | dscale | trim");
  p.resolve_seeds(77);
  const PipelineRun run = p.run(design);
  ASSERT_EQ(run.passes.size(), 5u);

  // The measure probe records the untouched starting point.
  EXPECT_EQ(run.passes[0].pass, "measure");
  EXPECT_EQ(run.passes[0].low_gates, 0);
  EXPECT_EQ(run.passes[0].gates_touched, 0);
  EXPECT_DOUBLE_EQ(run.passes[0].power_uw, row.org_power_uw);

  // CVS lowers gates; the trajectory monotonically tracks the design.
  EXPECT_GT(run.passes[1].low_gates, 0);
  EXPECT_EQ(run.passes[1].gates_touched, run.passes[1].low_gates);
  EXPECT_LT(run.passes[1].power_uw, row.org_power_uw);
  EXPECT_EQ(run.passes[1].position, 1);

  // Gscale grows the cluster by resizing.
  EXPECT_GE(run.passes[2].low_gates, run.passes[1].low_gates);
  EXPECT_GT(run.passes[2].resized, 0);

  // Every pass kept the constraint (run() asserts it internally too).
  for (const PassStats& stats : run.passes)
    EXPECT_LE(stats.arrival_ns, row.tspec_ns * (1 + 1e-9));

  // The design object reflects the final pass.
  EXPECT_EQ(design.count_low(), run.passes.back().low_gates);
}

TEST(PipelineRunTest, HybridBeatsOrMatchesItsBestSinglePass) {
  const Network net = build_mcnc_circuit(lib(), *find_mcnc("b9"));
  FlowOptions flow;
  flow.activity.num_vectors = 512;
  flow.activity.seed = 4321;
  CircuitRunResult row;
  init_flow_row(net, lib(), flow, &row);

  const auto final_power = [&](const char* spec) {
    Design design = make_flow_design(net, lib(), flow, row.tspec_ns);
    Pipeline p = Pipeline::parse(spec);
    p.resolve_seeds(4321);
    return p.run(design).passes.back().power_uw;
  };
  // gscale -> dscale refines the gscale result: dscale starts from the
  // already-lowered cluster, adds MWIS rounds, and its trim cleanup
  // only ever raises gates that reduce power.
  EXPECT_LE(final_power("gscale | dscale"), final_power("gscale") + 1e-6);
}

// ---- suite-matrix equivalence --------------------------------------------

TEST(PipelineSuiteTest, CanonicalSpecsReproduceTheLegacyMatrixBitForBit) {
  // At the default and a 3-rung ladder, serial and threaded (the shared
  // per-circuit build is then raced for by several tasks).
  const std::vector<std::vector<double>> ladders = {{}, {5.0, 4.3, 3.6}};
  for (const std::vector<double>& supplies : ladders) {
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE("rungs " + std::to_string(supplies.size()) +
                   ", threads " + std::to_string(threads));
      SuiteOptions options;
      options.circuits = {"b9", "C432", "apex7"};
      options.flow.activity.num_vectors = 512;
      options.num_threads = threads;
      options.supplies = supplies;

      const SuiteReport legacy = run_suite(options);
      const PipelineSuiteReport matrix =
          run_pipeline_suite(options, {"cvs", "dscale", "gscale"});
      ASSERT_EQ(matrix.cells.size(), legacy.rows.size() * 3);

      for (std::size_t i = 0; i < legacy.rows.size(); ++i) {
        const CircuitRunResult& row = legacy.rows[i];
        const PipelineSuiteCell& cvs = matrix.cells[i * 3 + 0];
        const PipelineSuiteCell& dscale = matrix.cells[i * 3 + 1];
        const PipelineSuiteCell& gscale = matrix.cells[i * 3 + 2];

        // Shared columns: bit-identical (same derived activity seed).
        for (const PipelineSuiteCell* cell : {&cvs, &dscale, &gscale}) {
          EXPECT_EQ(cell->circuit, row.name);
          EXPECT_EQ(cell->num_gates, row.num_gates);
          EXPECT_EQ(cell->tspec_ns, row.tspec_ns);
          EXPECT_EQ(cell->org_power_uw, row.org_power_uw);
        }
        // Algorithm columns: the pipeline cells are the legacy cells.
        EXPECT_EQ(cvs.improve_pct, row.cvs_improve_pct);
        EXPECT_EQ(cvs.run.passes.back().low_gates, row.cvs_low);
        EXPECT_EQ(dscale.improve_pct, row.dscale_improve_pct);
        EXPECT_EQ(dscale.run.passes.back().low_gates, row.dscale_low);
        EXPECT_EQ(dscale.run.passes.back().level_converters,
                  row.dscale_lcs);
        EXPECT_EQ(gscale.improve_pct, row.gscale_improve_pct);
        EXPECT_EQ(gscale.run.passes.back().low_gates, row.gscale_low);
        EXPECT_EQ(gscale.run.passes.back().resized, row.gscale_resized);
        EXPECT_EQ(gscale.run.passes.back().details.at("area_increase")
                      .as_double(),
                  row.gscale_area_increase);
      }
    }
  }
}

TEST(PipelineSuiteTest, HybridMatrixRunsDeterministicallyAcrossThreads) {
  SuiteOptions options;
  options.circuits = {"x2", "b9"};
  options.flow.activity.num_vectors = 256;
  const std::vector<std::string> specs = {"cvs | gscale | dscale"};

  options.num_threads = 1;
  const PipelineSuiteReport serial = run_pipeline_suite(options, specs);
  options.num_threads = 4;
  const PipelineSuiteReport parallel = run_pipeline_suite(options, specs);

  ASSERT_EQ(serial.cells.size(), 2u);
  ASSERT_EQ(parallel.cells.size(), 2u);
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    const PipelineSuiteCell& a = serial.cells[i];
    const PipelineSuiteCell& b = parallel.cells[i];
    EXPECT_EQ(a.spec, b.spec);
    EXPECT_EQ(a.improve_pct, b.improve_pct);
    ASSERT_EQ(a.run.passes.size(), 3u);
    ASSERT_EQ(b.run.passes.size(), 3u);
    for (std::size_t j = 0; j < a.run.passes.size(); ++j) {
      EXPECT_EQ(a.run.passes[j].power_uw, b.run.passes[j].power_uw);
      EXPECT_EQ(a.run.passes[j].low_gates, b.run.passes[j].low_gates);
      EXPECT_EQ(a.run.passes[j].resized, b.run.passes[j].resized);
    }
    // The hybrid did real multi-stage work: the final stage improved on
    // (or matched) the first.
    EXPECT_LE(a.run.passes.back().power_uw,
              a.run.passes.front().power_uw + 1e-9);
  }
  // JSON document sanity.
  const std::string json = serial.to_json();
  EXPECT_NE(json.find("dvs-bench-pipeline-v1"), std::string::npos);
  EXPECT_NO_THROW(Json::parse(json));
}

// ---- trim as a standalone pass -------------------------------------------

TEST(TrimPassTest, NeverIncreasesPowerAndKeepsTiming) {
  const Network net = build_mcnc_circuit(lib(), *find_mcnc("z4ml"));
  FlowOptions flow;
  flow.activity.num_vectors = 512;
  CircuitRunResult row;
  init_flow_row(net, lib(), flow, &row);
  Design design = make_flow_design(net, lib(), flow, row.tspec_ns);

  // Un-trimmed dscale leaves boundaries trim can reconsider.
  Pipeline p = Pipeline::parse("dscale(trim_unprofitable=false) | trim");
  p.resolve_seeds(1);
  const PipelineRun run = p.run(design);
  ASSERT_EQ(run.passes.size(), 2u);
  EXPECT_LE(run.passes[1].power_uw, run.passes[0].power_uw + 1e-12);
  EXPECT_GE(run.passes[1].details.at("raised").as_int(), 0);
}

}  // namespace
}  // namespace dvs
