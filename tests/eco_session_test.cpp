// ECO design sessions (service/design_session.hpp): the incremental
// reoptimize path must be indistinguishable — to the last bit of every
// double — from the stateless full recompute, under hundreds of random
// edits; and the handle lifecycle (refcounts, idle expiry, byte-budget
// eviction, drain) must fail with the exact protocol error texts
// README.md documents.  Registry-direct tests drive DesignRegistry;
// socket tests boot a real Service and speak NDJSON.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "library/library.hpp"
#include "service/design_session.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/session.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/socket.hpp"

namespace dvs {
namespace {

// ---- registry-direct helpers ----

OpenDesignRequest open_circuit(const std::string& circuit,
                               const std::string& name = "") {
  OpenDesignRequest request;
  request.circuit = circuit;
  request.name = name;
  return request;
}

EditRequest one_edit(const std::string& design, DesignEdit edit) {
  EditRequest request;
  request.design = design;
  request.edits.push_back(std::move(edit));
  return request;
}

DesignEdit rung_edit(std::int64_t gate, int rung) {
  DesignEdit edit;
  edit.op = DesignEdit::Op::kRung;
  edit.gate = Json(gate);
  edit.rung = rung;
  return edit;
}

/// First valid gate id at or after `start` (probed with a no-op rung-0
/// edit, which is how a protocol client would discover one too).
std::int64_t find_gate(DesignRegistry& registry, const std::string& design,
                       std::int64_t start = 0) {
  for (std::int64_t id = start; id < start + 4096; ++id) {
    try {
      registry.edit(one_edit(design, rung_edit(id, 0)));
      return id;
    } catch (const ProtocolError&) {
    }
  }
  ADD_FAILURE() << "no gate found from id " << start;
  return -1;
}

Json::Object evaluate(DesignRegistry& registry, const std::string& design,
                      const std::string& mode) {
  ReoptimizeRequest request;
  request.design = design;
  request.mode = mode;
  return registry.reoptimize(request).fields;
}

/// The incremental and full evaluations of one design state: every field
/// but `mode` must be identical, each double to the last bit.
void expect_same_evaluation(Json::Object incremental, Json::Object full,
                            const std::string& where) {
  incremental.erase("mode");
  full.erase("mode");
  EXPECT_EQ(Json(std::move(incremental)).dump(), Json(std::move(full)).dump())
      << where;
}

#define EXPECT_PROTOCOL_ERROR(expression, text)                   \
  try {                                                           \
    expression;                                                   \
    ADD_FAILURE() << "no error from " << #expression;             \
  } catch (const ProtocolError& e) {                              \
    EXPECT_STREQ(text, e.what());                                 \
  }

// ---- incremental == stateless, under random edit streams ----

/// 200 random edit/reoptimize steps per circuit.  After every edit the
/// incremental evaluation (auto mode: the maintained IncrementalSta)
/// must equal the stateless full recompute exactly — not approximately:
/// the same doubles, compared with ==.  A fresh handle replaying the
/// whole edit log from scratch must land on the same numbers too.
TEST(EcoSessionTest, RandomEditsMatchStatelessExactly) {
  const Library lib = build_compass_library();
  const int rungs = lib.supplies().depth();
  DesignRegistry registry(&lib, DesignSessionConfig{});
  Rng rng(0x5e551);

  for (const char* circuit : {"C432", "b9"}) {
    const Json::Object opened = registry.open(open_circuit(circuit));
    const std::string design = opened.at("design").as_string();
    const std::int64_t gates = opened.at("gates").as_int();
    std::vector<DesignEdit> log;  // successful edits, for the replay
    // Node ids are never reused: the k-th inserted converter gets id
    // (mapped network size) + k.  Live ones are what kRemoveLc draws from.
    std::int64_t next_lc =
        CircuitSource(lib, circuit, "", "", JobOptions{}).network().size();
    std::vector<std::int64_t> live_lcs;

    int structural_steps = 0;
    int removals = 0;
    for (int step = 0; step < 200; ++step) {
      // One random edit: mostly rung flips and resizes, occasionally a
      // structural level-converter insertion or removal (of any live
      // converter, the newest or an older one).
      for (int attempt = 0;; ++attempt) {
        ASSERT_LT(attempt, 1000) << circuit << " step " << step;
        DesignEdit edit;
        const int kind = rng.next_int(0, 19);
        if (kind < 14) {
          edit.op = DesignEdit::Op::kRung;
          edit.rung = rng.next_int(0, rungs - 1);
        } else if (kind < 17) {
          edit.op = rng.next_bool() ? DesignEdit::Op::kUpsize
                                    : DesignEdit::Op::kDownsize;
        } else if (kind < 19 || live_lcs.empty()) {
          edit.op = DesignEdit::Op::kInsertLc;
        } else {
          edit.op = DesignEdit::Op::kRemoveLc;
        }
        std::size_t removed = 0;
        if (edit.op == DesignEdit::Op::kRemoveLc) {
          removed = rng.next_below(live_lcs.size());
          edit.gate = Json(live_lcs[removed]);
        } else {
          edit.gate = Json(static_cast<std::int64_t>(
              rng.next_below(static_cast<std::uint64_t>(gates) * 2)));
        }
        try {
          registry.edit(one_edit(design, edit));
        } catch (const ProtocolError&) {
          continue;  // not a gate / at a rail / no fanouts — pick again
        }
        if (edit.op == DesignEdit::Op::kInsertLc) {
          live_lcs.push_back(next_lc++);
          ++structural_steps;
        } else if (edit.op == DesignEdit::Op::kRemoveLc) {
          live_lcs.erase(live_lcs.begin() +
                         static_cast<std::ptrdiff_t>(removed));
          ++structural_steps;
          ++removals;
        }
        log.push_back(std::move(edit));
        break;
      }

      expect_same_evaluation(evaluate(registry, design, "auto"),
                             evaluate(registry, design, "full"),
                             std::string(circuit) + " step " +
                                 std::to_string(step));
    }
    EXPECT_GT(structural_steps, 0) << "edit mix never went structural";
    EXPECT_GT(removals, 0) << "edit mix never removed a converter";

    // From-scratch cross-check: a second handle of the same circuit,
    // replaying the log, is the literal stateless run of the final
    // state.  (Node ids are deterministic, so the log replays 1:1.)
    const Json::Object reopened =
        registry.open(open_circuit(circuit, std::string(circuit) + "-r"));
    const std::string replay = reopened.at("design").as_string();
    for (const DesignEdit& edit : log)
      registry.edit(one_edit(replay, edit));
    const Json::Object a = evaluate(registry, design, "auto");
    const Json::Object b = evaluate(registry, replay, "full");
    for (const char* key : {"power_uw", "arrival_ns", "area_um2"})
      EXPECT_EQ(a.at(key).as_double(), b.at(key).as_double())
          << circuit << " replay field " << key;

    CloseDesignRequest close;
    close.design = design;
    registry.close(close);
    close.design = replay;
    registry.close(close);
  }
}

/// What a maintained session buys on a large circuit: after each of 10
/// random point edits to C7552, the incremental reoptimize must equal the
/// full recompute exactly, and the full path must take at least 5x the
/// incremental path's summed time.
TEST(EcoSessionTest, IncrementalReoptimizeIsFiveTimesFasterOnC7552) {
  const Library lib = build_compass_library();
  const int rungs = lib.supplies().depth();
  DesignRegistry registry(&lib, DesignSessionConfig{});
  Rng rng(0xec0);
  const Json::Object opened = registry.open(open_circuit("C7552"));
  const std::string design = opened.at("design").as_string();
  const std::uint64_t id_bound =
      static_cast<std::uint64_t>(opened.at("gates").as_int()) * 2;
  evaluate(registry, design, "full");  // arms the timer outside the clock

  const auto timed = [&](const char* mode, double* total_ms) {
    const auto start = std::chrono::steady_clock::now();
    Json::Object fields = evaluate(registry, design, mode);
    *total_ms += std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    return fields;
  };
  double incremental_ms = 0.0;
  double full_ms = 0.0;
  for (int step = 0; step < 10; ++step) {
    // One point edit, biased toward rung flips: the classic ECO.
    for (int attempt = 0;; ++attempt) {
      ASSERT_LT(attempt, 1000) << "step " << step;
      DesignEdit edit;
      const int kind = rng.next_int(0, 3);
      edit.op = kind <= 1   ? DesignEdit::Op::kRung
                : kind == 2 ? DesignEdit::Op::kUpsize
                            : DesignEdit::Op::kDownsize;
      edit.rung = rng.next_int(0, rungs - 1);
      edit.gate = Json(static_cast<std::int64_t>(rng.next_below(id_bound)));
      try {
        registry.edit(one_edit(design, edit));
        break;
      } catch (const ProtocolError&) {
        // Not a gate / already at a rail — pick again.
      }
    }
    Json::Object incremental = timed("incremental", &incremental_ms);
    Json::Object full = timed("full", &full_ms);
    expect_same_evaluation(std::move(incremental), std::move(full),
                           "step " + std::to_string(step));
  }
  EXPECT_GE(full_ms, 5.0 * incremental_ms)
      << "incremental " << incremental_ms << " ms, full " << full_ms
      << " ms";
  std::printf("eco: incremental reoptimize %.1fx faster than full\n",
              full_ms / incremental_ms);
}

/// Auto mode resolves to the cheap path when it can and the full path
/// when it must; asking for the impossible is a protocol error with the
/// documented text.
TEST(EcoSessionTest, StructuralEditsForceFullRecompile) {
  const Library lib = build_compass_library();
  DesignRegistry registry(&lib, DesignSessionConfig{});
  registry.open(open_circuit("b9", "eco"));
  const std::int64_t gate = find_gate(registry, "eco");

  // A fresh handle has no structural debt: auto stays incremental (the
  // first evaluation arms the timer lazily).
  EXPECT_EQ("incremental",
            evaluate(registry, "eco", "auto").at("mode").as_string());
  registry.edit(one_edit("eco", rung_edit(gate, 1)));
  EXPECT_EQ("incremental",
            evaluate(registry, "eco", "auto").at("mode").as_string());

  DesignEdit lc;
  lc.op = DesignEdit::Op::kInsertLc;
  lc.gate = Json(gate);
  registry.edit(one_edit("eco", lc));
  EXPECT_PROTOCOL_ERROR(
      evaluate(registry, "eco", "incremental"),
      "cannot reoptimize 'eco' incrementally: structural edits require "
      "a full recompile (mode 'full' or 'auto')");
  EXPECT_EQ("full", evaluate(registry, "eco", "auto").at("mode")
                        .as_string());
  // Debt paid: the timer is re-armed and incremental works again.
  EXPECT_EQ("incremental",
            evaluate(registry, "eco", "incremental").at("mode")
                .as_string());
}

// ---- edit semantics ----

TEST(EcoSessionTest, EditErrorsAreIndexedAndPartialApplicationSticks) {
  const Library lib = build_compass_library();
  DesignRegistry registry(&lib, DesignSessionConfig{});
  registry.open(open_circuit("C432", "c"));
  const std::int64_t gate = find_gate(registry, "c");

  // Batch of two: the first (valid) edit stays applied, the second
  // fails with its index in the message.
  EditRequest request;
  request.design = "c";
  request.edits.push_back(rung_edit(gate, 1));
  DesignEdit bad;
  bad.op = DesignEdit::Op::kRung;
  bad.gate = Json(std::string("no_such_gate"));
  bad.rung = 1;
  request.edits.push_back(bad);
  EXPECT_PROTOCOL_ERROR(registry.edit(request),
                        "edit 1: unknown gate 'no_such_gate' in design "
                        "'c'");
  EXPECT_EQ(1, evaluate(registry, "c", "full").at("low").as_int());

  EXPECT_PROTOCOL_ERROR(
      registry.edit(one_edit("c", rung_edit(gate, 5))),
      "edit 0: rung 5 out of range for a 2-rung ladder");
}

TEST(EcoSessionTest, LevelConverterInsertRemoveRoundTrips) {
  const Library lib = build_compass_library();
  DesignRegistry registry(&lib, DesignSessionConfig{});
  const Json::Object opened = registry.open(open_circuit("b9", "lc"));
  const std::int64_t before = opened.at("gates").as_int();
  const std::int64_t gate = find_gate(registry, "lc");

  const double area_before =
      evaluate(registry, "lc", "full").at("area_um2").as_double();

  DesignEdit insert;
  insert.op = DesignEdit::Op::kInsertLc;
  insert.gate = Json(gate);
  const Json::Object inserted = registry.edit(one_edit("lc", insert));
  EXPECT_TRUE(inserted.at("structural").as_bool());
  EXPECT_EQ(before + 1, inserted.at("gates").as_int());
  // The materialized converter is a real gate: it costs area.  (The
  // `level_converters` reply field counts assignment-driven boundary
  // converters, a different thing — see core/design.hpp.)
  EXPECT_GT(evaluate(registry, "lc", "auto").at("area_um2").as_double(),
            area_before);

  // The inserted converter is one of the newest ids; find and remove it
  // (scanning like a protocol client would).  replace_uses tombstones
  // the node, so the gate count and the area return exactly.
  DesignEdit remove;
  remove.op = DesignEdit::Op::kRemoveLc;
  Json::Object removed_reply;
  bool removed = false;
  for (std::int64_t id = before; !removed && id < before + 64; ++id) {
    remove.gate = Json(id);
    try {
      removed_reply = registry.edit(one_edit("lc", remove));
      removed = true;
    } catch (const ProtocolError&) {
    }
  }
  ASSERT_TRUE(removed);
  EXPECT_EQ(before, removed_reply.at("gates").as_int());
  EXPECT_EQ(area_before,
            evaluate(registry, "lc", "auto").at("area_um2").as_double());

  // A plain gate is not a removable converter.
  DesignEdit bad;
  bad.op = DesignEdit::Op::kRemoveLc;
  bad.gate = Json(gate);
  EXPECT_THROW(registry.edit(one_edit("lc", bad)), ProtocolError);
}

// ---- lifecycle: refcounts, expiry, eviction, drain ----

TEST(EcoSessionTest, AttachRefcountsAndDoubleCloseTombstone) {
  const Library lib = build_compass_library();
  DesignRegistry registry(&lib, DesignSessionConfig{});

  const Json::Object first = registry.open(open_circuit("b9", "shared"));
  EXPECT_FALSE(first.at("attached").as_bool());
  EXPECT_EQ(1, first.at("refs").as_int());
  const Json::Object second = registry.open(open_circuit("b9", "shared"));
  EXPECT_TRUE(second.at("attached").as_bool());
  EXPECT_EQ(2, second.at("refs").as_int());
  EXPECT_EQ(1u, registry.open_count());

  CloseDesignRequest close;
  close.design = "shared";
  EXPECT_EQ(1, registry.close(close).at("refs").as_int());
  evaluate(registry, "shared", "full");  // still usable at refs 1
  EXPECT_EQ(0, registry.close(close).at("refs").as_int());
  EXPECT_EQ(0u, registry.open_count());

  EXPECT_PROTOCOL_ERROR(registry.close(close),
                        "design 'shared' is closed");
  EXPECT_PROTOCOL_ERROR(evaluate(registry, "shared", "full"),
                        "design 'shared' is closed");
  EXPECT_PROTOCOL_ERROR(
      registry.edit(one_edit("shared", rung_edit(0, 0))),
      "design 'shared' is closed");
  EXPECT_PROTOCOL_ERROR(evaluate(registry, "nope", "full"),
                        "unknown design handle 'nope'");

  // A closed name can be reopened fresh (the tombstone clears).
  const Json::Object reopened = registry.open(open_circuit("b9", "shared"));
  EXPECT_FALSE(reopened.at("attached").as_bool());
}

TEST(EcoSessionTest, IdleHandlesExpire) {
  const Library lib = build_compass_library();
  DesignSessionConfig config;
  config.idle_ms = 1;
  DesignRegistry registry(&lib, config);
  registry.open(open_circuit("b9", "sleepy"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_PROTOCOL_ERROR(evaluate(registry, "sleepy", "full"),
                        "design 'sleepy' expired after idle timeout");
  EXPECT_EQ(1u, registry.stats().expired);
  EXPECT_EQ(0u, registry.open_count());
}

TEST(EcoSessionTest, ByteBudgetEvictsOldestIdle) {
  const Library lib = build_compass_library();
  DesignSessionConfig config;
  config.max_bytes = 1;  // everything is over budget; one survivor max
  DesignRegistry registry(&lib, config);
  registry.open(open_circuit("b9", "old"));
  registry.open(open_circuit("C432", "young"));
  // Opening "young" ran the GC over budget: "old" (oldest idle) went.
  EXPECT_PROTOCOL_ERROR(
      evaluate(registry, "old", "full"),
      "design 'old' was evicted under the design byte budget");
  evaluate(registry, "young", "full");  // the last handle is never evicted
  EXPECT_EQ(1u, registry.stats().evicted);
  EXPECT_GT(registry.stats().resident_bytes, 0u);
}

TEST(EcoSessionTest, FootprintEstimateMovesOnlyWithStructure) {
  const Library lib = build_compass_library();
  DesignRegistry registry(&lib, DesignSessionConfig{});
  registry.open(open_circuit("b9", "fp"));
  const std::int64_t gate = find_gate(registry, "fp");
  const std::size_t at_open = registry.stats().resident_bytes;
  ASSERT_GT(at_open, 0u);

  // Point edits, before and after the timer is armed, leave it alone.
  registry.edit(one_edit("fp", rung_edit(gate, 1)));
  EXPECT_EQ(at_open, registry.stats().resident_bytes);
  evaluate(registry, "fp", "auto");
  registry.edit(one_edit("fp", rung_edit(gate, 0)));
  EXPECT_EQ(at_open, registry.stats().resident_bytes);

  DesignEdit insert;
  insert.op = DesignEdit::Op::kInsertLc;
  insert.gate = Json(gate);
  registry.edit(one_edit("fp", insert));
  const std::size_t after_insert = registry.stats().resident_bytes;
  EXPECT_GT(after_insert, at_open);

  // A batch that fails after a structural edit still re-estimates.
  EditRequest batch = one_edit("fp", insert);
  batch.edits.push_back(rung_edit(gate, 9));
  EXPECT_THROW(registry.edit(batch), ProtocolError);
  EXPECT_GT(registry.stats().resident_bytes, after_insert);
}

TEST(EcoSessionTest, TooManyOpenDesigns) {
  const Library lib = build_compass_library();
  DesignSessionConfig config;
  config.max_open = 1;
  DesignRegistry registry(&lib, config);
  registry.open(open_circuit("b9", "only"));
  EXPECT_PROTOCOL_ERROR(registry.open(open_circuit("C432", "over")),
                        "too many open designs: 1 open at cap 1");
}

TEST(EcoSessionTest, DrainRefusesNewWorkButClosesCleanly) {
  const Library lib = build_compass_library();
  DesignRegistry registry(&lib, DesignSessionConfig{});
  registry.open(open_circuit("b9", "held"));
  registry.begin_drain();

  EXPECT_PROTOCOL_ERROR(registry.open(open_circuit("C432")),
                        "draining: design sessions are closing");
  EXPECT_PROTOCOL_ERROR(evaluate(registry, "held", "full"),
                        "draining: design sessions are closing");
  EXPECT_PROTOCOL_ERROR(
      registry.edit(one_edit("held", rung_edit(0, 0))),
      "draining: design sessions are closing");

  // close_design still works mid-drain: clients get to say goodbye.
  CloseDesignRequest close;
  close.design = "held";
  EXPECT_EQ(0, registry.close(close).at("refs").as_int());
  registry.close_all();
  EXPECT_EQ(0u, registry.open_count());
}

TEST(EcoSessionTest, UnknownCircuitFailsTheOpen) {
  const Library lib = build_compass_library();
  DesignRegistry registry(&lib, DesignSessionConfig{});
  EXPECT_PROTOCOL_ERROR(registry.open(open_circuit("not_a_circuit")),
                        "unknown MCNC circuit 'not_a_circuit'");
  EXPECT_EQ(0u, registry.open_count());
  EXPECT_EQ(0u, registry.stats().opened);
}

// ---- sweep ----

TEST(EcoSessionTest, SweepGridShapeAndPareto) {
  const Library lib = build_compass_library();
  DesignRegistry registry(&lib, DesignSessionConfig{});
  registry.open(open_circuit("b9", "grid"));

  SweepRequest request;
  request.design = "grid";
  request.vlow = {4.3, 3.7};
  request.area_budgets = {0.05, 0.10};
  const Json::Object reply = registry.sweep(request);
  // 2 ladders x (cvs + dscale + gscale x 2 budgets) = 8 cells.
  EXPECT_EQ(8u, reply.at("count").as_uint());
  EXPECT_EQ(8u, reply.at("cells").as_array().size());
  EXPECT_FALSE(reply.at("pareto").as_array().empty());
  EXPECT_EQ("grid", reply.at("design").as_string());
  EXPECT_EQ(1u, registry.stats().sweeps);
  EXPECT_EQ(8u, registry.stats().sweep_cells);
}

/// One pinned cell of a sweep reply.
struct PinnedCell {
  const char* algo;
  double improve_pct;
  int low;
  int resized;
  double area_increase;
  bool pareto;
};

void expect_sweep_cells(const Json::Object& reply,
                        const std::vector<PinnedCell>& pinned) {
  const Json::Array& cells = reply.at("cells").as_array();
  ASSERT_EQ(pinned.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const PinnedCell& want = pinned[i];
    const Json& got = cells[i];
    EXPECT_EQ(want.algo, got.find("algo")->as_string()) << "cell " << i;
    EXPECT_EQ(want.improve_pct, got.find("improve_pct")->as_double())
        << "cell " << i;
    EXPECT_EQ(want.low, got.find("low")->as_int()) << "cell " << i;
    EXPECT_EQ(want.resized, got.find("resized")->as_int()) << "cell " << i;
    EXPECT_EQ(want.area_increase, got.find("area_increase")->as_double())
        << "cell " << i;
    EXPECT_EQ(want.pareto, got.find("pareto")->as_bool()) << "cell " << i;
  }
}

/// The paper's two design-choice experiments, pinned to the bit: E5
/// sweeps Vlow at Vhigh = 5 V (why 4.3 V), E6 sweeps Gscale's area budget
/// (why a 10% cap).  Cells are in grid order: ladder, algo, budget.
TEST(EcoSessionTest, SweepReproducesE5AndE6Grids) {
  const Library lib = build_compass_library();
  DesignRegistry registry(&lib, DesignSessionConfig{});

  registry.open(open_circuit("b9", "e5"));
  SweepRequest vlow;
  vlow.design = "e5";
  vlow.vlow = {4.7, 4.5, 4.3, 4.0, 3.7, 3.3};
  vlow.algos = {PaperAlgo::kCvs, PaperAlgo::kGscale};
  expect_sweep_cells(
      registry.sweep(vlow),
      {
          {"cvs", 0x1.b237bdfeb3c63p+2, 58, 0, 0x0.0p+0, false},  // 4.7
          {"gscale", 0x1.61d298ca0a2bbp+3, 111, 10, 0x1.d8a50b63268bap-6,
           true},
          {"cvs", 0x1.6266121dfeb86p+3, 58, 0, 0x0.0p+0, false},  // 4.5
          {"gscale", 0x1.2739016287a9dp+4, 111, 10, 0x1.d8a50b63268bap-6,
           false},
          {"cvs", 0x1.e5baa1de088f8p+3, 58, 0, 0x0.0p+0, false},  // 4.3
          {"gscale", 0x1.954d0b42537d6p+4, 111, 20, 0x1.d8a50b63268bap-5,
           true},
          {"cvs", 0x1.4fc673965a5a3p+4, 58, 0, 0x0.0p+0, false},  // 4.0
          {"gscale", 0x1.1975a00096313p+5, 111, 20, 0x1.7a1da2b5b86fbp-4,
           true},
          {"cvs", 0x1.a5fb3e73420acp+4, 58, 0, 0x0.0p+0, false},  // 3.7
          {"gscale", 0x1.4b4eb1dfaad1bp+5, 104, 30, 0x1.8d05847201a8ap-4,
           true},
          {"cvs", 0x1.073f3784c9311p+5, 58, 0, 0x0.0p+0, false},  // 3.3
          {"gscale", 0x1.6ce4668d6ea2ep+5, 88, 37, 0x1.97d8bd706563dp-4,
           true},
      });

  registry.open(open_circuit("C432", "e6"));
  SweepRequest budgets;
  budgets.design = "e6";
  budgets.area_budgets = {0.0, 0.02, 0.05, 0.10, 0.20, 0.40};
  budgets.algos = {PaperAlgo::kGscale};
  expect_sweep_cells(
      registry.sweep(budgets),
      {
          {"gscale", 0x0.0p+0, 0, 0, 0x0.0p+0, false},  // 0%
          {"gscale", 0x1.d9ebe86d2d750p+2, 46, 10, 0x1.3a10561d40e70p-6,
           false},  // 2%
          {"gscale", 0x1.23f185fb3ff85p+4, 121, 26, 0x1.98486ff2d45f8p-5,
           true},  // 5%
          {"gscale", 0x1.81a304d5c04b6p+4, 159, 42, 0x1.6b4011052df54p-4,
           true},  // 10%
          {"gscale", 0x1.81a304d5c04b6p+4, 159, 42, 0x1.6b4011052df54p-4,
           true},  // 20%
          {"gscale", 0x1.81a304d5c04b6p+4, 159, 42, 0x1.6b4011052df54p-4,
           true},  // 40%
      });
}

// ---- socket level: the NDJSON protocol end to end ----

class EcoServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServiceConfig config;
    config.tcp_port = 0;
    config.num_threads = 2;
    config.cache_bytes = 8u << 20;
    service_.emplace(config);
    service_->start();
  }
  void TearDown() override {
    if (service_) {
      service_->request_stop();
      service_->stop();
    }
  }
  std::optional<Service> service_;
};

class Client {
 public:
  explicit Client(int port)
      : socket_(Socket::connect_tcp("127.0.0.1", port)),
        reader_(&socket_, 64u << 20) {}
  void send(const std::string& request) { socket_.send_all(request + "\n"); }
  Json recv() {
    std::string line;
    EXPECT_TRUE(reader_.read_line(&line)) << "connection closed early";
    return Json::parse(line);
  }

 private:
  Socket socket_;
  LineReader reader_;
};

TEST_F(EcoServiceTest, FullSessionOverTheWire) {
  Client client(service_->port());

  client.send(R"({"type":"open_design","circuit":"C432","name":"wire"})");
  Json opened = client.recv();
  ASSERT_EQ("design_opened", opened.find("type")->as_string())
      << opened.dump();
  EXPECT_EQ("wire", opened.find("design")->as_string());
  const std::int64_t gates = opened.find("gates")->as_int();
  EXPECT_GT(gates, 0);

  // Find a gate over the wire: bad addresses answer errors and the
  // connection keeps serving (error containment).
  std::int64_t gate = -1;
  for (std::int64_t id = 0; id < gates && gate < 0; ++id) {
    client.send(R"({"type":"edit","design":"wire","edits":[{"op":"rung",)"
                R"("gate":)" +
                std::to_string(id) + R"(,"rung":1}]})");
    const Json reply = client.recv();
    if (reply.find("type")->as_string() == "edited") gate = id;
  }
  ASSERT_GE(gate, 0);

  client.send(
      R"({"type":"reoptimize","design":"wire","mode":"incremental"})");
  Json incremental = client.recv();
  ASSERT_EQ("reoptimized", incremental.find("type")->as_string())
      << incremental.dump();
  EXPECT_EQ("incremental", incremental.find("mode")->as_string());
  EXPECT_EQ(1, incremental.find("low")->as_int());

  client.send(R"({"type":"reoptimize","design":"wire","mode":"full"})");
  Json full = client.recv();
  ASSERT_EQ("reoptimized", full.find("type")->as_string());
  // The wire carries the same doubles both ways — byte identity
  // survives serialization because dump() round-trips doubles exactly.
  for (const char* key : {"power_uw", "arrival_ns", "area_um2"})
    EXPECT_EQ(incremental.find(key)->as_double(),
              full.find(key)->as_double())
        << key;

  // Pipeline reoptimize: first run computes, second answers from cache.
  client.send(
      R"({"type":"reoptimize","design":"wire","algos":["cvs"]})");
  Json computed = client.recv();
  ASSERT_EQ("reoptimized", computed.find("type")->as_string())
      << computed.dump();
  EXPECT_EQ("pipeline", computed.find("mode")->as_string());
  EXPECT_EQ("miss", computed.find("cache")->as_string());
  ASSERT_NE(nullptr, computed.find("report"));
  client.send(
      R"({"type":"reoptimize","design":"wire","algos":["cvs"]})");
  Json cached = client.recv();
  EXPECT_EQ("hit", cached.find("cache")->as_string());
  EXPECT_EQ(computed.find("report")->dump(),
            cached.find("report")->dump());

  client.send(
      R"({"type":"sweep","design":"wire","vlow":[4.3],"algos":["cvs"]})");
  Json swept = client.recv();
  ASSERT_EQ("sweep_result", swept.find("type")->as_string())
      << swept.dump();
  EXPECT_EQ(1u, swept.find("count")->as_uint());

  // The stats block and the Prometheus gauges both see the session.
  client.send(R"({"type":"stats"})");
  const Json stats = client.recv();
  const Json* designs = stats.find("designs");
  ASSERT_NE(nullptr, designs);
  EXPECT_EQ(1u, designs->find("open")->as_uint());
  EXPECT_GT(designs->find("resident_bytes")->as_uint(), 0u);
  EXPECT_EQ(1u, designs->find("opened")->as_uint());
  EXPECT_GE(designs->find("edits")->as_uint(), 1u);
  EXPECT_EQ(1u, designs->find("reoptimize_incremental")->as_uint());
  EXPECT_EQ(1u, designs->find("sweeps")->as_uint());

  client.send(R"({"type":"metrics"})");
  const std::string text = client.recv().find("text")->as_string();
  EXPECT_NE(std::string::npos, text.find("dvsd_sessions_open 1"))
      << text;
  EXPECT_NE(std::string::npos, text.find("dvsd_design_opened_total 1"));

  client.send(R"({"type":"close_design","design":"wire"})");
  Json closed = client.recv();
  ASSERT_EQ("design_closed", closed.find("type")->as_string());
  EXPECT_EQ(0, closed.find("refs")->as_int());

  client.send(R"({"type":"edit","design":"wire","edits":[{"op":"rung",)"
              R"("gate":0,"rung":0}]})");
  const Json error = client.recv();
  EXPECT_EQ("error", error.find("type")->as_string());
  EXPECT_EQ("design 'wire' is closed",
            error.find("message")->as_string());
}

/// A traced auto reoptimize carries the request phases around the
/// registry's spans: the timer and power rebuild shows as its own depth-0
/// `rearm` span only after a structural edit, and the depth-0 spans tile
/// wall_ms with ServiceTest.TraceSpansTileTheRequest's slack.
TEST_F(EcoServiceTest, ReoptimizeTraceShowsRearmOnlyAfterStructuralEdit) {
  Client client(service_->port());
  client.send(R"({"type":"open_design","circuit":"C432","name":"traced"})");
  ASSERT_EQ("design_opened", client.recv().find("type")->as_string());
  client.send(R"({"type":"reoptimize","design":"traced","mode":"full"})");
  ASSERT_EQ("reoptimized", client.recv().find("type")->as_string());

  // Applies the first edit `op` lands on, trying gate ids in order.
  const auto edit_some_gate = [&](const std::string& op) {
    for (int id = 0; id < 1000; ++id) {
      client.send(R"({"type":"edit","design":"traced","edits":[{"op":")" +
                  op + R"(","gate":)" + std::to_string(id) + "}]}");
      if (client.recv().find("type")->as_string() == "edited") return true;
    }
    return false;
  };
  // Depth-0 span names of one traced auto reoptimize, in start order.
  const auto traced_phases = [&](const std::string& expected_mode) {
    client.send(
        R"({"type":"reoptimize","design":"traced","mode":"auto","trace":true})");
    const Json reply = client.recv();
    EXPECT_EQ("reoptimized", reply.find("type")->as_string()) << reply.dump();
    EXPECT_EQ(expected_mode, reply.find("mode")->as_string());
    std::vector<std::string> phases;
    double depth0 = 0.0;
    const Json* trace = reply.find("trace");
    if (trace == nullptr) {
      ADD_FAILURE() << "no trace: " << reply.dump();
      return phases;
    }
    for (const Json& span : trace->as_array()) {
      if (span.find("depth")->as_int() != 0) continue;
      depth0 += span.find("dur_ms")->as_double();
      phases.push_back(span.find("name")->as_string());
    }
    const double wall = reply.find("wall_ms")->as_double();
    EXPECT_NEAR(depth0, wall, std::max(0.05 * wall, 1.0)) << reply.dump();
    return phases;
  };

  ASSERT_TRUE(edit_some_gate("upsize"));
  EXPECT_EQ(traced_phases("incremental"),
            (std::vector<std::string>{"parse", "admission", "queue_wait",
                                      "evaluate", "respond"}));
  ASSERT_TRUE(edit_some_gate("insert_lc"));
  EXPECT_EQ(traced_phases("full"),
            (std::vector<std::string>{"parse", "admission", "queue_wait",
                                      "rearm", "evaluate", "respond"}));
}

TEST_F(EcoServiceTest, MalformedDesignRequestsAreContained) {
  Client client(service_->port());
  client.send(R"({"type":"open_design"})");
  EXPECT_EQ("open_design needs exactly one of 'circuit' or 'netlist'",
            client.recv().find("message")->as_string());
  client.send(R"({"type":"edit","design":"x","edits":[]})");
  EXPECT_EQ("edit needs a non-empty 'edits' array",
            client.recv().find("message")->as_string());
  client.send(R"({"type":"reoptimize","design":"x","mode":"sideways"})");
  EXPECT_EQ("mode must be 'auto', 'incremental', or 'full'",
            client.recv().find("message")->as_string());
  client.send(R"({"type":"close_design"})");
  EXPECT_EQ("close_design needs a 'design' handle",
            client.recv().find("message")->as_string());
  // The connection survived all of it.
  client.send(R"({"type":"ping"})");
  EXPECT_EQ("pong", client.recv().find("type")->as_string());
}

// ---- one cache entry behind optimize and open_design + reoptimize ----

/// A fresh directory under TMPDIR, removed on scope exit.
class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "dvs-eco-XXXXXX");
    path_ = ::mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Json round_trip(Client& client, const std::string& request) {
  client.send(request);
  return client.recv();
}

/// The body fields a cached answer replays verbatim.
std::string body_fields(const Json& reply) {
  const Json* report = reply.find("report");
  const Json* metrics = reply.find("metrics");
  const Json* trajectory = reply.find("trajectory");
  if (!report || !metrics || !trajectory) return "<no body> " + reply.dump();
  return report->dump() + "|" + metrics->dump() + "|" + trajectory->dump();
}

/// The cache key is content-addressed (DESIGN.md "ECO sessions"): a
/// stateless optimize and a pipeline reoptimize of the same untouched
/// circuit at the same options are one entry, whichever verb computes
/// it, at the default ladder and at a three-rung one — and the entry
/// answers a pipeline reoptimize from the disk tier after a restart.
TEST(EcoCacheAliasing, OptimizeAndReoptimizeShareOneEntry) {
  TempDir dir;
  ServiceConfig config;
  config.tcp_port = 0;
  config.num_threads = 2;
  config.cache_dir = dir.path();
  const std::string ladder = R"(,"options":{"supplies":"5,4.3,3.6"})";
  for (const std::string& options : {std::string(), ladder}) {
    SCOPED_TRACE("options '" + options + "'");
    const std::string open =
        R"({"type":"open_design","circuit":"C432","name":"eco")" + options +
        "}";
    std::string cvs_body;
    {
      Service service(config);
      service.start();
      Client client(service.port());

      // optimize computes, the reoptimize answers from memory.
      const Json computed = round_trip(
          client, R"({"type":"optimize","circuit":"C432","algos":["cvs"])" +
                      options + "}");
      ASSERT_EQ("result", computed.find("type")->as_string())
          << computed.dump();
      EXPECT_EQ("miss", computed.find("cache")->as_string());
      cvs_body = body_fields(computed);
      const Json opened = round_trip(client, open);
      ASSERT_EQ("design_opened", opened.find("type")->as_string())
          << opened.dump();
      const Json aliased = round_trip(
          client, R"({"type":"reoptimize","design":"eco","algos":["cvs"]})");
      ASSERT_EQ("reoptimized", aliased.find("type")->as_string())
          << aliased.dump();
      EXPECT_EQ("hit", aliased.find("cache")->as_string());
      EXPECT_EQ(cvs_body, body_fields(aliased));

      // The other direction: reoptimize computes, optimize hits.
      const Json first = round_trip(
          client,
          R"({"type":"reoptimize","design":"eco","algos":["dscale"]})");
      EXPECT_EQ("miss", first.find("cache")->as_string()) << first.dump();
      const Json second = round_trip(
          client,
          R"({"type":"optimize","circuit":"C432","algos":["dscale"])" +
              options + "}");
      EXPECT_EQ("hit", second.find("cache")->as_string()) << second.dump();
      EXPECT_EQ(body_fields(first), body_fields(second));

      service.request_stop();
      service.stop();  // flushes the disk tier
    }

    Service restarted(config);
    restarted.start();
    Client client(restarted.port());
    ASSERT_EQ("design_opened",
              round_trip(client, open).find("type")->as_string());
    const Json warm = round_trip(
        client, R"({"type":"reoptimize","design":"eco","algos":["cvs"]})");
    EXPECT_EQ("disk", warm.find("cache")->as_string()) << warm.dump();
    EXPECT_EQ(cvs_body, body_fields(warm));
    restarted.request_stop();
    restarted.stop();
  }
}

/// Value of one exposition series in a metrics dump (`series` is the
/// exact line prefix, labels included); -1 when absent.
double metric_value(const std::string& text, const std::string& series) {
  const std::string prefix = series + " ";
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (text.compare(pos, prefix.size(), prefix) == 0)
      return std::atof(text.c_str() + pos + prefix.size());
    pos = eol + 1;
  }
  return -1.0;
}

/// Optimize and pipeline reoptimize read the cache through one tiered
/// path, so the lookup histograms count both verbs: every lookup probes
/// the memory tier, and every memory miss probes the disk tier.
TEST(EcoCacheAliasing, EveryVerbFeedsTheLookupHistograms) {
  TempDir dir;
  ServiceConfig config;
  config.tcp_port = 0;
  config.num_threads = 2;
  config.cache_dir = dir.path();
  Service service(config);
  service.start();
  Client client(service.port());
  ASSERT_EQ("design_opened",
            round_trip(client, R"({"type":"open_design","circuit":"C432",)"
                               R"("name":"eco"})")
                .find("type")
                ->as_string());
  constexpr int kLookups = 3;  // per verb: one miss, then hits
  for (int i = 0; i < kLookups; ++i) {
    const char* expected = i == 0 ? "miss" : "hit";
    EXPECT_EQ(expected,
              round_trip(client, R"({"type":"optimize","circuit":"C432",)"
                                 R"("algos":["cvs"]})")
                  .find("cache")
                  ->as_string());
    EXPECT_EQ(expected,
              round_trip(client, R"({"type":"reoptimize","design":"eco",)"
                                 R"("algos":["dscale"]})")
                  .find("cache")
                  ->as_string());
  }
  const std::string text =
      round_trip(client, R"({"type":"metrics"})").find("text")->as_string();
  EXPECT_EQ(2 * kLookups,
            metric_value(text,
                         R"(dvsd_cache_lookup_ms_count{tier="memory"})"));
  EXPECT_EQ(2, metric_value(text,
                            R"(dvsd_cache_lookup_ms_count{tier="disk"})"));
  service.request_stop();
  service.stop();
}

}  // namespace
}  // namespace dvs
