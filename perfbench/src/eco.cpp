// The `eco` workload: one closed-loop client — a designer who waits for
// every reply — holding design handles on des, i10 and C7552 in an
// in-process dvsd.  Each step is a seeded random edit followed by a
// `reoptimize` in mode auto; the edit plus its reoptimize is one latency
// sample.  Point edits (rung flip, upsize, downsize) re-evaluate through
// the maintained incremental timer; every eighth edit is structural
// (insert_lc / remove_lc) and forces a full recompile, the heavy class.
//
// Set-up opens each design, arms its timer with a full reoptimize and
// runs the paper's flow on it once (a pipeline-mode reoptimize, whose
// report must equal the library's row for the same circuit and seed).
//
// Checks: every edit must land and every reoptimize must take the path
// its edit implies; every 32nd point edit is followed by a mode-full
// reoptimize whose power, arrival, slack, area, low count and converter
// count must equal the incremental answer exactly.
//
// The edit stream is generated against a local mirror of each circuit, so
// the wire only carries edits that land; the traced run replays the same
// stream (every draw, landing or not) through an in-process
// DesignRegistry for the session.* layer metrics.
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "bench.hpp"
#include "core/suite.hpp"
#include "service/design_session.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/rng.hpp"
#include "support/socket.hpp"

namespace perfbench {
namespace {

constexpr int kStructuralEvery = 8;
constexpr int kCheckpointEvery = 32;

/// One drawn edit and whether the mirror says it lands.
struct EcoEdit {
  std::size_t design = 0;
  bool structural = false;
  bool lands = true;
  dvs::Json edit;  // {"op", "gate"[, "rung"]}
};

/// The seeded edit stream over a set of MCNC circuits, tracking each
/// design's drive cells, structural version and open level converter so
/// it knows which edits land.
class EcoStream {
 public:
  EcoStream(const dvs::Library& lib, const std::vector<std::string>& circuits,
            std::uint64_t seed)
      : lib_(lib), rng_(seed) {
    for (const std::string& name : circuits) {
      const dvs::Network net =
          dvs::build_mcnc_circuit(lib, *dvs::find_mcnc(name));
      std::set<dvs::NodeId> port_drivers;
      for (const auto& port : net.outputs()) port_drivers.insert(port.driver);
      Mirror m;
      m.cell.assign(static_cast<std::size_t>(net.size()), -1);
      m.name.resize(static_cast<std::size_t>(net.size()));
      net.for_each_gate([&](const dvs::Node& n) {
        m.gates.push_back(n.id);
        m.cell[n.id] = n.cell;
        m.name[n.id] = n.name;
        if (!n.fanouts.empty() || port_drivers.count(n.id))
          m.drivers.push_back(n.id);
      });
      mirrors_.push_back(std::move(m));
    }
  }

  void opened(std::size_t design, std::int64_t structural_version) {
    mirrors_[design].version = structural_version;
  }

  EcoEdit draw() {
    EcoEdit e;
    e.design = rng_.next_below(mirrors_.size());
    const Mirror& m = mirrors_[e.design];
    dvs::Json::Object edit;
    if (landed_ % kStructuralEvery == kStructuralEvery - 1) {
      e.structural = true;
      if (m.open_lc.empty()) {
        edit["op"] = dvs::Json("insert_lc");
        edit["gate"] = dvs::Json(static_cast<std::int64_t>(
            m.drivers[rng_.next_below(m.drivers.size())]));
      } else {
        edit["op"] = dvs::Json("remove_lc");
        edit["gate"] = dvs::Json(m.open_lc);
      }
    } else {
      const dvs::NodeId gate = m.gates[rng_.next_below(m.gates.size())];
      edit["gate"] = dvs::Json(static_cast<std::int64_t>(gate));
      const int kind = rng_.next_int(0, 3);
      if (kind <= 1) {
        edit["op"] = dvs::Json("rung");
        edit["rung"] = dvs::Json(rng_.next_int(0, lib_.supplies().depth() - 1));
      } else if (kind == 2) {
        edit["op"] = dvs::Json("upsize");
        e.lands = lib_.upsize(m.cell[gate]) >= 0;
      } else {
        edit["op"] = dvs::Json("downsize");
        e.lands = lib_.downsize(m.cell[gate]) >= 0;
      }
    }
    e.edit = dvs::Json(std::move(edit));
    return e;
  }

  /// The next edit that lands, drawing past the ones that would not.
  EcoEdit next_landing() {
    EcoEdit e = draw();
    while (!e.lands) e = draw();
    return e;
  }

  void landed(const EcoEdit& e, std::int64_t structural_version) {
    ++landed_;
    Mirror& m = mirrors_[e.design];
    const std::string& op = e.edit.find("op")->as_string();
    if (op == "upsize" || op == "downsize") {
      const auto gate = static_cast<std::size_t>(e.edit.find("gate")->as_int());
      m.cell[gate] = op == "upsize" ? lib_.upsize(m.cell[gate])
                                    : lib_.downsize(m.cell[gate]);
    } else if (op == "insert_lc") {
      // The daemon names a converter after its driver and the structural
      // version before the insertion.
      m.open_lc = "lc_" + m.name[e.edit.find("gate")->as_int()] + "_" +
                  std::to_string(m.version);
    } else if (op == "remove_lc") {
      m.open_lc.clear();
    }
    m.version = structural_version;
  }

 private:
  struct Mirror {
    std::vector<dvs::NodeId> gates;
    std::vector<dvs::NodeId> drivers;  // gates with a fanout or an output
    std::vector<int> cell;             // by node id
    std::vector<std::string> name;     // by node id
    std::int64_t version = 0;
    std::string open_lc;
  };

  const dvs::Library& lib_;
  dvs::Rng rng_;
  std::vector<Mirror> mirrors_;
  long landed_ = 0;
};

const std::vector<std::string> kEcoCircuits = {"des", "i10", "C7552"};

std::uint64_t open_seed(std::uint64_t seed) { return derive_seed(seed, 1); }
std::uint64_t stream_seed(std::uint64_t seed) { return derive_seed(seed, 2); }

dvs::DesignEdit to_design_edit(const dvs::Json& edit) {
  dvs::DesignEdit out;
  const std::string& op = edit.find("op")->as_string();
  using Op = dvs::DesignEdit::Op;
  out.op = op == "rung"      ? Op::kRung
           : op == "upsize"  ? Op::kUpsize
           : op == "downsize" ? Op::kDownsize
           : op == "insert_lc" ? Op::kInsertLc
                               : Op::kRemoveLc;
  out.gate = *edit.find("gate");
  if (const dvs::Json* rung = edit.find("rung"))
    out.rung = static_cast<int>(rung->as_int());
  return out;
}

/// A daemon plus one client connection with the designs open, armed, and
/// optimized once by the paper's flow (a pipeline-mode reoptimize).
struct EcoSession {
  std::unique_ptr<dvs::Service> service;
  // Heap-held so the reader's pointer to the socket survives moves.
  std::unique_ptr<dvs::Socket> socket;
  std::unique_ptr<dvs::LineReader> in;
  std::vector<std::int64_t> versions;  // structural version per design
  std::vector<std::string> reports;    // paper-flow report per design

  dvs::Json call(const dvs::Json& request) {
    socket->send_all(request.dump() + "\n");
    std::string line;
    if (!in->read_line(&line))
      throw std::runtime_error("daemon closed the connection");
    return dvs::Json::parse(line);
  }
};

dvs::Json object(std::initializer_list<std::pair<const char*, dvs::Json>> kv) {
  dvs::Json::Object o;
  for (const auto& [key, value] : kv) o[key] = value;
  return dvs::Json(std::move(o));
}

EcoSession open_session(const dvs::Library& lib, std::uint64_t seed) {
  EcoSession s;
  dvs::ServiceConfig config;
  config.tcp_port = 0;
  config.num_threads = 2;
  s.service = std::make_unique<dvs::Service>(config, &lib);
  s.service->start();
  s.socket = std::make_unique<dvs::Socket>(
      dvs::Socket::connect_tcp("127.0.0.1", s.service->port()));
  s.in = std::make_unique<dvs::LineReader>(s.socket.get(), 64u << 20);
  for (const std::string& c : kEcoCircuits) {
    const dvs::Json opened = s.call(object(
        {{"type", dvs::Json("open_design")},
         {"name", dvs::Json(c)},
         {"circuit", dvs::Json(c)},
         {"options", object({{"seed", dvs::Json(open_seed(seed))}})}}));
    const dvs::Json* version = opened.find("structural_version");
    if (!version) throw std::runtime_error("open_design: " + opened.dump());
    s.versions.push_back(version->as_int());
    const dvs::Json armed = s.call(object({{"type", dvs::Json("reoptimize")},
                                           {"design", dvs::Json(c)},
                                           {"mode", dvs::Json("full")}}));
    if (!armed.find("power_uw"))
      throw std::runtime_error("reoptimize: " + armed.dump());
    // What the paper's flow saves on the design as opened.
    const dvs::Json flow = s.call(object(
        {{"type", dvs::Json("reoptimize")},
         {"design", dvs::Json(c)},
         {"algos", dvs::Json(dvs::Json::Array{dvs::Json("cvs"),
                                              dvs::Json("dscale"),
                                              dvs::Json("gscale")})}}));
    const dvs::Json* report = flow.find("report");
    if (!report) throw std::runtime_error("reoptimize: " + flow.dump());
    s.reports.push_back(comparable_report(*report));
  }
  return s;
}

struct EcoSamples {
  std::vector<double> point_ms, structural_ms;
  double ops_per_s() const {
    double sum = 0.0;
    for (double v : point_ms) sum += v;
    for (double v : structural_ms) sum += v;
    return 1000.0 * static_cast<double>(point_ms.size() +
                                        structural_ms.size()) / sum;
  }
  Headline headline() const {
    return {ops_per_s(), percentile(point_ms, 50),
            percentile(structural_ms, 50)};
  }
};

/// Runs the closed loop for `seconds`; returns false after a failure that
/// leaves the mirror unreliable.
bool drive(EcoSession& s, EcoStream& stream, double seconds, bool trace,
           EcoSamples* samples, Result* result) {
  const Clock::time_point start = Clock::now();
  long points = 0;
  while (ms_since(start) < 1000.0 * seconds) {
    const EcoEdit e = stream.next_landing();
    const std::string& design = kEcoCircuits[e.design];
    result->attempted(1);
    const Clock::time_point t = Clock::now();
    const dvs::Json edited = s.call(
        object({{"type", dvs::Json("edit")},
                {"design", dvs::Json(design)},
                {"edits", dvs::Json(dvs::Json::Array{e.edit})}}));
    const dvs::Json* applied = edited.find("applied");
    if (!applied || applied->as_int() != 1) {
      result->fail(design + ": edit " + e.edit.dump() + " refused: " +
                   edited.dump());
      return false;
    }
    stream.landed(e, edited.find("structural_version")->as_int());
    dvs::Json::Object request = {{"type", dvs::Json("reoptimize")},
                                 {"design", dvs::Json(design)},
                                 {"mode", dvs::Json("auto")}};
    if (trace) request["trace"] = dvs::Json(true);
    const dvs::Json reply = s.call(dvs::Json(std::move(request)));
    const double ms = ms_since(t);
    const dvs::Json* mode = reply.find("mode");
    const char* expected = e.structural ? "full" : "incremental";
    if (!mode || mode->as_string() != expected) {
      // A wrong answer misses every latency limit.
      (e.structural ? samples->structural_ms : samples->point_ms)
          .push_back(std::numeric_limits<double>::infinity());
      result->fail(design + ": reoptimize after " + e.edit.dump() +
                   " answered " + reply.dump().substr(0, 200));
      continue;
    }
    if (e.structural) {
      samples->structural_ms.push_back(ms);
      continue;
    }
    samples->point_ms.push_back(ms);
    if (++points % kCheckpointEvery != 0) continue;
    const dvs::Json full = s.call(object({{"type", dvs::Json("reoptimize")},
                                          {"design", dvs::Json(design)},
                                          {"mode", dvs::Json("full")}}));
    for (const char* key : {"power_uw", "arrival_ns", "slack_ns", "area_um2",
                            "low", "level_converters"}) {
      const dvs::Json* a = reply.find(key);
      const dvs::Json* b = full.find(key);
      if (!a || !b || a->as_double() != b->as_double())
        result->fail(design + ": incremental " + key +
                     " differs from full recompile");
    }
  }
  return true;
}

}  // namespace

void run_eco(const Options& options, Result* result) {
  // Set-up, three times: library build, daemon boot, and per handle the
  // open, the arming full reoptimize and one run of the paper's flow.
  std::optional<dvs::Library> lib;
  EcoSession session;
  std::vector<double> setup_seconds;
  for (int i = 0; i < 3; ++i) {
    session = EcoSession{};  // the previous daemon stops before its library
    const Clock::time_point start = Clock::now();
    lib.emplace(dvs::build_compass_library());
    session = open_session(*lib, options.seed);
    setup_seconds.push_back(ms_since(start) / 1000.0);
  }
  EcoStream stream(*lib, kEcoCircuits, stream_seed(options.seed));
  for (std::size_t d = 0; d < kEcoCircuits.size(); ++d)
    stream.opened(d, session.versions[d]);

  // The set-up's flow reports must equal the library's rows for the same
  // (circuit, seed).
  dvs::SuiteOptions suite;
  suite.circuits = kEcoCircuits;
  suite.num_threads = 1;
  suite.seed = open_seed(options.seed);
  const dvs::SuiteReport rows = dvs::run_suite(suite, &*lib);
  double saving_pct = 0.0;
  result->attempted(static_cast<long>(kEcoCircuits.size()));
  for (std::size_t d = 0; d < kEcoCircuits.size(); ++d) {
    const dvs::CircuitRunResult& row = rows.rows[d];
    if (session.reports[d] != comparable_row(row))
      result->fail(kEcoCircuits[d] + ": flow report differs from run_suite");
    saving_pct += (row.cvs_improve_pct + row.dscale_improve_pct +
                   row.gscale_improve_pct) /
                  (3.0 * static_cast<double>(kEcoCircuits.size()));
  }

  const double seconds = options.trace ? options.seconds / 2 : options.seconds;
  EcoSamples plain, traced;
  const bool healthy =
      drive(session, stream, seconds, false, &plain, result) &&
      (!options.trace || drive(session, stream, seconds, true, &traced, result));
  const double rss = peak_rss_mb();
  session = EcoSession{};
  if (!healthy) return;

  if (!options.trace) {
    result->metric("setup_s", percentile(setup_seconds, 50), "s");
    result->metric("peak_rss_mb", rss, "MB");
    result->metric("ops_per_s", plain.ops_per_s(), "1/s");
    result->metric("p50_ms", percentile(plain.point_ms, 50), "ms");
    result->metric("p99_ms", percentile(plain.point_ms, 99), "ms");
    result->metric("heavy_p50_ms", percentile(plain.structural_ms, 50), "ms");
    result->metric("heavy_p90_ms", percentile(plain.structural_ms, 90), "ms");
    result->metric("saving_pct", saving_pct, "%");
    return;
  }

  std::vector<const dvs::McncDescriptor*> circuits;
  for (const std::string& c : kEcoCircuits)
    circuits.push_back(dvs::find_mcnc(c));
  probe_library_layers(*lib, circuits, derive_seed(options.seed, 7), {}, 0.0,
                       result);
  probe_sessions(*lib, kEcoCircuits, options.seed, 400, result);
  probe_service(derive_seed(options.seed, 9), result);
  report_trace_overhead(plain.headline(), traced.headline(), result);
}

void probe_sessions(const dvs::Library& lib,
                    const std::vector<std::string>& circuits,
                    std::uint64_t seed, int steps, Result* result) {
  struct Pass {
    long draws = 0, landed = 0, recompiles = 0;
    double power_sum = 0.0;  // over every reoptimize answer
    bool operator==(const Pass&) const = default;
  };
  std::vector<double> edit_ms, incremental_ms, full_ms;
  std::optional<Pass> first;
  bool diverged = false;
  for (int rep = 0; rep < 2 && !diverged; ++rep) {
    dvs::DesignRegistry registry(&lib, dvs::DesignSessionConfig{});
    EcoStream stream(lib, circuits, stream_seed(seed));
    for (std::size_t d = 0; d < circuits.size(); ++d) {
      dvs::OpenDesignRequest open;
      open.name = circuits[d];
      open.circuit = circuits[d];
      open.options.seed = open_seed(seed);
      stream.opened(d, registry.open(open).at("structural_version").as_int());
      dvs::ReoptimizeRequest arm;
      arm.design = circuits[d];
      arm.mode = "full";
      registry.reoptimize(arm);
    }
    Pass pass;
    while (pass.landed < steps && !diverged) {
      const EcoEdit e = stream.draw();
      ++pass.draws;
      dvs::EditRequest request;
      request.design = circuits[e.design];
      request.edits.push_back(to_design_edit(e.edit));
      std::optional<dvs::Json::Object> edited;
      Clock::time_point t = Clock::now();
      try {
        edited = registry.edit(request);
      } catch (const dvs::ProtocolError&) {
        // A refused edit; the mirror must have predicted it.
      }
      const double ms = ms_since(t);
      if (edited.has_value() != e.lands) {
        result->fail("session replay: " + request.design + " edit " +
                     e.edit.dump() + " landed unlike the mirror predicted");
        diverged = true;
        continue;
      }
      if (!edited) continue;
      edit_ms.push_back(ms);
      ++pass.landed;
      stream.landed(e, edited->at("structural_version").as_int());
      dvs::ReoptimizeRequest reopt;
      reopt.design = request.design;
      t = Clock::now();
      const dvs::DesignReoptimizeResult answer = registry.reoptimize(reopt);
      const double reopt_ms = ms_since(t);
      const bool full = answer.fields.at("mode").as_string() == "full";
      (full ? full_ms : incremental_ms).push_back(reopt_ms);
      pass.recompiles += full;
      pass.power_sum += answer.fields.at("power_uw").as_double();
    }
    if (!first)
      first = pass;
    else if (!(pass == *first))
      result->fail("session replay: counts differ between passes");
  }
  result->metric("session.edit_ms", mean(edit_ms), "ms");
  result->metric("session.reopt_incremental_ms", mean(incremental_ms), "ms");
  result->metric("session.reopt_full_ms", mean(full_ms), "ms");
  result->metric("session.full_recompiles",
                 static_cast<double>(first->recompiles), "count");
  result->metric("session.edits_landed_ratio",
                 static_cast<double>(first->landed) /
                     static_cast<double>(first->draws),
                 "ratio");
}

}  // namespace perfbench
