// The `service` workload: an in-process dvsd (2 pool threads, default
// cache) driven by one open-loop load-generator process over at most four
// loopback TCP connections.
//
// Requests are `optimize` jobs on MCNC circuits; one in twenty sends its
// circuit as an inline BLIF netlist.  Four in five are planned hits: their
// option seed comes from a small pool whose keys the set-up warmed, on any
// of the 39 circuits.  The rest are misses: a fresh seed, never asked
// before, on a circuit of fewer than 1000 gates, so the miss work keeps
// the two pool threads about a tenth busy.  Arrivals are Poisson at a
// fixed rate; request kinds come in shuffled blocks and circuits in
// shuffled cycles, so every seed sends the same mix in another order.
// Every latency is timed from the request's due time, so queueing behind
// a stall counts.  The first seconds of load are warm-up and are excluded
// from every metric.
//
// Every answer is checked: all replies for one (circuit, seed, form) must
// be identical, and equal to the library's own row for it (run_suite for
// named circuits; parse, map and run_pipeline_job for inline BLIF) in
// every field except the wall-clock gscale.seconds.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "bench.hpp"
#include "core/job.hpp"
#include "core/suite.hpp"
#include "netlist/blif.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/rng.hpp"
#include "support/socket.hpp"
#include "synth/mapper.hpp"
#include "synth/sweep.hpp"

extern char** environ;

namespace perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// The request mix: blocks of 40 requests, 32 of them planned hits, and
// the first hit and the first miss of each block inline BLIF; spread over
// 4 connections.
constexpr int kBlock = 40;
constexpr int kBlockHits = 32;
constexpr std::size_t kConnections = 4;
constexpr int kPoolThreads = 2;

/// Everything the generator needs to rebuild the request schedule.
struct LoadPlan {
  std::uint64_t seed = 1;
  double rate = 80.0;  // requests per second, Poisson
  std::vector<std::string> circuits;       // named hits
  std::vector<std::string> miss_circuits;  // named misses
  std::vector<std::string> blif_circuits;  // inline-BLIF requests
  std::vector<std::uint64_t> pool_seeds;   // the hit keys' seeds
  double warmup_s = 2.0;
  double seconds = 10.0;
  double trace_from_s = -1.0;  // requests due from here on ask for spans

  dvs::Json to_json() const {
    dvs::Json::Object o;
    o["seed"] = dvs::Json(seed);
    o["rate"] = dvs::Json(rate);
    dvs::Json::Array c, m, b, p;
    for (const std::string& s : circuits) c.emplace_back(s);
    for (const std::string& s : miss_circuits) m.emplace_back(s);
    for (const std::string& s : blif_circuits) b.emplace_back(s);
    for (std::uint64_t s : pool_seeds) p.emplace_back(s);
    o["circuits"] = dvs::Json(std::move(c));
    o["miss_circuits"] = dvs::Json(std::move(m));
    o["blif_circuits"] = dvs::Json(std::move(b));
    o["pool_seeds"] = dvs::Json(std::move(p));
    o["warmup_s"] = dvs::Json(warmup_s);
    o["seconds"] = dvs::Json(seconds);
    o["trace_from_s"] = dvs::Json(trace_from_s);
    return dvs::Json(std::move(o));
  }

  static LoadPlan from_json(const dvs::Json& j) {
    LoadPlan plan;
    plan.seed = j.find("seed")->as_uint();
    plan.rate = j.find("rate")->as_double();
    for (const dvs::Json& s : j.find("circuits")->as_array())
      plan.circuits.push_back(s.as_string());
    for (const dvs::Json& s : j.find("miss_circuits")->as_array())
      plan.miss_circuits.push_back(s.as_string());
    for (const dvs::Json& s : j.find("blif_circuits")->as_array())
      plan.blif_circuits.push_back(s.as_string());
    for (const dvs::Json& s : j.find("pool_seeds")->as_array())
      plan.pool_seeds.push_back(s.as_uint());
    plan.warmup_s = j.find("warmup_s")->as_double();
    plan.seconds = j.find("seconds")->as_double();
    plan.trace_from_s = j.find("trace_from_s")->as_double();
    return plan;
  }
};

/// One request of the schedule.
struct Planned {
  double due_ms = 0.0;
  bool hit = false;   // planned: its key was warmed at set-up
  bool blif = false;  // inline netlist instead of a circuit name
  std::string circuit;
  std::uint64_t seed = 0;
  bool trace = false;
};

std::string answer_key(const std::string& circuit, std::uint64_t seed,
                       bool blif) {
  return circuit + "|" + std::to_string(seed) + (blif ? "|blif" : "");
}

/// Draws names from seeded shuffles of a list, one full shuffle at a
/// time, so every name recurs equally often.
class Cycler {
 public:
  Cycler(const std::vector<std::string>& names, dvs::Rng* rng)
      : names_(names), rng_(rng) {}
  const std::string& next() {
    if (pos_ == order_.size()) {
      order_.resize(names_.size());
      for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      for (std::size_t i = order_.size(); i > 1; --i)
        std::swap(order_[i - 1], order_[rng_->next_below(i)]);
      pos_ = 0;
    }
    return names_[order_[pos_++]];
  }

 private:
  const std::vector<std::string>& names_;
  dvs::Rng* rng_;
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
};

/// The seeded schedule: Poisson arrivals; request kinds in shuffled
/// blocks with exact hit and inline-BLIF shares, and circuits cycled
/// through shuffles, so every seed sends the same mix in another order.
/// Pool seeds are odd and fresh seeds even, so a planned miss can never
/// collide with a warmed key.
std::vector<Planned> make_schedule(const LoadPlan& plan) {
  dvs::Rng rng(derive_seed(plan.seed, 0x5c4ed));
  Cycler named_hits(plan.circuits, &rng),
      named_misses(plan.miss_circuits, &rng);
  Cycler blif_hits(plan.blif_circuits, &rng),
      blif_misses(plan.blif_circuits, &rng);
  const bool with_blif = !plan.blif_circuits.empty();
  std::vector<Planned> out;
  std::vector<std::pair<bool, bool>> block;  // (hit, blif)
  const double end_ms = 1000.0 * (plan.warmup_s + plan.seconds);
  double t_ms = 0.0;
  std::uint64_t fresh = 0;
  while (true) {
    t_ms += -std::log(1.0 - rng.next_double()) * 1000.0 / plan.rate;
    if (t_ms >= end_ms) break;
    if (block.empty()) {
      for (int i = 0; i < kBlock; ++i)
        block.push_back(
            {i < kBlockHits, with_blif && (i == 0 || i == kBlockHits)});
      for (std::size_t i = block.size(); i > 1; --i)
        std::swap(block[i - 1], block[rng.next_below(i)]);
    }
    Planned p;
    p.due_ms = t_ms;
    std::tie(p.hit, p.blif) = block.back();
    block.pop_back();
    Cycler& names = p.blif ? (p.hit ? blif_hits : blif_misses)
                           : (p.hit ? named_hits : named_misses);
    p.circuit = names.next();
    p.seed = p.hit ? plan.pool_seeds[rng.next_below(plan.pool_seeds.size())]
                   : (derive_seed(plan.seed, 1000 + fresh++) & ~1ull);
    p.trace = plan.trace_from_s >= 0 && t_ms >= 1000.0 * plan.trace_from_s;
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<std::uint64_t> pool_seeds(std::uint64_t seed, int count) {
  std::vector<std::uint64_t> out;
  for (int i = 0; i < count; ++i) out.push_back(derive_seed(seed, i) | 1ull);
  return out;
}

std::string blif_text(const dvs::Library& lib, const std::string& circuit) {
  return dvs::write_blif_string(
      dvs::build_mcnc_circuit(lib, *dvs::find_mcnc(circuit)));
}

std::string request_line(std::int64_t id, const Planned& p,
                         const std::string* netlist) {
  dvs::Json::Object request;
  request["type"] = dvs::Json("optimize");
  request["id"] = dvs::Json(id);
  if (p.blif)
    request["netlist"] = dvs::Json(*netlist);
  else
    request["circuit"] = dvs::Json(p.circuit);
  dvs::Json::Object opts;
  opts["seed"] = dvs::Json(p.seed);
  request["options"] = dvs::Json(std::move(opts));
  if (p.trace) request["trace"] = dvs::Json(true);
  return dvs::Json(std::move(request)).dump() + "\n";
}

/// What the generator observed for one request.
struct Observed {
  double sent_ms = 0.0;
  double recv_ms = kInf;
  bool ok = false;
  bool cache_hit = false;
  double wall_ms = 0.0;   // the server's own wall time for the request
  double parse_us = 0.0;  // client-side JSON parse of the reply
  std::map<std::string, double> phases;  // depth-0 span durations
  std::string error;
};

// ---- the generator process ---------------------------------------------------

/// Drives the schedule over the plan's connections and prints one JSON
/// document: a record per request plus the distinct answers.
int run_generator(int port, const LoadPlan& plan) {
  const dvs::Library lib = dvs::build_compass_library();
  const std::vector<Planned> schedule = make_schedule(plan);
  std::map<std::string, std::string> netlists;
  for (const std::string& c : plan.blif_circuits)
    netlists[c] = blif_text(lib, c);
  std::vector<std::string> lines;
  lines.reserve(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Planned& p = schedule[i];
    lines.push_back(request_line(static_cast<std::int64_t>(i), p,
                                 p.blif ? &netlists[p.circuit] : nullptr));
  }

  struct Connection {
    dvs::Socket socket;
    std::deque<std::size_t> outstanding;  // guarded by `mutex` below
  };
  std::vector<Connection> conns(kConnections);
  for (Connection& c : conns)
    c.socket = dvs::Socket::connect_tcp("127.0.0.1", port);
  std::mutex mutex;
  std::condition_variable all_answered;
  std::size_t answered = 0;
  bool closing = false;  // set before the sockets are shut down
  std::vector<Observed> observed(schedule.size());
  std::map<std::string, std::string> answers;  // key -> first report
  std::vector<std::string> errors;

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(50);
  auto reader = [&](Connection& conn) {
    dvs::LineReader lines_in(&conn.socket, 64u << 20);
    std::string line;
    try {
      while (lines_in.read_line(&line)) {
        const double recv_ms = ms_between(t0, Clock::now());
        const Clock::time_point parse_start = Clock::now();
        const dvs::Json reply = dvs::Json::parse(line);
        const double parse_us = ms_since(parse_start) * 1000.0;
        std::lock_guard<std::mutex> lock(mutex);
        if (conn.outstanding.empty()) {
          errors.push_back("unsolicited reply: " + line.substr(0, 200));
          continue;
        }
        const std::size_t index = conn.outstanding.front();
        conn.outstanding.pop_front();
        Observed& o = observed[index];
        o.recv_ms = recv_ms;
        o.parse_us = parse_us;
        const dvs::Json* type = reply.find("type");
        const dvs::Json* id = reply.find("id");
        if (!type || type->as_string() != "result" || !id ||
            id->as_uint() != index || !reply.find("cache") ||
            !reply.find("report")) {
          o.error = "request " + std::to_string(index) +
                    ": unexpected reply " + line.substr(0, 200);
        } else {
          o.ok = true;
          o.cache_hit = reply.find("cache")->as_string() != "miss";
          o.wall_ms = reply.find("wall_ms")->as_double();
          if (const dvs::Json* spans = reply.find("trace"))
            for (const dvs::Json& span : spans->as_array())
              if (span.find("depth")->as_int() == 0)
                o.phases[span.find("name")->as_string()] +=
                    span.find("dur_ms")->as_double();
          const Planned& p = schedule[index];
          const std::string report =
              comparable_report(*reply.find("report"));
          auto [it, fresh] =
              answers.emplace(answer_key(p.circuit, p.seed, p.blif), report);
          if (!fresh && it->second != report) {
            o.ok = false;
            o.error = "request " + std::to_string(index) + " (" + it->first +
                      "): report differs from an earlier reply";
          }
        }
        ++answered;
        all_answered.notify_all();
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mutex);
      if (!closing) errors.push_back(std::string("connection: ") + e.what());
    }
  };
  std::vector<std::thread> readers;
  for (Connection& c : conns) readers.emplace_back(reader, std::ref(c));

  for (std::size_t i = 0; i < schedule.size(); ++i) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(
                     schedule[i].due_ms)));
    Connection* target = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (Connection& c : conns)
        if (!target || c.outstanding.size() < target->outstanding.size())
          target = &c;
      observed[i].sent_ms = ms_between(t0, Clock::now());
      target->outstanding.push_back(i);
    }
    try {
      target->socket.send_all(lines[i]);
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mutex);
      errors.push_back(std::string("send: ") + e.what());
    }
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    all_answered.wait_for(lock, std::chrono::seconds(60),
                          [&] { return answered == schedule.size(); });
    closing = true;
  }
  for (Connection& c : conns) c.socket.shutdown_both();
  for (std::thread& t : readers) t.join();

  dvs::Json::Array records;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Observed& o = observed[i];
    dvs::Json::Object r;
    r["sent_ms"] = dvs::Json(o.sent_ms);
    if (std::isfinite(o.recv_ms)) r["recv_ms"] = dvs::Json(o.recv_ms);
    r["ok"] = dvs::Json(o.ok);
    r["cache_hit"] = dvs::Json(o.cache_hit);
    r["wall_ms"] = dvs::Json(o.wall_ms);
    r["parse_us"] = dvs::Json(o.parse_us);
    dvs::Json::Object phases;
    for (const auto& [name, ms] : o.phases) phases[name] = dvs::Json(ms);
    r["phases"] = dvs::Json(std::move(phases));
    if (!o.error.empty()) r["error"] = dvs::Json(o.error);
    records.emplace_back(std::move(r));
  }
  dvs::Json::Object answers_json;
  for (const auto& [key, report] : answers)
    answers_json[key] = dvs::Json(report);
  dvs::Json::Array errors_json;
  for (const std::string& e : errors) errors_json.emplace_back(e);
  dvs::Json::Object out;
  out["records"] = dvs::Json(std::move(records));
  out["answers"] = dvs::Json(std::move(answers_json));
  out["errors"] = dvs::Json(std::move(errors_json));
  const std::string text = dvs::Json(std::move(out)).dump();
  std::fwrite(text.data(), 1, text.size(), stdout);
  std::fflush(stdout);
  return 0;
}

// ---- the daemon host -----------------------------------------------------------

/// Spawns this binary as the generator and returns its JSON document.
dvs::Json spawn_generator(int port, const LoadPlan& plan) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  const std::string port_arg = std::to_string(port);
  const std::string plan_arg = plan.to_json().dump();
  char exe[] = "/proc/self/exe";
  std::vector<char*> argv = {exe,
                             const_cast<char*>("--role"),
                             const_cast<char*>("generator"),
                             const_cast<char*>(port_arg.c_str()),
                             const_cast<char*>(plan_arg.c_str()),
                             nullptr};
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, exe, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    throw std::runtime_error(std::string("spawn generator: ") +
                             std::strerror(rc));
  }
  std::string text;
  char buffer[1 << 16];
  ssize_t n = 0;
  while ((n = read(fds[0], buffer, sizeof buffer)) > 0 ||
         (n < 0 && errno == EINTR))
    if (n > 0) text.append(buffer, static_cast<std::size_t>(n));
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("load generator failed");
  return dvs::Json::parse(text);
}

/// A booted daemon whose cache holds every planned-hit key.
struct WarmDaemon {
  std::unique_ptr<dvs::Service> service;
  std::map<std::string, std::string> answers;  // warm-up replies
  std::vector<std::string> errors;
};

WarmDaemon boot_warm_daemon(const dvs::Library& lib, const LoadPlan& plan) {
  WarmDaemon d;
  dvs::ServiceConfig config;
  config.tcp_port = 0;
  config.num_threads = kPoolThreads;
  d.service = std::make_unique<dvs::Service>(config, &lib);
  d.service->start();

  std::vector<Planned> keys;
  for (const std::string& c : plan.circuits)
    for (std::uint64_t s : plan.pool_seeds) keys.push_back({0, true, false, c, s});
  for (const std::string& c : plan.blif_circuits)
    for (std::uint64_t s : plan.pool_seeds) keys.push_back({0, true, true, c, s});
  std::map<std::string, std::string> netlists;
  for (const std::string& c : plan.blif_circuits)
    netlists[c] = blif_text(lib, c);

  // Two connections, so both pool threads warm the cache.
  std::mutex mutex;
  auto warm = [&](std::size_t first) {
    dvs::Socket socket = dvs::Socket::connect_tcp("127.0.0.1",
                                                  d.service->port());
    dvs::LineReader in(&socket, 64u << 20);
    std::string line;
    for (std::size_t i = first; i < keys.size(); i += 2) {
      const Planned& k = keys[i];
      socket.send_all(request_line(static_cast<std::int64_t>(i), k,
                                   k.blif ? &netlists[k.circuit] : nullptr));
      const bool got = in.read_line(&line);
      const dvs::Json reply = got ? dvs::Json::parse(line) : dvs::Json();
      std::lock_guard<std::mutex> lock(mutex);
      if (!got || !reply.find("report")) {
        d.errors.push_back("warm-up " + k.circuit + ": " + line);
        continue;
      }
      d.answers[answer_key(k.circuit, k.seed, k.blif)] =
          comparable_report(*reply.find("report"));
    }
  };
  std::thread other(warm, 1);
  warm(0);
  other.join();
  return d;
}

/// The library's own report for one answer key.
std::string reference_report(const dvs::Library& lib, const std::string& key,
                             const std::map<std::string, std::string>& blifs) {
  const std::size_t bar = key.find('|');
  const std::string circuit = key.substr(0, bar);
  const std::uint64_t seed = std::stoull(key.substr(bar + 1));
  if (key.size() < 5 || key.compare(key.size() - 5, 5, "|blif") != 0) {
    dvs::SuiteOptions options;
    options.circuits = {circuit};
    options.num_threads = 1;
    options.seed = seed;
    const dvs::SuiteReport report = dvs::run_suite(options, &lib);
    return comparable_row(report.rows.front());
  }
  dvs::Network submitted = dvs::read_blif_string(blifs.at(circuit));
  dvs::sweep_network(submitted);
  const dvs::Network mapped = dvs::map_paper_setup(submitted, lib).mapped;
  dvs::OptimizeRequest request;
  request.options.seed = seed;
  const dvs::FlowOptions base = dvs::derive_cell_flow(
      request.options.to_flow_options(), seed, dvs::PaperAlgo::kCvs);
  const dvs::PipelineJobResult job = dvs::run_pipeline_job(
      mapped, lib, base, dvs::build_job_cells(request, seed));
  return comparable_row(job.row);
}

/// A finished load run, with every request's record.
struct LoadRun {
  std::vector<Planned> schedule;
  std::vector<Observed> observed;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t overload_rejections = 0;
  std::map<std::string, std::string> answers;  // key -> report
};

/// Boots the daemon `setups` times (the last one serves), runs the plan
/// through the generator process, and checks every answer.
LoadRun run_load(const LoadPlan& plan, int setups, Result* result) {
  LoadRun run;
  std::optional<dvs::Library> lib;
  WarmDaemon daemon;
  std::vector<double> setup_seconds;
  for (int i = 0; i < setups; ++i) {
    daemon = WarmDaemon{};  // the previous daemon stops before its library goes
    const Clock::time_point start = Clock::now();
    lib.emplace(dvs::build_compass_library());
    daemon = boot_warm_daemon(*lib, plan);
    setup_seconds.push_back(ms_since(start) / 1000.0);
    for (const std::string& e : daemon.errors) result->fail(e);
  }
  run.setup_s = percentile(setup_seconds, 50);

  const dvs::Json doc = spawn_generator(daemon.service->port(), plan);
  run.peak_rss_mb = peak_rss_mb();
  run.cache_evictions = daemon.service->cache_stats().evictions;
  run.overload_rejections =
      daemon.service->core().metrics.overload_rejections->value();
  daemon.service->request_stop();
  daemon.service->stop();
  daemon.service.reset();

  run.schedule = make_schedule(plan);
  const dvs::Json::Array& records = doc.find("records")->as_array();
  if (records.size() != run.schedule.size())
    throw std::runtime_error("generator returned a different schedule");
  for (const dvs::Json& r : records) {
    Observed o;
    o.sent_ms = r.find("sent_ms")->as_double();
    if (const dvs::Json* recv = r.find("recv_ms")) o.recv_ms = recv->as_double();
    o.ok = r.find("ok")->as_bool();
    o.cache_hit = r.find("cache_hit")->as_bool();
    o.wall_ms = r.find("wall_ms")->as_double();
    o.parse_us = r.find("parse_us")->as_double();
    for (const auto& [name, ms] : r.find("phases")->as_object())
      o.phases[name] = ms.as_double();
    if (const dvs::Json* e = r.find("error")) o.error = e->as_string();
    run.observed.push_back(std::move(o));
  }
  for (const dvs::Json& e : doc.find("errors")->as_array())
    result->fail("generator: " + e.as_string());
  run.answers = daemon.answers;
  for (const auto& [key, report] : doc.find("answers")->as_object()) {
    auto [it, fresh] = run.answers.emplace(key, report.as_string());
    if (!fresh && it->second != report.as_string())
      result->fail(key + ": load reply differs from the warm-up reply");
  }

  // Check every distinct answer against the library, on all cores (the
  // daemon is down by now).
  std::map<std::string, std::string> blifs;
  for (const std::string& c : plan.blif_circuits)
    blifs[c] = blif_text(*lib, c);
  std::vector<std::string> keys;
  for (const auto& entry : run.answers) keys.push_back(entry.first);
  std::vector<char> matches(keys.size(), 0);
  {
    // Plain threads: run_suite runs its own pool, which must not be
    // waited on from inside another pool's task.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w)
      workers.emplace_back([&] {
        for (std::size_t i = next++; i < keys.size(); i = next++)
          matches[i] = reference_report(*lib, keys[i], blifs) ==
                       run.answers.at(keys[i]);
      });
    for (std::thread& t : workers) t.join();
  }
  std::set<std::string> wrong;
  for (std::size_t i = 0; i < keys.size(); ++i)
    if (!matches[i]) wrong.insert(keys[i]);
  for (std::size_t i = 0; i < run.schedule.size(); ++i) {
    const Planned& p = run.schedule[i];
    Observed& o = run.observed[i];
    if (o.ok && wrong.count(answer_key(p.circuit, p.seed, p.blif))) {
      o.ok = false;
      o.error = "request " + std::to_string(i) + " (" + p.circuit +
                "): report differs from the library row";
    }
  }
  result->attempted(static_cast<long>(run.schedule.size()));
  for (const Observed& o : run.observed)
    if (!o.ok)
      result->fail(o.error.empty() ? std::string("request unanswered")
                                   : o.error);
  return run;
}

/// Latency figures of the requests due in [from_ms, to_ms), timed from
/// the due time; a failed request counts as infinitely late.
struct Window {
  std::vector<double> all_ms, hit_ms, miss_ms;  // hit: named-circuit hits
  double ops_per_s = 0.0;
  Headline headline() const {
    return {ops_per_s, percentile(hit_ms, 50), percentile(miss_ms, 50)};
  }
};

Window window(const LoadRun& run, double from_ms, double to_ms) {
  Window w;
  long answered = 0;
  for (std::size_t i = 0; i < run.schedule.size(); ++i) {
    const Planned& p = run.schedule[i];
    if (p.due_ms < from_ms || p.due_ms >= to_ms) continue;
    const Observed& o = run.observed[i];
    const double ms = o.ok ? o.recv_ms - p.due_ms : kInf;
    w.all_ms.push_back(ms);
    if (!p.hit)
      w.miss_ms.push_back(ms);
    else if (!p.blif)
      w.hit_ms.push_back(ms);
    answered += o.ok;
  }
  w.ops_per_s = 1000.0 * static_cast<double>(answered) / (to_ms - from_ms);
  return w;
}

/// Mean power improvement over the distinct answers, in percent.
double mean_saving_pct(const LoadRun& run) {
  std::vector<double> savings;
  for (const auto& [key, report] : run.answers) {
    const dvs::Json r = dvs::Json::parse(report);
    savings.push_back((r.find("cvs")->find("improve_pct")->as_double() +
                       r.find("dscale")->find("improve_pct")->as_double() +
                       r.find("gscale")->find("improve_pct")->as_double()) /
                      3.0);
  }
  return mean(savings);
}

/// The service.* / support.* per-layer metrics of the requests due in
/// [from_ms, to_ms): request phases from the daemon's depth-0 spans,
/// split into hits and misses, plus client, cache and generator figures.
void report_service_layers(const LoadRun& run, double from_ms, double to_ms,
                           Result* result) {
  std::map<std::string, double> hit_sum, miss_sum;
  long hits_traced = 0, misses_traced = 0, answered = 0, hits_seen = 0;
  std::vector<double> client_ms, parse_us, late_ms;
  double busy_ms = 0.0;
  for (std::size_t i = 0; i < run.schedule.size(); ++i) {
    const Planned& p = run.schedule[i];
    if (p.due_ms < from_ms || p.due_ms >= to_ms) continue;
    const Observed& o = run.observed[i];
    late_ms.push_back(o.sent_ms - p.due_ms);
    if (!o.ok) continue;
    ++answered;
    hits_seen += o.cache_hit;
    client_ms.push_back(o.recv_ms - o.sent_ms - o.wall_ms);
    parse_us.push_back(o.parse_us);
    if (o.phases.empty()) continue;
    auto& sums = o.cache_hit ? hit_sum : miss_sum;
    (o.cache_hit ? hits_traced : misses_traced) += 1;
    for (const auto& [name, ms] : o.phases) sums[name] += ms;
    for (const char* pooled : {"resolve", "cache_lookup", "execute", "store"})
      if (auto it = o.phases.find(pooled); it != o.phases.end())
        busy_ms += it->second;
  }
  auto phase = [&](const std::map<std::string, double>& sums, long n,
                   const char* name) {
    auto it = sums.find(name);
    return n > 0 && it != sums.end() ? it->second / static_cast<double>(n)
                                     : 0.0;
  };
  for (const char* name : {"parse", "queue_wait", "cache_lookup", "respond"})
    result->metric(std::string("service.hit.") + name + "_ms",
                   phase(hit_sum, hits_traced, name), "ms");
  for (const char* name : {"parse", "queue_wait", "cache_lookup", "execute",
                           "store", "respond"})
    result->metric(std::string("service.miss.") + name + "_ms",
                   phase(miss_sum, misses_traced, name), "ms");
  result->metric("service.pool_busy_ratio",
                 busy_ms / (kPoolThreads * (to_ms - from_ms)), "ratio");
  result->metric("service.client_ms", mean(client_ms), "ms");
  result->metric("support.json_parse_us", mean(parse_us), "us");
  result->metric("service.cache_hit_ratio",
                 answered ? static_cast<double>(hits_seen) / answered : 0.0,
                 "ratio");
  result->metric("service.cache_evictions",
                 static_cast<double>(run.cache_evictions), "count");
  result->metric("service.overload_rejections",
                 static_cast<double>(run.overload_rejections), "count");
  result->metric("service.gen_late_p99_ms", percentile(late_ms, 99), "ms");
}

}  // namespace

int generator_main(int argc, char** argv) {
  // perfbench --role generator <port> <plan json>
  if (argc != 5 || std::strcmp(argv[2], "generator") != 0) {
    std::fputs("perfbench: bad generator arguments\n", stderr);
    return 2;
  }
  try {
    return run_generator(std::atoi(argv[3]),
                         LoadPlan::from_json(dvs::Json::parse(argv[4])));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench generator: %s\n", e.what());
    return 1;
  }
}

void run_service(const Options& options, Result* result) {
  LoadPlan plan;
  plan.seed = options.seed;
  for (const dvs::McncDescriptor* d : mcnc_circuits())
    plan.circuits.push_back(d->name);
  for (const dvs::McncDescriptor* d : mcnc_circuits(999))
    plan.miss_circuits.push_back(d->name);
  for (const dvs::McncDescriptor* d : mcnc_circuits(200))
    plan.blif_circuits.push_back(d->name);
  plan.pool_seeds = pool_seeds(options.seed, 2);
  plan.seconds = options.seconds;
  const double from_ms = 1000.0 * plan.warmup_s;
  const double to_ms = from_ms + 1000.0 * plan.seconds;
  const double split_ms = from_ms + 500.0 * plan.seconds;
  if (options.trace) plan.trace_from_s = split_ms / 1000.0;

  const LoadRun run = run_load(plan, 3, result);
  if (!options.trace) {
    const Window w = window(run, from_ms, to_ms);
    result->metric("setup_s", run.setup_s, "s");
    result->metric("peak_rss_mb", run.peak_rss_mb, "MB");
    result->metric("ops_per_s", w.ops_per_s, "1/s");
    result->metric("p50_ms", percentile(w.hit_ms, 50), "ms");
    result->metric("p99_ms", percentile(w.all_ms, 99), "ms");
    result->metric("heavy_p50_ms", percentile(w.miss_ms, 50), "ms");
    result->metric("heavy_p90_ms", percentile(w.miss_ms, 90), "ms");
    result->metric("saving_pct", mean_saving_pct(run), "%");
    return;
  }

  // Traced run: the first half of the window is untraced, the second
  // asks for spans; their difference is the tracing overhead.
  const Window plain = window(run, from_ms, split_ms);
  const Window traced = window(run, split_ms, to_ms);
  report_service_layers(run, split_ms, to_ms, result);
  const dvs::Library lib = dvs::build_compass_library();
  std::vector<std::string> blifs;
  for (std::size_t i = 0; i < run.schedule.size(); ++i)
    if (run.schedule[i].blif)
      blifs.push_back(blif_text(lib, run.schedule[i].circuit));
  probe_library_layers(lib, mcnc_circuits(), derive_seed(options.seed, 7),
                       blifs, 0.0, result);
  probe_sessions(lib, plan.circuits, derive_seed(options.seed, 8),
                 16 * static_cast<int>(plan.circuits.size()), result);
  report_trace_overhead(plain.headline(), traced.headline(), result);
}

void probe_service(std::uint64_t seed, Result* result) {
  LoadPlan plan;
  plan.seed = seed;
  for (const dvs::McncDescriptor* d : mcnc_circuits(300))
    plan.circuits.push_back(d->name);
  plan.miss_circuits = plan.circuits;
  plan.pool_seeds = pool_seeds(seed, 1);
  plan.rate = 60.0;
  plan.warmup_s = 0.5;
  plan.seconds = 3.0;
  plan.trace_from_s = 0.0;
  const LoadRun run = run_load(plan, 1, result);
  report_service_layers(run, 1000.0 * plan.warmup_s,
                        1000.0 * (plan.warmup_s + plan.seconds), result);
}

}  // namespace perfbench
