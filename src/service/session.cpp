#include "service/session.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "benchgen/mcnc.hpp"
#include "core/boundary.hpp"
#include "core/job.hpp"
#include "core/suite.hpp"
#include "netlist/blif.hpp"
#include "netlist/stats.hpp"
#include "netlist/verilog.hpp"
#include "opt/pipeline.hpp"
#include "service/scheduler.hpp"
#include "service/server.hpp"
#include "support/rng.hpp"
#include "support/version.hpp"
#include "synth/mapper.hpp"
#include "synth/sweep.hpp"

namespace dvs {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Slow-request stderr line and NDJSON trace-log record for one finished
/// request (optimize or batch item).
void emit_trace_record(ServiceCore& core, const char* type, const Json& id,
                       const std::string& name, const char* cache,
                       double wall_ms, const RequestTrace& trace) {
  if (core.config.slow_ms > 0 && wall_ms >= core.config.slow_ms)
    std::fprintf(stderr, "dvsd: slow %s '%s': %.1f ms (cache=%s)\n", type,
                 name.c_str(), wall_ms, cache);
  if (core.trace_log) {
    Json::Object record;
    record["type"] = Json(type);
    record["id"] = id;
    record["name"] = Json(name);
    record["cache"] = Json(cache);
    record["wall_ms"] = Json(wall_ms);
    record["spans"] = trace.json();
    core.trace_log->write(Json(std::move(record)));
  }
}

bool fully_mapped(const Network& net) {
  bool mapped = true;
  net.for_each_gate([&](const Node& n) {
    if (n.cell < 0) mapped = false;
  });
  return mapped;
}

std::string overloaded_message(const ServiceCore& core) {
  return "overloaded: " +
         std::to_string(static_cast<std::uint64_t>(
             core.metrics.inflight_jobs->value())) +
         " jobs in flight at watermark " +
         std::to_string(core.backlog_watermark) +
         "; retry later or lower the request rate";
}

std::string deadline_message(std::uint64_t deadline_ms) {
  return "deadline of " + std::to_string(deadline_ms) +
         " ms expired before the job was dequeued";
}

/// Response line for a design-session verb: head + the registry's body
/// fields.
std::string design_response(const char* type, const Json& id,
                            Json::Object body) {
  Json::Object head = response_head(type, id);
  for (auto& [key, value] : body) head[key] = std::move(value);
  return finish_response(std::move(head));
}

/// `map[key]`, computed by `compute` outside the lock on first use.
template <typename Map, typename Compute>
typename Map::mapped_type memoized(std::mutex& mutex, Map& map,
                                   const typename Map::key_type& key,
                                   const Compute& compute) {
  {
    std::lock_guard<std::mutex> lock(mutex);
    auto it = map.find(key);
    if (it != map.end()) return it->second;
  }
  const typename Map::mapped_type value = compute();
  std::lock_guard<std::mutex> lock(mutex);
  return map.emplace(key, value).first->second;
}

/// The optimize cache key: the effective library's fingerprint, the
/// circuit's topology and mapping hashes, and the canonical options.
/// The memos keep the cache-hit path free of Library copies and circuit
/// builds.
CacheKey job_key(ServiceCore& core, const OptimizeRequest& request,
                 CircuitSource& source) {
  CacheKey key;
  key.library = core.lib_fingerprint;
  if (source.ladder)
    key.library = memoized(core.ladder_fp_mutex, core.ladder_fps,
                           source.ladder->fingerprint(),
                           [&] { return source.library().fingerprint(); });
  if (!request.circuit.empty()) {
    // Named circuits are pure functions of (descriptor, library), so
    // each effective library gets its own memo slot.
    std::tie(key.topology, key.mapping) = memoized(
        core.named_hash_mutex, core.named_hashes,
        request.circuit + "@" + std::to_string(key.library), [&] {
          const Network& net = source.network();
          return std::make_pair(topology_hash(net), mapping_fingerprint(net));
        });
  } else {
    key.topology = source.submitted_topology;
    key.mapping = source.submitted_mapping;
  }
  key.options = fnv1a64(
      canonical_job_json(request, source.seed, core.lib->supplies()));
  return key;
}

/// Final power/delay/area of one optimized design.
Json metrics_json(const Design& design) {
  Json::Object metrics;
  metrics["power_uw"] = Json(design.run_power().total());
  metrics["arrival_ns"] = Json(design.run_timing().worst_arrival);
  metrics["area_um2"] = Json(design.total_area());
  return Json(std::move(metrics));
}

/// Runs the job's pipeline cells and assembles the response body object.
std::string compute_body(const OptimizeRequest& request,
                         CircuitSource& source, RequestTrace* trace) {
  const Library& lib = source.library();
  const Network& circuit = source.network();
  // Shared columns (tspec, original power) run off the derived circuit
  // seed; per-cell seeds (Gscale's ablation cut selector) are resolved
  // inside build_job_cells, matching the suite engine's derivation.
  const FlowOptions base = derive_cell_flow(
      request.options.to_flow_options(), source.seed, PaperAlgo::kCvs);
  PipelineJobResult result;
  Json::Object body = pipeline_body_object(
      circuit, lib, base, build_job_cells(request, source.seed), trace,
      &result);

  if (request.return_netlist) {
    // Exactly one cell ran (protocol invariant): its final Design is
    // the netlist the client asked back.
    const Design& design = *result.cells.front().design;
    std::vector<char> low_mask;
    const Network out = materialize_level_converters(design, &low_mask);
    body["netlist"] = Json(request.format == "verilog"
                               ? write_verilog_string(out, lib)
                               : write_blif_string(out));
    Json::Array low_gates;
    out.for_each_gate([&](const Node& n) {
      if (low_mask[n.id]) low_gates.emplace_back(n.name);
    });
    body["low_gates"] = Json(std::move(low_gates));
  }
  return Json(std::move(body)).dump();
}

}  // namespace

Json::Object pipeline_body_object(const Network& mapped, const Library& lib,
                                  const FlowOptions& base_flow,
                                  std::vector<JobCell> cells,
                                  RequestTrace* trace,
                                  PipelineJobResult* result_out) {
  PipelineJobResult result =
      run_pipeline_job(mapped, lib, base_flow, std::move(cells),
                       /*capture_designs=*/true);

  if (trace) {
    // Depth-1 detail spans inside the execute phase: one per executed
    // pass, named after its cell so hybrid pipelines stay readable.
    for (const JobCellResult& cell : result.cells)
      for (const PassStats& stats : cell.run.passes)
        trace->add("pass:" + cell.label + "/" + stats.pass, stats.wall_start,
                   stats.wall_end, /*depth=*/1);
  }

  bool with_cvs = false, with_dscale = false, with_gscale = false;
  for (const JobCellResult& cell : result.cells) {
    with_cvs |= cell.label == "cvs";
    with_dscale |= cell.label == "dscale";
    with_gscale |= cell.label == "gscale";
  }

  Json::Object body;
  body["report"] =
      report_json(result.row, with_cvs, with_dscale, with_gscale);
  Json::Object metrics;
  Json::Array trajectory;
  for (const JobCellResult& cell : result.cells) {
    metrics[cell.label] = metrics_json(*cell.design);
    Json::Object entry;
    entry["label"] = Json(cell.label);
    entry["spec"] = Json(cell.spec);
    entry["improve_pct"] = Json(cell.improve_pct);
    Json::Array passes;
    for (const PassStats& stats : cell.run.passes)
      passes.emplace_back(pass_stats_json(stats));
    entry["passes"] = Json(std::move(passes));
    trajectory.emplace_back(std::move(entry));
  }
  body["metrics"] = Json(std::move(metrics));
  body["trajectory"] = Json(std::move(trajectory));
  if (result_out) *result_out = std::move(result);
  return body;
}

const char* cache_tier_name(OptimizeOutcome::Tier tier) {
  switch (tier) {
    case OptimizeOutcome::Tier::kMemory:
      return "hit";
    case OptimizeOutcome::Tier::kDisk:
      return "disk";
    case OptimizeOutcome::Tier::kMiss:
      break;
  }
  return "miss";
}

CircuitSource::CircuitSource(const Library& lib, const std::string& circuit,
                             const std::string& netlist,
                             const std::string& format,
                             const JobOptions& options)
    : base(&lib) {
  if (!options.supplies.empty()) {
    // The whole flow (mapping included) runs against the requested
    // operating point.  The threshold is vetted now, the copy deferred.
    SupplyLadder requested(options.supplies);
    if (requested != lib.supplies()) {
      lib.check_ladder(requested);
      ladder.emplace(std::move(requested));
    }
  }
  if (!circuit.empty()) {
    descriptor = find_mcnc(circuit);
    if (descriptor == nullptr)
      throw ProtocolError("unknown MCNC circuit '" + circuit + "'");
    seed = mix_seed(options.seed, descriptor->seed);
    return;
  }
  seed = options.seed;
  Network submitted = format == "verilog"
                          ? read_verilog_string(netlist, library())
                          : read_blif_string(netlist);
  submitted_topology = topology_hash(submitted);
  submitted_mapping = mapping_fingerprint(submitted);
  if (fully_mapped(submitted) && submitted.num_gates() > 0) {
    mapped.emplace(std::move(submitted));
  } else {
    sweep_network(submitted);
    mapped.emplace(map_paper_setup(submitted, library()).mapped);
  }
  if (mapped->num_gates() == 0)
    throw ProtocolError("netlist has no gates to optimize");
}

const Library& CircuitSource::library() {
  if (!ladder) return *base;
  return custom ? *custom : on_ladder(*base, *ladder, custom);
}

const Network& CircuitSource::network() {
  if (!mapped) mapped.emplace(build_mcnc_circuit(library(), *descriptor));
  return *mapped;
}

OptimizeOutcome execute_cached(
    const CacheTiers& tiers, const CacheKey& key, bool use_cache,
    RequestTrace* trace, std::chrono::steady_clock::time_point start,
    const std::function<void(OptimizeOutcome&)>& compute) {
  // Phase timestamps: each phase starts where the previous one ended, so
  // the spans tile the execution window and their sum tracks wall time.
  using Clock = std::chrono::steady_clock;
  OptimizeOutcome out;
  Clock::time_point mark = start;
  if (use_cache && tiers.memory) {
    out.body = tiers.memory->get(key);
    Clock::time_point t = Clock::now();
    if (tiers.memory_ms) tiers.memory_ms->observe(ms_between(mark, t));
    if (out.body) {
      out.tier = OptimizeOutcome::Tier::kMemory;
    } else if (tiers.disk) {
      const Clock::time_point disk_start = t;
      out.body = tiers.disk->load(key);
      t = Clock::now();
      if (tiers.disk_ms) tiers.disk_ms->observe(ms_between(disk_start, t));
      if (out.body) {
        // Promote-on-hit: the disk answer becomes resident so repeats
        // pay memory-tier latency (no disk write — it is already there).
        tiers.memory->put(key, out.body);
        out.tier = OptimizeOutcome::Tier::kDisk;
        t = Clock::now();
      }
    }
    if (trace) trace->add("cache_lookup", mark, t);
    if (out.body) {
      out.finished = Clock::now();
      return out;
    }
    mark = t;
  }
  compute(out);
  const Clock::time_point computed = Clock::now();
  if (trace) trace->add("execute", mark, computed);
  if (tiers.memory) tiers.memory->put(key, out.body);
  if (tiers.disk) tiers.disk->store(key, out.body);
  out.finished = Clock::now();
  if (trace) trace->add("store", computed, out.finished);
  return out;
}

OptimizeOutcome execute_optimize(ServiceCore& core,
                                 const OptimizeRequest& request,
                                 RequestTrace* trace, bool allow_remote) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  CircuitSource source(*core.lib, request.circuit, request.netlist,
                       request.format, request.options);
  const CacheKey key = job_key(core, request, source);
  const Clock::time_point resolved = Clock::now();
  if (trace) trace->add("resolve", start, resolved);
  return execute_cached(
      core.cache_tiers(), key, request.use_cache, trace, resolved,
      [&](OptimizeOutcome& out) {
        if (allow_remote && core.scheduler && core.scheduler->has_workers()) {
          // Fleet dispatch first; any fleet-side failure (no worker,
          // lease expiry, retries exhausted, drain) returns nullopt and
          // the job computes locally — workers produce bit-identical
          // bodies, so either way the cache sees the same bytes.
          std::optional<Scheduler::RemoteResult> remote =
              core.scheduler->run_remote(request, trace);
          if (remote) {
            out.body =
                std::make_shared<const std::string>(std::move(remote->body));
            out.executor = std::move(remote->worker);
            return;
          }
        }
        out.body = std::make_shared<const std::string>(
            compute_body(request, source, trace));
      });
}

Session::Session(ServiceCore* core, Socket socket)
    : core_(core), socket_(std::move(socket)) {}

void Session::shutdown() { socket_.shutdown_both(); }

void Session::request_drain() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  draining_ = true;
  // Idle sessions (blocked in recv) unblock now; a busy one finishes
  // and answers its in-flight request first — run() checks draining_
  // after clearing busy_ under this same mutex, so no request can slip
  // into the gap.
  if (!busy_) socket_.shutdown_both();
}

void Session::write_line(const std::string& line) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  socket_.send_all(line);
}

void Session::run() {
  core_->metrics.sessions_active->add(1);
  LineReader reader(&socket_, core_->config.max_line_bytes);
  std::string line;
  try {
    while (!core_->stopping.load()) {
      try {
        if (!reader.read_line(&line)) break;  // EOF
      } catch (const LineTooLongError& e) {
        // Tell the client why before dropping the connection (the
        // unread remainder of the oversized line makes resync
        // impossible, so the error-containment contract ends here).
        core_->metrics.line_too_long->inc();
        write_line(error_response(Json(), e.what(), "line_too_long"));
        break;
      }
      if (line.empty()) continue;
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        if (draining_) break;
        busy_ = true;
      }
      const bool is_shutdown = serve_line(line);
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        busy_ = false;
        if (draining_) break;
      }
      if (is_shutdown) break;
      if (worker_mode_) {
        // The connection becomes a fleet worker channel: the scheduler
        // owns it from here (ack, heartbeats, job results) until the
        // worker disconnects or the fleet drains.  busy_ stays false,
        // so a graceful drain shuts this socket immediately — worker
        // channels don't hold the drain window open.
        core_->scheduler->serve_worker(worker_info_, this, &reader);
        break;
      }
    }
  } catch (const SocketError&) {
    // Peer vanished or service stop shut the socket down: just leave.
  }
  // The fd itself is reclaimed when the server reaps this session; the
  // shutdown gives the client its EOF *now* instead of at reap time.
  socket_.shutdown_both();
  core_->metrics.sessions_active->add(-1);
  finished_.store(true);
}

bool Session::serve_line(const std::string& line) {
  const auto received = std::chrono::steady_clock::now();
  core_->metrics.requests_total->inc();
  Request request;
  try {
    request = parse_request(line);
  } catch (const std::exception& e) {
    write_line(error_response(Json(), e.what()));
    return false;
  }
  const auto parsed = std::chrono::steady_clock::now();
  try {
    handle(request, received, parsed);
  } catch (const ProtocolError& e) {
    core_->metrics.jobs_failed->inc();
    write_line(error_response(request.id, e.what(), e.code()));
  } catch (const std::exception& e) {
    core_->metrics.jobs_failed->inc();
    write_line(error_response(request.id, e.what()));
  }
  return request.type == RequestType::kShutdown;
}

void Session::handle(const Request& request,
                     std::chrono::steady_clock::time_point received,
                     std::chrono::steady_clock::time_point parsed) {
  switch (request.type) {
    case RequestType::kPing:
      write_line(finish_response(response_head("pong", request.id)));
      break;
    case RequestType::kStats:
      handle_stats(request);
      break;
    case RequestType::kMetrics:
      handle_metrics(request);
      break;
    case RequestType::kShutdown:
      write_line(finish_response(response_head("bye", request.id)));
      core_->request_stop();
      break;
    case RequestType::kOptimize:
      handle_optimize(request, received, parsed);
      break;
    case RequestType::kBatch:
      handle_batch(request);
      break;
    case RequestType::kRegisterWorker:
      if (!core_->scheduler)
        throw ProtocolError(
            "not a scheduler: start dvsd with --scheduler to accept "
            "workers");
      // No ack here: serve_worker sends it once it owns the channel, so
      // the worker can't observe a registered-but-unowned window.
      worker_info_ = request.register_worker;
      worker_mode_ = true;
      break;
    case RequestType::kOpenDesign:
    case RequestType::kEdit:
    case RequestType::kReoptimize:
    case RequestType::kSweep:
    case RequestType::kCloseDesign:
      handle_design(request, received, parsed);
      break;
  }
}

void Session::handle_metrics(const Request& request) {
  Json::Object fields = response_head("metrics", request.id);
  fields["text"] = Json(core_->registry.exposition());
  write_line(finish_response(std::move(fields)));
}

void Session::handle_stats(const Request& request) {
  const CacheStats cache = core_->cache->stats();
  Json::Object fields = response_head("stats", request.id);
  Json::Object cache_json;
  cache_json["hits"] = Json(cache.hits);
  cache_json["misses"] = Json(cache.misses);
  cache_json["evictions"] = Json(cache.evictions);
  cache_json["rejected"] = Json(cache.rejected);
  cache_json["entries"] = Json(static_cast<std::uint64_t>(cache.entries));
  cache_json["bytes"] = Json(static_cast<std::uint64_t>(cache.bytes));
  cache_json["capacity_bytes"] =
      Json(static_cast<std::uint64_t>(cache.capacity_bytes));
  fields["cache"] = Json(std::move(cache_json));
  Json::Object disk_json;
  disk_json["enabled"] = Json(static_cast<bool>(core_->disk));
  const DiskCacheStats disk =
      core_->disk ? core_->disk->stats() : DiskCacheStats{};
  disk_json["hits"] = Json(disk.hits);
  disk_json["misses"] = Json(disk.misses);
  disk_json["writes"] = Json(disk.writes);
  disk_json["write_errors"] = Json(disk.write_errors);
  disk_json["bytes_written"] = Json(disk.bytes_written);
  fields["disk"] = Json(std::move(disk_json));
  const ServiceMetrics& m = core_->metrics;
  const ThreadPoolStats pool_stats = core_->pool->stats();
  Json::Object pool;
  pool["threads"] = Json(pool_stats.threads);
  pool["depth"] = Json(pool_stats.pending);
  pool["peak_depth"] = Json(pool_stats.peak_pending);
  pool["tasks_executed"] = Json(pool_stats.tasks_executed);
  pool["inflight"] =
      Json(static_cast<std::uint64_t>(m.inflight_jobs->value()));
  pool["watermark"] =
      Json(static_cast<std::uint64_t>(core_->backlog_watermark));
  pool["overload_rejections"] = Json(m.overload_rejections->value());
  pool["deadline_expired"] = Json(m.deadline_expired->value());
  fields["pool"] = Json(std::move(pool));
  Json::Object sessions;
  sessions["active"] =
      Json(static_cast<std::uint64_t>(m.sessions_active->value()));
  sessions["total"] = Json(m.connections_total->value());
  sessions["line_too_long"] = Json(m.line_too_long->value());
  fields["sessions"] = Json(std::move(sessions));
  Json::Object jobs;
  jobs["completed"] = Json(m.jobs_completed->value());
  jobs["failed"] = Json(m.jobs_failed->value());
  fields["jobs"] = Json(std::move(jobs));
  if (core_->designs) {
    const DesignRegistryStats d = core_->designs->stats();
    Json::Object designs;
    designs["open"] = Json(static_cast<std::uint64_t>(d.open_now));
    designs["resident_bytes"] =
        Json(static_cast<std::uint64_t>(d.resident_bytes));
    designs["opened"] = Json(d.opened);
    designs["closed"] = Json(d.closed);
    designs["expired"] = Json(d.expired);
    designs["evicted"] = Json(d.evicted);
    designs["edits"] = Json(d.edits);
    designs["reoptimize_incremental"] = Json(d.reoptimize_incremental);
    designs["reoptimize_full"] = Json(d.reoptimize_full);
    designs["sweeps"] = Json(d.sweeps);
    designs["sweep_cells"] = Json(d.sweep_cells);
    fields["designs"] = Json(std::move(designs));
  }
  if (core_->scheduler) fields["fleet"] = core_->scheduler->stats_json();
  // `requests` predates `requests_total`; both stay so old tooling keeps
  // working, and `requests_total` is the documented monotonic spelling
  // (a restart is visible as the counter falling together with uptime).
  fields["requests"] = Json(m.requests_total->value());
  fields["requests_total"] = Json(m.requests_total->value());
  fields["connections"] = Json(m.connections_total->value());
  fields["threads"] = Json(pool_stats.threads);
  fields["version"] = Json(kDvsVersion);
  const double uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    core_->started)
          .count();
  fields["uptime_seconds"] = Json(uptime_seconds);
  fields["uptime_ms"] = Json(uptime_seconds * 1e3);
  write_line(finish_response(std::move(fields)));
}

void Session::handle_optimize(const Request& request,
                              std::chrono::steady_clock::time_point received,
                              std::chrono::steady_clock::time_point parsed) {
  using Clock = std::chrono::steady_clock;
  // The trace epoch is the moment the request line arrived; wall_ms is
  // measured from the same instant, so the depth-0 phase spans tile the
  // reported wall time by construction.
  std::shared_ptr<RequestTrace> trace;
  if (core_->want_trace(request.optimize.trace)) {
    trace = std::make_shared<RequestTrace>(received);
    trace->add("parse", received, parsed);
  }
  if (!core_->admit()) {
    core_->metrics.overload_rejections->inc();
    write_line(error_response(request.id, overloaded_message(*core_),
                              "overloaded"));
    return;
  }
  const Clock::time_point admitted = Clock::now();
  if (trace) trace->add("admission", parsed, admitted);
  // The flow runs on the shared pool so concurrent connections share
  // the worker budget; this session thread just waits for its result.
  auto promise = std::make_shared<std::promise<OptimizeOutcome>>();
  std::future<OptimizeOutcome> future = promise->get_future();
  ServiceCore* core = core_;
  // One copy of the request (it can carry a multi-MB netlist), shared
  // with the pool task instead of captured by value a second time.
  auto job = std::make_shared<const OptimizeRequest>(request.optimize);
  const std::uint64_t deadline_ms = request.optimize.deadline_ms;
  core_->metrics.inflight_jobs->add(1);
  core_->pool->submit([core, job, promise, received, admitted, deadline_ms,
                       trace]() {
    const Clock::time_point dequeued = Clock::now();
    core->metrics.queue_wait_ms->observe(ms_between(admitted, dequeued));
    if (trace) trace->add("queue_wait", admitted, dequeued);
    // Deadline honored at dequeue: a job whose budget burned away in
    // the queue fails fast instead of occupying a worker late.
    if (deadline_ms > 0 && ms_since(received) > deadline_ms) {
      core->metrics.deadline_expired->inc();
      promise->set_exception(std::make_exception_ptr(ProtocolError(
          deadline_message(deadline_ms), "deadline_exceeded")));
    } else {
      try {
        promise->set_value(execute_optimize(*core, *job, trace.get()));
      } catch (...) {
        promise->set_exception(std::current_exception());
      }
    }
    core->metrics.inflight_jobs->add(-1);
  });
  const OptimizeOutcome outcome = future.get();  // rethrows job errors
  core_->metrics.jobs_completed->inc();

  const Clock::time_point done = Clock::now();
  if (trace) trace->add("respond", outcome.finished, done);
  const double wall_ms = ms_between(received, done);
  core_->metrics.service_ms_optimize->observe(wall_ms);
  Json::Object fields = response_head("result", request.id);
  fields["cache"] = Json(cache_tier_name(outcome.tier));
  if (!outcome.executor.empty())
    fields["executor"] = Json(outcome.executor);
  fields["wall_ms"] = Json(wall_ms);
  if (trace && request.optimize.trace) fields["trace"] = trace->json();
  write_line(finish_response_with_body(std::move(fields), *outcome.body));
  if (trace)
    emit_trace_record(*core_, "optimize", request.id,
                      job->circuit.empty() ? "<inline>" : job->circuit,
                      cache_tier_name(outcome.tier), wall_ms, *trace);
}

void Session::handle_design(
    const Request& request, std::chrono::steady_clock::time_point received,
    std::chrono::steady_clock::time_point parsed) {
  using Clock = std::chrono::steady_clock;
  DesignRegistry& designs = *core_->designs;
  const Json& id = request.id;

  // Lightweight verbs (point edits, handle release) answer inline on
  // this thread — they are ms-scale and must stay responsive even when
  // the pool is saturated with long jobs.
  if (request.type == RequestType::kEdit) {
    Json::Object fields = designs.edit(request.edit);
    write_line(design_response("edited", id, std::move(fields)));
    core_->metrics.service_ms_design->observe(ms_since(received));
    return;
  }
  if (request.type == RequestType::kCloseDesign) {
    Json::Object fields = designs.close(request.close_design);
    write_line(design_response("design_closed", id, std::move(fields)));
    core_->metrics.service_ms_design->observe(ms_since(received));
    return;
  }

  if (!core_->admit()) {
    core_->metrics.overload_rejections->inc();
    write_line(
        error_response(id, overloaded_message(*core_), "overloaded"));
    return;
  }
  const Clock::time_point admitted = Clock::now();

  if (request.type == RequestType::kSweep) {
    // Orchestrated inline: the matrix cells fan out on the pool while
    // this session thread blocks on their futures — never a pool
    // worker, so even a single-threaded pool cannot deadlock on its
    // own sweep.
    core_->metrics.inflight_jobs->add(1);
    Json::Object fields;
    try {
      fields = designs.sweep(request.sweep);
    } catch (...) {
      core_->metrics.inflight_jobs->add(-1);
      throw;
    }
    core_->metrics.inflight_jobs->add(-1);
    core_->metrics.jobs_completed->inc();
    const double wall_ms = ms_since(received);
    fields["wall_ms"] = Json(wall_ms);
    write_line(design_response("sweep_result", id, std::move(fields)));
    core_->metrics.service_ms_design->observe(wall_ms);
    return;
  }

  // open_design / reoptimize run as pool jobs — a design load or a
  // pipeline re-run is full flow computation, so connections share the
  // worker budget exactly as optimize does.  A reoptimize trace carries
  // the same request phases as optimize around the registry's own
  // spans, so its depth-0 spans tile wall_ms.
  const bool is_open = request.type == RequestType::kOpenDesign;
  std::shared_ptr<RequestTrace> trace;
  const bool wire_trace = !is_open && request.reoptimize.trace;
  if (!is_open && core_->want_trace(request.reoptimize.trace)) {
    trace = std::make_shared<RequestTrace>(received);
    trace->add("parse", received, parsed);
    trace->add("admission", parsed, admitted);
  }
  auto promise = std::make_shared<std::promise<DesignReoptimizeResult>>();
  std::future<DesignReoptimizeResult> future = promise->get_future();
  ServiceCore* core = core_;
  // One shared copy — an open_design can carry a multi-MB netlist.
  auto req = std::make_shared<const Request>(request);
  // Written by the job before it fulfils the promise.
  auto finished = std::make_shared<Clock::time_point>();
  core_->metrics.inflight_jobs->add(1);
  core_->pool->submit([core, req, promise, trace, admitted, finished] {
    if (trace) trace->add("queue_wait", admitted, Clock::now());
    try {
      DesignReoptimizeResult result;
      if (req->type == RequestType::kOpenDesign)
        result.fields = core->designs->open(req->open_design);
      else
        result = core->designs->reoptimize(req->reoptimize, trace.get());
      *finished = Clock::now();
      promise->set_value(std::move(result));
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
    core->metrics.inflight_jobs->add(-1);
  });
  DesignReoptimizeResult result = future.get();  // rethrows job errors
  core_->metrics.jobs_completed->inc();

  const Clock::time_point done = Clock::now();
  if (trace) trace->add("respond", *finished, done);
  const double wall_ms = ms_between(received, done);
  core_->metrics.service_ms_design->observe(wall_ms);
  Json::Object head =
      response_head(is_open ? "design_opened" : "reoptimized", id);
  for (auto& [key, value] : result.fields) head[key] = std::move(value);
  if (result.cache) head["cache"] = Json(result.cache);
  head["wall_ms"] = Json(wall_ms);
  if (trace && wire_trace) head["trace"] = trace->json();
  if (result.body)
    write_line(finish_response_with_body(std::move(head), *result.body));
  else
    write_line(finish_response(std::move(head)));
  if (trace)
    emit_trace_record(*core_, "reoptimize", id, req->reoptimize.design,
                      result.cache ? result.cache : "none", wall_ms, *trace);
}

void Session::handle_batch(const Request& request) {
  const auto start = std::chrono::steady_clock::now();
  using Clock = std::chrono::steady_clock;
  const BatchRequest& batch = request.batch;
  if (!core_->admit()) {
    core_->metrics.overload_rejections->inc();
    write_line(error_response(request.id, overloaded_message(*core_),
                              "overloaded"));
    return;
  }

  // Materialize the circuit list (validated up front so a typo fails the
  // whole batch immediately instead of mid-stream).
  std::vector<std::string> names;
  if (batch.all) {
    for (const McncDescriptor& d : mcnc_suite())
      if (batch.max_gates == 0 || d.gates <= batch.max_gates)
        names.push_back(d.name);
  } else {
    for (const std::string& name : batch.circuits) {
      if (find_mcnc(name) == nullptr)
        throw ProtocolError("unknown MCNC circuit '" + name + "'");
      names.push_back(name);
    }
  }

  struct BatchProgress {
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t completed = 0;   // items fully handled (answer written)
    std::size_t in_window = 0;   // items submitted, not yet completed
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> failed{0};
  };
  auto progress = std::make_shared<BatchProgress>();
  const std::size_t window =
      std::max<std::size_t>(1, core_->config.max_inflight_per_connection);

  ServiceCore* core = core_;
  const std::uint64_t deadline_ms = batch.job.deadline_ms;
  const bool tracing = core_->want_trace(batch.job.trace);
  const bool wire_trace = batch.job.trace;
  const auto submit_item = [&](std::size_t i) {
    OptimizeRequest item = batch.job;
    item.circuit = names[i];
    core_->metrics.inflight_jobs->add(1);
    // Each item's trace epoch — and its wall_ms — is its submission
    // time, so the item's queue_wait/execute spans tile its wall time
    // even though items stream back out of order.
    const Clock::time_point submitted = Clock::now();
    core_->pool->submit([this, core, progress, item, i, start, submitted,
                         deadline_ms, tracing, wire_trace,
                         id = request.id]() {
      const Clock::time_point dequeued = Clock::now();
      core->metrics.queue_wait_ms->observe(ms_between(submitted, dequeued));
      std::optional<RequestTrace> trace;
      if (tracing) {
        trace.emplace(submitted);
        trace->add("queue_wait", submitted, dequeued);
      }
      std::string line;
      if (deadline_ms > 0 && ms_since(start) > deadline_ms) {
        // The batch's per-item dequeue budget, measured from batch
        // arrival: late items fail fast instead of running stale.
        core->metrics.deadline_expired->inc();
        core->metrics.jobs_failed->inc();
        progress->failed.fetch_add(1);
        Json::Object fields = response_head("batch_item", id);
        fields["index"] = Json(static_cast<std::uint64_t>(i));
        fields["name"] = Json(item.circuit);
        fields["error"] = Json(deadline_message(deadline_ms));
        fields["code"] = Json("deadline_exceeded");
        line = finish_response(std::move(fields));
      } else {
        try {
          const OptimizeOutcome outcome =
              execute_optimize(*core, item, trace ? &*trace : nullptr);
          core->metrics.jobs_completed->inc();
          if (outcome.cache_hit()) progress->hits.fetch_add(1);
          const Clock::time_point done = Clock::now();
          if (trace) trace->add("respond", outcome.finished, done);
          const double wall_ms = ms_between(submitted, done);
          core->metrics.service_ms_batch_item->observe(wall_ms);
          Json::Object fields = response_head("batch_item", id);
          fields["index"] = Json(static_cast<std::uint64_t>(i));
          fields["name"] = Json(item.circuit);
          fields["cache"] = Json(cache_tier_name(outcome.tier));
          if (!outcome.executor.empty())
            fields["executor"] = Json(outcome.executor);
          fields["wall_ms"] = Json(wall_ms);
          if (trace && wire_trace) fields["trace"] = trace->json();
          line =
              finish_response_with_body(std::move(fields), *outcome.body);
          if (trace)
            emit_trace_record(*core, "batch_item", id, item.circuit,
                              cache_tier_name(outcome.tier), wall_ms,
                              *trace);
        } catch (const std::exception& e) {
          core->metrics.jobs_failed->inc();
          progress->failed.fetch_add(1);
          Json::Object fields = response_head("batch_item", id);
          fields["index"] = Json(static_cast<std::uint64_t>(i));
          fields["name"] = Json(item.circuit);
          fields["error"] = Json(e.what());
          line = finish_response(std::move(fields));
        }
      }
      try {
        write_line(line);
      } catch (const SocketError&) {
        // Client went away mid-stream; keep draining the batch.
      }
      core->metrics.inflight_jobs->add(-1);
      {
        std::lock_guard<std::mutex> lock(progress->mutex);
        ++progress->completed;
        --progress->in_window;
      }
      progress->cv.notify_one();
    });
  };

  // Windowed submission: at most `window` items of this batch occupy
  // the pool at once; the session thread feeds the next item in as one
  // completes.  One huge batch therefore shares the queue with other
  // connections instead of monopolizing it.
  std::size_t next = 0;
  std::unique_lock<std::mutex> lock(progress->mutex);
  while (progress->completed < names.size()) {
    while (next < names.size() && progress->in_window < window) {
      ++progress->in_window;
      lock.unlock();
      submit_item(next++);
      lock.lock();
    }
    progress->cv.wait(lock, [&] {
      return progress->completed == names.size() ||
             (next < names.size() && progress->in_window < window);
    });
  }
  lock.unlock();

  Json::Object fields = response_head("batch_done", request.id);
  fields["count"] = Json(static_cast<std::uint64_t>(names.size()));
  fields["cache_hits"] = Json(progress->hits.load());
  fields["failed"] = Json(progress->failed.load());
  fields["wall_ms"] = Json(ms_since(start));
  write_line(finish_response(std::move(fields)));
}

}  // namespace dvs
