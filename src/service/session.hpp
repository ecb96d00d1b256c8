// One client connection of the dvsd service: reads NDJSON requests,
// dispatches them, writes NDJSON responses.  The session thread does
// I/O and cache lookups only — flow computation is submitted to the
// shared ThreadPool, and batch items stream back out-of-order through
// the session's write lock as workers finish them.
//
// Error containment: every per-request failure (malformed JSON, unknown
// fields, bad netlists, unknown circuits) turns into an {"type":"error"}
// response and the connection keeps serving — a client mistake must
// never take the daemon or even its own connection down.
//
// Overload control: new optimize/batch requests are refused with a
// structured "overloaded" error while ServiceCore's admission gate is
// shut; a batch keeps at most max_inflight_per_connection items in the
// pool at once (the rest feed in as items finish); a request's
// deadline_ms is checked when its job is dequeued.  On graceful drain
// (SIGTERM) a busy session finishes and answers its in-flight request
// before closing.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "support/socket.hpp"
#include "support/trace.hpp"

namespace dvs {

struct McncDescriptor;
struct ServiceCore;

/// Outcome of one optimization job, ready for response assembly.  The
/// body (serialized report/metrics object) is shared with the cache.
struct OptimizeOutcome {
  /// Which cache tier answered: "miss" = computed fresh, "hit" = the
  /// in-memory LRU, "disk" = the persistent tier (promoted to memory).
  enum class Tier { kMiss, kMemory, kDisk };

  std::shared_ptr<const std::string> body;
  Tier tier = Tier::kMiss;
  /// Non-empty when a fleet worker computed the body (its announced
  /// name) — surfaced as the response's "executor" field.
  std::string executor;
  /// When execute_optimize returned — the start of the caller's
  /// "respond" trace span (future wake-up + serialization + send).
  std::chrono::steady_clock::time_point finished{};

  bool cache_hit() const { return tier != Tier::kMiss; }
};

/// The wire spelling of an outcome's tier ("miss" / "hit" / "disk").
const char* cache_tier_name(OptimizeOutcome::Tier tier);

/// The one circuit loader behind every verb that runs the engine
/// (optimize, batch items, fleet jobs, open_design): request source
/// (`circuit` | `netlist` + `format`) + job options + daemon library ->
/// effective library, circuit seed, mapped network.  The ladder copy of
/// the library and named MCNC circuits materialize on first use, so a
/// cache hit builds neither; inline netlists are parsed, swept and
/// mapped up front.  Throws the protocol's verbatim errors.
struct CircuitSource {
  CircuitSource(const Library& lib, const std::string& circuit,
                const std::string& netlist, const std::string& format,
                const JobOptions& options);

  /// The daemon library, or its copy on `ladder` (built on first use).
  const Library& library();
  /// The mapped circuit (named circuits build on first use).
  const Network& network();

  const Library* base;
  std::optional<SupplyLadder> ladder;  // requested, and unlike base's
  std::optional<Library> custom;
  const McncDescriptor* descriptor = nullptr;  // named circuits only
  std::optional<Network> mapped;
  /// The suite engine's derived seed, so daemon answers match
  /// suite_bench rows bit for bit.
  std::uint64_t seed = 0;
  /// Inline netlists: the hashes of the netlist as submitted (whether it
  /// needed mapping is derived state, captured by the mapping hash).
  std::uint64_t submitted_topology = 0;
  std::uint64_t submitted_mapping = 0;
};

/// The one tiered-cache sequence behind every verb that runs the engine
/// (optimize, batch items, fleet jobs, pipeline reoptimize): with
/// `use_cache`, the memory tier, then the disk tier (a disk hit is
/// promoted to memory); otherwise `compute` fills the outcome's body
/// (and executor), and the body is stored in both tiers — a cache bypass
/// skips only the lookups.  Records the lookup histograms and, with a
/// non-null `trace`, the cache_lookup / execute / store spans, the first
/// starting at `start`.
OptimizeOutcome execute_cached(
    const CacheTiers& tiers, const CacheKey& key, bool use_cache,
    RequestTrace* trace, std::chrono::steady_clock::time_point start,
    const std::function<void(OptimizeOutcome&)>& compute);

/// Runs one optimize job on the calling thread: load the circuit, key
/// it, then execute_cached with the flow (fleet dispatch first, with
/// `allow_remote` and a scheduler with live workers) as its compute
/// step.  Throws on invalid requests; never mutates connection state
/// (shared by the optimize path, batch items, the in-process bench, and
/// tests).  With a non-null `trace`, appends the resolve phase span,
/// execute_cached's spans and the depth-1 per-pass spans.  Workers call
/// with allow_remote=false so a job is never re-dispatched; any fleet
/// failure falls back to local computation.
OptimizeOutcome execute_optimize(ServiceCore& core,
                                 const OptimizeRequest& request,
                                 RequestTrace* trace = nullptr,
                                 bool allow_remote = true);

/// Runs the pipeline cells on `mapped` and assembles the shared
/// result-body object (report / metrics / trajectory) — the one body
/// layout, and the compute step execute_cached runs on a miss, behind
/// optimize, batch items, fleet jobs and pipeline reoptimizes.  With a
/// non-null `trace`, appends the depth-1 per-pass spans.  `result_out`
/// (optional) receives the executed cells, final Designs included, for
/// callers that need more than the body (netlist export); without it no
/// Design is kept.
Json::Object pipeline_body_object(const Network& mapped, const Library& lib,
                                  const FlowOptions& base_flow,
                                  std::vector<JobCell> cells,
                                  RequestTrace* trace,
                                  PipelineJobResult* result_out = nullptr);

class Session {
 public:
  Session(ServiceCore* core, Socket socket);

  /// Serves the connection until EOF, error, or service stop.
  void run();

  /// Unblocks a blocked recv/send from another thread (forced stop).
  void shutdown();

  /// Graceful-drain request: an idle session is unblocked (and closes)
  /// immediately; a busy one finishes and answers its in-flight
  /// request, then closes instead of reading the next one.
  void request_drain();

  bool finished() const { return finished_.load(); }

  /// Serialized send of one NDJSON line.  Public for the Scheduler,
  /// which answers and commands a registered worker over the worker's
  /// own session socket.
  void write_line(const std::string& line);

 private:
  /// Parses and dispatches one request line; returns true when the
  /// request asked for daemon shutdown.
  bool serve_line(const std::string& line);
  /// `received`/`parsed` bracket parse_request — the first trace phase.
  void handle(const Request& request,
              std::chrono::steady_clock::time_point received,
              std::chrono::steady_clock::time_point parsed);
  void handle_optimize(const Request& request,
                       std::chrono::steady_clock::time_point received,
                       std::chrono::steady_clock::time_point parsed);
  void handle_batch(const Request& request);
  void handle_stats(const Request& request);
  void handle_metrics(const Request& request);
  /// ECO session verbs (service/design_session.hpp).  open_design and
  /// reoptimize run on the pool behind the admission gate (they can
  /// carry full compiles / pipeline runs); edit and close_design answer
  /// inline on this thread (ms-scale); sweep orchestrates inline and
  /// fans its cells onto the pool.
  void handle_design(const Request& request,
                     std::chrono::steady_clock::time_point received,
                     std::chrono::steady_clock::time_point parsed);

  ServiceCore* core_;
  Socket socket_;
  std::mutex write_mutex_;
  std::atomic<bool> finished_{false};

  /// Guards the busy/draining handshake between run() and
  /// request_drain(): shutdown() is only safe to fire while the session
  /// is not mid-request, or its response would be cut off.
  std::mutex state_mutex_;
  bool busy_ = false;
  bool draining_ = false;

  /// Set when this connection registered as a fleet worker: run() hands
  /// the channel to the Scheduler after the (idle) handshake completes.
  bool worker_mode_ = false;
  RegisterWorkerRequest worker_info_;
};

}  // namespace dvs
