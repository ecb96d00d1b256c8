#include "service/design_session.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "core/job.hpp"
#include "core/sweep_matrix.hpp"
#include "netlist/stats.hpp"
#include "power/incremental.hpp"
#include "service/session.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace dvs {

namespace {

using Clock = std::chrono::steady_clock;

/// Why a retired handle name is gone (tombstones_ values).
enum Tombstone : int { kClosed, kExpired, kEvicted };

}  // namespace

/// One open design: the loaded Design plus everything pinned at open
/// time so every later verb re-derives nothing — the loaded source (the
/// effective library, at a stable address for the Design's lifetime, and
/// the derived seed), the frozen tspec, and the maintained incremental
/// timer and power engine.  `mutex` serializes verbs on this design;
/// refs / last_used / bytes are guarded by the registry mutex.
struct DesignRegistry::Handle {
  std::mutex mutex;

  std::string name;
  std::string circuit;  // MCNC name or "<inline>"
  JobOptions options;       // as opened (sweeps re-derive from these)
  FlowOptions base_flow;    // derive_cell_flow(options, seed, kCvs)
  double tspec = 0.0;       // frozen at open: mapped delay * (1+relax)
  double org_power_uw = 0.0;

  std::optional<CircuitSource> source;
  std::optional<Design> design;
  /// Maintained incremental timer and the power engine beside it
  /// (armed and dropped together); dropped (null) by structural edits
  /// and rebuilt by the next full or auto evaluation.  While present,
  /// their context spans point into `design`'s vectors — which is why
  /// any edit that resizes them must reset them first.
  std::unique_ptr<IncrementalSta> ista;
  std::unique_ptr<IncrementalPower> power;
  bool structural_dirty = false;

  /// Lazy name -> id map for string gate addresses, rebuilt when the
  /// network's structural version moves.
  std::unordered_map<std::string, NodeId> gate_names;
  std::uint64_t gate_names_version = ~0ull;

  // Guarded by the registry mutex:
  int refs = 0;
  Clock::time_point last_used{};
  std::size_t bytes = 0;
};

namespace {

/// Resident-footprint estimate of one handle: network storage, the
/// Design's per-node vectors, ~64 B/node for the compiled timing graph +
/// activity + STA state, and the incremental timer's and power engine's
/// arrays (counted whether or not they are armed right now).  A function
/// of the network alone, so only a structural edit moves it.  An
/// estimate is enough — the budget exists to bound memory, not to
/// account it to the byte.
std::size_t estimate_bytes(const DesignRegistry::Handle& handle) {
  const Network& net = handle.design->network();
  std::size_t bytes = sizeof(DesignRegistry::Handle);
  bytes += static_cast<std::size_t>(net.size()) * (sizeof(Node) + 64);
  net.for_each_node([&](const Node& n) {
    bytes += n.name.size() +
             (n.fanins.size() + n.fanouts.size()) * sizeof(NodeId);
  });
  bytes += static_cast<std::size_t>(net.size()) *
           (sizeof(SupplyId) + sizeof(double) + sizeof(char) + sizeof(int));
  bytes += static_cast<std::size_t>(net.size()) *
           (3 * sizeof(RiseFall) + 3 * sizeof(double) + sizeof(NodePower));
  if (handle.source->ladder) bytes += 1u << 16;  // library copy
  return bytes;
}

Json supplies_json(const Library& lib) {
  Json::Array supplies;
  for (double v : lib.supplies().voltages()) supplies.emplace_back(v);
  return Json(std::move(supplies));
}

/// The gate a DesignEdit addresses, by id or by name.  Throws the
/// protocol-verbatim unknown-gate / not-a-gate errors.
NodeId resolve_gate(DesignRegistry::Handle& handle, const Json& gate) {
  const Network& net = handle.design->network();
  NodeId id = kNoNode;
  std::string label;
  if (gate.is_string()) {
    label = "'" + gate.as_string() + "'";
    if (handle.gate_names_version != net.structural_version()) {
      handle.gate_names.clear();
      net.for_each_node([&](const Node& n) {
        if (!n.name.empty()) handle.gate_names[n.name] = n.id;
      });
      handle.gate_names_version = net.structural_version();
    }
    auto it = handle.gate_names.find(gate.as_string());
    if (it != handle.gate_names.end()) id = it->second;
  } else {
    id = static_cast<NodeId>(gate.as_int());
    label = "'" + std::to_string(id) + "'";
  }
  if (id == kNoNode || !net.is_valid(id))
    throw ProtocolError("unknown gate " + label + " in design '" +
                        handle.name + "'");
  if (!net.node(id).is_gate())
    throw ProtocolError("node " + label + " of design '" + handle.name +
                        "' is not a gate");
  return id;
}

/// Builds the handle's timer and power engine over the session design:
/// one graph compile (when the network moved) and one full STA.
void arm(DesignRegistry::Handle& handle) {
  const Design& design = *handle.design;
  handle.power.reset();  // it points at the timer replaced next
  handle.ista =
      std::make_unique<IncrementalSta>(design.timing_context(), handle.tspec);
  handle.power =
      std::make_unique<IncrementalPower>(design.power_context(), *handle.ista);
}

/// Applies one edit to the handle's design (handle mutex held).  Point
/// edits notify the incremental timer, then the power engine.  The
/// structural edits (converter insert / remove) go through Design's
/// buffer helpers, which resync its vectors and carry the activity
/// exactly (a buffer leaves the logic unchanged); then both engines are
/// dropped (their spans just went stale).
void apply_edit(DesignRegistry::Handle& handle, const DesignEdit& edit,
                bool* structural) {
  Design& design = *handle.design;
  Network& net = design.network();
  const Library& lib = handle.source->library();
  const NodeId id = resolve_gate(handle, edit.gate);
  const Node& node = net.node(id);
  const auto notify = [&] {
    if (!handle.ista) return;
    handle.ista->on_node_changed(id);
    handle.power->on_node_changed(id);
  };
  const auto set_cell = [&](int cell) {
    net.set_cell(id, cell);
    notify();
  };
  const auto went_structural = [&] {
    handle.power.reset();
    handle.ista.reset();
    handle.structural_dirty = true;
    *structural = true;
  };
  switch (edit.op) {
    case DesignEdit::Op::kRung: {
      if (edit.rung >= lib.supplies().depth())
        throw ProtocolError(
            "rung " + std::to_string(edit.rung) + " out of range for a " +
            std::to_string(lib.supplies().depth()) + "-rung ladder");
      design.set_level(id, static_cast<SupplyId>(edit.rung));
      notify();
      break;
    }
    case DesignEdit::Op::kCell: {
      const int cell = lib.find(edit.cell);
      if (cell < 0)
        throw ProtocolError("unknown cell '" + edit.cell + "'");
      const std::span<const int> variants = lib.variants_of(node.cell);
      if (std::find(variants.begin(), variants.end(), cell) ==
          variants.end())
        throw ProtocolError("cell '" + edit.cell +
                            "' is not a drive variant of gate '" +
                            node.name + "'");
      set_cell(cell);
      break;
    }
    case DesignEdit::Op::kUpsize: {
      const int cell = lib.upsize(node.cell);
      if (cell < 0)
        throw ProtocolError("gate '" + node.name +
                            "' is already at the largest drive");
      set_cell(cell);
      break;
    }
    case DesignEdit::Op::kDownsize: {
      const int cell = lib.downsize(node.cell);
      if (cell < 0)
        throw ProtocolError("gate '" + node.name +
                            "' is already at the smallest drive");
      set_cell(cell);
      break;
    }
    case DesignEdit::Op::kInsertLc: {
      if (lib.level_converter() < 0)
        throw ProtocolError("library has no level-converter cell");
      std::vector<NodeId> moved;
      for_each_unique_fanout(node, [&](NodeId fo) { moved.push_back(fo); });
      std::vector<int> moved_ports;
      const std::vector<OutputPort>& outputs = net.outputs();
      for (std::size_t p = 0; p < outputs.size(); ++p)
        if (outputs[p].driver == id)
          moved_ports.push_back(static_cast<int>(p));
      if (moved.empty() && moved_ports.empty())
        throw ProtocolError("gate '" + node.name +
                            "' has no fanouts to convert");
      const std::string lc_name =
          "lc_" + node.name + "_" + std::to_string(net.structural_version());
      design.insert_buffer(id, moved, moved_ports, lib.level_converter(),
                           lc_name);
      went_structural();
      break;
    }
    case DesignEdit::Op::kRemoveLc: {
      if (node.cell != lib.level_converter() || node.function != tt_buf())
        throw ProtocolError("gate '" + node.name +
                            "' is not a removable level converter");
      design.bypass_buffer(id);
      went_structural();
      break;
    }
  }
}

}  // namespace

DesignRegistry::DesignRegistry(const Library* lib,
                               DesignSessionConfig config, ThreadPool* pool,
                               CacheTiers tiers)
    : lib_(lib), config_(config), pool_(pool), tiers_(tiers) {}

DesignRegistry::~DesignRegistry() = default;

void DesignRegistry::retire_locked(const std::string& name, int tombstone) {
  auto it = handles_.find(name);
  if (it == handles_.end()) return;
  stats_.resident_bytes -= it->second->bytes;
  switch (static_cast<Tombstone>(tombstone)) {
    case kClosed:
      ++stats_.closed;
      break;
    case kExpired:
      ++stats_.expired;
      break;
    case kEvicted:
      ++stats_.evicted;
      break;
  }
  tombstones_[name] = tombstone;
  handles_.erase(it);
  stats_.open_now = handles_.size();
}

void DesignRegistry::gc_locked(Clock::time_point now, const Handle* keep) {
  // Idle expiry: anything untouched past the deadline goes, unless a
  // verb is mid-flight on it (try_lock fails -> skip this round).
  if (config_.idle_ms > 0) {
    std::vector<std::string> expired;
    for (const auto& [name, handle] : handles_) {
      const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
                            now - handle->last_used)
                            .count();
      if (idle < static_cast<long long>(config_.idle_ms)) continue;
      if (!handle->mutex.try_lock()) continue;
      handle->mutex.unlock();
      expired.push_back(name);
    }
    for (const std::string& name : expired) retire_locked(name, kExpired);
  }
  // Byte budget: evict oldest-idle first until under budget.  The
  // try_lock skip keeps the handle a verb is currently using resident.
  if (config_.max_bytes == 0) return;
  while (stats_.resident_bytes > config_.max_bytes && handles_.size() > 1) {
    std::string victim;
    Clock::time_point oldest = Clock::time_point::max();
    for (const auto& [name, handle] : handles_) {
      if (handle->last_used >= oldest || handle.get() == keep) continue;
      if (!handle->mutex.try_lock()) continue;
      handle->mutex.unlock();
      victim = name;
      oldest = handle->last_used;
    }
    if (victim.empty()) return;  // everything busy; try again next op
    retire_locked(victim, kEvicted);
  }
}

void DesignRegistry::throw_gone_locked(const std::string& name) const {
  auto tomb = tombstones_.find(name);
  if (tomb != tombstones_.end()) {
    switch (static_cast<Tombstone>(tomb->second)) {
      case kClosed:
        throw ProtocolError("design '" + name + "' is closed");
      case kExpired:
        throw ProtocolError("design '" + name +
                            "' expired after idle timeout");
      case kEvicted:
        throw ProtocolError("design '" + name +
                            "' was evicted under the design byte budget");
    }
  }
  throw ProtocolError("unknown design handle '" + name + "'");
}

std::shared_ptr<DesignRegistry::Handle> DesignRegistry::acquire(
    const std::string& name, bool allow_while_draining) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  gc_locked(now);
  auto it = handles_.find(name);
  if (it == handles_.end()) throw_gone_locked(name);
  if (draining_ && !allow_while_draining)
    throw ProtocolError("draining: design sessions are closing");
  it->second->last_used = now;
  return it->second;
}

Json::Object DesignRegistry::open(const OpenDesignRequest& request) {
  const Clock::time_point now = Clock::now();
  std::shared_ptr<Handle> handle;
  std::string name = request.name;
  bool attached = false;
  std::unique_lock<std::mutex> build_lock;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    gc_locked(now);
    if (draining_)
      throw ProtocolError("draining: design sessions are closing");
    if (!name.empty()) {
      auto it = handles_.find(name);
      if (it != handles_.end()) {
        handle = it->second;
        attached = true;
      }
    } else {
      name = "d" + std::to_string(next_id_++);
    }
    if (!handle) {
      if (handles_.size() >= config_.max_open)
        throw ProtocolError("too many open designs: " +
                            std::to_string(handles_.size()) +
                            " open at cap " +
                            std::to_string(config_.max_open));
      handle = std::make_shared<Handle>();
      handle->name = name;
      // Publish locked: lookups during the build below block on the
      // handle mutex (GC skips via try_lock) until the design is ready.
      build_lock = std::unique_lock<std::mutex>(handle->mutex);
      handles_.emplace(name, handle);
      tombstones_.erase(name);  // a reopened name is simply live again
      stats_.open_now = handles_.size();
    }
    handle->refs += 1;
    handle->last_used = now;
    ++stats_.opened;
  }

  // The build path already holds the fresh handle's mutex; an attacher
  // takes it now so the reply reads settled fields, and finds a
  // design-less handle if it raced a build that then failed.
  std::exception_ptr failure;
  Json::Object fields;
  std::size_t bytes = 0;
  {
    std::unique_lock<std::mutex> lock =
        attached ? std::unique_lock<std::mutex>(handle->mutex)
                 : std::move(build_lock);
    if (!attached) {
      try {
        handle->circuit =
            request.circuit.empty() ? "<inline>" : request.circuit;
        handle->options = request.options;
        CircuitSource& source = handle->source.emplace(
            *lib_, request.circuit, request.netlist, request.format,
            request.options);
        const Library& lib = source.library();
        const Network& mapped = source.network();
        handle->base_flow = derive_cell_flow(
            request.options.to_flow_options(), source.seed, PaperAlgo::kCvs);
        CircuitRunResult row;
        Activity activity;
        init_flow_row(mapped, lib, handle->base_flow, &row, &activity);
        handle->tspec = row.tspec_ns;
        handle->org_power_uw = row.org_power_uw;
        handle->design.emplace(
            make_flow_design(mapped, lib, handle->base_flow, handle->tspec));
        handle->design->adopt_activity(std::move(activity));
        source.mapped.reset();  // the Design holds the only copy now
      } catch (...) {
        failure = std::current_exception();
      }
    }
    if (handle->design) {
      const Network& net = handle->design->network();
      fields["design"] = Json(handle->name);
      fields["circuit"] = Json(handle->circuit);
      fields["attached"] = Json(attached);
      fields["gates"] = Json(net.num_gates());
      fields["structural_version"] = Json(net.structural_version());
      fields["tspec_ns"] = Json(handle->tspec);
      fields["org_power_uw"] = Json(handle->org_power_uw);
      fields["supplies"] = supplies_json(handle->source->library());
      if (!attached) bytes = estimate_bytes(*handle);
    }
  }

  // Registry bookkeeping runs after the handle mutex is released: locks
  // are only ever taken registry -> handle.
  std::lock_guard<std::mutex> lock(mutex_);
  if (fields.empty()) {  // no design: this build failed, or one raced
    --stats_.opened;
    if (!failure)
      throw ProtocolError("unknown design handle '" + name + "'");
    // Unpublish the placeholder; late lookups get "unknown handle",
    // exactly as if the open never happened.
    auto it = handles_.find(name);
    if (it != handles_.end() && it->second == handle) {
      handles_.erase(it);
      stats_.open_now = handles_.size();
    }
    std::rethrow_exception(failure);
  }
  if (!attached) {
    account_locked(handle, bytes);
    gc_locked(now, handle.get());  // the new resident may push others out
  }
  fields["refs"] = Json(static_cast<std::int64_t>(handle->refs));
  return fields;
}

void DesignRegistry::account_locked(const std::shared_ptr<Handle>& handle,
                                    std::size_t bytes) {
  // A handle retired while unlocked has already left the byte total.
  auto it = handles_.find(handle->name);
  if (it == handles_.end() || it->second != handle) return;
  stats_.resident_bytes += bytes - handle->bytes;
  handle->bytes = bytes;
}

Json::Object DesignRegistry::edit(const EditRequest& request) {
  std::shared_ptr<Handle> handle = acquire(request.design);
  std::unique_lock<std::mutex> lock(handle->mutex);
  if (!handle->design)  // raced a failed open
    throw ProtocolError("unknown design handle '" + request.design + "'");
  bool structural = false;
  int applied = 0;
  std::optional<ProtocolError> failure;
  try {
    for (const DesignEdit& e : request.edits) {
      apply_edit(*handle, e, &structural);
      ++applied;
    }
  } catch (const ProtocolError& e) {
    // Edits before the failing one stay applied (README.md documents
    // the partial-application contract); the index pinpoints the rest.
    failure.emplace("edit " + std::to_string(applied) + ": " + e.what());
  }
  // Point edits leave the footprint estimate where it was.
  const std::size_t bytes = structural ? estimate_bytes(*handle) : 0;
  Json::Object fields;
  fields["design"] = Json(handle->name);
  fields["applied"] = Json(applied);
  fields["structural"] = Json(handle->structural_dirty);
  fields["structural_version"] =
      Json(handle->design->network().structural_version());
  fields["gates"] = Json(handle->design->network().num_gates());
  lock.unlock();  // lock order: registry -> handle only
  std::lock_guard<std::mutex> registry_lock(mutex_);
  if (structural) account_locked(handle, bytes);
  if (failure) throw *failure;
  stats_.edits += static_cast<std::uint64_t>(applied);
  return fields;
}

DesignReoptimizeResult DesignRegistry::reoptimize(
    const ReoptimizeRequest& request, RequestTrace* trace) {
  std::shared_ptr<Handle> handle = acquire(request.design);
  std::unique_lock<std::mutex> lock(handle->mutex);
  if (!handle->design)  // raced a failed open
    throw ProtocolError("unknown design handle '" + request.design + "'");
  Design& design = *handle->design;
  const Network& net = design.network();
  const Library& lib = handle->source->library();
  // The stats bump runs after the handle mutex is released (lock order).
  const auto count = [&](bool full) {
    lock.unlock();
    std::lock_guard<std::mutex> registry_lock(mutex_);
    ++(full ? stats_.reoptimize_full : stats_.reoptimize_incremental);
  };

  DesignReoptimizeResult out;

  if (request.pipelines.empty()) {
    // Evaluate mode: the ECO hot path.  Incremental and auto read the
    // maintained timer and power engine; auto with structural debt first
    // re-arms them over the session design (one compile, one full STA)
    // and answers from them — the same doubles a fresh design gives, as
    // both engines equal a full analysis exactly.  An explicit full is
    // the stateless oracle: it rebuilds a fresh Design from the current
    // network — its own timing graph, STA and power sweep — and re-arms
    // only when the handle has structural debt or was never armed (an
    // armed timer is exact and current otherwise).  Only the activity is
    // carried over: no session edit changes the logic, so the session
    // design's activity equals a fresh simulation bit for bit
    // (Design::insert_buffer).
    if (request.mode == "incremental" && handle->structural_dirty)
      throw ProtocolError(
          "cannot reoptimize '" + handle->name +
          "' incrementally: structural edits require a full recompile "
          "(mode 'full' or 'auto')");
    const bool literal = request.mode == "full";
    const bool full = literal || handle->structural_dirty;

    // Depth-0 spans from consecutive timestamps, so they tile the verb.
    Clock::time_point mark = Clock::now();
    const auto span = [&](const char* name) {
      const Clock::time_point now = Clock::now();
      if (trace) trace->add(name, mark, now);
      mark = now;
    };
    double power = 0.0;
    double arrival = 0.0;
    if (literal) {
      Design fresh =
          make_flow_design(net, lib, handle->base_flow, handle->tspec);
      for (NodeId id = 0; id < static_cast<NodeId>(net.size()); ++id)
        if (net.is_valid(id) && design.level(id) != fresh.level(id))
          fresh.set_level(id, design.level(id));
      fresh.adopt_activity(design.activity());
      power = fresh.run_power().total();
      arrival = fresh.run_timing().worst_arrival;
      span("evaluate");
    }
    if (handle->structural_dirty || !handle->ista) {
      // Re-arm: structural debt paid, or the first evaluation since open.
      arm(*handle);
      handle->structural_dirty = false;
      span("rearm");
    }
    if (!literal) {
      power = handle->power->total();
      arrival = handle->ista->result().worst_arrival;
      span("evaluate");
    }

    out.fields["design"] = Json(handle->name);
    out.fields["mode"] = Json(full ? "full" : "incremental");
    out.fields["structural_version"] = Json(net.structural_version());
    out.fields["tspec_ns"] = Json(handle->tspec);
    out.fields["power_uw"] = Json(power);
    out.fields["arrival_ns"] = Json(arrival);
    out.fields["slack_ns"] = Json(handle->tspec - arrival);
    out.fields["meets_tspec"] = Json(arrival <= handle->tspec + 1e-9);
    out.fields["area_um2"] = Json(design.total_area());
    out.fields["low"] = Json(design.count_low());
    out.fields["level_converters"] = Json(design.count_lcs());
    out.fields["resized"] = Json(design.count_resized());
    out.fields["org_power_uw"] = Json(handle->org_power_uw);
    out.fields["improve_pct"] =
        Json(improvement_pct(handle->org_power_uw, power));
    count(full);
    return out;
  }

  // Pipeline mode: re-run the named flows from scratch on the edited
  // netlist, through the same job machinery and tiered cache path as a
  // stateless optimize of this exact network.
  const Clock::time_point start = Clock::now();
  const std::uint64_t seed = handle->source->seed;
  OptimizeRequest synth;
  synth.options = handle->options;
  synth.pipelines = request.pipelines;
  CacheKey key;
  // Content-addressed, not handle-addressed: the key hashes what the
  // network IS (topology + mapping), not which handle or how many edits
  // produced it, so identical states share cache entries across
  // handles, daemon restarts, and the stateless optimize path
  // (DESIGN.md).  Mapping is rehashed every time — set_cell edits move
  // it without bumping the structural version.
  key.topology = topology_hash(net);
  key.mapping = mapping_fingerprint(net);
  key.library = lib.fingerprint();
  key.options = fnv1a64(canonical_job_json(synth, seed, lib_->supplies()));
  const OptimizeOutcome outcome = execute_cached(
      tiers_, key, request.use_cache, trace, start,
      [&](OptimizeOutcome& computed) {
        Json::Object body = pipeline_body_object(
            net, lib, handle->base_flow, build_job_cells(synth, seed), trace);
        computed.body =
            std::make_shared<const std::string>(Json(std::move(body)).dump());
      });
  out.fields["design"] = Json(handle->name);
  out.fields["mode"] = Json("pipeline");
  out.fields["structural_version"] = Json(net.structural_version());
  out.body = outcome.body;
  out.cache = cache_tier_name(outcome.tier);
  // Pipeline reoptimizes are from-scratch runs; count them as full.
  count(true);
  return out;
}

Json::Object DesignRegistry::sweep(const SweepRequest& request) {
  std::shared_ptr<Handle> handle = acquire(request.design);
  // Snapshot under the handle lock, compute outside it: a long sweep
  // must not block edits (or the GC's try_lock probe) on this design.
  Network snapshot;
  SweepMatrixSpec spec;
  const Library* lib = nullptr;
  std::uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(handle->mutex);
    if (!handle->design)  // raced a failed open
      throw ProtocolError("unknown design handle '" + request.design +
                          "'");
    snapshot = handle->design->network();
    version = snapshot.structural_version();
    spec.base = handle->options.to_flow_options();
    spec.circuit_seed = handle->source->seed;
    lib = &handle->source->library();  // outlives the sweep via the handle
  }
  spec.ladders = request.ladders;
  for (double v : request.vlow)
    spec.ladders.push_back({lib->supplies().top(), v});
  spec.area_budgets = request.area_budgets;
  spec.algos = request.algos;

  const std::function<Network(const Library&)> source =
      [&snapshot](const Library&) { return snapshot; };
  SweepMatrixResult result =
      run_sweep_matrix(source, *lib, spec, pool_);
  {
    std::lock_guard<std::mutex> registry_lock(mutex_);
    ++stats_.sweeps;
    stats_.sweep_cells += static_cast<std::uint64_t>(result.cells.size());
  }
  Json grid = sweep_matrix_json(result);
  Json::Object fields = std::move(grid.as_object());
  fields["design"] = Json(handle->name);
  fields["structural_version"] = Json(version);
  return fields;
}

Json::Object DesignRegistry::close(const CloseDesignRequest& request) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  gc_locked(now);
  auto it = handles_.find(request.design);
  if (it == handles_.end()) throw_gone_locked(request.design);
  std::shared_ptr<Handle> handle = it->second;
  handle->refs -= 1;
  const int refs = handle->refs;
  if (refs == 0) retire_locked(request.design, kClosed);
  Json::Object fields;
  fields["design"] = Json(request.design);
  fields["refs"] = Json(static_cast<std::int64_t>(refs));
  return fields;
}

void DesignRegistry::begin_drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  draining_ = true;
}

void DesignRegistry::close_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(handles_.size());
  for (const auto& [name, handle] : handles_) names.push_back(name);
  for (const std::string& name : names) retire_locked(name, kClosed);
}

std::size_t DesignRegistry::open_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return handles_.size();
}

DesignRegistryStats DesignRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace dvs
